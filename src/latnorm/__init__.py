"""Finite bounded lattices, threshold uninorm constructions, exhaustive checks."""

from .construct import (
    THEOREMS,
    Clause,
    ConstructionSpec,
    HypothesesNotMet,
    HypothesisReport,
    SpecInvalid,
    check_for,
    construct_eq1,
    construct_eq2,
    construct_pinched_tconorm,
    construct_pinched_tnorm,
    dual_spec,
)
from .lattice import (
    BoundedLattice,
    LatticeError,
    NotALattice,
    NotAPoset,
    NotBounded,
    build_lattice,
    case_regions,
)
from .optable import (
    AxiomReport,
    NeutralOutsideCarrier,
    OpTable,
    SubNotContained,
    in_class_ub,
    in_class_umax,
    in_class_umin,
    in_class_ut,
    is_uninorm,
    restrict,
)
from .gen import ExhaustedRejection, GenConfig, gen_lattice, gen_spec, gen_uninorm
from .verify import (
    EquivalenceVerdict,
    NotCommutative,
    Partition,
    UnknownClause,
    assoc_partitioned,
    find_counterexample,
    verify_equivalence,
)

__all__ = [name for name in dir() if not name.startswith("_")]
