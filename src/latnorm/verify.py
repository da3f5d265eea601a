"""Exhaustive verification engines.

Two associativity routes are kept deliberately independent: the naive
all-triples scan in :mod:`latnorm.optable` is the ground-truth oracle,
and :func:`assoc_partitioned` re-derives the same verdict from the
partitioned clause battery that the construction proofs use.  Their
agreement on random commutative tables is part of the acceptance suite.

:func:`verify_equivalence` runs a theorem prediction side by side with
the brute-force axiom verdict on the constructed table; the two must
agree whenever the standing hypotheses hold.  :func:`find_counterexample`
searches seeded random specs for an instance where dropping a single
hypothesis clause breaks the construction.  The example corpus is not
searched: no entry isolates a single clause.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Optional

from .construct import (
    THEOREMS,
    ConstructionSpec,
    SpecInvalid,
    check_for,
    construct_for,
    predict_uninorm,
)
from .gen import ExhaustedRejection, GenConfig, gen_spec_candidates
from .optable import (
    AxiomReport,
    OpTable,
    first_commutativity_witness,
    is_uninorm,
)


class NotCommutative(Exception):
    def __init__(self, witness):
        super().__init__(f"table is not commutative at {witness[:2]}")
        self.witness = witness


class UnknownClause(Exception):
    pass


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty classes covering a carrier."""

    classes: tuple[frozenset, ...]

    def validate(self, carrier) -> None:
        carrier = set(carrier)
        seen: set = set()
        for cls in self.classes:
            if not cls:
                raise ValueError("partition has an empty class")
            if cls & seen:
                raise ValueError("partition classes overlap")
            seen |= cls
        if seen != carrier:
            raise ValueError("partition does not cover the carrier")


def assoc_partitioned(t: OpTable, partition: Partition):
    """Associativity via the partitioned clause battery.

    Requires a commutative table (precondition of the underlying
    equivalence); raises :class:`NotCommutative` otherwise.  Returns
    ``None`` on pass or the first violating triple ``(a, b, c, left,
    right)`` in clause order.  The clauses:

      (i)   one element from each of three distinct classes, both
            bracketings plus the swapped-middle form;
      (ii)  two from one class, one from another;
      (iii) one from one class, two from another;
      (iv)  all three from a single class.
    """
    partition.validate(t.carrier)
    comm = first_commutativity_witness(t)
    if comm is not None:
        raise NotCommutative(comm)

    classes = [tuple(sorted(cls)) for cls in partition.classes]
    val = t.value
    in_carrier = set(t.carrier)

    def defined(x):
        return x in in_carrier

    def bracket_pair(a, b, c):
        # U(a, U(b,c)) vs U(U(a,b), c); skip when intermediates escape the
        # carrier (closure failures are not associativity's business).
        bc = val(b, c)
        ab = val(a, b)
        if not (defined(bc) and defined(ab)):
            return None
        left = val(a, bc)
        right = val(ab, c)
        if left != right:
            return (a, b, c, left, right)
        return None

    # (i) three distinct classes
    for ci, cj, ck in combinations(classes, 3):
        for a in ci:
            for b in cj:
                for c in ck:
                    hit = bracket_pair(a, b, c)
                    if hit:
                        return hit
                    bc = val(b, c)
                    ac = val(a, c)
                    if defined(bc) and defined(ac):
                        if val(a, bc) != val(b, ac):
                            return (a, b, c, val(a, bc), val(b, ac))
    # (ii)/(iii) two classes
    for ci, cj in combinations(classes, 2):
        for pair_cls, single_cls in ((ci, cj), (cj, ci)):
            for a in pair_cls:
                for b in pair_cls:
                    for c in single_cls:
                        hit = bracket_pair(a, b, c)
                        if hit:
                            return hit
            for a in single_cls:
                for b in pair_cls:
                    for c in pair_cls:
                        hit = bracket_pair(a, b, c)
                        if hit:
                            return hit
    # (iv) within one class
    for ci in classes:
        for a in ci:
            for b in ci:
                for c in ci:
                    hit = bracket_pair(a, b, c)
                    if hit:
                        return hit
    return None


@dataclass(frozen=True)
class EquivalenceVerdict:
    predicted: bool
    observed: bool
    counterwitness: Optional[tuple]
    report: AxiomReport

    @property
    def agree(self) -> bool:
        return self.predicted == self.observed


def verify_equivalence(spec: ConstructionSpec, theorem: str) -> EquivalenceVerdict:
    """Theorem prediction vs brute-force axiom verdict for one spec.

    Raises :class:`HypothesesNotMet` when the standing hypotheses fail,
    exactly as the prediction itself does.
    """
    predicted = predict_uninorm(spec, theorem)
    table = construct_for(spec, theorem)
    axioms = is_uninorm(table, spec.neutral)
    counter = None
    if not axioms.ok:
        for axiom in ("monotone", "associative", "commutative", "neutral", "closed"):
            value = getattr(axioms, axiom)
            if value is not None:
                counter = (axiom, value)
                break
    return EquivalenceVerdict(
        predicted=predicted,
        observed=axioms.ok,
        counterwitness=counter,
        report=axioms,
    )


@dataclass(frozen=True)
class Counterexample:
    spec: ConstructionSpec
    theorem: str
    dropped_clause: str
    hypothesis_report: object
    axiom_report: AxiomReport
    source: str  # "generated:<seed>:<index>"


def _qualifies(
    spec: ConstructionSpec, theorem: str, dropped: Optional[str]
) -> Optional[Counterexample]:
    """A counterexample isolates one clause: every other standing clause
    holds, the parallel condition holds, the dropped clause fails, and the
    constructed table fails an axiom.  With no dropped clause every clause
    must hold, so the theorem guarantees nothing qualifies."""
    try:
        report = check_for(spec, theorem)
    except SpecInvalid:
        return None
    failures = set(report.standing_failures())
    if failures != ({dropped} if dropped is not None else set()):
        return None
    if not report.parallel_condition_ok.ok:
        return None
    table = construct_for(spec, theorem)
    axioms = is_uninorm(table, spec.neutral)
    if axioms.ok:
        return None
    return Counterexample(
        spec=spec,
        theorem=theorem,
        dropped_clause=dropped or "",
        hypothesis_report=report,
        axiom_report=axioms,
        source="",
    )


def find_counterexample(
    theorem: str,
    drop_clause: Optional[str],
    budget: int = 500,
    seed: int = 0,
) -> Optional[Counterexample]:
    """Search for an instance proving the dropped clause necessary.

    Tries the first ``budget`` seeded random specs of sizes 5..9, so
    results are deterministic for a given seed.  Returns ``None`` when the
    budget is exhausted; with ``drop_clause=None`` that is the only
    possible outcome.
    """
    profile = THEOREMS[theorem]
    if drop_clause is not None and drop_clause not in profile.droppable_clauses:
        raise UnknownClause(
            f"{theorem} has no droppable clause {drop_clause!r}; "
            f"choose from {profile.droppable_clauses}"
        )

    cfg = GenConfig(seed=seed, size_range=(5, 9))
    try:
        for i, spec in enumerate(gen_spec_candidates(cfg, theorem)):
            if i >= budget:
                break
            hit = _qualifies(spec, theorem, drop_clause)
            if hit is not None:
                return replace(hit, source=f"generated:{seed}:{i}")
    except ExhaustedRejection:
        pass
    return None
