"""Exhaustive verification engines.

Two associativity routes are kept deliberately independent: the naive
all-triples scan in :mod:`latnorm.optable` is the ground-truth oracle,
and :func:`assoc_partitioned` re-derives the same verdict from the
partitioned clause battery that the construction proofs use.  Their
agreement on random commutative tables is part of the acceptance suite.

:func:`verify_equivalence`, the one check that the fuzz suite, ``latnorm
theorem`` and :func:`find_counterexample` share, sets a theorem prediction
beside the brute-force axiom verdict on the constructed table.  The search
admits each seeded random candidate on its frame by the check's rule with
a dropped clause, draws the spec of an admitted frame only, and keeps the
first that is predicted a uninorm and observed to fail.  The example
corpus is not searched: no entry isolates a single clause.
"""

from __future__ import annotations

from itertools import combinations, islice
from typing import NamedTuple, Optional

from .construct import (
    ConstructionSpec,
    HypothesesNotMet,
    HypothesisReport,
    check_for,
    construct_for,
    theorem_profile,
)
from .gen import GenConfig, gen_spec_candidates
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


class Partition(NamedTuple):
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

    Clause (iii) has no loop of its own.  On a commutative table its
    triple (a, b, c) compares U(a, U(b, c)) with U(U(a, b), c) through the
    same two intermediates as the (ii) triple (c, b, a), which the (ii)
    loop checks with the same two classes, so a (iii) triple never finds
    a first violation that (ii) has not.
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
    # (ii) two classes, each in turn holding the pair; this covers (iii)
    for ci, cj in combinations(classes, 2):
        for pair_cls, single_cls in ((ci, cj), (cj, ci)):
            for a in pair_cls:
                for b in pair_cls:
                    for c in single_cls:
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


def _check_droppable(theorem: str, drop_clause: Optional[str]) -> None:
    """Raise :class:`UnknownClause` unless ``drop_clause`` is ``None`` or a
    clause that ``theorem`` can drop; an unknown theorem raises ``ValueError``."""
    profile = theorem_profile(theorem)
    if drop_clause is not None and drop_clause not in profile.droppable_clauses:
        raise UnknownClause(
            f"{theorem} has no droppable clause {drop_clause!r}; "
            f"choose from {profile.droppable_clauses}"
        )


class EquivalenceVerdict(NamedTuple):
    predicted: bool
    observed: bool
    counterwitness: Optional[tuple]
    report: AxiomReport
    hypotheses: HypothesisReport

    @property
    def agree(self) -> bool:
        return self.predicted == self.observed


def verify_equivalence(
    spec: ConstructionSpec, theorem: str, drop_clause: Optional[str] = None
) -> EquivalenceVerdict:
    """Theorem prediction vs brute-force axiom verdict for one spec.

    A ``drop_clause`` the theorem cannot drop raises :class:`UnknownClause`.
    Unless the standing clauses hold (all but ``drop_clause``, which must
    fail), raises :class:`HypothesesNotMet` with the report before anything
    is constructed.  The prediction is the parallel condition; the verdict
    carries the report as ``hypotheses``.  The report is built here, once
    (see :func:`~latnorm.construct.check_for`); its frame clauses are the
    ones kept on the join-form lattice, so a spec from
    :func:`~latnorm.gen.gen_spec` has its frame read, not checked again.
    """
    _check_droppable(theorem, drop_clause)
    report = check_for(spec, theorem)
    if not report.admits(drop_clause):
        raise HypothesesNotMet(report, drop_clause)
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
        predicted=report.parallel_condition_ok.ok,
        observed=axioms.ok,
        counterwitness=counter,
        report=axioms,
        hypotheses=report,
    )


class Counterexample(NamedTuple):
    spec: ConstructionSpec
    theorem: str
    dropped_clause: str
    hypothesis_report: HypothesisReport
    axiom_report: AxiomReport
    source: str  # "generated:<seed>:<index>"


def find_counterexample(
    theorem: str,
    drop_clause: Optional[str],
    budget: int = 500,
    seed: int = 0,
    size_range: tuple[int, int] = (5, 9),
) -> Optional[Counterexample]:
    """Search for an instance proving the dropped clause necessary.

    A candidate counts when its frame admits ``drop_clause`` and
    :func:`verify_equivalence` on its drawn spec predicts a uninorm that
    the axioms refute; no other candidate's inner table is drawn.  Tries
    the first ``budget`` seeded random candidates with sizes in
    ``size_range``, so results are deterministic for a given seed and
    range.  Returns ``None`` when the budget is exhausted; with
    ``drop_clause=None`` that is the only possible outcome.  Raises
    :class:`~latnorm.gen.ExhaustedRejection` when the spec stream runs dry,
    as it does on a size range that holds only chains, so a search that
    drew too few specs is never reported as a negative result.
    """
    _check_droppable(theorem, drop_clause)
    cfg = GenConfig(seed=seed, size_range=size_range)
    for i, (frame, draw) in enumerate(islice(gen_spec_candidates(cfg, theorem), budget)):
        if not frame.admits(drop_clause):
            continue
        spec = draw()
        verdict = verify_equivalence(spec, theorem, drop_clause)
        if verdict.predicted and not verdict.observed:
            return Counterexample(spec, theorem, drop_clause or "", verdict.hypotheses,
                                  verdict.report, f"generated:{seed}:{i}")
    return None
