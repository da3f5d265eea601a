"""Threshold constructions for uninorms and their hypothesis checkers.

Two mirrored constructions extend a uninorm given on a lower interval
[bottom, threshold] (the join form) or an upper interval [threshold, top]
(the meet form) to the whole carrier, steered by a distinguished anchor
element.  The join form fills the cell (x, y) as follows:

  * both arguments in the inner interval        -> inner table value
  * x outside the inner interval, y below the
    neutral element                             -> x   (and symmetrically y)
  * both arguments incomparable to neutral and
    threshold                                   -> x v y v anchor
  * anything else                               -> top

The meet form is the order dual (meets, bottom, and the upper interval),
and the code treats it as such: the meet-form construction, the t-conorm
pinch and the meet-form hypothesis reports are the join-form (t-norm)
code run on the spec transported to the dual lattice with
:func:`dual_spec`, the result read back in the original order.  Spec
validation alone runs in the caller's own orientation, so error texts
name the caller's bounds and the inner table is verified once.

Constructions are total: they evaluate for any valid spec, including ones
that violate the theorem hypotheses, so counterexamples can be
materialized.  The hypothesis checkers are advisory and work off the four
theorem profiles registered in :data:`THEOREMS`; the predictions they
license are exactly the equivalences the verification module fuzzes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from .lattice import BoundedLattice, CaseRegions, ElementId, case_regions, ids_of
from .optable import OpTable, in_class_ub, is_uninorm, rewrap, table_from_function


class SpecInvalid(Exception):
    pass


class HypothesesNotMet(Exception):
    def __init__(self, clause: str):
        super().__init__(f"standing hypothesis failed: {clause}")
        self.clause = clause


@dataclass(frozen=True)
class ConstructionSpec:
    """Inputs of a threshold construction.

    ``inner`` must be an operation table on [bottom, threshold] (join
    form) or [threshold, top] (meet form) with the given neutral element.
    The anchor may be any lattice element; whether a theorem applies to it
    is the checkers' business, not the construction's.
    """

    lattice: BoundedLattice
    threshold: ElementId
    neutral: ElementId
    anchor: ElementId
    inner: OpTable


@dataclass(frozen=True)
class Clause:
    ok: bool
    witness: Optional[tuple] = None


@dataclass(frozen=True)
class HypothesisReport:
    """Per-clause outcome of a theorem's hypothesis battery.

    Field names follow the join-form reading; for the meet-form theorems
    the same slots hold the dual clauses (meets to bottom).  A ``None``
    ``join_pairs_ok`` means the theorem does not state that clause.
    """

    theorem: str
    anchor_class: str
    join_pairs_ok: Optional[Clause]
    join_anchor_ok: Clause
    parallel_condition_ok: Clause
    inner_in_ub: bool
    nonempty_guard: bool

    def standing_failures(self) -> tuple[str, ...]:
        profile = THEOREMS[self.theorem]
        failed = []
        if self.anchor_class not in profile.anchor_classes:
            failed.append("anchor-class")
        if self.join_pairs_ok is not None and not self.join_pairs_ok.ok:
            failed.append(profile.pairs_clause)
        if not self.join_anchor_ok.ok:
            failed.append(profile.anchor_clause)
        if not self.inner_in_ub:
            failed.append("inner-class")
        return tuple(failed)

    @property
    def standing_ok(self) -> bool:
        return not self.standing_failures()


@dataclass(frozen=True)
class TheoremProfile:
    id: str
    orientation: str                 # "join" or "meet"
    anchor_classes: tuple[str, ...]  # classes the theorem covers
    has_pairs_clause: bool

    @property
    def pairs_clause(self) -> str:
        return "join-pairs" if self.orientation == "join" else "meet-pairs"

    @property
    def anchor_clause(self) -> str:
        return "join-anchor" if self.orientation == "join" else "meet-anchor"

    @property
    def droppable_clauses(self) -> tuple[str, ...]:
        if self.has_pairs_clause:
            return (self.pairs_clause, self.anchor_clause)
        return (self.anchor_clause,)


# Anchor classes whose name changes under duality: join-form -> meet-form.
MEET_CLASS_NAMES = {"under_neutral": "over_neutral"}

THEOREMS = {
    "th31": TheoremProfile("th31", "join", ("under_neutral", "beside_neutral"), True),
    "th33": TheoremProfile("th33", "join", ("beside_threshold",), False),
    "th34": TheoremProfile("th34", "meet", ("over_neutral", "beside_neutral"), True),
    "th36": TheoremProfile("th36", "meet", ("beside_threshold",), False),
}


def anchor_class_masks(
    lat: BoundedLattice, neutral: ElementId, regions: CaseRegions
) -> dict[str, int]:
    """The join-form anchor classes as disjoint masks of the carrier.

    ``regions`` is ``case_regions(lat, neutral, threshold)``.  An anchor in
    none of them is of class ``"other"``.
    """
    return {
        "under_neutral": lat.interval_mask(lat.bottom, neutral, lower_open=True, upper_open=True),
        "beside_neutral": regions.side_inner,
        "beside_threshold": regions.side_outer,
    }


# -- spec validation --------------------------------------------------------


def validate_spec(spec: ConstructionSpec, orientation: str, *, check_inner: bool = True) -> None:
    lat = spec.lattice
    if orientation == "join":
        if not lat.leq(spec.neutral, spec.threshold):
            raise SpecInvalid("neutral element must lie below the threshold")
        want = lat.interval(lat.bottom, spec.threshold)
    elif orientation == "meet":
        if not lat.leq(spec.threshold, spec.neutral):
            raise SpecInvalid("neutral element must lie above the threshold")
        want = lat.interval(spec.threshold, lat.top)
    else:
        raise ValueError(f"unknown orientation {orientation!r}")
    if set(spec.inner.carrier) != set(want):
        raise SpecInvalid("inner table carrier is not the threshold interval")
    if spec.inner.lattice != lat:
        raise SpecInvalid("inner table belongs to a different lattice")
    if check_inner:
        report = is_uninorm(spec.inner, spec.neutral)
        if not report.ok:
            raise SpecInvalid(
                "inner table fails uninorm axioms: " + ", ".join(report.failures())
            )


def dual_spec(spec: ConstructionSpec) -> ConstructionSpec:
    """Transport a spec across lattice duality (join form <-> meet form)."""
    dual = spec.lattice.dual()
    return ConstructionSpec(
        lattice=dual,
        threshold=spec.threshold,
        neutral=spec.neutral,
        anchor=spec.anchor,
        inner=rewrap(spec.inner, dual),
    )


# -- the two constructions --------------------------------------------------


def _join_form(spec: ConstructionSpec) -> OpTable:
    """Cells of the join-form construction; the spec is already validated."""
    lat = spec.lattice
    regions = case_regions(lat, spec.neutral, spec.threshold)
    inner_mask = lat.interval_mask(lat.bottom, spec.threshold)
    low_mask = regions.low
    iso = regions.isolated
    inner = spec.inner
    join = lat.join
    anchor = spec.anchor
    top = lat.top

    def cell(x: ElementId, y: ElementId) -> ElementId:
        x_in = inner_mask >> x & 1
        y_in = inner_mask >> y & 1
        if x_in and y_in:
            return inner.value(x, y)
        if not x_in and low_mask >> y & 1:
            return x
        if low_mask >> x & 1 and not y_in:
            return y
        if iso >> x & 1 and iso >> y & 1:
            return join(join(x, y), anchor)
        return top

    return table_from_function(lat, range(lat.n), cell)


def construct_eq1(spec: ConstructionSpec, *, check_inner: bool = True) -> OpTable:
    """Join-form construction on the full carrier.  Total for valid specs."""
    validate_spec(spec, "join", check_inner=check_inner)
    return _join_form(spec)


def construct_eq2(spec: ConstructionSpec, *, check_inner: bool = True) -> OpTable:
    """Meet-form construction: the join form on the dual, read back."""
    validate_spec(spec, "meet", check_inner=check_inner)
    return rewrap(_join_form(dual_spec(spec)), spec.lattice)


def construct_for(spec: ConstructionSpec, theorem: str) -> OpTable:
    construct = construct_eq1 if THEOREMS[theorem].orientation == "join" else construct_eq2
    return construct(spec)


# -- pinch-point constructions (one-interval t-norm / t-conorm extensions) --


def pinch_tnorm(
    lat: BoundedLattice, lo: ElementId, hi: ElementId, pivot: ElementId, upper: OpTable
) -> OpTable:
    """Pinch-point t-norm on [lo, hi] around a t-norm ``upper`` on [pivot, hi].

    Cells keep the inner value on [pivot, hi], take meets when ``hi``
    participates, and collapse to ``lo`` otherwise.
    """
    upper_mask = lat.interval_mask(pivot, hi)
    meet = lat.meet

    def cell(x: ElementId, y: ElementId) -> ElementId:
        if upper_mask >> x & 1 and upper_mask >> y & 1:
            return upper.value(x, y)
        if x == hi or y == hi:
            return meet(x, y)
        return lo

    return table_from_function(lat, lat.interval(lo, hi), cell)


_PINCH_SIDES = {"upper": ("[pivot, top]", "t-norm"), "lower": ("[bottom, pivot]", "t-conorm")}


def _validate_pinch(table: OpTable, want, neutral: ElementId, side: str) -> None:
    interval, kind = _PINCH_SIDES[side]
    if set(table.carrier) != set(want):
        raise SpecInvalid(f"{side} table carrier is not {interval}")
    report = is_uninorm(table, neutral)
    if not report.ok:
        raise SpecInvalid(f"{side} table fails {kind} axioms: " + ", ".join(report.failures()))


def construct_pinched_tnorm(lat: BoundedLattice, pivot: ElementId, upper: OpTable) -> OpTable:
    """Extend a t-norm on [pivot, top] to the carrier (see :func:`pinch_tnorm`)."""
    _validate_pinch(upper, lat.interval(pivot, lat.top), lat.top, "upper")
    return pinch_tnorm(lat, lat.bottom, lat.top, pivot, upper)


def construct_pinched_tconorm(lat: BoundedLattice, pivot: ElementId, lower: OpTable) -> OpTable:
    """Extend a t-conorm on [bottom, pivot] to the carrier: the dual pinch."""
    _validate_pinch(lower, lat.interval(lat.bottom, pivot), lat.bottom, "lower")
    dual = lat.dual()
    return rewrap(pinch_tnorm(dual, dual.bottom, dual.top, pivot, rewrap(lower, dual)), lat)


# -- hypothesis checkers -----------------------------------------------------


def check_for(spec: ConstructionSpec, theorem: str) -> HypothesisReport:
    """Hypothesis report of one theorem; meet-form theorems are checked in
    join form on the dual spec."""
    if theorem not in THEOREMS:
        raise ValueError(f"unknown theorem id {theorem!r}")
    profile = THEOREMS[theorem]
    if spec.threshold in (spec.lattice.bottom, spec.lattice.top):
        raise SpecInvalid("theorem checkers require an interior threshold")
    validate_spec(spec, profile.orientation)
    if profile.orientation == "join":
        return _join_report(spec, profile)
    report = _join_report(dual_spec(spec), profile)
    return replace(
        report, anchor_class=MEET_CLASS_NAMES.get(report.anchor_class, report.anchor_class)
    )


def _join_report(spec: ConstructionSpec, profile: TheoremProfile) -> HypothesisReport:
    lat = spec.lattice
    q = spec.anchor
    regions = case_regions(lat, spec.neutral, spec.threshold)
    top = lat.top
    join = lat.join

    anchor_class = next(
        (name for name, mask in anchor_class_masks(lat, spec.neutral, regions).items()
         if mask >> q & 1),
        "other",
    )

    iso = ids_of(regions.isolated)

    pairs: Optional[Clause] = None
    if profile.has_pairs_clause:
        pairs = Clause(ok=True)
        for i, a in enumerate(iso):
            for b in iso[i + 1:]:
                v = join(a, b)
                if v != top:
                    pairs = Clause(ok=False, witness=(a, b, v))
                    break
            if not pairs.ok:
                break

    anchor_clause = Clause(ok=True)
    for a in iso:
        if lat.parallel(a, q):
            v = join(a, q)
            if v != top:
                anchor_clause = Clause(ok=False, witness=(a, v))
                break

    parallel_clause = Clause(ok=True)
    side_inner = ids_of(regions.side_inner)
    for a in iso:
        if lat.comparable(a, q):
            for b in side_inner:
                if lat.comparable(a, b):
                    parallel_clause = Clause(ok=False, witness=(a, b))
                    break
        if not parallel_clause.ok:
            break

    guard_extra = lat.interval_mask(spec.threshold, top, lower_open=True, upper_open=True)
    guard = bool(regions.side_outer | regions.isolated | guard_extra)

    return HypothesisReport(
        theorem=profile.id,
        anchor_class=anchor_class,
        join_pairs_ok=pairs,
        join_anchor_ok=anchor_clause,
        parallel_condition_ok=parallel_clause,
        inner_in_ub=in_class_ub(spec.inner, spec.neutral),
        nonempty_guard=guard,
    )


def predict_uninorm(spec: ConstructionSpec, theorem: str) -> bool:
    """Truth value of the theorem's iff-condition, under its hypotheses.

    Raises :class:`HypothesesNotMet` when a standing clause fails; by the
    theorem, the returned value equals whether the constructed table is a
    uninorm.
    """
    report = check_for(spec, theorem)
    failures = report.standing_failures()
    if failures:
        raise HypothesesNotMet(failures[0])
    return report.parallel_condition_ok.ok
