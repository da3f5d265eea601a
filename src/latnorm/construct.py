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
:func:`dual_spec`, the result read back in the original order.  A spec's
dual is built once and kept both ways, as a lattice's is, so a meet-form
spec goes to join form once however many checks read it.  Spec validation
returns the join form; its texts name the caller's side.  The inner
table's axiom verdict stays with the join-form table, not with the spec:
:func:`~latnorm.optable.is_uninorm` keeps it on the table, so every spec
on that table, in either form, reads the one verdict.  Only failure names
reach the texts, and an axiom holds on a table exactly when it holds on the
same cells read in the dual lattice, so the texts are the same in both
forms.

A hypothesis report splits along what it reads.  Every clause but
``inner-class`` reads only the frame (lattice, threshold, neutral,
anchor): :func:`frame_report` computes those once per frame and theorem
and keeps them on the join-form lattice, so a generator can reject a frame
before it draws an inner table.  :func:`check_for` adds the inner clause;
it builds a new report on every call and keeps nothing on the spec.

Constructions are total: they evaluate for any valid spec, including ones
that violate the theorem hypotheses, so counterexamples can be
materialized.  The hypothesis checkers are advisory and work off the four
theorem profiles registered in :data:`THEOREMS`; the predictions they
license are exactly the equivalences the verification module fuzzes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .lattice import ANCHOR_BLOCK_RULES, BoundedLattice, ElementId, case_regions, ids_of
from .optable import OpTable, _gather, in_class_ub, is_uninorm, rewrap


class SpecInvalid(Exception):
    pass


class HypothesesNotMet(Exception):
    """The standing clauses of ``report`` are not the ones a check admits:
    ``clause`` is the first that fails other than ``dropped``, or
    ``dropped`` itself when that is the one that holds."""

    def __init__(self, report: HypothesisReport, dropped: Optional[str] = None):
        others = [clause for clause in report.standing_failures() if clause != dropped]
        self.report = report
        self.clause = others[0] if others else dropped
        if others:
            super().__init__(f"standing hypothesis failed: {self.clause}")
        else:
            super().__init__(f"dropped clause holds: {dropped}")


@dataclass(frozen=True)
class ConstructionSpec:
    """Inputs of a threshold construction.

    ``inner`` must be an operation table on [bottom, threshold] (join
    form) or [threshold, top] (meet form) with the given neutral element.
    The anchor may be any lattice element; whether a theorem applies to it
    is the checkers' business, not the construction's.  A spec keeps one
    value, computed on first use: its dual (:func:`dual_spec`); a spec made
    with ``dataclasses.replace`` starts without it.  The inner table's
    verdicts are kept on the table (:attr:`~latnorm.optable.OpTable.kept`).
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
    ``join_pairs_ok`` means the theorem does not state that clause.  Every
    clause but ``inner_in_ub`` reads the frame alone; a ``None``
    ``inner_in_ub`` marks a report of the frame (:func:`frame_report`),
    which has not read the inner table.
    """

    theorem: str
    anchor_class: str
    join_pairs_ok: Optional[Clause]
    join_anchor_ok: Clause
    parallel_condition_ok: Clause
    inner_in_ub: Optional[bool]
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
        if self.inner_in_ub is False:
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


# Anchor-class names across duality, an involution; other names stay.
_DUAL_CLASS_NAMES = {"under_neutral": "over_neutral", "over_neutral": "under_neutral"}


def dual_class(name: str) -> str:
    """The name of anchor class ``name`` on the dual lattice."""
    return _DUAL_CLASS_NAMES.get(name, name)


THEOREMS = {
    "th31": TheoremProfile("th31", "join", ("under_neutral", "beside_neutral"), True),
    "th33": TheoremProfile("th33", "join", ("beside_threshold",), False),
    "th34": TheoremProfile("th34", "meet", ("over_neutral", "beside_neutral"), True),
    "th36": TheoremProfile("th36", "meet", ("beside_threshold",), False),
}


def theorem_profile(theorem: str) -> TheoremProfile:
    """The profile registered for ``theorem``; an unknown id raises ``ValueError``."""
    try:
        return THEOREMS[theorem]
    except KeyError:
        raise ValueError(f"unknown theorem id {theorem!r}") from None


# The case_regions block that holds each join-form anchor class.
ANCHOR_CLASS_BLOCKS = {
    "under_neutral": "low",
    "beside_neutral": "side_inner",
    "beside_threshold": "side_outer",
}


def anchor_class_rule(
    lat: BoundedLattice, join_class: str
) -> Callable[[ElementId, ElementId], int]:
    """The join-form anchor class ``join_class`` of ``lat``, as a function
    (threshold, neutral) -> mask of the carrier: its
    :data:`ANCHOR_CLASS_BLOCKS` block of the ``case_regions`` of the pair,
    read off the order masks by :data:`~latnorm.lattice.ANCHOR_BLOCK_RULES`,
    less bottom and neutral, which only ``low`` holds.  No regions are
    derived or kept, so a scan over every pair of a lattice costs a few
    integer operations per pair.  The classes are disjoint; an anchor in
    none of them is of class ``"other"``."""
    block = ANCHOR_BLOCK_RULES[ANCHOR_CLASS_BLOCKS[join_class]]
    up, down, bottom_bit = lat.up, lat.down, 1 << lat.bottom

    def mask(threshold: ElementId, neutral: ElementId) -> int:
        return block(up[neutral], down[neutral], up[threshold], down[threshold]) & ~(
            bottom_bit | 1 << neutral
        )

    return mask


def anchor_class_mask(
    lat: BoundedLattice, threshold: ElementId, neutral: ElementId, join_class: str
) -> int:
    """The mask of the join-form anchor class ``join_class`` in the frame
    (``neutral`` <= ``threshold``); see :func:`anchor_class_rule`."""
    return anchor_class_rule(lat, join_class)(threshold, neutral)


# -- spec validation --------------------------------------------------------


def validate_spec(
    spec: ConstructionSpec, orientation: str, *, check_inner: bool = True
) -> ConstructionSpec:
    """Raise :class:`SpecInvalid` unless ``spec`` is valid; return its join
    form (``spec``, or a meet-form spec transported once by :func:`dual_spec`)."""
    if orientation not in ("join", "meet"):
        raise ValueError(f"unknown orientation {orientation!r}")
    join_spec = spec if orientation == "join" else dual_spec(spec)
    lat = join_spec.lattice
    if not lat.leq(spec.neutral, spec.threshold):
        side = "below" if orientation == "join" else "above"
        raise SpecInvalid(f"neutral element must lie {side} the threshold")
    if set(spec.inner.carrier) != set(lat.interval(lat.bottom, spec.threshold)):
        raise SpecInvalid("inner table carrier is not the threshold interval")
    if spec.inner.lattice != spec.lattice:
        raise SpecInvalid("inner table belongs to a different lattice")
    if check_inner:
        report = is_uninorm(join_spec.inner, spec.neutral)
        if not report.ok:
            raise SpecInvalid("inner table fails uninorm axioms: " + ", ".join(report.failures()))
    return join_spec


def dual_spec(spec: ConstructionSpec) -> ConstructionSpec:
    """Transport a spec across lattice duality (join form <-> meet form).
    Built once and kept both ways (of racing threads, the first to store it
    wins), so ``dual_spec(dual_spec(spec)) is spec``."""
    dual = spec.__dict__.get("_dual")
    if dual is None:
        lat = spec.lattice.dual()
        built = ConstructionSpec(
            lattice=lat,
            threshold=spec.threshold,
            neutral=spec.neutral,
            anchor=spec.anchor,
            inner=rewrap(spec.inner, lat),
        )
        built.__dict__["_dual"] = spec
        dual = spec.__dict__.setdefault("_dual", built)
    return dual


# -- the two constructions --------------------------------------------------


def _join_form(spec: ConstructionSpec) -> OpTable:
    """The join-form construction of a validated spec, built a row at a
    time from the ``case_regions`` blocks of its frame.  With I = [bottom,
    threshold] = ``low | mid | side_inner``, a row x in I is x's inner row
    on the I columns and, on the others, y when x is in ``low``, else top;
    a row x outside I is x on the ``low`` columns, x v y v anchor on the
    ``isolated`` columns when x is isolated, and top on the rest.  Each row
    is one gather (one ``bytes.translate``): a column index string shared
    by the rows of its kind, read through the row's values (element ids
    stay below ``MAX_ELEMENTS`` = 64), so no Python runs per cell.  The
    rows, joined, are the table's buffer."""
    lat = spec.lattice
    n, top = lat.n, lat.top
    regions = case_regions(lat, spec.neutral, spec.threshold)
    low, iso = regions.low, regions.isolated
    inner_mask = low | regions.mid | regions.side_inner
    inner = spec.inner
    inner_pos = inner.pos
    size = len(inner.carrier)
    iso_ids = ids_of(iso)
    # a row in I reads its inner row, then `ids` (x in low) or `tops`
    inner_pick = bytes([inner_pos[y] if inner_mask >> y & 1 else size + y for y in range(n)])
    ids, tops = bytes(range(n)), bytes([top]) * n
    # a row outside I reads top, x, then its values on the isolated columns
    outer_pick = bytearray(1 if low >> y & 1 else 0 for y in range(n))
    for j, y in enumerate(iso_ids, 2):
        outer_pick[y] = j
    not_isolated = bytes([top]) * len(iso_ids)
    anchor = spec.anchor

    def row(x: ElementId) -> bytes:
        if inner_mask >> x & 1:
            return _gather(inner_pick, inner.row(x) + (ids if low >> x & 1 else tops))
        if iso >> x & 1:
            # (x v y) v anchor = (x v anchor) v y
            values = bytes(lat.joins(lat.join(x, anchor), iso_ids))
        else:
            values = not_isolated
        return _gather(outer_pick, bytes((top, x)) + values)

    return OpTable(lat, range(n), b"".join(map(row, range(n))))


def construct_eq1(spec: ConstructionSpec, *, check_inner: bool = True) -> OpTable:
    """Join-form construction on the full carrier.  Total for valid specs."""
    return _join_form(validate_spec(spec, "join", check_inner=check_inner))


def construct_eq2(spec: ConstructionSpec, *, check_inner: bool = True) -> OpTable:
    """Meet-form construction: the join form on the dual, read back."""
    return rewrap(_join_form(validate_spec(spec, "meet", check_inner=check_inner)), spec.lattice)


def construct_for(spec: ConstructionSpec, theorem: str) -> OpTable:
    construct = construct_eq1 if theorem_profile(theorem).orientation == "join" else construct_eq2
    return construct(spec)


# -- pinch-point constructions (one-interval t-norm / t-conorm extensions) --


def pinch_tnorm(
    lat: BoundedLattice, lo: ElementId, hi: ElementId, pivot: ElementId, upper: OpTable
) -> OpTable:
    """Pinch-point t-norm on [lo, hi] around a t-norm ``upper`` on [pivot, hi].

    Cells keep the inner value on [pivot, hi], take meets when ``hi``
    participates, and collapse to ``lo`` otherwise.  Each row is one gather
    of a column index string, as in :func:`_join_form`.
    """
    carrier = lat.interval(lo, hi)
    upper_mask = lat.interval_mask(pivot, hi)
    size = len(upper.carrier)
    # a row in [pivot, hi] reads its upper row, then the carrier ids or `los`
    upper_pick = bytes([upper.pos[y] if upper_mask >> y & 1 else size + j
                        for j, y in enumerate(carrier)])
    ids, los = bytes(carrier), bytes([lo]) * len(carrier)
    # any other row reads lo, then x on column hi
    outer_pick = bytes([y == hi for y in carrier])

    def row(x: ElementId) -> bytes:
        if upper_mask >> x & 1:
            return _gather(upper_pick, upper.row(x) + (ids if x == hi else los))
        return _gather(outer_pick, bytes((lo, x)))

    return OpTable(lat, carrier, b"".join(map(row, carrier)))


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
    """Hypothesis report of one theorem: the :func:`frame_report` (kept on
    the join-form lattice) plus ``inner-class``.  Meet-form theorems are
    checked in join form on the dual spec."""
    profile = theorem_profile(theorem)
    if spec.threshold in (spec.lattice.bottom, spec.lattice.top):
        raise SpecInvalid("theorem checkers require an interior threshold")
    join_spec = validate_spec(spec, profile.orientation)
    frame = frame_report(join_spec.lattice, spec.threshold, spec.neutral, spec.anchor, theorem)
    return HypothesisReport(
        theorem=frame.theorem,
        anchor_class=frame.anchor_class,
        join_pairs_ok=frame.join_pairs_ok,
        join_anchor_ok=frame.join_anchor_ok,
        parallel_condition_ok=frame.parallel_condition_ok,
        inner_in_ub=in_class_ub(join_spec.inner, spec.neutral),
        nonempty_guard=frame.nonempty_guard,
    )


def frame_report(
    lat: BoundedLattice,
    threshold: ElementId,
    neutral: ElementId,
    anchor: ElementId,
    theorem: str,
) -> HypothesisReport:
    """The clauses of ``theorem`` that read the frame alone (``inner_in_ub``
    is ``None``), the anchor class named as the theorem names it.  The frame
    is in join form: for a meet-form theorem ``lat`` is the dual of the
    spec's lattice.  It must be valid (an interior threshold, the neutral
    below it).  Computed once per frame and theorem and kept on ``lat``."""
    key = ("frame", theorem, threshold, neutral, anchor)
    report = lat.kept.get(key)
    if report is None:
        report = _join_frame(lat, threshold, neutral, anchor, theorem_profile(theorem))
        report = lat.kept.setdefault(key, report)
    return report


def join_anchor_class(
    lat: BoundedLattice, threshold: ElementId, neutral: ElementId, anchor: ElementId
) -> str:
    """The join-form class of ``anchor`` in the frame: the one whose
    :func:`anchor_class_mask` holds it, else ``"other"``."""
    return next((name for name in ANCHOR_CLASS_BLOCKS
                 if anchor_class_mask(lat, threshold, neutral, name) >> anchor & 1), "other")


def _join_frame(
    lat: BoundedLattice,
    threshold: ElementId,
    neutral: ElementId,
    q: ElementId,
    profile: TheoremProfile,
) -> HypothesisReport:
    """Each frame clause's first witness, in id order, read off the frame's
    masks: the anchor classes, the ``case_regions`` blocks and the anchor's
    incomparables.  The anchor class is named as ``profile`` names it."""
    top = lat.top
    join = lat.join
    regions = case_regions(lat, neutral, threshold)
    iso = regions.isolated
    inc_q = lat.incomparables_mask(q)

    pairs: Optional[Clause] = None
    if profile.has_pairs_clause:
        iso_ids = ids_of(iso)
        pairs = _clause((a, b, join(a, b)) for i, a in enumerate(iso_ids)
                        for b in iso_ids[i + 1:] if join(a, b) != top)
    anchor_clause = _clause((a, join(a, q)) for a in ids_of(iso & inc_q) if join(a, q) != top)
    parallel_clause = _clause(
        (a, b)
        for a in ids_of(iso & ~inc_q)
        for b in ids_of(regions.side_inner & ~lat.incomparables_mask(a))
    )
    # some element other than top lies outside [bottom, threshold]
    outside = (regions.side_outer | iso | regions.high) & ~(1 << top)
    anchor_class = join_anchor_class(lat, threshold, neutral, q)
    if profile.orientation == "meet":
        anchor_class = dual_class(anchor_class)

    return HypothesisReport(
        theorem=profile.id,
        anchor_class=anchor_class,
        join_pairs_ok=pairs,
        join_anchor_ok=anchor_clause,
        parallel_condition_ok=parallel_clause,
        inner_in_ub=None,
        nonempty_guard=bool(outside),
    )


def _clause(witnesses) -> Clause:
    """The clause holds when ``witnesses`` is empty; else its first one."""
    witness = next(witnesses, None)
    return Clause(ok=witness is None, witness=witness)
