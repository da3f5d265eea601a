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

Every extension of a table from an interval follows the one rule of
:func:`_extend` (inner cells, absorbed arguments, a block, a fill); the
join form, the pinch-point t-norm and the generator's skeletons are each
one call of it.

A t-norm is a uninorm whose neutral is top, a t-conorm one whose neutral
is bottom.  With the neutral at a bound the ``side_inner`` and
``isolated`` blocks are empty and the anchor is never read, so the
pinch-point extension of a t-conorm on [bottom, pivot] is the join form
at threshold ``pivot`` and neutral bottom, and that of a t-norm on
[pivot, top] the meet form at neutral top, for any anchor.
:func:`pinch_tnorm` stays for the t-norms on a sub-interval [lo, hi]
that the generator builds, where no threshold form applies.

The meet form is the order dual (meets, bottom, and the upper interval),
and the code treats it as such: the meet-form construction and the
meet-form hypothesis reports are the join-form code run on the spec
transported to the dual lattice with :func:`dual_spec`, the result read
back in the original order.  A spec's dual is built once and kept both
ways, as a lattice's is, so a meet-form spec goes to join form once
however many checks read it.  Spec validation returns the join form; its
texts name the caller's side.  The inner table's axiom verdict stays with
the join-form table, not with the spec:
:func:`~latnorm.optable.is_uninorm` keeps it on the table, so every spec
on that table, in either form, reads the one verdict.  Only failure names
reach the texts, and an axiom holds on a table exactly when it holds on
the same cells read in the dual lattice, so the texts are the same in both
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
from typing import NamedTuple, Optional

from .lattice import ANCHOR_BLOCK_RULES, BoundedLattice, ElementId, case_regions, ids_of
from .optable import OpTable, _gather, _refuse_ids, in_class_ub, is_uninorm, rewrap


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


class Clause(NamedTuple):
    ok: bool
    witness: Optional[tuple] = None


class HypothesisReport(NamedTuple):
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

    def admits(self, dropped: Optional[str] = None) -> bool:
        """Whether the standing clauses that fail are exactly ``dropped``
        (none, when it is ``None``): the one admission rule of a check."""
        return self.standing_failures() == (() if dropped is None else (dropped,))

    @property
    def standing_ok(self) -> bool:
        return self.admits()


class TheoremProfile(NamedTuple):
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


def anchor_class_mask(
    lat: BoundedLattice, threshold: ElementId, neutral: ElementId, join_class: str
) -> int:
    """The mask of the join-form anchor class ``join_class`` in the frame
    (``neutral`` <= ``threshold``): its :data:`ANCHOR_CLASS_BLOCKS` block of
    the ``case_regions`` of the pair, read off the order masks by
    :data:`~latnorm.lattice.ANCHOR_BLOCK_RULES`, less bottom and neutral,
    which only ``low`` holds.  No regions are derived or kept: a scan over
    every pair of a lattice costs a few integer operations per pair.  The
    classes are disjoint; an anchor in none of them is of class "other"."""
    up, down, drop = lat.up, lat.down, 1 << lat.bottom | 1 << neutral
    block = ANCHOR_BLOCK_RULES[ANCHOR_CLASS_BLOCKS[join_class]]
    return block(up[neutral], down[neutral], up[threshold], down[threshold]) & ~drop


# -- spec validation --------------------------------------------------------


def validate_spec(
    spec: ConstructionSpec, orientation: str, *, check_inner: bool = True
) -> ConstructionSpec:
    """Raise :class:`SpecInvalid` unless ``spec`` is valid; return its join
    form (``spec``, or a meet-form spec transported once by :func:`dual_spec`).
    A threshold, neutral or anchor that is no element is refused first."""
    if orientation not in ("join", "meet"):
        raise ValueError(f"unknown orientation {orientation!r}")
    n = spec.lattice.n
    if not (0 <= spec.threshold < n and 0 <= spec.neutral < n and 0 <= spec.anchor < n):
        _refuse_ids(n, SpecInvalid, ("threshold", (spec.threshold,)),
                    ("neutral", (spec.neutral,)), ("anchor", (spec.anchor,)))
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


def _extend(
    lat: BoundedLattice, carrier, inner: OpTable, inside: int, absorbs: int, fill: ElementId,
    block: int = 0, block_cells: bytes = b"",
) -> OpTable:
    """The table on the sequence ``carrier`` that extends ``inner`` from
    I = ``inside``, the one rule of every extension here.  A cell with both
    arguments in I is ``inner``'s.  Where one argument lies outside I, the
    cell is that argument when the other lies in ``absorbs`` (part of I),
    else the cell of ``block_cells`` on ``block`` x ``block`` (``block``
    lies outside I; its cells are row-major in carrier order), else ``fill``.

    Each row is one gather (one ``bytes.translate``): a column index
    string shared by the rows of its kind, read through the row's values
    (element ids stay below ``MAX_ELEMENTS`` = 64), so no Python runs per
    cell.  The rows, joined, are the table's buffer."""
    pos, size = inner.pos, len(inner.carrier)
    # a row in I reads its inner row, then the carrier ids (x in absorbs) or fills
    inner_pick = bytes([pos[y] if inside >> y & 1 else size + j for j, y in enumerate(carrier)])
    ids, fills = bytes(carrier), bytes([fill]) * len(carrier)
    # a row outside I reads fill, then x on the absorbs columns
    outer_pick = bytes([absorbs >> y & 1 for y in carrier])
    rows = [
        _gather(inner_pick, inner.row(x) + (ids if absorbs >> x & 1 else fills))
        if inside >> x & 1 else _gather(outer_pick, bytes((fill, x)))
        for x in carrier
    ]
    if block:
        # a row in the block reads its block cells on the block columns too
        block_pick = bytearray(outer_pick)
        cols = [j for j, y in enumerate(carrier) if block >> y & 1]
        for i, j in enumerate(cols, 2):
            block_pick[j] = i
        k = len(cols)
        for i, j in enumerate(cols):
            rows[j] = _gather(block_pick, bytes((fill, carrier[j])) + block_cells[i * k:i * k + k])
    return OpTable(lat, carrier, b"".join(rows))


def _join_form(spec: ConstructionSpec) -> OpTable:
    """The join-form construction of a validated spec: :func:`_extend` from
    I = [bottom, threshold], absorbed by ``low``, filled with top, and
    x v y v anchor on the ``isolated`` block (its join read through v anchor)."""
    lat = spec.lattice
    regions = case_regions(lat, spec.neutral, spec.threshold)
    low, iso = regions.low, regions.isolated
    with_anchor = bytes([lat.join(spec.anchor, y) for y in range(lat.n)])
    return _extend(lat, range(lat.n), spec.inner, low | regions.mid | regions.side_inner,
                   low, lat.top, iso, _gather(lat.join_cells(ids_of(iso)), with_anchor))


def construct_eq1(spec: ConstructionSpec, *, check_inner: bool = True) -> OpTable:
    """Join-form construction on the full carrier.  Total for valid specs."""
    return _join_form(validate_spec(spec, "join", check_inner=check_inner))


def construct_eq2(spec: ConstructionSpec, *, check_inner: bool = True) -> OpTable:
    """Meet-form construction: the join form on the dual, read back."""
    return rewrap(_join_form(validate_spec(spec, "meet", check_inner=check_inner)), spec.lattice)


def construct_for(spec: ConstructionSpec, theorem: str) -> OpTable:
    construct = construct_eq1 if theorem_profile(theorem).orientation == "join" else construct_eq2
    return construct(spec)


# -- the pinch-point t-norm on a sub-interval --------------------------------


def pinch_tnorm(
    lat: BoundedLattice, lo: ElementId, hi: ElementId, pivot: ElementId, upper: OpTable
) -> OpTable:
    """Pinch-point t-norm on [lo, hi] around a t-norm ``upper`` on [pivot, hi].

    Cells keep the inner value on [pivot, hi], take meets when ``hi``
    participates, and collapse to ``lo`` otherwise: the :func:`_extend` of
    ``upper`` from [pivot, hi], absorbed by ``hi``, filled with ``lo``.  On
    [bottom, top] it is :func:`construct_eq2` at threshold ``pivot`` and
    neutral top.
    """
    return _extend(lat, lat.interval(lo, hi), upper, lat.interval_mask(pivot, hi), 1 << hi, lo)


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
    return frame._replace(inner_in_ub=in_class_ub(join_spec.inner, spec.neutral))


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
