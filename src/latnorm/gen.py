"""Seeded random generation of lattices, uninorms, and construction specs.

The t-conorm cores and the ``join_core`` uninorm family are not written
out: they are the t-norm cores and the ``meet_core`` family built on the
dual lattice and read back, drawing from the generator in the same
order.  Meet-form specs are generated in join form and transported with
:func:`~latnorm.construct.dual_spec`, which keeps the join-form spec as
the dual, so checking the spec later transports nothing again.

Everything here is deterministic: generator state is an explicit
``random.Random`` seeded from the config, there is no hidden global
randomness, and identical configs produce identical objects.  Rejection
sampling is capped; on exhaustion the error names the constraint that
kept failing, because a silently vacuous property suite is worse than a
loud failure.  Two draws are still rejection-sampled: a lattice (random
covers until every pair has a unique join and meet), and a lattice for a
spec, which is redrawn when it hosts the anchor class in no (threshold,
neutral) pair.  That scan reads each pair's class mask off the lattice's
order masks, a few integer operations per pair, and derives and keeps no
regions, so a lattice thrown away costs its draw and the scan alone.  A
spec stream given an anchor class picks its pair only among the hosting
ones; the class-free stream of the clause-drop search draws the pair
first and redraws on an empty class (see :func:`gen_spec_candidates`).
Uninorms are not rejection-sampled: :func:`gen_uninorm` builds a valid
skeleton, keeps only mutations that pass, and never redraws.  Skeletons
and their t-norm cores are built a row at a time, one ``bytes.translate``
per row.  A mutation whose two cells drop against the rest of their
columns fails monotonicity, so it is refused before the battery (75 of
the 87 proposals that reached it over seeds 0..149, sizes 3..8).  A spec
stream validates its config once and hands each draw its seed in a
``_Draw``, building no ``GenConfig`` per draw.

A lattice is drawn as id masks: one mask of upper covers per element,
with the names ``x0``, ``x1``, ... fixed by the size.  Most draws repeat
an earlier one, so the lattice is interned: a bounded table
(``INTERNED_LATTICES`` = 64 entries, least recently drawn dropped first)
maps the masks to the lattice validated from them, or to ``None`` for a
draw that is no lattice.  Every draw of the same masks then shares one
lattice, with its covers, its dual and the frame reports kept on it; no
check is skipped, since the same pure function of the same masks is not
computed again.  The table serves 43.7% of the lattice draws of 1,250
``fuzz-equiv`` ops, and about a third of those of the class-free
clause-drop stream.

:func:`gen_spec` wanting the hypotheses checks each candidate's frame
(lattice, threshold, neutral, anchor) before it draws the inner table, and
draws no table for a frame that fails; the inner seed is drawn either way,
so each seed yields the spec it would if every table were drawn.  The frame
decides: the inner table is always in ``ub``, so the ``inner-class`` clause
holds for every spec drawn.  The frame report stays on the lattice; the
spec keeps no report.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import Iterator, NamedTuple, Optional

from .construct import (
    ConstructionSpec,
    anchor_class_mask,
    anchor_class_rule,
    dual_class,
    dual_spec,
    frame_report,
    pinch_tnorm,
    theorem_profile,
)
from .lattice import (
    BoundedLattice,
    ElementId,
    LatticeError,
    ids_of,
    lattice_from_edges,
    mask_of,
)
from .optable import (
    OpTable,
    _gather,
    in_class_ub,
    in_class_umax,
    in_class_umin,
    in_class_ut,
    is_uninorm,
    meet_table,
    rewrap,
)

ATTEMPT_CAP = 10_000
# Distinct generated lattices kept, least recently drawn dropped first.  Over
# the 3,712 lattice draws of 1,250 fuzz-equiv ops (instance seeds 8,000,000
# on, sizes 4..9), 64 entries hit 43.7% of draws and hold about 150 KB
# (tracemalloc, the same after 20,000 ops); 16 entries hit 28.2%, 256 hit
# 51.8%, and an unbounded table (1,578 entries) 57.5%.
INTERNED_LATTICES = 64
COVER_DENSITY = 0.35  # chance that an earlier node becomes a lower cover of a new node
_NAMES = tuple(tuple(f"x{i}" for i in range(n)) for n in range(13))  # by size, up to 12

_CLASS_CHECKS = {
    "ub": in_class_ub,
    "ut": in_class_ut,
    "umin": in_class_umin,
    "umax": in_class_umax,
}


class ExhaustedRejection(Exception):
    def __init__(self, constraint: str):
        super().__init__(f"rejection sampling exhausted: {constraint}")
        self.constraint = constraint


@dataclass(frozen=True)
class GenConfig:
    seed: int
    size_range: tuple[int, int] = (4, 9)
    class_filter: Optional[str] = None

    def __post_init__(self):
        if self.seed < 0:
            # random.Random seeds from abs(seed): seed -3 would draw seed 3
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        lo, hi = self.size_range
        if not (2 <= lo <= hi <= 12):
            raise ValueError("size_range must satisfy 2 <= min <= max <= 12")
        if self.class_filter is not None and self.class_filter not in _CLASS_CHECKS:
            raise ValueError(f"unknown class filter {self.class_filter!r}")


class _Draw(NamedTuple):
    """What :func:`gen_lattice` and :func:`gen_uninorm` read of a
    :class:`GenConfig`, for a spec stream's draws: a seed from
    ``getrandbits`` and a known class filter need no validation."""

    seed: int
    size_range: tuple[int, int]
    class_filter: Optional[str] = None


# -- lattices ---------------------------------------------------------------


def _attempt_lattice(rng: random.Random, cfg: GenConfig) -> Optional[BoundedLattice]:
    n = rng.randint(*cfg.size_range)
    succ = [0] * n  # succ[i]: mask of the nodes drawn as upper covers of i
    if n > 2:
        mids = n - 2
        layer_count = rng.randint(1, mids)
        cuts = sorted(rng.sample(range(1, mids), layer_count - 1)) if layer_count > 1 else []
        bounds = [0, *cuts, mids]
        for i in range(layer_count):
            lower = range(1 + bounds[i])  # bottom and the layers below this one
            for node in range(1 + bounds[i], 1 + bounds[i + 1]):
                bit = 1 << node
                covered = False
                for p in lower:
                    if rng.random() < COVER_DENSITY:
                        succ[p] |= bit
                        covered = True
                if not covered:
                    succ[rng.choice(lower)] |= bit
    top = n - 1
    for node in range(top):
        if not succ[node]:
            succ[node] = 1 << top
    return _interned_lattice(tuple(succ))


@lru_cache(maxsize=INTERNED_LATTICES)
def _interned_lattice(succ: tuple[int, ...]) -> Optional[BoundedLattice]:
    """The lattice on ``_NAMES[len(succ)]`` with edges ``succ``, or ``None``
    when they give no lattice.  Validated once per distinct ``succ`` while
    it stays in the table, so every draw of the same edges shares one
    lattice, with its dual and the frame reports kept on it."""
    try:
        return lattice_from_edges(_NAMES[len(succ)], succ)
    except LatticeError:
        return None


def gen_lattice(cfg: GenConfig) -> BoundedLattice:
    """Random bounded lattice: layered acyclic covers, rejection-sampled
    until every pair has a unique join and meet."""
    rng = random.Random(cfg.seed)
    for _ in range(ATTEMPT_CAP):
        lat = _attempt_lattice(rng, cfg)
        if lat is not None:
            return lat
    raise ExhaustedRejection("random covers kept failing the unique join/meet check")


# -- inner operators --------------------------------------------------------


def _rand_tnorm(lat: BoundedLattice, lo: ElementId, hi: ElementId, rng: random.Random) -> OpTable:
    """Random t-norm on the interval [lo, hi] (neutral hi).

    Recursively stacks the pinch-point extension over a random interior
    pivot on top of two base cases: the meet, and the drastic t-norm,
    which is the pinch at ``hi`` itself.
    """
    carrier = lat.interval(lo, hi)
    if len(carrier) <= 2:
        return meet_table(lat, carrier)
    roll = rng.random()
    if roll < 0.34:
        return meet_table(lat, carrier)
    if roll < 0.67:
        return pinch_tnorm(lat, lo, hi, hi, meet_table(lat, (hi,)))
    interior = [x for x in carrier if x not in (lo, hi)]
    pivot = rng.choice(interior)
    return pinch_tnorm(lat, lo, hi, pivot, _rand_tnorm(lat, pivot, hi, rng))


def _meet_core_uninorm(
    lat: BoundedLattice, carrier, e: ElementId, lo: ElementId, hi: ElementId, rng: random.Random
) -> OpTable:
    """A random t-norm core on [lo, e]; outside it the other argument wins,
    and two outside arguments give ``hi``.  One gather of a column index
    string per row, as in :func:`~latnorm.construct.pinch_tnorm`."""
    core = _rand_tnorm(lat, lo, e, rng)
    core_mask = lat.interval_mask(lo, e)
    size = len(core.carrier)
    # a core row reads its core row, then the carrier ids
    core_pick = bytes([core.pos[y] if core_mask >> y & 1 else size + j
                       for j, y in enumerate(carrier)])
    ids = bytes(carrier)
    # any other row reads x, then hi
    outer_pick = bytes([not core_mask >> y & 1 for y in carrier])

    def row(x: ElementId) -> bytes:
        if core_mask >> x & 1:
            return _gather(core_pick, core.row(x) + ids)
        return _gather(outer_pick, bytes((x, hi)))

    return OpTable(lat, carrier, b"".join(map(row, carrier)))


def _mutate(t: OpTable, e: ElementId, rng: random.Random) -> Optional[OpTable]:
    """Try one symmetric cell change that keeps all axioms intact.  A
    :func:`_column_drop` at either changed cell is a monotonicity witness,
    so the battery runs only on the proposals without one."""
    carrier = t.carrier
    a = rng.choice(carrier)
    b = rng.choice(carrier)
    if e in (a, b):
        return None
    v = rng.choice(carrier)
    if v == t.value(a, b):
        return None
    pos, k = t.pos, len(carrier)
    cells = bytearray(t.buf)
    cells[pos[a] * k + pos[b]] = cells[pos[b] * k + pos[a]] = v
    lat = t.lattice
    if (_column_drop(lat, carrier, cells[pos[b]::k], a, v)
            or _column_drop(lat, carrier, cells[pos[a]::k], b, v)):
        return None
    mutated = OpTable(lat, carrier, cells, pos)
    return mutated if is_uninorm(mutated, e).ok else None


def _column_drop(lat: BoundedLattice, carrier, column, a: ElementId, v: ElementId) -> bool:
    """Whether the first argument falls somewhere in a column whose row
    ``a`` holds ``v``: some x <= a with U(x, .) not <= v, or some x >= a
    with v not <= U(x, .)."""
    up, down = lat.up, lat.down
    below, above, under_v, over_v = down[a], up[a], down[v], up[v]
    return any(
        below >> x & 1 and not under_v >> u & 1 or above >> x & 1 and not over_v >> u & 1
        for x, u in zip(carrier, column)
    )


def gen_uninorm(lat: BoundedLattice, carrier, e: ElementId, cfg: GenConfig) -> OpTable:
    """Random verified uninorm on an interval carrier with neutral ``e``.

    Builds one of two always-valid skeletons (a t-norm core below the
    neutral with the outside collapsed to the carrier top, or its dual),
    then tries up to two symmetric cell mutations, each kept only if the
    table stays a uninorm in the class.  ``cfg.class_filter`` narrows the
    output class.  There is no redraw: a final check that fails is a
    generator bug and raises ``AssertionError``.
    """
    carrier = tuple(carrier)
    if e not in carrier:
        raise ValueError("neutral element must belong to the carrier")
    bounds = lat.extremes(mask_of(carrier))
    if bounds is None:
        raise ValueError("carrier is not an interval")
    lo, hi = bounds
    rng = random.Random(cfg.seed)
    cf = cfg.class_filter
    if cf in ("ub", "umax"):
        family = "meet_core"
    elif cf in ("ut", "umin"):
        family = "join_core"
    else:
        family = rng.choice(("meet_core", "join_core"))
    if family == "meet_core":
        table = _meet_core_uninorm(lat, carrier, e, lo, hi, rng)
    else:
        table = rewrap(_meet_core_uninorm(lat.dual(), carrier, e, hi, lo, rng), lat)
    for _ in range(rng.randint(0, 2)):
        mutated = _mutate(table, e, rng)
        if mutated is not None and (cf is None or _CLASS_CHECKS[cf](mutated, e)):
            table = mutated
    if not is_uninorm(table, e).ok:
        raise AssertionError(f"generated {family} table fails the uninorm axioms")
    if cf is not None and not _CLASS_CHECKS[cf](table, e):
        raise AssertionError(f"generated {family} table is not in class {cf!r}")
    return table


# -- construction specs ------------------------------------------------------


def _hosting_pairs(lat: BoundedLattice, join_class: str) -> list[tuple[ElementId, ElementId, int]]:
    """(threshold, neutral, class mask) for each pair, interior threshold
    and neutral below it, whose ``join_class`` mask is non-empty;
    thresholds ascending, then neutrals ascending.  Each mask is read off
    the order masks by :func:`~latnorm.construct.anchor_class_rule`, a few
    integer operations per pair, so a lattice the stream throws away keeps
    nothing."""
    class_mask = anchor_class_rule(lat, join_class)
    hosts = []
    for threshold in range(lat.n):
        if threshold == lat.bottom or threshold == lat.top:
            continue
        below = lat.down[threshold]
        while below:
            low = below & -below
            neutral = low.bit_length() - 1
            if mask := class_mask(threshold, neutral):
                hosts.append((threshold, neutral, mask))
            below ^= low
    return hosts


def gen_spec_candidates(
    cfg: GenConfig,
    theorem: str,
    anchor_class: Optional[str] = None,
    *,
    _frames_first: bool = False,
) -> Iterator:
    """Endless deterministic stream of valid specs for one theorem.

    Hypotheses are NOT enforced here; callers filter.  For the meet-form
    theorems, candidates are generated in the join form and transported
    across duality.

    With ``anchor_class`` the draw is directed: each lattice is scanned
    for the (threshold, neutral) pairs that host the class, one of them is
    chosen uniformly, and the lattice is redrawn only when none does.  The
    draws are, in order: sub-seed, lattice, hosting pair, anchor, inner
    seed.  Without it (the clause-drop search) the stream stays undirected:
    threshold, neutral and then the class are drawn uniformly, and a
    lattice is redrawn when the class drawn is empty for that pair.  That
    weights each lattice by how much of it hosts each class, and the
    necessity search relies on that weighting: a directed class-free
    stream found no ``join-pairs`` or ``meet-pairs`` counterexample in 500
    candidates at seed 0, where this one finds one at candidate 145.

    An ``anchor_class`` that is not one of the theorem's classes raises
    ``ValueError`` naming them, on the first ``next``, before any draw.

    ``_frames_first`` is :func:`gen_spec`'s: each candidate is then a pair
    (its :func:`~latnorm.construct.frame_report`, the spec), and a frame
    that fails a standing clause comes with ``None`` for a spec, its inner
    table not drawn.
    """
    profile = theorem_profile(theorem)
    if anchor_class not in (None, *profile.anchor_classes):
        classes = ", ".join(profile.anchor_classes)
        raise ValueError(f"{theorem} has no anchor class {anchor_class!r}; its classes: {classes}")
    join_class = anchor_class
    join_classes = profile.anchor_classes
    if profile.orientation == "meet":
        join_class = None if anchor_class is None else dual_class(anchor_class)
        join_classes = tuple(map(dual_class, join_classes))
    rng = random.Random(cfg.seed)
    size_range = cfg.size_range
    dry_run = 0
    while True:
        dry_run += 1
        if dry_run > ATTEMPT_CAP:
            raise ExhaustedRejection(
                f"no candidate spec for {theorem}/{anchor_class or 'any class'} "
                f"in {ATTEMPT_CAP} consecutive attempts"
            )
        sub_seed = rng.getrandbits(48)
        lat = gen_lattice(_Draw(sub_seed, size_range))
        if join_class is not None:
            hosts = _hosting_pairs(lat, join_class)
            if not hosts:
                continue
            threshold, neutral, mask = rng.choice(hosts)
        else:
            interior = [x for x in range(lat.n) if x not in (lat.bottom, lat.top)]
            if not interior:
                continue
            threshold = rng.choice(interior)
            neutral = rng.choice(lat.interval(lat.bottom, threshold))
            mask = anchor_class_mask(lat, threshold, neutral, rng.choice(join_classes))
        candidates = ids_of(mask)
        if not candidates:
            continue
        anchor = rng.choice(candidates)
        inner_seed = rng.getrandbits(48)
        dry_run = 0
        if _frames_first:
            frame = frame_report(lat, threshold, neutral, anchor, theorem)
            if frame.standing_failures():
                yield frame, None
                continue
        below = lat.interval(lat.bottom, threshold)
        inner = gen_uninorm(lat, below, neutral, _Draw(inner_seed, size_range, "ub"))
        spec = ConstructionSpec(
            lattice=lat, threshold=threshold, neutral=neutral, anchor=anchor, inner=inner
        )
        if profile.orientation == "meet":
            spec = dual_spec(spec)
        yield (frame, spec) if _frames_first else spec


def gen_spec(
    cfg: GenConfig,
    anchor_class: str,
    want_hypotheses: bool,
    theorem: str,
) -> ConstructionSpec:
    """First spec for ``theorem`` whose anchor lies in the requested class.

    Every candidate's anchor is drawn from that class.  With
    ``want_hypotheses`` the theorem's standing clauses must hold as well:
    the spec returned is the first drawn, a spec being drawn only for a
    frame that passes (see :func:`gen_spec_candidates`).  Sampling is
    capped at ``ATTEMPT_CAP`` candidates and the exhaustion error names
    the first failing clause of the last frame.
    """
    if not want_hypotheses:
        return next(gen_spec_candidates(cfg, theorem, anchor_class=anchor_class))
    candidates = gen_spec_candidates(cfg, theorem, anchor_class=anchor_class, _frames_first=True)
    for frame, spec in islice(candidates, ATTEMPT_CAP):
        if spec is not None:
            return spec
    raise ExhaustedRejection(
        f"no spec within cap; last failing clause: {frame.standing_failures()[0]}"
    )
