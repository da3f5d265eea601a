"""Seeded random generation of lattices, uninorms, and construction specs.

The t-conorm cores and the ``join_core`` uninorm family are not written
out: they are the t-norm cores and the ``meet_core`` family built on the
dual lattice and read back, drawing from the generator in the same
order.  Meet-form specs are generated in join form and transported with
:func:`~latnorm.construct.dual_spec`.

Everything here is deterministic: generator state is an explicit
``random.Random`` seeded from the config, there is no hidden global
randomness, and identical configs produce identical objects.  Rejection
sampling of lattices and specs is capped; on exhaustion the error names
the constraint that kept failing, because a silently vacuous property
suite is worse than a loud failure.  Uninorms are not rejection-sampled:
:func:`gen_uninorm` builds a valid skeleton, keeps only mutations that
pass, and never redraws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import islice
from typing import Iterator, Optional

from .construct import (
    MEET_CLASS_NAMES,
    THEOREMS,
    ConstructionSpec,
    anchor_class_masks,
    check_for,
    dual_spec,
    pinch_tnorm,
)
from .lattice import (
    BoundedLattice,
    ElementId,
    LatticeError,
    build_lattice,
    case_regions,
    ids_of,
    mask_of,
)
from .optable import (
    OpTable,
    in_class_ub,
    in_class_umax,
    in_class_umin,
    in_class_ut,
    is_uninorm,
    meet_table,
    rewrap,
    table_from_function,
)

ATTEMPT_CAP = 10_000
COVER_DENSITY = 0.35  # chance that an earlier node becomes a lower cover of a new node

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
        lo, hi = self.size_range
        if not (2 <= lo <= hi <= 12):
            raise ValueError("size_range must satisfy 2 <= min <= max <= 12")
        if self.class_filter is not None and self.class_filter not in _CLASS_CHECKS:
            raise ValueError(f"unknown class filter {self.class_filter!r}")


# -- lattices ---------------------------------------------------------------


def _attempt_lattice(rng: random.Random, cfg: GenConfig) -> Optional[BoundedLattice]:
    n = rng.randint(*cfg.size_range)
    names = tuple(f"x{i}" for i in range(n))
    if n == 2:
        return build_lattice(names, [("x0", "x1")])

    mids = n - 2
    layer_count = rng.randint(1, mids)
    cuts = sorted(rng.sample(range(1, mids), layer_count - 1)) if layer_count > 1 else []
    bounds = [0, *cuts, mids]
    layers = [list(range(1 + bounds[i], 1 + bounds[i + 1])) for i in range(layer_count)]

    covers = []
    lower: list[int] = [0]
    has_upper = set()
    for layer in layers:
        for node in layer:
            parents = [p for p in lower if rng.random() < COVER_DENSITY]
            if not parents:
                parents = [rng.choice(lower)]
            for p in parents:
                covers.append((names[p], names[node]))
                has_upper.add(p)
        lower.extend(layer)
    top = n - 1
    for node in range(n - 1):
        if node not in has_upper:
            covers.append((names[node], names[top]))
    try:
        return build_lattice(names, covers)
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
    and two outside arguments give ``hi``."""
    core = _rand_tnorm(lat, lo, e, rng)
    lo_mask = lat.interval_mask(lo, e)

    def cell(x, y):
        x_in = lo_mask >> x & 1
        y_in = lo_mask >> y & 1
        if x_in and y_in:
            return core.value(x, y)
        if not x_in and y_in:
            return x
        if x_in and not y_in:
            return y
        return hi

    return table_from_function(lat, carrier, cell)


def _mutate(t: OpTable, e: ElementId, rng: random.Random) -> Optional[OpTable]:
    """Try one symmetric cell change that keeps all axioms intact."""
    carrier = t.carrier
    a = rng.choice(carrier)
    b = rng.choice(carrier)
    if e in (a, b):
        return None
    v = rng.choice(carrier)
    if v == t.value(a, b):
        return None
    pos = t.pos
    rows = [list(row) for row in t.values]
    rows[pos[a]][pos[b]] = v
    rows[pos[b]][pos[a]] = v
    mutated = OpTable(lattice=t.lattice, carrier=carrier, values=tuple(tuple(r) for r in rows))
    return mutated if is_uninorm(mutated, e).ok else None


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


def enumerate_uninorms(lat: BoundedLattice, carrier, e: ElementId) -> list[OpTable]:
    """All uninorms on a small carrier, by backtracking over symmetric cells.

    Exponential in the carrier size; intended as the generator oracle for
    carriers of at most four elements.
    """
    carrier = tuple(carrier)
    free = [x for x in carrier if x != e]
    cells = [(a, b) for i, a in enumerate(free) for b in free[i:]]
    pos = {x: i for i, x in enumerate(carrier)}
    n = len(carrier)
    base = [[None] * n for _ in range(n)]
    for x in carrier:
        base[pos[e]][pos[x]] = x
        base[pos[x]][pos[e]] = x

    found = []

    def fill(k: int):
        if k == len(cells):
            values = tuple(tuple(row) for row in base)
            table = OpTable(lattice=lat, carrier=carrier, values=values)
            if is_uninorm(table, e).ok:
                found.append(table)
            return
        a, b = cells[k]
        for v in carrier:
            base[pos[a]][pos[b]] = v
            base[pos[b]][pos[a]] = v
            fill(k + 1)
        base[pos[a]][pos[b]] = None
        base[pos[b]][pos[a]] = None

    fill(0)
    return found


# -- construction specs ------------------------------------------------------


_JOIN_CLASS_NAMES = {meet: join for join, meet in MEET_CLASS_NAMES.items()}


def gen_spec_candidates(
    cfg: GenConfig,
    theorem: str,
    anchor_class: Optional[str] = None,
) -> Iterator[ConstructionSpec]:
    """Endless deterministic stream of valid specs for one theorem.

    Hypotheses are NOT enforced here; callers filter.  For the meet-form
    theorems, candidates are generated in the join form and transported
    across duality.
    """
    profile = THEOREMS[theorem]
    join_class = anchor_class
    if profile.orientation == "meet":
        join_class = _JOIN_CLASS_NAMES.get(anchor_class, anchor_class)
    join_classes = tuple(_JOIN_CLASS_NAMES.get(c, c) for c in profile.anchor_classes)
    rng = random.Random(cfg.seed)
    dry_run = 0
    while True:
        dry_run += 1
        if dry_run > ATTEMPT_CAP:
            raise ExhaustedRejection(
                f"no candidate spec for {theorem}/{anchor_class or 'any class'} "
                f"in {ATTEMPT_CAP} consecutive attempts"
            )
        sub_seed = rng.getrandbits(48)
        try:
            lat = gen_lattice(replace(cfg, seed=sub_seed, class_filter=None))
        except ExhaustedRejection:
            continue
        interior = [x for x in range(lat.n) if x not in (lat.bottom, lat.top)]
        if not interior:
            continue
        threshold = rng.choice(interior)
        below = lat.interval(lat.bottom, threshold)
        neutral = rng.choice(below)
        pick = rng.choice(join_classes) if join_class is None else join_class
        masks = anchor_class_masks(lat, neutral, case_regions(lat, neutral, threshold))
        if pick not in masks:
            raise ValueError(f"unknown anchor class {pick!r}")
        candidates = ids_of(masks[pick])
        if not candidates:
            continue
        anchor = rng.choice(candidates)
        inner = gen_uninorm(
            lat, below, neutral, replace(cfg, seed=rng.getrandbits(48), class_filter="ub")
        )
        spec = ConstructionSpec(
            lattice=lat, threshold=threshold, neutral=neutral, anchor=anchor, inner=inner
        )
        if profile.orientation == "meet":
            spec = dual_spec(spec)
        dry_run = 0
        yield spec


def gen_spec(
    cfg: GenConfig,
    anchor_class: str,
    want_hypotheses: bool,
    theorem: str,
) -> ConstructionSpec:
    """First spec for ``theorem`` whose anchor lies in the requested class.

    Every candidate's anchor is drawn from that class.  With
    ``want_hypotheses`` the theorem's standing clauses must hold as well;
    sampling is capped and the exhaustion error names the clause that
    kept failing.
    """
    candidates = gen_spec_candidates(cfg, theorem, anchor_class=anchor_class)
    if not want_hypotheses:
        return next(candidates)
    for spec in islice(candidates, ATTEMPT_CAP):
        failures = check_for(spec, theorem).standing_failures()
        if not failures:
            return spec
    raise ExhaustedRejection(f"no spec within cap; last failing clause: {failures[0]}")
