"""Pins the duality-derived code paths to recorded outputs.

The meet-form construction, the meet-form hypothesis reports, the
t-conorm pinch, the ``join_core`` family of :func:`gen_uninorm` and the
``ut``/``umin`` class predicates are all derived from their join-form
twins by transport across lattice duality.  Tests that compare a derived
function with the transport of its twin compare the code with itself, so
this module holds sha256 digests of seeded outputs recorded from the
independent, hand-written versions.  A digest that moves means the
derived path drifted.
"""

import hashlib
import random
from dataclasses import replace

import pytest

from latnorm.construct import (
    SpecInvalid,
    check_for,
    construct_eq2,
    construct_pinched_tconorm,
)
from latnorm.gen import GenConfig, gen_lattice, gen_spec_candidates, gen_uninorm
from latnorm.optable import in_class_umin, in_class_ut

from families import rows_table

DIGESTS = {
    "construct_eq2": "921cd97f12612f5d2b4b288cff3fba76abe4f4b1f88c2e5337fc7ccb9da2b2cc",
    "check_for_meet": "9c4ae817ac4eab566915442c41099f3222dade70e22a75c1ff004f1b7ea5f267",
    "construct_pinched_tconorm": "5a111463a07027bb935e14bd9cd0db88ccab07642d2888a2afd51c0729d11f45",
    "gen_uninorm_ut": "162b5523882516a591076b1e98c4a70288e2679939c660c84e621d07706d69ad",
    "gen_uninorm_umin": "162b5523882516a591076b1e98c4a70288e2679939c660c84e621d07706d69ad",
    "gen_uninorm_any": "db526cdebb786698a0ff5f26ce99c7e169753c91384586451fcfc3d073c5a3de",
    "in_class_ut_umin": "35f73a044f6839d9bf5a04e7130676acf8b34fd336f56441a4a0fd791eea6720",
}


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def _meet_specs():
    """Seeded meet-form specs from both theorems, re-anchored at every element."""
    for theorem, seed in (("th34", 11), ("th36", 12)):
        stream = gen_spec_candidates(GenConfig(seed=seed, size_range=(4, 9)), theorem)
        for _, spec in zip(range(20), stream):
            for anchor in range(spec.lattice.n):
                yield theorem, replace(spec, anchor=anchor)


def _lattices(count=30):
    for seed in range(count):
        yield seed, gen_lattice(GenConfig(seed=seed, size_range=(3, 8)))


def _interval_carriers(lat):
    """The whole carrier plus an upper and a lower interval at an interior pivot."""
    yield tuple(range(lat.n))
    interior = [x for x in range(lat.n) if x not in (lat.bottom, lat.top)]
    if interior:
        pivot = interior[len(interior) // 2]
        yield lat.interval(pivot, lat.top)
        yield lat.interval(lat.bottom, pivot)


def _uninorms(class_filter):
    """gen_uninorm at every neutral of every carrier; ``None`` mixes both families."""
    for seed, lat in _lattices():
        for k, carrier in enumerate(_interval_carriers(lat)):
            for e in carrier:
                cfg = GenConfig(seed=1000 * seed + 10 * k + e, class_filter=class_filter)
                table = gen_uninorm(lat, carrier, e, cfg)
                yield seed, k, e, table.carrier, table.values


def _eq2_tables():
    for theorem, spec in _meet_specs():
        table = construct_eq2(spec)
        yield theorem, spec.anchor, table.carrier, table.values


def _meet_reports():
    for theorem, spec in _meet_specs():
        for which in ("th34", "th36"):
            try:
                yield theorem, which, check_for(spec, which)
            except SpecInvalid as exc:
                yield theorem, which, str(exc)


def _pinched_tconorms():
    for seed, lat in _lattices():
        for pivot in range(lat.n):
            if pivot in (lat.bottom, lat.top):
                continue
            below = lat.interval(lat.bottom, pivot)
            lower = gen_uninorm(lat, below, lat.bottom, GenConfig(seed=seed))
            yield seed, pivot, construct_pinched_tconorm(lat, pivot, lower).values


def _class_verdicts():
    """ut/umin verdicts at every neutral, on uninorms and on raw random tables."""
    rng = random.Random(7)
    for seed, lat in _lattices():
        for carrier in _interval_carriers(lat):
            tables = [gen_uninorm(lat, carrier, e, GenConfig(seed=seed)) for e in carrier[:2]]
            for _ in range(4):
                values = tuple(tuple(rng.choice(carrier) for _ in carrier) for _ in carrier)
                tables.append(rows_table(lat, carrier, values))
            for t in tables:
                for e in carrier:
                    yield seed, e, in_class_ut(t, e), in_class_umin(t, e)


SOURCES = {
    "construct_eq2": _eq2_tables,
    "check_for_meet": _meet_reports,
    "construct_pinched_tconorm": _pinched_tconorms,
    "gen_uninorm_ut": lambda: _uninorms("ut"),
    "gen_uninorm_umin": lambda: _uninorms("umin"),
    "gen_uninorm_any": lambda: _uninorms(None),
    "in_class_ut_umin": _class_verdicts,
}


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_derived_path_matches_recorded_digest(name):
    assert _digest(SOURCES[name]()) == DIGESTS[name]
