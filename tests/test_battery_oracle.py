"""Differential tests of the associativity and monotonicity scans.

``first_associativity_witness`` compares whole rows and
``first_monotonicity_witness`` localizes the failing element with bit
masks.  Both must return exactly what the per-cell loops they replaced
returned, ``None`` included.  Those loops are kept here as the reference
and run on seeded tables: generated lattices of 2..10 elements with the
carrier in id order, shuffled, or a proper sub-carrier that is not an
interval; meet and join tables, random cells (some outside the carrier) and
tables with one mutated cell; and the 64-element chain and Boolean lattice.
"""

import random

import pytest

from latnorm.gen import GenConfig, gen_lattice
from latnorm.lattice import build_lattice, mask_of
from latnorm.optable import (
    OpTable,
    first_associativity_witness,
    first_monotonicity_witness,
    meet_table,
)


def reference_associativity(t):
    carrier = t.carrier
    pos = t.pos
    values = t.values
    in_carrier = set(carrier)
    for a in carrier:
        row_a = values[pos[a]]
        for b in carrier:
            ab = row_a[pos[b]]
            if ab not in in_carrier:
                continue
            row_ab = values[pos[ab]]
            row_b = values[pos[b]]
            for c in carrier:
                bc = row_b[pos[c]]
                if bc not in in_carrier:
                    continue
                left = row_ab[pos[c]]
                right = row_a[pos[bc]]
                if left != right:
                    return (a, b, c, left, right)
    return None


def reference_monotonicity(t, both_sides):
    lat = t.lattice
    carrier = t.carrier
    for a in carrier:
        for b in carrier:
            if a == b or not lat.leq(a, b):
                continue
            for c in carrier:
                ua = t.value(a, c)
                ub = t.value(b, c)
                if not lat.leq(ua, ub):
                    return (a, b, c, ua, ub, "left")
                if both_sides:
                    va = t.value(c, a)
                    vb = t.value(c, b)
                    if not lat.leq(va, vb):
                        return (a, b, c, va, vb, "right")
    return None


def assert_same_witnesses(t):
    assert first_associativity_witness(t) == reference_associativity(t)
    for both_sides in (False, True):
        got = first_monotonicity_witness(t, both_sides=both_sides)
        assert got == reference_monotonicity(t, both_sides)


def _carrier(lat, rng, layout):
    ids = list(range(lat.n))
    if layout == "shuffled":
        rng.shuffle(ids)
    elif layout == "sub":
        # a proper subset that is not an interval, in random order
        for _ in range(50):
            sub = rng.sample(ids, rng.randint(1, lat.n - 1))
            bounds = lat.extremes(mask_of(sub))
            if bounds is None or lat.interval_mask(*bounds) != mask_of(sub):
                return sub
        return None
    return ids


def _cells(lat, carrier, rng, fill):
    base = lat.meet if rng.random() < 0.5 else lat.join
    if fill == "carrier":
        return [[rng.choice(carrier) for _ in carrier] for _ in carrier]
    if fill == "lattice":
        return [[rng.randrange(lat.n) for _ in carrier] for _ in carrier]
    cells = [[base(a, b) for b in carrier] for a in carrier]
    if fill == "mutated":
        i, j = rng.randrange(len(carrier)), rng.randrange(len(carrier))
        cells[i][j] = rng.randrange(lat.n)
        if rng.random() < 0.5:
            cells[j][i] = cells[i][j]
    return cells


@pytest.mark.parametrize("layout", ["ordered", "shuffled", "sub"])
@pytest.mark.parametrize("fill", ["lattice_op", "mutated", "carrier", "lattice"])
def test_small_tables_match_the_per_cell_loops(layout, fill):
    checked = 0
    for seed in range(120):
        size = 2 + seed % 9
        lat = gen_lattice(GenConfig(seed=seed, size_range=(size, size)))
        rng = random.Random(seed)
        carrier = _carrier(lat, rng, layout)
        if carrier is None:
            continue
        cells = _cells(lat, carrier, rng, fill)
        t = OpTable(lat, tuple(carrier), tuple(tuple(row) for row in cells))
        assert_same_witnesses(t)
        checked += 1
    assert checked >= 100


def _chain(n):
    names = [f"c{i}" for i in range(n)]
    return build_lattice(names, [(names[i], names[i + 1]) for i in range(n - 1)])


def _boolean(k):
    names = [format(i, f"0{k}b") for i in range(2 ** k)]
    covers = [
        (names[i], names[i | 1 << b]) for i in range(2 ** k) for b in range(k) if not i >> b & 1
    ]
    return build_lattice(names, covers)


@pytest.mark.parametrize("lat", [_chain(64), _boolean(6)], ids=["chain64", "bool2^6"])
def test_64_element_tables_match_the_per_cell_loops(lat):
    meet = meet_table(lat)
    assert_same_witnesses(meet)
    rng = random.Random(64)
    # a late plant, as the benchmark's: U(x, y) = U(y, x) = top
    cells = [list(row) for row in meet.values]
    x, y = rng.randrange(56, 63), rng.randrange(56, 63)
    cells[x][y] = cells[y][x] = lat.top
    assert_same_witnesses(OpTable(lat, meet.carrier, tuple(map(tuple, cells))))
    # the meet on a shuffled carrier, one cell mutated
    carrier = list(range(lat.n))
    rng.shuffle(carrier)
    cells = [[lat.meet(a, b) for b in carrier] for a in carrier]
    cells[rng.randrange(64)][rng.randrange(64)] = rng.randrange(64)
    assert_same_witnesses(OpTable(lat, tuple(carrier), tuple(map(tuple, cells))))
