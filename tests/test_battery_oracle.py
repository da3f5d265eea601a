"""Differential tests of the associativity, monotonicity and neutral scans.

``first_associativity_witness`` compares whole rows,
``first_monotonicity_witness`` localizes the failing element with bit
masks and ``first_neutral_witness`` compares row e and column e whole with
the carrier, at every e.  Each must return exactly what the per-cell loop
it replaced returned, ``None`` included.  Those loops are the reference.
They run on the join-form construction of every catalogue frame with
n <= 6; on seeded tables over generated lattices of 2..10 elements (the
carrier in id order, shuffled, or a sub-carrier that is not an interval;
meet and join tables, random cells, one mutated cell); and on the
64-element chain, Boolean lattice and 8x8 grid, whole, on a sub-carrier
that is not convex, and with planted cells that pin how the monotonicity
witness is named.
"""

import random

import pytest

from latnorm.construct import construct_eq1
from latnorm.gen import GenConfig, gen_lattice
from latnorm.lattice import mask_of
from latnorm.optable import (
    OpTable,
    first_associativity_witness,
    first_monotonicity_witness,
    first_neutral_witness,
    meet_table,
)

from families import boolean, catalogue_specs, chain, grid


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


def reference_neutral(t, e):
    for x in t.carrier:
        got = t.value(e, x)
        if got != x:
            return (x, got)
        got = t.value(x, e)
        if got != x:
            return (x, got)
    return None


def assert_same_witnesses(t):
    assert first_associativity_witness(t) == reference_associativity(t)
    for both_sides in (False, True):
        got = first_monotonicity_witness(t, both_sides=both_sides)
        assert got == reference_monotonicity(t, both_sides)
    for e in t.carrier:
        assert first_neutral_witness(t, e) == reference_neutral(t, e)


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


LATTICES_64 = [chain(64), boolean(6), grid(8, 8)]
IDS_64 = ["chain64", "bool2^6", "grid8x8"]


def test_catalogue_constructions_match_the_per_cell_loops():
    for spec in catalogue_specs(6):
        assert_same_witnesses(construct_eq1(spec, check_inner=False))


@pytest.mark.parametrize("lat", LATTICES_64, ids=IDS_64)
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


@pytest.mark.parametrize("lat", LATTICES_64, ids=IDS_64)
def test_64_element_sub_carriers_match_the_per_cell_loops(lat):
    # a shuffled sub-carrier that is not convex: the order it inherits has
    # covers the lattice does not have
    rng = random.Random(40)
    for _ in range(3):
        carrier = rng.sample(range(lat.n), 40)
        mask = mask_of(carrier)
        restricted = [lat.upper_covers[a] & mask for a in range(lat.n)]
        assert list(lat.upper_covers_within(mask)) != restricted
        meet = [[lat.meet(a, b) for b in carrier] for a in carrier]
        assert_same_witnesses(OpTable(lat, tuple(carrier), tuple(map(tuple, meet))))
        meet[rng.randrange(40)][rng.randrange(40)] = rng.randrange(lat.n)
        assert_same_witnesses(OpTable(lat, tuple(carrier), tuple(map(tuple, meet))))


def test_a_drop_on_the_right_side_only():
    # the meet (min) on the 64-chain with U(c0, c62) = c1: column c62 still
    # rises down the rows (c1 <= min(b, c62) for every b above c0), but row
    # c0 falls from c1 at c62 back to c0 at c63
    lat = chain(64)
    meet = meet_table(lat)
    cells = [list(row) for row in meet.values]
    cells[0][62] = 1
    t = OpTable(lat, meet.carrier, tuple(map(tuple, cells)))
    assert first_monotonicity_witness(t, both_sides=False) is None
    assert first_monotonicity_witness(t, both_sides=True) == (62, 63, 0, 1, 0, "right")
    assert_same_witnesses(t)


def _planted(lat, carrier, cells):
    """The meet on ``carrier`` with the cells of ``cells`` ((x, y) -> value,
    by element) set; the plants need not be symmetric."""
    pos = {a: i for i, a in enumerate(carrier)}
    values = [[lat.meet(a, b) for b in carrier] for a in carrier]
    for (x, y), v in cells.items():
        values[pos[x]][pos[y]] = v
    return OpTable(lat, tuple(carrier), tuple(map(tuple, values)))


def test_a_right_drop_at_an_earlier_c_is_named_first():
    # the min on the 64-chain with U(c50, c40) = c45 and U(c40, c60) = c45:
    # row c40 falls from c45 to c41 against c41 at c60 (left), and column
    # c40 does so at c50 (right), which the scan reaches first
    lat = chain(64)
    t = _planted(lat, range(64), {(50, 40): 45, (40, 60): 45})
    assert first_monotonicity_witness(t, both_sides=True) == (40, 41, 50, 45, 41, "right")
    assert first_monotonicity_witness(t, both_sides=False) == (40, 41, 60, 45, 41, "left")
    assert_same_witnesses(t)


def test_drops_on_both_sides_at_one_c_name_the_left():
    # the meet on the 8x8 grid with U(g5_0, top) = U(top, g5_0) = g6_0:
    # against g5_1, the first element above g5_0, both sides drop at top
    lat = grid(8, 8)
    a, b, top = lat.index("g5_0"), lat.index("g5_1"), lat.top
    up = lat.index("g6_0")
    t = _planted(lat, range(64), {(a, top): up, (top, a): up})
    assert first_monotonicity_witness(t, both_sides=True) == (a, b, top, up, b, "left")
    assert_same_witnesses(t)
    # the same on a shuffled carrier, where top is not the last column
    carrier = list(range(64))
    random.Random(19).shuffle(carrier)
    assert_same_witnesses(_planted(lat, carrier, {(a, top): up, (top, a): up}))


def test_the_first_element_above_need_not_be_the_witness():
    # the meet on 2^6 with U(101000, top) = 101001: 101001, the first
    # element above 101000, lies above that value, 101010 after it does not
    lat = boolean(6)
    a, top = lat.index("101000"), lat.top
    first, second = lat.index("101001"), lat.index("101010")
    t = _planted(lat, range(64), {(a, top): first})
    assert min(b for b in range(64) if b != a and lat.leq(a, b)) == first
    for both_sides in (False, True):
        assert first_monotonicity_witness(t, both_sides=both_sides) == (
            a, second, top, first, second, "left"
        )
    assert_same_witnesses(t)
