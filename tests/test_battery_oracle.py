"""Differential tests of the axiom scans, the ``ub`` and ``umax`` class
scans and ``OpTable.diff``.

The scans read the table's row-major byte buffer.
``first_commutativity_witness`` compares it whole with its transpose,
``first_closure_witness`` deletes the carrier's ids from it,
``first_associativity_witness`` compares whole rows,
``first_monotonicity_witness`` localizes the failing element with bit
masks and ``first_neutral_witness`` compares row e and column e whole with
the carrier, at every e.  At every e of a carrier with a least and a
greatest element, ``in_class_ub`` marks the cells landing in [bottom, e]
with one translate and ``in_class_umax`` compares gathered row and column
slices with the carrier.  ``OpTable.diff`` compares whole rows, against
the meet table on the same carrier in its order and reversed.  Each must
return exactly what the per-cell loop it replaced returned, ``None``
included.  Those loops are the reference, and read the cells through the
``values`` view or ``value``.  They run on both construction
forms of every catalogue frame with n <= 6 (CI runs n = 7); on seeded
tables over generated lattices of 2..10 elements (the carrier in id
order, shuffled, or a sub-carrier that is not an interval; meet and join
tables, random cells, one mutated cell); and on the 64-element chain,
Boolean lattice and 8x8 grid, whole, on a sub-carrier that is not convex,
and with planted cells that pin how the monotonicity witness is named.
"""

import random

import pytest

from latnorm.construct import construct_eq1, construct_eq2, dual_spec
from latnorm.gen import GenConfig, gen_lattice
from latnorm.lattice import mask_of
from latnorm.optable import (
    first_associativity_witness,
    first_closure_witness,
    first_commutativity_witness,
    first_monotonicity_witness,
    first_neutral_witness,
    in_class_ub,
    in_class_umax,
    meet_table,
)

from families import boolean, catalogue_specs, chain, grid, rows_table


def reference_commutativity(t):
    carrier, values = t.carrier, t.values
    for i, a in enumerate(carrier):
        for j, b in enumerate(carrier):
            if values[i][j] != values[j][i]:
                return (a, b, values[i][j], values[j][i])
    return None


def reference_closure(t):
    in_carrier = set(t.carrier)
    for a, row in zip(t.carrier, t.values):
        for b, v in zip(t.carrier, row):
            if v not in in_carrier:
                return (a, b, v)
    return None


def reference_ub(t, e):
    """Whether every cell landing in [bottom, e] has both arguments there,
    bottom being the least element of the carrier."""
    lat = t.lattice
    bottom = lat.extremes(mask_of(t.carrier))[0]
    below = {x for x in t.carrier if lat.leq(bottom, x) and lat.leq(x, e)}
    for a, row in zip(t.carrier, t.values):
        for b, v in zip(t.carrier, row):
            if v in below and not (a in below and b in below):
                return False
    return True


def reference_umax(t, e):
    """Whether U(a, b) = U(b, a) = b for every a in [bottom, e) and every b
    of the carrier outside [bottom, e], bottom being the least element of
    the carrier."""
    lat = t.lattice
    bottom = lat.extremes(mask_of(t.carrier))[0]
    below = {x for x in t.carrier if lat.leq(bottom, x) and lat.leq(x, e)}
    for a in sorted(below - {e}):
        for b in t.carrier:
            if b not in below and (t.value(a, b) != b or t.value(b, a) != b):
                return False
    return True


def reference_diff(t, other):
    """The cells (a, b), row-major in ``t``'s carrier order, where the two
    tables disagree."""
    return tuple((a, b) for a in t.carrier for b in t.carrier if t.value(a, b) != other.value(a, b))


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
    assert first_commutativity_witness(t) == reference_commutativity(t)
    assert first_closure_witness(t) == reference_closure(t)
    assert first_associativity_witness(t) == reference_associativity(t)
    for both_sides in (False, True):
        got = first_monotonicity_witness(t, both_sides=both_sides)
        assert got == reference_monotonicity(t, both_sides)
    for e in t.carrier:
        assert first_neutral_witness(t, e) == reference_neutral(t, e)
    if t.lattice.extremes(mask_of(t.carrier)) is not None:
        for e in t.carrier:
            assert in_class_ub(t, e) == reference_ub(t, e)
            assert in_class_umax(t, e) == reference_umax(t, e)
    # against the meet on the same carrier, in its order and reversed
    for carrier in (t.carrier, t.carrier[::-1]):
        meet = meet_table(t.lattice, carrier)
        assert t.diff(meet) == reference_diff(t, meet)
        assert meet.diff(t) == reference_diff(meet, t)


def check_catalogue_constructions(max_n):
    """:func:`assert_same_witnesses` on the join-form construction of every
    catalogue frame with at most ``max_n`` elements and on the meet-form
    construction of its dual spec, which reads the same cells in the dual
    lattice; returns the number of frames."""
    count = 0
    for spec in catalogue_specs(max_n):
        assert_same_witnesses(construct_eq1(spec, check_inner=False))
        assert_same_witnesses(construct_eq2(dual_spec(spec), check_inner=False))
        count += 1
    return count


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
        t = rows_table(lat, tuple(carrier), cells)
        assert_same_witnesses(t)
        checked += 1
    assert checked >= 100


LATTICES_64 = [chain(64), boolean(6), grid(8, 8)]
IDS_64 = ["chain64", "bool2^6", "grid8x8"]


def test_catalogue_constructions_match_the_per_cell_loops():
    assert check_catalogue_constructions(6) == 1240


@pytest.mark.parametrize("lat", LATTICES_64, ids=IDS_64)
def test_64_element_tables_match_the_per_cell_loops(lat):
    meet = meet_table(lat)
    assert_same_witnesses(meet)
    rng = random.Random(64)
    # a late plant, as the benchmark's: U(x, y) = U(y, x) = top
    cells = [list(row) for row in meet.values]
    x, y = rng.randrange(56, 63), rng.randrange(56, 63)
    cells[x][y] = cells[y][x] = lat.top
    assert_same_witnesses(rows_table(lat, meet.carrier, cells))
    # the meet on a shuffled carrier, one cell mutated
    carrier = list(range(lat.n))
    rng.shuffle(carrier)
    cells = [[lat.meet(a, b) for b in carrier] for a in carrier]
    cells[rng.randrange(64)][rng.randrange(64)] = rng.randrange(64)
    assert_same_witnesses(rows_table(lat, tuple(carrier), cells))


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
        assert_same_witnesses(rows_table(lat, tuple(carrier), meet))
        meet[rng.randrange(40)][rng.randrange(40)] = rng.randrange(lat.n)
        assert_same_witnesses(rows_table(lat, tuple(carrier), meet))


def test_a_drop_on_the_right_side_only():
    # the meet (min) on the 64-chain with U(c0, c62) = c1: column c62 still
    # rises down the rows (c1 <= min(b, c62) for every b above c0), but row
    # c0 falls from c1 at c62 back to c0 at c63
    lat = chain(64)
    meet = meet_table(lat)
    cells = [list(row) for row in meet.values]
    cells[0][62] = 1
    t = rows_table(lat, meet.carrier, cells)
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
    return rows_table(lat, tuple(carrier), values)


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
