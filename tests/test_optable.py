import pytest

from latnorm.gen import GenConfig, gen_lattice, gen_uninorm
from latnorm.lattice import build_lattice
from latnorm.optable import (
    NeutralOutsideCarrier,
    OpTable,
    OpTableError,
    SubNotContained,
    in_class_ub,
    in_class_umax,
    in_class_umin,
    in_class_ut,
    is_uninorm,
    meet_table,
    restrict,
)

from families import catalogue_specs, chain, join_table, rows_table, table_from_function


def test_meet_is_t_norm():
    for seed in range(10):
        lat = gen_lattice(GenConfig(seed=seed, size_range=(3, 8)))
        report = is_uninorm(meet_table(lat), lat.top)
        assert report.ok


def test_join_is_t_conorm_and_uninorm_with_bottom_neutral():
    for seed in range(10):
        lat = gen_lattice(GenConfig(seed=seed, size_range=(3, 8)))
        assert is_uninorm(join_table(lat), lat.bottom).ok
        assert is_uninorm(join_table(lat), lat.bottom).ok


def test_inner_tables_verify(entries):
    for entry in entries.values():
        assert is_uninorm(entry.spec.inner, entry.spec.neutral).ok


def test_constructed_l11_verifies(l11):
    assert is_uninorm(l11.stored, l11.spec.neutral).ok


def test_l13_stored_monotone_witness(l13):
    report = is_uninorm(l13.stored, l13.spec.neutral)
    assert not report.ok
    assert report.failures() == ("monotone",)
    lat = l13.lattice
    a, b, c, ua, ub, side = report.monotone
    assert (lat.name(a), lat.name(b), lat.name(c)) == ("s", "t", "m")
    assert lat.name(ua) == "1" and lat.name(ub) == "d"
    assert side == "left"
    # witness is re-checkable against the table
    assert lat.leq(a, b)
    assert l13.stored.value(a, c) == ua
    assert l13.stored.value(b, c) == ub
    assert not lat.leq(ua, ub)


def test_neutral_outside_carrier():
    lat = chain(4)
    t = meet_table(lat, (0, 1, 2))
    # an element of the lattice outside the carrier, above it or below it:
    # the class predicates once answered True where is_uninorm refused it
    for carrier, e in (((0, 1, 2), 3), ((1, 2, 3), 0)):
        outside = meet_table(lat, carrier)
        for check in (is_uninorm, in_class_ub, in_class_umax, in_class_ut, in_class_umin):
            message = f"^neutral '{e}' is outside the table carrier$"
            with pytest.raises(NeutralOutsideCarrier, match=message):
                check(outside, e)
        assert not outside.kept
    # an id that is no element is named itself: 99 once raised a bare
    # IndexError, is_uninorm named -1 by names[-1] ('3'), and in_class_ub
    # read -1 as the top
    for check in (is_uninorm, in_class_ub, in_class_umax, in_class_ut, in_class_umin):
        for bad in (99, -1):
            message = f"^neutral {bad} is no element of the 4-element lattice$"
            with pytest.raises(NeutralOutsideCarrier, match=message):
                check(t, bad)
    assert not t.kept


def test_restrict_identity_and_errors(l11):
    inner = l11.spec.inner
    assert restrict(inner, inner.carrier) == inner
    with pytest.raises(SubNotContained):
        restrict(inner, (l11.lattice.index("d"),))
    # 99 once raised a bare IndexError, and -1 was named as the top
    n = l11.lattice.n
    for bad in (99, -1):
        message = f"^sub-carrier element {bad} is no element of the {n}-element lattice$"
        with pytest.raises(SubNotContained, match=message):
            restrict(inner, (inner.carrier[0], bad))


def test_diff_over_different_carriers_is_refused():
    lat = chain(4)
    with pytest.raises(OpTableError, match="^cannot diff tables over different carriers$"):
        meet_table(lat, (0, 1, 2)).diff(meet_table(lat, (1, 2, 3)))


@pytest.mark.parametrize("check", [in_class_ub, in_class_umax, in_class_ut, in_class_umin])
def test_class_predicate_needs_an_interval_carrier(check):
    # the atoms of the diamond: neither is least or greatest
    lat = build_lattice(("0", "a", "b", "1"), [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    atoms = (lat.index("a"), lat.index("b"))
    t = meet_table(lat, atoms)
    with pytest.raises(OpTableError, match="^carrier has no extreme element; not an interval$"):
        check(t, atoms[0])


def test_restrict_table1_to_low_interval_is_t_norm(l11):
    lat = l11.lattice
    low = lat.interval(lat.bottom, lat.index("e"))
    assert [lat.name(x) for x in low] == ["0", "q", "e"]
    sub = restrict(l11.spec.inner, low)
    assert is_uninorm(sub, lat.index("e")).ok


def test_restrict_constructed_to_both_sides(l11):
    lat = l11.lattice
    e = l11.spec.neutral
    low = restrict(l11.stored, lat.interval(lat.bottom, e))
    high = restrict(l11.stored, lat.interval(e, lat.top))
    assert is_uninorm(low, e).ok
    assert is_uninorm(high, e).ok


def test_table1_is_not_a_t_norm_with_threshold_neutral(l11):
    # the inner operator is a uninorm on its interval but the t-norm check
    # with the carrier top as neutral fails on the neutral axiom
    lat = l11.lattice
    report = is_uninorm(l11.spec.inner, lat.index("rho"))
    assert report.neutral is not None
    x, got = report.neutral
    assert lat.name(x) == "0" and lat.name(got) == "rho"


def test_kept_verdicts_are_the_fresh_ones():
    # each catalogue inner table was checked where gen_uninorm drew it; the
    # verdicts kept on it are those of a table rebuilt from its cells
    last = None
    for spec in catalogue_specs(6):
        t, e = spec.inner, spec.neutral
        if t is last:
            continue  # the same table under another anchor
        last = t
        assert ("uninorm", e) in t.kept
        kept = is_uninorm(t, e), in_class_ub(t, e)
        assert t.kept[("uninorm", e)] is kept[0] and t.kept[("ub", e)] is kept[1]
        fresh = rows_table(t.lattice, t.carrier, t.values)
        assert not fresh.kept
        assert kept == (is_uninorm(fresh, e), in_class_ub(fresh, e))


def test_in_class_ub_table1(l11):
    assert in_class_ub(l11.spec.inner, l11.spec.neutral)


def test_in_class_ub_meet_on_chain():
    lat = chain(3)
    t = meet_table(lat)
    assert not in_class_ub(t, 1)   # meet(0, 2) = 0 with 2 outside [0, 1]
    assert in_class_ub(t, 2)       # with the top as neutral it is vacuous


def test_in_class_vacuous_on_own_interval():
    lat = chain(4)
    t = meet_table(lat, lat.interval(0, 2))
    assert in_class_ub(t, 2)


def test_in_class_umin_join_bottom_neutral():
    lat = chain(4)
    assert in_class_umin(join_table(lat), lat.bottom)


def test_in_class_umax_table1_and_table2(l11):
    e = l11.spec.neutral
    assert in_class_umax(l11.spec.inner, e)
    assert in_class_umax(l11.stored, e)


def test_umin_violation_on_chain():
    # a uninorm that is not a projection on the upper rectangle
    lat = chain(4)
    e = 1
    t = gen_uninorm(lat, tuple(range(4)), e, GenConfig(seed=3, class_filter="umax"))
    assert in_class_umax(t, e)
    # the meet-core family sends (x, y) with x > e, y < e to x, not y
    assert not in_class_umin(t, e)


def test_dual_classes_swap(l11):
    from latnorm.gen import dual_spec

    spec = dual_spec(l11.spec)
    assert in_class_ub(l11.spec.inner, l11.spec.neutral) == in_class_ut(
        spec.inner, spec.neutral
    )


def test_uninorm_restriction_property_generated():
    # verified uninorm => restriction below the neutral is a t-norm and
    # restriction above it is a t-conorm
    for seed in range(25):
        lat = gen_lattice(GenConfig(seed=seed, size_range=(4, 8)))
        carrier = tuple(range(lat.n))
        e = carrier[seed % lat.n]
        t = gen_uninorm(lat, carrier, e, GenConfig(seed=seed * 7 + 1))
        low = restrict(t, lat.interval(lat.bottom, e))
        high = restrict(t, lat.interval(e, lat.top))
        assert is_uninorm(low, e).ok
        assert is_uninorm(high, e).ok


def test_witnesses_recheck_on_corrupted_tables():
    for seed in range(30):
        lat = gen_lattice(GenConfig(seed=seed, size_range=(4, 7)))
        carrier = tuple(range(lat.n))
        e = (seed * 3 + 1) % lat.n
        good = gen_uninorm(lat, carrier, e, GenConfig(seed=seed + 100))
        rows = [list(row) for row in good.values]
        a = seed % lat.n
        b = (seed * 5 + 2) % lat.n
        rows[a][b] = (rows[a][b] + 1) % lat.n
        bad = rows_table(lat, carrier, rows)
        report = is_uninorm(bad, e)
        if report.commutative is not None:
            x, y, xy, yx = report.commutative
            assert bad.value(x, y) == xy and bad.value(y, x) == yx and xy != yx
        if report.associative is not None:
            x, y, z, left, right = report.associative
            assert bad.value(bad.value(x, y), z) == left
            assert bad.value(x, bad.value(y, z)) == right
            assert left != right
        if report.monotone is not None:
            x, y, z, ua, ub, side = report.monotone
            assert lat.leq(x, y) and not lat.leq(ua, ub)
            if side == "left":
                assert bad.value(x, z) == ua and bad.value(y, z) == ub
            else:
                assert bad.value(z, x) == ua and bad.value(z, y) == ub
        if report.neutral is not None:
            x, got = report.neutral
            assert got in (bad.value(e, x), bad.value(x, e)) and got != x
        if report.commutative is not None:
            assert report.second_side_checked


def test_non_commutative_candidate_representable():
    lat = chain(3)
    values = ((0, 0, 2), (0, 1, 2), (1, 2, 2))  # (2,0) != (0,2)
    t = rows_table(lat, (0, 1, 2), values)
    report = is_uninorm(t, 1)
    assert report.commutative is not None
    assert report.second_side_checked


def test_closure_witness():
    lat = chain(4)
    t = table_from_function(lat, (0, 1, 2), lambda a, b: 3 if (a, b) == (2, 2) else lat.meet(a, b))
    report = is_uninorm(t, 2)
    assert report.closed == (2, 2, 3)


# -- ids outside the lattice ------------------------------------------------


def _identity_cells(bad):
    """The min on the 3-chain, row-major, with its last cell replaced by ``bad``."""
    return (0, 0, 0, 0, 1, 1, 0, 1, bad)


@pytest.mark.parametrize("bad", [-1, 300])
def test_a_cell_that_is_no_byte_is_refused(bad):
    # once a bare ValueError from the battery, and for -1 from in_class_ub
    # (a negative shift count); 300 was judged in class ub
    with pytest.raises(OpTableError, match=f"^cell value {bad} is no element of the 3-element lattice$"):
        OpTable(chain(3), (0, 1, 2), _identity_cells(bad))


def test_a_cell_past_the_lattice_is_refused():
    # once scanned as an element: monotonicity witness (0, 1, 1, 0, 3, "left")
    lat = chain(3)
    message = "^cell value 3 is no element of the 3-element lattice$"
    with pytest.raises(OpTableError, match=message):
        OpTable(lat, (0, 1, 2), _identity_cells(3))
    with pytest.raises(OpTableError, match=message):
        OpTable(lat, (0, 1, 2), bytes(_identity_cells(3)))
    with pytest.raises(OpTableError, match=message):
        table_from_function(lat, (0, 1, 2), lambda a, b: 3 if a == b == 2 else min(a, b))


def test_a_carrier_element_past_the_lattice_is_refused():
    # once built, and then the battery raised IndexError
    lat = chain(3)
    message = "^carrier element 5 is no element of the 3-element lattice$"
    with pytest.raises(OpTableError, match=message):
        OpTable(lat, (0, 1, 5), _identity_cells(0))
    with pytest.raises(OpTableError, match=message):
        table_from_function(lat, (0, 1, 5), lambda a, b: 0)
    with pytest.raises(OpTableError, match="^carrier element -1 "):
        OpTable(lat, (0, -1), (0, 0, 0, 0))


def test_the_first_bad_id_is_named():
    # in row-major order, whether or not a later one fits in a byte
    lat = chain(3)
    with pytest.raises(OpTableError, match="^cell value 7 "):
        OpTable(lat, (0, 1), (0, 7, 300, -1))
    with pytest.raises(OpTableError, match="^cell value 7 "):
        OpTable(lat, (0, 1), bytes([0, 7, 9, 1]))
    with pytest.raises(OpTableError, match="^cell value 'x' "):
        OpTable(lat, (0, 1), (0, "x", 300, 1))


def test_tables_are_immutable():
    t = meet_table(chain(3))
    with pytest.raises(AttributeError):
        t.buf = bytes(9)
    with pytest.raises(AttributeError):
        del t.carrier
    assert t.buf == bytes([0, 0, 0, 0, 1, 1, 0, 1, 2])
