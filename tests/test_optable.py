import pytest

from latnorm.gen import GenConfig, gen_lattice, gen_uninorm
from latnorm.optable import (
    NeutralOutsideCarrier,
    OpTable,
    SubNotContained,
    in_class_ub,
    in_class_umax,
    in_class_umin,
    in_class_ut,
    is_uninorm,
    join_table,
    meet_table,
    restrict,
    table_from_function,
)

from families import catalogue_specs, chain


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
    with pytest.raises(NeutralOutsideCarrier):
        is_uninorm(t, 3)


def test_restrict_identity_and_errors(l11):
    inner = l11.spec.inner
    assert restrict(inner, inner.carrier) == inner
    with pytest.raises(SubNotContained):
        restrict(inner, (l11.lattice.index("d"),))


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
        fresh = OpTable(t.lattice, t.carrier, t.values)
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
        bad = OpTable(lattice=lat, carrier=carrier, values=tuple(tuple(r) for r in rows))
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
    t = OpTable(lattice=lat, carrier=(0, 1, 2), values=values)
    report = is_uninorm(t, 1)
    assert report.commutative is not None
    assert report.second_side_checked


def test_closure_witness():
    lat = chain(4)
    t = table_from_function(lat, (0, 1, 2), lambda a, b: 3 if (a, b) == (2, 2) else lat.meet(a, b))
    report = is_uninorm(t, 2)
    assert report.closed == (2, 2, 3)
