import pytest
from hypothesis import given, settings, strategies as st

from latnorm.gen import GenConfig, gen_lattice
from latnorm.lattice import (
    LatticeError,
    NotALattice,
    NotAPoset,
    NotBounded,
    build_lattice,
    case_regions,
    ids_of,
)


def chain(n):
    names = tuple(str(i) for i in range(n))
    return build_lattice(names, [(str(i), str(i + 1)) for i in range(n - 1)])


def diamond():
    return build_lattice(("0", "a", "b", "1"), [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])


def random_lattice(seed, lo=3, hi=9):
    return gen_lattice(GenConfig(seed=seed, size_range=(lo, hi)))


lattices = st.integers(min_value=0, max_value=400).map(random_lattice)


def test_two_chain():
    lat = chain(2)
    assert lat.bottom == 0 and lat.top == 1
    assert lat.join(0, 1) == 1 and lat.meet(0, 1) == 0


def test_duplicate_name_rejected():
    with pytest.raises(NotAPoset, match="duplicate"):
        build_lattice(("0", "a", "a", "1"), [("0", "a"), ("a", "1")])


def test_unknown_name_rejected():
    with pytest.raises(NotAPoset, match="unknown"):
        build_lattice(("0", "1"), [("0", "x")])


def test_cycle_rejected():
    with pytest.raises(NotAPoset, match="antisymmetry"):
        build_lattice(("0", "a", "b", "1"), [("0", "a"), ("a", "b"), ("b", "a"), ("b", "1")])


def test_unbounded_rejected():
    with pytest.raises(NotBounded):
        build_lattice(("a", "b"), [])


def test_no_unique_join_rejected():
    # two incomparable elements with two minimal common upper bounds
    with pytest.raises(NotALattice):
        build_lattice(
            ("0", "a", "b", "c", "d", "1"),
            [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
             ("c", "1"), ("d", "1")],
        )


def test_full_relation_mode():
    lat = build_lattice(("0", "1"), [("0", "1"), ("0", "0")])
    assert lat.leq(0, 1)


def test_bottom_below_everything():
    lat = diamond()
    assert all(lat.leq(lat.bottom, x) for x in range(lat.n))
    assert all(lat.leq(x, lat.top) for x in range(lat.n))


def test_parallel_basics():
    lat = diamond()
    a, b = lat.index("a"), lat.index("b")
    assert lat.parallel(a, b)
    assert not lat.parallel(a, a)
    assert not lat.parallel(lat.bottom, a)


@settings(max_examples=60, deadline=None)
@given(lattices)
def test_trichotomy(lat):
    for a in range(lat.n):
        for b in range(lat.n):
            states = [
                lat.lt(a, b),
                lat.lt(b, a),
                a == b,
                lat.parallel(a, b),
            ]
            assert sum(states) == 1


@settings(max_examples=60, deadline=None)
@given(lattices)
def test_join_meet_laws(lat):
    for a in range(lat.n):
        assert lat.join(a, a) == a and lat.meet(a, a) == a
        for b in range(lat.n):
            assert lat.join(a, b) == lat.join(b, a)
            assert lat.meet(a, lat.join(a, b)) == a
            assert lat.join(a, lat.meet(a, b)) == a
            for c in range(lat.n):
                assert lat.join(lat.join(a, b), c) == lat.join(a, lat.join(b, c))
                assert lat.meet(lat.meet(a, b), c) == lat.meet(a, lat.meet(b, c))


def test_join_is_least_upper_bound():
    lat = random_lattice(17)
    for a in range(lat.n):
        for b in range(lat.n):
            j = lat.join(a, b)
            assert lat.leq(a, j) and lat.leq(b, j)
            for c in range(lat.n):
                if lat.leq(a, c) and lat.leq(b, c):
                    assert lat.leq(j, c)


def test_interval_basics():
    lat = chain(5)
    assert lat.interval(lat.bottom, lat.top) == tuple(range(5))
    assert lat.interval(2, 2) == (2,)
    assert lat.interval(1, 3) == (1, 2, 3)
    assert lat.interval(1, 3, lower_open=True) == (2, 3)
    assert lat.interval(1, 3, upper_open=True) == (1, 2)
    assert lat.interval(1, 3, lower_open=True, upper_open=True) == (2,)


def test_interval_incomparable_endpoints_empty():
    lat = diamond()
    a, b = lat.index("a"), lat.index("b")
    assert lat.interval(a, b) == ()


def test_interval_l11(l11):
    lat = l11.lattice
    names = [lat.name(x) for x in lat.interval(lat.bottom, lat.index("rho"))]
    assert names == ["0", "q", "e", "k", "c", "rho"]


def test_region_sets_self():
    lat = diamond()
    a = lat.index("a")
    regions = lat.region_sets(a, a)
    assert regions.inc_a_comp_b == ()
    assert set(regions.inc_both) == set(regions.inc_a)


def test_region_sets_chain_empty():
    lat = chain(6)
    for a in range(lat.n):
        assert lat.region_sets(a, a).inc_a == ()


def test_region_sets_partition():
    lat = random_lattice(23)
    for a in range(lat.n):
        for b in range(lat.n):
            regions = lat.region_sets(a, b)
            assert sorted(regions.inc_a + regions.comp_a) == list(range(lat.n))
            assert not set(regions.inc_a) & set(regions.comp_a)


def test_region_sets_l11(l11):
    lat = l11.lattice
    e, rho = lat.index("e"), lat.index("rho")
    regions = lat.region_sets(e, rho)
    assert {lat.name(x) for x in regions.inc_both} == {"t", "m"}
    assert {lat.name(x) for x in regions.inc_a_comp_b} == {"k"}
    reversed_regions = lat.region_sets(rho, e)
    assert {lat.name(x) for x in reversed_regions.inc_a_comp_b} == {"s"}


def test_parallel_l13(l13):
    lat = l13.lattice
    assert lat.parallel(lat.index("t"), lat.index("m"))
    assert lat.join(lat.index("t"), lat.index("m")) == lat.index("d")
    assert lat.join(lat.index("m"), lat.index("q")) == lat.index("d")


def test_dual_involution():
    for seed in range(30):
        lat = random_lattice(seed)
        assert lat.dual().dual() == lat


def test_dual_swaps_join_meet():
    lat = random_lattice(5)
    dual = lat.dual()
    assert dual.bottom == lat.top and dual.top == lat.bottom
    for a in range(lat.n):
        for b in range(lat.n):
            assert dual.join(a, b) == lat.meet(a, b)
            assert dual.meet(a, b) == lat.join(a, b)


def test_dual_two_chain():
    lat = chain(2)
    dual = lat.dual()
    assert dual.bottom == 1 and dual.top == 0
    assert dual.leq(1, 0)


@settings(max_examples=40, deadline=None)
@given(lattices)
def test_case_regions_partition_everywhere(lat):
    for e in range(lat.n):
        for t in range(lat.n):
            if not lat.leq(e, t):
                continue
            regions = case_regions(lat, e, t)
            union = 0
            for block in regions.blocks():
                assert union & block == 0
                union |= block
            assert union == lat.all_mask


def test_case_regions_requires_comparable():
    lat = diamond()
    with pytest.raises(LatticeError):
        case_regions(lat, lat.index("a"), lat.index("b"))


def test_side_inner_lies_inside_threshold_interval():
    # elements incomparable to the neutral but comparable to the threshold
    # are always inside [bottom, threshold]
    for seed in range(40):
        lat = random_lattice(seed)
        for e in range(lat.n):
            for t in ids_of(lat.up[e]):
                regions = case_regions(lat, e, t)
                inner = lat.interval_mask(lat.bottom, t)
                assert regions.side_inner & ~inner == 0
