import pytest
from hypothesis import given, settings, strategies as st

from latnorm.catalogue import lattice_catalogue
from latnorm.gen import GenConfig, gen_lattice
from latnorm.lattice import (
    CaseRegions,
    LatticeError,
    NotALattice,
    NotAPoset,
    NotBounded,
    build_lattice,
    case_regions,
    ids_of,
    mask_of,
)

from families import chain


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
                a != b and lat.leq(a, b),
                a != b and lat.leq(b, a),
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
    assert ids_of(lat.interval_mask(1, 3) & ~(1 << 1)) == (2, 3)
    assert ids_of(lat.interval_mask(1, 3) & ~(1 << 3)) == (1, 2)
    assert ids_of(lat.interval_mask(1, 3) & ~(1 << 1 | 1 << 3)) == (2,)


def test_interval_incomparable_endpoints_empty():
    lat = diamond()
    a, b = lat.index("a"), lat.index("b")
    assert lat.interval(a, b) == ()


def test_interval_l11(l11):
    lat = l11.lattice
    names = [lat.name(x) for x in lat.interval(lat.bottom, lat.index("rho"))]
    assert names == ["0", "q", "e", "k", "c", "rho"]


def test_regions_of_one_element():
    lat = diamond()
    a = lat.index("a")
    regions = case_regions(lat, a, a)
    assert regions.side_inner == regions.side_outer == 0
    assert regions.isolated == lat.all_mask & ~(lat.up[a] | lat.down[a])


def test_chain_has_no_incomparables():
    lat = chain(6)
    for a in range(lat.n):
        assert case_regions(lat, a, a).isolated == 0


def test_incomparables_are_the_parallel_elements():
    lat = random_lattice(23)
    for a in range(lat.n):
        parallel = tuple(b for b in range(lat.n) if lat.parallel(a, b))
        assert ids_of(case_regions(lat, a, a).isolated) == parallel


def test_regions_l11(l11):
    lat = l11.lattice
    e, rho = lat.index("e"), lat.index("rho")
    regions = case_regions(lat, e, rho)

    def names(mask):
        return {lat.name(x) for x in ids_of(mask)}

    assert names(regions.isolated) == {"t", "m"}
    assert names(regions.side_inner) == {"k"}
    assert names(regions.side_outer) == {"s"}


def test_parallel_l13(l13):
    lat = l13.lattice
    assert lat.parallel(lat.index("t"), lat.index("m"))
    assert lat.join(lat.index("t"), lat.index("m")) == lat.index("d")
    assert lat.join(lat.index("m"), lat.index("q")) == lat.index("d")


def test_dual_involution():
    for seed in range(30):
        lat = random_lattice(seed)
        assert lat.dual().dual() == lat


def test_dual_and_covers_are_derived_once():
    # both are kept on the lattice: every call returns the same object, and
    # the dual's dual is the lattice itself, not an equal copy
    for seed in range(10):
        lat = random_lattice(seed)
        dual = lat.dual()
        assert lat.dual() is dual
        assert dual.dual() is lat
        assert lat.upper_covers is lat.upper_covers
        assert dual.upper_covers is dual.upper_covers


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
            for block in regions:
                assert union & block == 0
                union |= block
            assert union == lat.all_mask


def _brute_regions(lat, neutral, threshold):
    """The six blocks by their definitions, one ``leq`` query per pair."""
    leq = lat.leq

    def block(member):
        return mask_of(x for x in range(lat.n) if member(x))

    def beside(x, a):
        return not leq(x, a) and not leq(a, x)

    return CaseRegions(
        low=block(lambda x: leq(lat.bottom, x) and leq(x, neutral)),
        mid=block(lambda x: leq(neutral, x) and x != neutral and leq(x, threshold)),
        side_inner=block(lambda x: beside(x, neutral) and not beside(x, threshold)),
        side_outer=block(lambda x: not beside(x, neutral) and beside(x, threshold)),
        isolated=block(lambda x: beside(x, neutral) and beside(x, threshold)),
        high=block(lambda x: leq(threshold, x) and x != threshold and leq(x, lat.top)),
    )


def test_case_regions_match_their_definitions(entries):
    # every pair neutral <= threshold, so neutral = threshold, neutral =
    # bottom and threshold = top included, on generated lattices of each
    # size 2..12 and on the five corpus lattices
    lats = [gen_lattice(GenConfig(seed=seed, size_range=(n, n)))
            for n in range(2, 13) for seed in range(10)]
    lats += [entry.lattice for entry in entries.values()]
    for lat in lats:
        for t in range(lat.n):
            for e in range(lat.n):
                if lat.leq(e, t):
                    assert case_regions(lat, e, t) == _brute_regions(lat, e, t), (lat.names, e, t)


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


# -- join and meet tables against brute force ------------------------------


def _brute_bound(lat, a, b, leq):
    """The bound of a and b that ``leq`` puts below every other bound, or
    None; ``leq`` is the order for joins and the reversed order for meets."""
    bounds = [c for c in range(lat.n) if leq(a, c) and leq(b, c)]
    least = [c for c in bounds if all(leq(c, d) for d in bounds)]
    return least[0] if len(least) == 1 else None


@pytest.mark.parametrize("seed", range(40))
def test_join_and_meet_tables_match_brute_force(seed):
    lat = random_lattice(seed, 2, 10)
    for a in range(lat.n):
        for b in range(lat.n):
            assert lat.join(a, b) == _brute_bound(lat, a, b, lat.leq)
            assert lat.meet(a, b) == _brute_bound(lat, a, b, lambda x, y: lat.leq(y, x))


def _brute_covers(lat):
    """The upper covers of each element, by definition."""
    ids = range(lat.n)

    def lt(a, b):
        return a != b and lat.leq(a, b)

    return tuple(
        mask_of(b for b in ids if lt(a, b) and not any(lt(a, c) and lt(c, b) for c in ids))
        for a in ids
    )


@pytest.mark.parametrize("seed", range(40))
def test_upper_covers_match_brute_force(seed):
    # the covers taken from the edges, of the lattice and of its dual
    drawn = random_lattice(seed, 2, 10)
    for lat in (drawn, drawn.dual()):
        assert lat.upper_covers == _brute_covers(lat)


@pytest.mark.parametrize("n", range(1, 8))
def test_catalogue_covers_match_brute_force(n):
    # the catalogue gives the whole order as edges: most are not covers
    for lat in lattice_catalogue(n):
        for side in (lat, lat.dual()):
            assert side.upper_covers == _brute_covers(side)


def _closed_form_lattices():
    """(lattice, join, meet) on ids for the 64-chain, 2^6 and the 8x8 grid."""
    names = [f"c{i}" for i in range(64)]
    yield (
        build_lattice(names, [(names[i], names[i + 1]) for i in range(63)]),
        max,
        min,
    )
    names = [format(i, "06b") for i in range(64)]
    covers = [(names[i], names[i | 1 << b]) for i in range(64) for b in range(6) if not i >> b & 1]
    yield build_lattice(names, covers), int.__or__, int.__and__
    names = [f"g{i}_{j}" for i in range(8) for j in range(8)]
    covers = [(names[i], names[i + 8]) for i in range(56)]
    covers += [(names[i], names[i + 1]) for i in range(64) if i % 8 < 7]
    yield (
        build_lattice(names, covers),
        lambda a, b: max(a // 8, b // 8) * 8 + max(a % 8, b % 8),
        lambda a, b: min(a // 8, b // 8) * 8 + min(a % 8, b % 8),
    )


@pytest.mark.parametrize(
    "lat, join, meet", list(_closed_form_lattices()), ids=["chain64", "bool2^6", "grid8x8"]
)
def test_64_element_join_and_meet_tables(lat, join, meet):
    for a in range(64):
        assert [lat.join(a, b) for b in range(64)] == [join(a, b) for b in range(64)]
        assert [lat.meet(a, b) for b in range(64)] == [meet(a, b) for b in range(64)]


def _pairs(text):
    return [tuple(pair.split("<")) for pair in text.split()]


BOWTIE = _pairs("0<a 0<b a<c a<d b<c b<d c<1 d<1")


@pytest.mark.parametrize(
    "names, covers, kind, pair",
    [
        # a and b have two minimal common upper bounds
        (("0", "a", "b", "c", "d", "1"), BOWTIE, "join", ("a", "b")),
        # the same poset listed tops first: c and d lack a meet
        (("0", "c", "d", "a", "b", "1"), BOWTIE, "meet", ("c", "d")),
        # three minimal common upper bounds
        (("0", "a", "b", "x", "y", "z", "1"),
         _pairs("0<a 0<b a<x a<y a<z b<x b<y b<z x<1 y<1 z<1"), "join", ("a", "b")),
        # p lacks a meet with q before it lacks a join with r
        (("p", "q", "r", "0", "x1", "x2", "y1", "y2", "1"),
         _pairs("0<x1 0<x2 x1<p x1<q x2<p x2<q p<y1 p<y2 r<y1 r<y2 0<r q<1 y1<1 y2<1"),
         "meet", ("p", "q")),
        # a and b lack both; the join is reported
        (("a", "b", "0", "l1", "l2", "u1", "u2", "1"),
         _pairs("0<l1 0<l2 l1<a l1<b l2<a l2<b a<u1 a<u2 b<u1 b<u2 u1<1 u2<1"),
         "join", ("a", "b")),
    ],
)
def test_not_a_lattice_names_the_first_pair(names, covers, kind, pair):
    with pytest.raises(NotALattice) as info:
        build_lattice(names, covers)
    assert info.value.kind == kind
    assert info.value.pair == pair
    assert str(info.value) == f"no unique {kind} for {pair[0]!r} and {pair[1]!r}"
