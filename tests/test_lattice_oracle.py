"""Differential tests of ``build_lattice``.

``build_lattice`` closes the order in one walk of the edges each way along
an order in which every edge goes forward (the ids when every edge goes up
in id order, else Kahn's order), checks only the joins of pairs of upper
covers of one element, and stores no join or meet table.  It must build
exactly what the build it replaced built, and reject exactly what that
build rejected, with the same exception and message.  That build is kept
here as the reference: Warshall's closure over bit rows, the ``down``
transpose, the antisymmetry and bound checks, and the full id-order scan
of the join and meet tables.

``build_lattice`` is the name front-end of ``lattice_from_edges``, which
takes one mask of direct successors per element.  Inputs: the core's
inputs from every ``gen._attempt_lattice`` draw for 2,000 seeds at sizes
2..12, rejected draws included, each run through the core; random DAGs of
up to 64 elements given as redundant, shuffled ``le_pairs``; cyclic
inputs; inputs without a bottom or a top; the posets whose first pair
without a join or meet is named; and every poset made from a catalogue
lattice by deleting one element other than the bounds or one cover edge,
which stresses the cover-pair lattice check where it is closest to wrong
(CI runs that check at n = 9 too, with :func:`check_derived_posets`).  On
the random DAGs, with and without bounds and with a cycle closed, the core
raises exactly what the front-end raises.  Kahn's order runs only for
inputs listed out of id order; every catalogue lattice rebuilt with its
ids reversed, which takes that path, equals its forward build under the
relabelling (CI runs n = 9 and 10 with :func:`check_reversed_catalogue`).
"""

import json
import random

import pytest

import latnorm.fileio as fileio
import latnorm.gen as gen
import latnorm.lattice as lattice
from latnorm.catalogue import lattice_catalogue
from latnorm.lattice import (
    NotALattice,
    NotAPoset,
    NotBounded,
    build_lattice,
    lattice_from_edges,
)

from families import boolean


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reference_build(names, order_pairs):
    """The earlier build: fields of the lattice, or the exception it raised."""
    names = tuple(names)
    index = {name: i for i, name in enumerate(names)}
    n = len(names)
    up = [1 << i for i in range(n)]
    for lo, hi in order_pairs:
        up[index[lo]] |= 1 << index[hi]
    for k in range(n):
        row_k = up[k]
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= row_k
    down = [0] * n
    for i in range(n):
        for j in _bits(up[i]):
            down[j] |= 1 << i
    for i in range(n):
        cycle = up[i] & down[i] & ~(1 << i)
        if cycle:
            j = next(_bits(cycle))
            return NotAPoset(f"antisymmetry violated: {names[i]!r} <= {names[j]!r} <= {names[i]!r}")
    all_mask = (1 << n) - 1
    bottoms = [i for i in range(n) if up[i] == all_mask]
    tops = [i for i in range(n) if down[i] == all_mask]
    if not bottoms:
        minimal = [i for i in range(n) if down[i] == 1 << i]
        return NotBounded(f"no bottom element; minimal elements include {names[minimal[0]]!r}")
    if not tops:
        maximal = [i for i in range(n) if up[i] == 1 << i]
        return NotBounded(f"no top element; maximal elements include {names[maximal[0]]!r}")
    element_up = {mask: c for c, mask in enumerate(up)}
    element_down = {mask: c for c, mask in enumerate(down)}
    join_table, meet_table = [], []
    for a in range(n):
        joins = [element_up.get(up[a] & mask) for mask in up]
        meets = [element_down.get(down[a] & mask) for mask in down]
        if None in joins or None in meets:
            b = min(row.index(None) for row in (joins, meets) if None in row)
            return NotALattice("join" if joins[b] is None else "meet", names[a], names[b])
        join_table.append(joins)
        meet_table.append(meets)
    return tuple(up), tuple(down), bottoms[0], tops[0], join_table, meet_table


def assert_same_build(names, order_pairs, build=build_lattice):
    """``build`` (by default ``build_lattice``) agrees with the reference;
    returns the verdict, ``None`` for a lattice or the exception type."""
    want = reference_build(names, order_pairs)
    if isinstance(want, Exception):
        with pytest.raises(type(want)) as info:
            build(names, order_pairs)
        assert type(info.value) is type(want)
        assert str(info.value) == str(want)
        return type(want)
    up, down, bottom, top, join_table, meet_table = want
    lat = build(names, order_pairs)
    assert (lat.up, lat.down, lat.bottom, lat.top) == (up, down, bottom, top)
    for a in range(lat.n):
        assert [lat.join(a, b) for b in range(lat.n)] == join_table[a]
        assert [lat.meet(a, b) for b in range(lat.n)] == meet_table[a]
    return None


def _succ(names, order_pairs):
    """The pairs as one mask of direct successors per element, reflexive
    pairs left out."""
    index = {name: i for i, name in enumerate(names)}
    succ = [0] * len(names)
    for lo, hi in order_pairs:
        if lo != hi:
            succ[index[lo]] |= 1 << index[hi]
    return succ


def _from_edges(names, order_pairs):
    return lattice_from_edges(names, _succ(names, order_pairs))


def test_every_generated_draw(monkeypatch):
    drawn = []

    def recording_core(names, succ):
        drawn.append((names, list(succ)))
        return lattice_from_edges(names, succ)

    monkeypatch.setattr(gen, "lattice_from_edges", recording_core)
    for seed in range(2000):
        # an empty intern table, so that every draw reaches the core
        gen._interned_lattice.cache_clear()
        gen._attempt_lattice(random.Random(seed), (2, 12))
    gen._interned_lattice.cache_clear()
    pairs = [[(names[i], names[j]) for i in range(len(names)) for j in _bits(succ[i])]
             for names, succ in drawn]
    verdicts = [assert_same_build(names, p, build=_from_edges) for (names, _), p in zip(drawn, pairs)]
    assert len(drawn) == 2000
    # both branches are exercised: accepted draws and each kind of rejection seen
    assert verdicts.count(None) > 500
    assert NotALattice in verdicts


def _random_dag(rng, n, density):
    """(names, pairs): a DAG on n elements whose names are not in a
    topological order, with transitive, repeated and reflexive pairs mixed
    in and the whole list shuffled."""
    rank = list(range(n))
    rng.shuffle(rank)  # rank[i] < rank[j] is the only way i may lie below j
    names = [f"v{i}" for i in range(n)]
    by_rank = sorted(range(n), key=rank.__getitem__)
    pairs = [
        (names[by_rank[r]], names[by_rank[s]])
        for r in range(n)
        for s in range(r + 1, n)
        if rng.random() < density
    ]
    extra = [rng.choice(pairs) for _ in range(len(pairs) // 4)] if pairs else []
    extra += [(name, name) for name in rng.sample(names, min(3, n))]
    # transitive pairs: a -> b -> c adds a -> c
    succ = {}
    for lo, hi in pairs:
        succ.setdefault(lo, []).append(hi)
    for lo, hi in rng.sample(pairs, min(len(pairs), 20)):
        if hi in succ:
            extra.append((lo, rng.choice(succ[hi])))
    pairs += extra
    rng.shuffle(pairs)
    return names, pairs, by_rank


def _bounded(names, pairs, by_rank):
    """Add a bottom below the least-ranked element and a top above the rest."""
    low, high = names[by_rank[0]], names[by_rank[-1]]
    return names, pairs + [(low, x) for x in names if x != low] + [
        (x, high) for x in names if x != high
    ]


def assert_core_is_the_front_end(names, pairs):
    """``lattice_from_edges`` on the resolved pairs raises what
    ``build_lattice`` raises, type and text, or builds the same lattice."""
    try:
        want = build_lattice(names, pairs)
    except Exception as exc:
        with pytest.raises(type(exc)) as info:
            _from_edges(names, pairs)
        assert type(info.value) is type(exc)
        assert str(info.value) == str(exc)
        return type(exc)
    got = _from_edges(names, pairs)
    assert (got.names, got.up, got.down, got.bottom, got.top, got.upper_covers) == (
        want.names, want.up, want.down, want.bottom, want.top, want.upper_covers)
    return None


@pytest.mark.parametrize("seed", range(60))
def test_core_raises_what_the_front_end_raises(seed):
    rng = random.Random(seed)
    names, pairs, by_rank = _random_dag(rng, rng.randint(2, 64), rng.choice((0.03, 0.1, 0.3)))
    verdicts = [assert_core_is_the_front_end(names, pairs)]
    names, pairs = _bounded(names, pairs, by_rank)
    verdicts.append(assert_core_is_the_front_end(names, pairs))
    forward = [(lo, hi) for lo, hi in pairs if lo != hi]
    lo, hi = rng.choice(forward)
    verdicts.append(assert_core_is_the_front_end(names, pairs + [(hi, lo)]))
    assert verdicts[2] is NotAPoset


def test_core_rejects_masks_outside_the_carrier():
    with pytest.raises(ValueError):
        lattice_from_edges(("0", "1"), [0b10])
    with pytest.raises(ValueError):
        lattice_from_edges(("0", "1"), [0b110, 0])
    with pytest.raises(ValueError):
        lattice_from_edges(("0", "1"), [0b11, 0])  # its own bit: reflexivity is implied


def test_core_refuses_an_empty_carrier_as_the_front_end_does():
    # NotAPoset("empty carrier"), the refusal of build_lattice's name check
    assert assert_core_is_the_front_end((), []) is NotAPoset


@pytest.mark.parametrize("seed", range(60))
def test_random_dags_as_redundant_le_pairs(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 64)
    names, pairs, by_rank = _random_dag(rng, n, rng.choice((0.03, 0.1, 0.3)))
    assert_same_build(names, pairs)
    assert_same_build(*_bounded(names, pairs, by_rank))


@pytest.mark.parametrize("seed", range(40))
def test_generated_lattices_as_shuffled_le_pairs(seed):
    # the full order of an accepted lattice, relabelled and shuffled
    lat = gen.gen_lattice(gen.GenConfig(seed=seed, size_range=(2, 12)))
    rng = random.Random(seed)
    perm = list(range(lat.n))
    rng.shuffle(perm)
    names = [f"y{perm[i]}" for i in range(lat.n)]
    pairs = [(names[a], names[b]) for a in range(lat.n) for b in _bits(lat.up[a])]
    rng.shuffle(pairs)
    assert assert_same_build(names, pairs) is None


def _pairs(text):
    return [tuple(pair.split("<")) for pair in text.split()]


@pytest.mark.parametrize(
    "names, pairs",
    [
        # a 2-cycle next to a valid part
        (("0", "a", "b", "x", "y", "1"), _pairs("0<a 0<b a<1 b<1 0<x x<y y<x y<1")),
        # the cycle's first element in id order is not where the pairs start
        (("c", "b", "a", "0", "1"), _pairs("0<a a<b b<c c<a c<1")),
        # a 2-cycle between the bounds themselves
        (("0", "1"), _pairs("0<1 1<0")),
        # a cycle through every element
        (tuple(f"z{i}" for i in range(64)), [(f"z{i}", f"z{(i + 1) % 64}") for i in range(64)]),
        # two cycles; the one with the smaller ids is named
        (("p", "q", "0", "r", "s", "1"), _pairs("0<r r<s s<r 0<p p<q q<p s<1 q<1")),
    ],
)
def test_cyclic_inputs(names, pairs):
    assert assert_same_build(names, pairs) is NotAPoset


@pytest.mark.parametrize("seed", range(30))
def test_random_cyclic_inputs(seed):
    rng = random.Random(seed)
    names, pairs, by_rank = _random_dag(rng, rng.randint(3, 40), 0.1)
    names, pairs = _bounded(names, pairs, by_rank)
    forward = [(lo, hi) for lo, hi in pairs if lo != hi]
    for _ in range(rng.randint(1, 3)):
        lo, hi = rng.choice(forward)
        pairs.append((hi, lo))  # closes a cycle with a pair already given
    rng.shuffle(pairs)
    assert assert_same_build(names, pairs) is NotAPoset


@pytest.mark.parametrize(
    "names, pairs",
    [
        (("a", "b"), []),
        (("a", "b", "1"), _pairs("a<1 b<1")),
        (("0", "a", "b"), _pairs("0<a 0<b")),
        (("1", "b", "a", "c"), _pairs("a<b b<1 c<1")),
        (("x",) + tuple(f"w{i}" for i in range(63)), [(f"w{i}", f"w{i + 1}") for i in range(62)]),
    ],
)
def test_inputs_without_a_bound(names, pairs):
    assert assert_same_build(names, pairs) is NotBounded


BOWTIE = _pairs("0<a 0<b a<c a<d b<c b<d c<1 d<1")


@pytest.mark.parametrize(
    "names, pairs",
    [
        (("0", "a", "b", "c", "d", "1"), BOWTIE),
        (("0", "c", "d", "a", "b", "1"), BOWTIE),
        (("0", "a", "b", "x", "y", "z", "1"),
         _pairs("0<a 0<b a<x a<y a<z b<x b<y b<z x<1 y<1 z<1")),
        (("p", "q", "r", "0", "x1", "x2", "y1", "y2", "1"),
         _pairs("0<x1 0<x2 x1<p x1<q x2<p x2<q p<y1 p<y2 r<y1 r<y2 0<r q<1 y1<1 y2<1")),
        (("a", "b", "0", "l1", "l2", "u1", "u2", "1"),
         _pairs("0<l1 0<l2 l1<a l1<b l2<a l2<b a<u1 a<u2 b<u1 b<u2 u1<1 u2<1")),
    ],
)
def test_posets_without_a_join_or_meet(names, pairs):
    assert assert_same_build(names, pairs) is NotALattice


def test_closure_and_full_scan_run_only_on_rejection(count_calls):
    calls = count_calls(lattice, "_closure", "_unbounded_pair_error")
    boolean(6)
    assert calls == []
    with pytest.raises(NotAPoset):
        build_lattice(("0", "1"), _pairs("0<1 1<0"))
    assert calls == ["_closure"]
    with pytest.raises(NotALattice):
        build_lattice(("0", "a", "b", "c", "d", "1"), BOWTIE)
    assert calls == ["_closure", "_unbounded_pair_error"]


def test_kahn_runs_only_for_inputs_out_of_id_order(count_calls, l11):
    calls = count_calls(lattice, "_kahn_order")
    boolean(6)
    next(lattice_catalogue(8))
    gen._interned_lattice.cache_clear()
    # an empty intern table, so that every draw reaches the core
    drawn = [gen._attempt_lattice(random.Random(seed), (4, 9)) for seed in range(20)]
    gen._interned_lattice.cache_clear()
    assert any(drawn)
    assert calls == []
    names, pairs, _ = _random_dag(random.Random(0), 12, 0.3)
    assert_same_build(names, pairs)
    assert calls == ["_kahn_order"]
    doc = json.loads(fileio.render_lattice(l11.lattice, "L11"))
    doc["covers"] = [[b, a] for a, b in doc["covers"]]
    assert fileio.parse_lattice(json.dumps(doc))[1].up == l11.lattice.down
    assert calls == ["_kahn_order"] * 2


def derived_posets(lat):
    """(names, pairs) of every poset made from ``lat`` by deleting one
    element other than the bounds (the order induced on the rest), or one
    cover edge (the order the other covers generate)."""
    for x in range(lat.n):
        if x not in (lat.bottom, lat.top):
            names = lat.names[:x] + lat.names[x + 1:]
            yield names, [(lat.names[a], lat.names[b]) for a in range(lat.n) if a != x
                          for b in _bits(lat.up[a] & ~(1 << a | 1 << x))]
    covers = [(lat.names[a], lat.names[b])
              for a in range(lat.n) for b in _bits(lat.upper_covers[a])]
    for edge in covers:
        yield lat.names, [pair for pair in covers if pair != edge]


def check_derived_posets(n):
    """Every derived poset of every catalogue lattice with ``n`` elements,
    through the core and the reference; (posets, rejected)."""
    verdicts = [assert_same_build(names, pairs, build=_from_edges)
                for lat in lattice_catalogue(n) for names, pairs in derived_posets(lat)]
    return len(verdicts), len(verdicts) - verdicts.count(None)


# n -> (posets, rejected); n = 9, (19,506, 11,195), runs in CI
DERIVED_POSETS = {2: (1, 1), 3: (3, 2), 4: (11, 7), 5: (40, 25), 6: (157, 96), 7: (688, 411),
                  8: (3446, 2015)}


@pytest.mark.parametrize("n", sorted(DERIVED_POSETS))
def test_posets_derived_from_catalogue_lattices(n):
    assert check_derived_posets(n) == DERIVED_POSETS[n]


def _reversed_ids(mask, n):
    """``mask`` with element ``i`` renamed ``n - 1 - i``."""
    return int(format(mask, f"0{n}b")[::-1], 2)


def check_reversed_catalogue(n):
    """Rebuild every catalogue lattice with ``n`` elements with its ids
    reversed, from its full order as the catalogue gives it, so that every
    edge goes down and the core orders the elements by Kahn's algorithm:
    each field equals the forward build's under the relabelling.  Returns
    the number of lattices checked."""
    flip = [n - 1 - i for i in range(n)]
    count = 0
    for lat in lattice_catalogue(n):
        succ = [_reversed_ids(lat.up[flip[i]], n) & ~(1 << i) for i in range(n)]
        got = lattice_from_edges(lat.names[::-1], succ)
        for field in ("up", "down", "upper_covers"):
            assert getattr(got, field) == tuple(_reversed_ids(getattr(lat, field)[flip[i]], n)
                                                for i in range(n))
        assert (got.bottom, got.top) == (flip[lat.bottom], flip[lat.top])
        count += 1
    return count


# n -> lattices with n elements (OEIS A006966); n = 9 (1,078) and n = 10
# (5,994) run in CI
CATALOGUE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 5, 6: 15, 7: 53, 8: 222}


@pytest.mark.parametrize("n", sorted(CATALOGUE_COUNTS))
def test_reversed_ids_build_the_same_catalogue_lattice(n):
    assert check_reversed_catalogue(n) == CATALOGUE_COUNTS[n]
