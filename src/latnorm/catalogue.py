"""Every finite lattice with n elements, once up to isomorphism.

Removing an atom from a finite lattice with at least three elements leaves
a lattice: a meet that was the atom becomes bottom, and no join changes.
So every lattice with n elements is a lattice with n - 1 elements plus a
new atom, whose strict up-set is the up-closure of a non-empty antichain
of non-bottom elements.  :func:`lattice_catalogue` grows the catalogue one
element at a time that way, keeps a candidate when every pair has a join
(a finite poset with a bottom in which every two elements have a join
is a lattice), and deduplicates by :func:`canonical_code`.

The counts for n = 1..10 are 1, 1, 1, 2, 5, 15, 53, 222, 1078 and 5994,
OEIS A006966 (Heitzig & Reinhold, "Counting finite lattices", Algebra
Universalis 47, 2002).  In pure Python all of n <= 9 takes about 0.4 s
and n = 10 about 2.5 s more (2-core Intel Xeon, Python 3.11).  Each level's
codes are computed on first use and kept, since level n is built from
level n - 1; nothing is computed at import.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations, product
from typing import Iterator, Sequence

from .lattice import BoundedLattice, ids_of, lattice_from_edges, transpose


def lattice_catalogue(n: int) -> Iterator[BoundedLattice]:
    """Every lattice with ``n`` elements once, up to isomorphism, in
    canonical order: ascending :func:`canonical_code`.  Element ``i`` is
    named ``x{i}`` and its up-mask is entry ``i`` of the code, so ids
    ascend along a linear extension: bottom is ``x0`` and top is the last."""
    if n < 1:
        raise ValueError(f"a lattice has at least one element, not {n}")
    names = tuple(f"x{i}" for i in range(n))
    return (lattice_from_edges(names, [code[x] & ~(1 << x) for x in range(n)]) for code in _codes(n))


@lru_cache(maxsize=None)
def _codes(n: int) -> tuple[tuple[int, ...], ...]:
    """The sorted canonical codes of the lattices with ``n`` elements."""
    if n <= 2:
        return ((0b1,),) if n == 1 else ((0b11, 0b10),)
    atom = 1 << (n - 1)  # the new element's bit
    found = set()
    for up in _codes(n - 1):
        ups = set(up)
        for upper in _up_sets(up):
            # the atom's join with an old element x above bottom (bit 0) and
            # outside ``upper`` is the least element of ``upper & up[x]``,
            # when there is one
            if all(upper & up[x] in ups for x in ids_of((atom - 2) & ~upper)):
                found.add(canonical_code((up[0] | atom, *up[1:], atom | upper)))
    return tuple(sorted(found))


def _up_sets(up: Sequence[int]) -> Iterator[int]:
    """The up-closure of each non-empty antichain of non-bottom elements,
    each antichain once, its elements in ascending id order."""
    down = transpose(up)

    def extend(closure: int, candidates: int) -> Iterator[int]:
        for x in ids_of(candidates):
            grown = closure | up[x]
            yield grown
            # the elements after x that are incomparable to it
            yield from extend(grown, candidates & ~(up[x] | down[x]) & ~((2 << x) - 1))

    return extend(0, (1 << len(up)) - 2)


def _ranks(keys: list) -> list[int]:
    """Each key's rank among the distinct keys, ascending."""
    rank = {key: r for r, key in enumerate(sorted(set(keys)))}
    return [rank[key] for key in keys]


def canonical_code(up: Sequence[int]) -> tuple[int, ...]:
    """The canonical form of the lattice whose order masks are ``up``
    (``up[i]`` bit ``j`` set iff ``i <= j``): two lattices are isomorphic
    iff their codes are equal.

    Colour refinement splits the elements into classes: a colour starts as
    the (down-set, up-set) sizes and is refined by the colours of the
    down-set and up-set until no class splits.  The classes are
    ranked by colour, so that every ordering that keeps them in rank
    order is a linear extension; the code is the least tuple of up-masks
    over those orderings, each mask read in the new ids."""
    n = len(up)
    above = [ids_of(mask) for mask in up]
    below = [ids_of(mask) for mask in transpose(up)]
    colour = _ranks([(len(below[x]), len(above[x])) for x in range(n)])
    while True:
        refined = _ranks([
            (colour[x],
             tuple(sorted(colour[y] for y in above[x])),
             tuple(sorted(colour[y] for y in below[x])))
            for x in range(n)
        ])
        if max(refined) == max(colour):
            break
        colour = refined
    classes = [[x for x in range(n) if colour[x] == c] for c in range(max(colour) + 1)]
    best = None
    new_id = [0] * n
    for parts in product(*map(permutations, classes)):
        order = [x for part in parts for x in part]
        for i, x in enumerate(order):
            new_id[x] = i
        code = tuple(sum(1 << new_id[y] for y in above[x]) for x in order)
        if best is None or code < best:
            best = code
    return best
