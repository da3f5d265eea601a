"""The lattice catalogue: counts, canonical codes, the build and duality."""

import random

import pytest

from latnorm.catalogue import canonical_code, lattice_catalogue
from latnorm.lattice import build_lattice, ids_of

from families import boolean, chain

# OEIS A006966: the lattices with n elements, up to isomorphism
COUNTS = [1, 1, 1, 2, 5, 15, 53, 222, 1078]


@pytest.mark.parametrize("n, count", enumerate(COUNTS, 1))
def test_counts(n, count):
    lattices = list(lattice_catalogue(n))
    assert len(lattices) == count
    codes = [lat.up for lat in lattices]
    # each lattice's up-masks are its code, in strictly ascending order,
    # so no two codes are equal
    assert codes == sorted(set(codes))
    assert all(canonical_code(code) == code for code in codes)
    # the catalogue is closed under duality
    assert {canonical_code(lat.dual().up) for lat in lattices} == set(codes)


@pytest.mark.parametrize("n", range(1, 10))
def test_every_lattice_round_trips_through_build_lattice(n):
    for lat in lattice_catalogue(n):
        assert lat.names == tuple(f"x{i}" for i in range(n))
        assert (lat.bottom, lat.top) == (0, n - 1)
        covers = [(lat.name(a), lat.name(b)) for a in range(n) for b in ids_of(lat.upper_covers[a])]
        rebuilt = build_lattice(lat.names, covers)
        assert (rebuilt.up, rebuilt.down) == (lat.up, lat.down)


def test_the_code_forgets_the_labelling():
    rng = random.Random(5)
    for lat in [chain(6), boolean(3), *lattice_catalogue(7)]:
        perm = list(range(lat.n))
        rng.shuffle(perm)
        relabelled = [0] * lat.n
        for a in range(lat.n):
            relabelled[perm[a]] = sum(1 << perm[b] for b in ids_of(lat.up[a]))
        assert canonical_code(relabelled) == canonical_code(lat.up)


def test_families_are_in_the_catalogue():
    assert canonical_code(chain(6).up) in {lat.up for lat in lattice_catalogue(6)}
    assert canonical_code(boolean(3).up) in {lat.up for lat in lattice_catalogue(8)}


def test_no_lattice_without_elements():
    with pytest.raises(ValueError):
        lattice_catalogue(0)
