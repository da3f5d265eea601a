"""Lattice families and frames shared by the tests: the closed-form
chain, Boolean lattice and grid (the n = 64 oracle inputs among them), a
meet-core inner table, and every frame of the catalogue's lattices, the
shared input of the differential oracles.
"""

from latnorm.catalogue import lattice_catalogue
from latnorm.construct import THEOREMS, ConstructionSpec
from latnorm.gen import GenConfig, gen_uninorm
from latnorm.lattice import build_lattice
from latnorm.optable import table_from_function

# the (theorem, anchor class) pairs the fuzz suite draws
FUZZ_PAIRS = [(theorem, anchor_class) for theorem in sorted(THEOREMS)
              for anchor_class in THEOREMS[theorem].anchor_classes]


def chain(n):
    names = tuple(str(i) for i in range(n))
    return build_lattice(names, [(str(i), str(i + 1)) for i in range(n - 1)])


def boolean(k):
    names = [format(i, f"0{k}b") for i in range(2 ** k)]
    return build_lattice(names, [(names[i], names[i | 1 << b]) for i in range(2 ** k)
                                 for b in range(k) if not i >> b & 1])


def grid(rows, cols):
    names = [f"g{i}_{j}" for i in range(rows) for j in range(cols)]
    covers = [(names[i], names[i + cols]) for i in range(len(names) - cols)]
    covers += [(names[i], names[i + 1]) for i in range(len(names)) if i % cols < cols - 1]
    return build_lattice(names, covers)


def meet_core(lat, threshold, neutral):
    """The meet on [bottom, neutral]; outside it the other argument wins,
    and two arguments outside give the threshold."""
    core = lat.interval_mask(lat.bottom, neutral)

    def cell(x, y):
        if core >> x & 1 and core >> y & 1:
            return lat.meet(x, y)
        return x if core >> y & 1 else y if core >> x & 1 else threshold

    return table_from_function(lat, lat.interval(lat.bottom, threshold), cell)


def frames(lat, seed=0):
    """Every join-form spec of ``lat``: each interior threshold, each
    neutral below it and each anchor, ``other`` included.  Each (threshold,
    neutral) has its own unfiltered ``gen_uninorm`` inner table, seeded by
    (``seed``, threshold, neutral) read as digits in base n, so the inner
    class varies too."""
    for threshold in range(lat.n):
        if threshold in (lat.bottom, lat.top):
            continue
        below = lat.interval(lat.bottom, threshold)
        for neutral in below:
            inner_seed = (seed * lat.n + threshold) * lat.n + neutral
            inner = gen_uninorm(lat, below, neutral, GenConfig(seed=inner_seed))
            for anchor in range(lat.n):
                yield ConstructionSpec(lat, threshold, neutral, anchor, inner)


def catalogue_specs(max_n):
    """The :func:`frames` of every catalogue lattice with at most ``max_n``
    elements, in catalogue order: 1,240 specs for ``max_n`` = 6, 6,924 for 7."""
    for n in range(3, max_n + 1):
        for lat in lattice_catalogue(n):
            yield from frames(lat)
