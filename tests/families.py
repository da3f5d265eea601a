"""Lattice families, frames and reference builders shared by the tests:
the closed-form chain, Boolean lattice and grid (the n = 64 oracle inputs
among them), a meet-core inner table, a generated ``ut`` table, every
frame of the catalogue's lattices (the shared input of the differential
oracles), the per-cell table builders and pinch references, the
brute-force uninorm enumerator, and the cell readers of the text and CSV
renderings.
"""

import csv
import io

from latnorm.catalogue import lattice_catalogue
from latnorm.construct import THEOREMS, ConstructionSpec
from latnorm.gen import GenConfig, gen_uninorm
from latnorm.lattice import build_lattice
from latnorm.optable import OpTable, OpTableError, is_uninorm, rewrap

# the (theorem, anchor class) pairs the fuzz suite draws
FUZZ_PAIRS = [(theorem, anchor_class) for theorem in sorted(THEOREMS)
              for anchor_class in THEOREMS[theorem].anchor_classes]


def table_from_function(lattice, carrier, fn):
    """The table whose cell (a, b) is ``fn(a, b)``, built cell by cell:
    the reference of the row-built tables."""
    carrier = tuple(carrier)
    return OpTable(lattice, carrier, [fn(a, b) for a in carrier for b in carrier])


def join_table(lattice, carrier=None):
    """The join on ``carrier`` (every element by default): the t-conorm
    of a join-form construction's inner table."""
    carrier = tuple(range(lattice.n)) if carrier is None else tuple(carrier)
    return OpTable(lattice, carrier, lattice.join_cells(carrier))


def gen_uninorm_ut(lat, carrier, e, seed):
    """A generated uninorm in ``ut``: the ``ub`` draw on the dual lattice,
    read back on ``lat``."""
    return rewrap(gen_uninorm(lat.dual(), carrier, e, GenConfig(seed, class_filter="ub")), lat)


def rows_table(lattice, carrier, rows):
    """The table whose rows, in carrier order, are ``rows``."""
    carrier = tuple(carrier)
    if len(rows) != len(carrier) or any(len(row) != len(carrier) for row in rows):
        raise OpTableError("values table is not square over the carrier")
    return OpTable(lattice, carrier, [v for row in rows for v in row])


def enumerate_uninorms(lat, carrier, e):
    """All uninorms on a small carrier, by backtracking over symmetric cells.

    Exponential in the carrier size; the generator oracle for carriers of
    at most four elements.
    """
    carrier = tuple(carrier)
    free = [x for x in carrier if x != e]
    k = len(carrier)
    pos = {x: i for i, x in enumerate(carrier)}
    # the offsets of each symmetric non-neutral cell and of its mirror
    cells = [(pos[a] * k + pos[b], pos[b] * k + pos[a])
             for i, a in enumerate(free) for b in free[i:]]
    buf = bytearray(k * k)
    for x in carrier:
        buf[pos[e] * k + pos[x]] = buf[pos[x] * k + pos[e]] = x

    found = []

    def fill(i):
        if i == len(cells):
            table = OpTable(lat, carrier, bytes(buf))
            if is_uninorm(table, e).ok:
                found.append(table)
            return
        ab, ba = cells[i]
        for v in carrier:
            buf[ab] = buf[ba] = v
            fill(i + 1)

    fill(0)
    return found


def table_cells_from_text(text):
    """Re-extract cell names from the text rendering (cross-format checks)."""
    lines = [line for line in text.splitlines() if line and "+" not in line]
    out = []
    for line in lines[1:]:
        _, _, cells = line.partition("|")
        out.append(cells.split())
    return out


def table_cells_from_csv(text):
    return [row[1:] for row in list(csv.reader(io.StringIO(text)))[1:]]


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


def reference_pinch(lat, lo, hi, pivot, upper):
    """The pinch t-norm on [lo, hi] around ``upper`` on [pivot, hi], cell by
    cell: the reference of ``pinch_tnorm`` and, on [bottom, top], of the
    meet form at neutral top."""
    upper_mask = lat.interval_mask(pivot, hi)

    def cell(x, y):
        if upper_mask >> x & 1 and upper_mask >> y & 1:
            return upper.value(x, y)
        if x == hi or y == hi:
            return lat.meet(x, y)
        return lo

    return table_from_function(lat, lat.interval(lo, hi), cell)


def reference_pinch_tconorm(lat, pivot, lower):
    """The pinch t-conorm on [bottom, top] around ``lower`` on [bottom,
    pivot]: :func:`reference_pinch` on the dual lattice, read back.  The
    reference of the join form at neutral bottom."""
    dual = lat.dual()
    return rewrap(reference_pinch(dual, dual.bottom, dual.top, pivot, rewrap(lower, dual)), lat)


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
