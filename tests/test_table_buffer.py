"""Every producer of tables hands over the buffer its rows spell out.

A table's cells are one row-major ``bytes`` buffer, handed to the one
constructor, ``OpTable(lattice, carrier, cells)``.  The file reader, the
two constructions, ``rewrap``, ``meet_table``, the test families'
``join_table``, ``pinch_tnorm``, ``gen_uninorm`` (skeletons and kept
mutations) and ``restrict`` build that buffer without going through
``values`` tuples; each table they return must be the table
``rows_table`` builds from its own ``values`` view: the same bytes, an
immutable ``bytes`` object, the carrier's position map, equal and equally
hashed, with the same battery report at every neutral.  The rows themselves are no cells: the
constructor refuses them.

The lattice operations are built in one comprehension, ``restrict`` a row
at a time, and the pinch t-norms and the generator's skeletons by one call
each of ``construct._extend``, the extension builder; every row is one
``_gather``.  Each must also be the table that ``table_from_function``,
the per-cell builder kept in ``families``, makes from its cell rule, on
shuffled carriers and sub-carriers too.
"""

import random
from itertools import chain

import pytest

from latnorm import gen as gen_module
from latnorm.catalogue import lattice_catalogue
from latnorm.construct import construct_eq1, construct_eq2, dual_spec, pinch_tnorm
from latnorm.fileio import parse_table, read_table, render_table_json, write_instance
from latnorm.gen import GenConfig, gen_lattice, gen_uninorm
from latnorm.optable import (
    OpTable,
    OpTableError,
    _gather,
    is_uninorm,
    meet_table,
    restrict,
    rewrap,
)

from families import (
    boolean, catalogue_specs, join_table, meet_core, rows_table, table_from_function,
)


def assert_well_formed(t):
    assert type(t.buf) is bytes
    assert t.buf == bytes(chain.from_iterable(t.values))
    assert t.pos == {a: i for i, a in enumerate(t.carrier)}
    rebuilt = rows_table(t.lattice, t.carrier, t.values)
    assert t == rebuilt and hash(t) == hash(rebuilt)
    if t.carrier:  # k rows of k cells are no k * k cells
        with pytest.raises(OpTableError):
            OpTable(t.lattice, t.carrier, t.values)
    for e in t.carrier:
        assert is_uninorm(t, e) == is_uninorm(rebuilt, e)


def test_the_constructions(entries):
    specs = [entry.spec for entry in entries.values()]
    specs += [spec for spec in catalogue_specs(5) if spec.anchor == spec.lattice.n - 1]
    for spec in specs:
        eq1 = construct_eq1(spec, check_inner=False)
        assert_well_formed(eq1)
        eq2 = construct_eq2(dual_spec(spec), check_inner=False)
        assert_well_formed(eq2)
        assert eq2.buf == eq1.buf


def test_rewrap_shares_the_buffer(l11):
    t = l11.stored
    dual = rewrap(t, t.lattice.dual())
    assert dual.buf is t.buf
    assert_well_formed(dual)
    back = rewrap(dual, t.lattice)
    assert back == t
    assert_well_formed(back)


def test_the_lattice_operations_and_pinches():
    for seed in range(15):
        lat = gen_lattice(GenConfig(seed=seed, size_range=(3, 9)))
        assert_well_formed(meet_table(lat))
        assert_well_formed(join_table(lat))
        for pivot in range(lat.n):
            upper = meet_table(lat, lat.interval(pivot, lat.top))
            assert_well_formed(pinch_tnorm(lat, lat.bottom, lat.top, pivot, upper))


def test_gen_uninorm_with_kept_mutations(monkeypatch):
    mutated = []

    def recording_mutate(t, e, rng):
        table = mutate(t, e, rng)
        if table is not None:
            mutated.append(table)
        return table

    mutate = gen_module._mutate
    monkeypatch.setattr(gen_module, "_mutate", recording_mutate)
    kept = 0
    for seed in range(150):
        lat = gen_lattice(GenConfig(seed=seed, size_range=(3, 8)))
        carrier = tuple(range(lat.n))
        t = gen_uninorm(lat, carrier, seed % lat.n, GenConfig(seed=seed))
        kept += any(t is m for m in mutated)
        assert_well_formed(t)
        low = restrict(t, lat.interval(lat.bottom, seed % lat.n))
        assert_well_formed(low)
    assert kept >= 5  # 7 of the 150 tables
    for t in mutated:
        assert_well_formed(t)


def test_table_from_function_and_restrict():
    lat = boolean(4)
    t = table_from_function(lat, reversed(range(lat.n)), lambda a, b: a | b)
    assert_well_formed(t)
    assert_well_formed(restrict(t, (3, 1, 7, 0)))
    assert_well_formed(meet_core(lat, lat.index("0111"), lat.index("0011")))
    # every interval, shuffled, of a meet table and a generated uninorm on
    # each catalogue lattice with at most 6 elements: the per-cell reference
    rng = random.Random(6)
    sizes = set()
    for n in range(3, 7):
        for i, lat in enumerate(lattice_catalogue(n)):
            carrier = list(range(lat.n))
            rng.shuffle(carrier)
            tables = (meet_table(lat, carrier),
                      gen_uninorm(lat, range(lat.n), i % lat.n, GenConfig(seed=i)))
            for lo in range(lat.n):
                for hi in lat.interval(lo, lat.top):
                    sub = list(lat.interval(lo, hi))
                    rng.shuffle(sub)
                    sizes.add(len(sub))
                    for t in tables:
                        got = restrict(t, sub)
                        assert got == table_from_function(lat, sub, t.value)
                        assert_well_formed(got)
    assert {1, 2, 3} <= sizes


def test_the_file_reader(entries, tmp_path):
    for entry in entries.values():
        lat = entry.lattice
        for table in entry.tables.values():
            read = parse_table(render_table_json(table, "L"), lat)[1]
            assert read == table
            assert_well_formed(read)
        write_instance(tmp_path, entry.id, lat, entry.tables)
        for key, table in entry.tables.items():
            _, _, read = read_table(tmp_path / f"{entry.id}.{key}.table.json")
            assert read.carrier == table.carrier and read.buf == table.buf
            assert_well_formed(read)


def reference_pinch(lat, lo, hi, pivot, upper):
    """The pinch t-norm, cell by cell."""
    upper_mask = lat.interval_mask(pivot, hi)

    def cell(x, y):
        if upper_mask >> x & 1 and upper_mask >> y & 1:
            return upper.value(x, y)
        if x == hi or y == hi:
            return lat.meet(x, y)
        return lo

    return table_from_function(lat, lat.interval(lo, hi), cell)


def reference_meet_core(lat, carrier, e, lo, hi, core):
    """The meet-core skeleton around the t-norm ``core`` on [lo, e], cell by cell."""
    core_mask = lat.interval_mask(lo, e)

    def cell(x, y):
        x_in, y_in = core_mask >> x & 1, core_mask >> y & 1
        if x_in and y_in:
            return core.value(x, y)
        if y_in:
            return x
        if x_in:
            return y
        return hi

    return table_from_function(lat, carrier, cell)


def test_row_built_tables_match_their_per_cell_rules():
    skeletons = 0
    for seed in range(30):
        lat = gen_lattice(GenConfig(seed=seed, size_range=(2, 8)))
        rng = random.Random(seed)
        # the gather every row builder uses, on any index into any values
        values = rng.randbytes(rng.randint(1, 256))
        index = bytes(rng.randrange(len(values)) for _ in range(rng.randint(0, 300)))
        assert _gather(index, values) == bytes(values[i] for i in index)
        shuffled = list(range(lat.n))
        rng.shuffle(shuffled)
        for carrier in (range(lat.n), shuffled, shuffled[:rng.randint(1, lat.n)]):
            assert meet_table(lat, carrier) == table_from_function(lat, carrier, lat.meet)
            assert join_table(lat, carrier) == table_from_function(lat, carrier, lat.join)
        for lo in range(lat.n):
            for hi in lat.interval(lo, lat.top):
                # every pivot below hi, those outside [lo, hi] included
                for pivot in lat.interval(lat.bottom, hi):
                    upper = meet_table(lat, lat.interval(pivot, hi))
                    got = pinch_tnorm(lat, lo, hi, pivot, upper)
                    assert got == reference_pinch(lat, lo, hi, pivot, upper)
                    assert_well_formed(got)
                # the skeletons on [lo, hi] in shuffled order, in both
                # families, around a random t-norm core
                carrier = list(lat.interval(lo, hi))
                rng.shuffle(carrier)
                for e in carrier:
                    for side, lo_, hi_ in ((lat, lo, hi), (lat.dual(), hi, lo)):
                        got = gen_module._meet_core_uninorm(side, carrier, e, lo_, hi_,
                                                            random.Random(seed))
                        core = gen_module._rand_tnorm(side, lo_, e, random.Random(seed))
                        assert got == reference_meet_core(side, carrier, e, lo_, hi_, core)
                        assert_well_formed(got)
                        skeletons += 1
    assert skeletons > 1000
