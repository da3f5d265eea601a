"""Every producer of tables hands over the buffer the tuple constructor builds.

A table's cells are one row-major ``bytes`` buffer.  The file reader, the
two constructions, ``rewrap``, ``meet_table``, ``pinch_tnorm``,
``gen_uninorm`` (skeletons and kept mutations), ``restrict`` and
``table_from_function`` build that buffer without going through
``values`` tuples; each table they return must be the table
``OpTable(lattice, carrier, values)`` builds from its own ``values`` view:
the same bytes, an immutable ``bytes`` object, the carrier's position map,
equal and equally hashed, with the same battery report at every neutral.
"""

from itertools import chain

from latnorm import gen as gen_module
from latnorm.construct import construct_eq1, construct_eq2, dual_spec, pinch_tnorm
from latnorm.fileio import parse_table, read_table, render_table_json, write_instance
from latnorm.gen import GenConfig, gen_lattice, gen_uninorm
from latnorm.optable import (
    OpTable,
    is_uninorm,
    join_table,
    meet_table,
    restrict,
    rewrap,
    table_from_function,
)

from families import boolean, catalogue_specs, meet_core


def assert_well_formed(t):
    assert type(t.buf) is bytes
    assert t.buf == bytes(chain.from_iterable(t.values))
    assert t.pos == {a: i for i, a in enumerate(t.carrier)}
    rebuilt = OpTable(t.lattice, t.carrier, t.values)
    assert t == rebuilt and hash(t) == hash(rebuilt)
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


def test_rewrap_shares_the_buffer_and_the_position_map(l11):
    t = l11.stored
    dual = rewrap(t, t.lattice.dual())
    assert dual.buf is t.buf and dual.pos is t.pos
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
