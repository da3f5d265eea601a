"""End-to-end acceptance suite.

One test per criterion, each enforcing its stated tolerance (exact cell
equality, instance counts, runtime budgets) and printing a pass/fail
line.  Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
"""

import time

from latnorm import corpus
from latnorm.cli import main
from latnorm.construct import (
    ConstructionSpec,
    construct_eq1,
    construct_eq2,
    construct_for,
    construct_pinched_tconorm,
    construct_pinched_tnorm,
)
from latnorm.fileio import parse_lattice, parse_table, render_lattice, render_table
from latnorm.gen import GenConfig, dual_spec, gen_lattice, gen_spec, gen_uninorm
from latnorm.optable import (
    first_associativity_witness,
    in_class_ub,
    in_class_umax,
    in_class_umin,
    in_class_ut,
    is_uninorm,
    restrict,
)
from latnorm.verify import Partition, assoc_partitioned, verify_equivalence

from families import rows_table


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}]: {desc}")
    assert ok, f"criterion {num}: {desc}"


def test_criterion_01_table_reproduction_l11():
    start = time.monotonic()
    entry = corpus.load("L11")
    table = construct_eq1(entry.spec)
    cells_equal = table.values == entry.printed.values
    verified = is_uninorm(table, entry.spec.neutral).ok
    elapsed = time.monotonic() - start
    _report(
        1,
        f"L11 construction reproduces all 121 cells exactly and verifies "
        f"({elapsed:.3f}s < 1s)",
        cells_equal and verified and table.lattice.n == 11 and elapsed < 1.0,
    )


def test_criterion_02_table_reproduction_with_errata():
    ok = True
    for entry_id in ("L12", "L21"):
        entry = corpus.load(entry_id)
        lat = entry.lattice
        table = construct_for(entry.spec, entry.theorem)
        diff = set(table.diff(entry.printed))
        ledger = {(lat.index(e.row), lat.index(e.col)) for e in entry.errata}
        ok &= diff == ledger == {(lat.index("e"), lat.index("f"))}
        ok &= table.value(lat.index("e"), lat.index("f")) == lat.index("f")
        ok &= is_uninorm(entry.stored, entry.spec.neutral).ok
    _report(2, "L12 and L21 reproduce except the documented (e,f) cell, "
               "where the build yields f; diffs equal the ledger", ok)


def test_criterion_03_counterexample_reproduction():
    ok = True
    for entry_id, cited in (("L13", ("s", "t", "m")), ("L22", ("s", "m", "t"))):
        entry = corpus.load(entry_id)
        lat = entry.lattice
        table = construct_for(entry.spec, entry.theorem)
        diff = set(table.diff(entry.printed))
        ledger = {(lat.index(e.row), lat.index(e.col)) for e in entry.errata}
        ok &= diff == ledger
        report = is_uninorm(entry.stored, entry.spec.neutral)
        ok &= not report.ok and report.monotone is not None
        a, b, c, ua, ub, _ = report.monotone
        ok &= (lat.name(a), lat.name(b), lat.name(c)) == cited
        ok &= ua == lat.top and lat.name(ub) == "d"
    l13 = corpus.load("L13")
    ok &= any(e.row == "q" and e.col == "d" for e in l13.errata)
    # cited cells as printed: U(t,m) = d while U(s,m) = top on L13,
    # U(t,m) = d while U(t,s) = top on L22
    lat = l13.lattice
    ok &= l13.stored.value(lat.index("t"), lat.index("m")) == lat.index("d")
    ok &= l13.stored.value(lat.index("s"), lat.index("m")) == lat.top
    l22 = corpus.load("L22")
    lat = l22.lattice
    ok &= l22.stored.value(lat.index("t"), lat.index("m")) == lat.index("d")
    ok &= l22.stored.value(lat.index("t"), lat.index("s")) == lat.top
    _report(3, "L13 and L22 reproduce modulo the documented errata and fail "
               "monotonicity exactly at the cited cells", ok)


def test_criterion_04_theorem_equivalence_fuzz():
    start = time.monotonic()
    classes = {
        "th31": ("under_neutral", "beside_neutral"),
        "th33": ("beside_threshold",),
        "th34": ("over_neutral", "beside_neutral"),
        "th36": ("beside_threshold",),
    }
    tallies = {}
    ok = True
    for theorem, anchor_classes in classes.items():
        agree = 0
        for i in range(500):
            spec = gen_spec(
                GenConfig(seed=i, size_range=(4, 9)),
                anchor_classes[i % len(anchor_classes)],
                want_hypotheses=True,
                theorem=theorem,
            )
            if verify_equivalence(spec, theorem).agree:
                agree += 1
        tallies[theorem] = agree
        ok &= agree == 500
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    _report(4, f"equivalence fuzz {tallies} each out of 500 "
               f"({elapsed:.1f}s < 60s)", ok)


def test_criterion_05_necessity_of_bounded_class():
    checked = 0
    seed = 0
    ok = True
    while checked < 200 and seed < 4000:
        seed += 1
        lat = gen_lattice(GenConfig(seed=seed, size_range=(5, 9)))
        candidates = [
            t for t in range(lat.n)
            if t not in (lat.bottom, lat.top)
            and len(lat.interval(lat.bottom, t)) >= 3
            and (
                any(lat.parallel(x, t) for x in range(lat.n))
                or lat.interval_mask(t, lat.top) & ~(1 << t | 1 << lat.top)
            )
        ]
        if not candidates:
            continue
        threshold = candidates[seed % len(candidates)]
        below = lat.interval(lat.bottom, threshold)
        neutral = below[1]
        if neutral == threshold:
            continue
        inner = gen_uninorm(lat, below, neutral, GenConfig(seed=seed, class_filter="ut"))
        if in_class_ub(inner, neutral):
            continue
        spec = ConstructionSpec(lat, threshold, neutral, lat.bottom, inner)
        report = is_uninorm(construct_eq1(spec), neutral)
        ok &= not report.ok and report.associative is not None
        checked += 1
    _report(5, f"{checked} specs with nonempty guard and inner outside the "
               "bounded-below class all fail with associativity witnesses",
            ok and checked >= 200)


def _remark_lattices():
    lattices = [corpus.load(entry_id).lattice for entry_id in corpus.ENTRY_IDS]
    for seed in range(100):
        lattices.append(gen_lattice(GenConfig(seed=seed + 1000, size_range=(4, 9))))
    return lattices


def test_criterion_06_remark_suite():
    ok = True
    lattices = _remark_lattices()

    for i, lat in enumerate(lattices):
        carrier = tuple(range(lat.n))
        e = carrier[i % lat.n]
        inner = gen_uninorm(lat, carrier, e, GenConfig(seed=i))
        spec = ConstructionSpec(lat, lat.top, e, lat.bottom, inner)
        ok &= construct_eq1(spec).values == inner.values

    for i, lat in enumerate(lattices):
        interior = [x for x in range(lat.n) if x not in (lat.bottom, lat.top)]
        if not interior:
            continue
        pivot = interior[i % len(interior)]
        lower = gen_uninorm(lat, lat.interval(lat.bottom, pivot), lat.bottom,
                            GenConfig(seed=i + 1))
        spec = ConstructionSpec(lat, pivot, lat.bottom, lat.bottom, lower)
        ok &= construct_eq1(spec).values == construct_pinched_tconorm(lat, pivot, lower).values

        upper = gen_uninorm(lat, lat.interval(pivot, lat.top), lat.top,
                            GenConfig(seed=i + 2))
        spec = ConstructionSpec(lat, pivot, lat.top, lat.top, upper)
        ok &= construct_eq2(spec).values == construct_pinched_tnorm(lat, pivot, upper).values

    for i, lat in enumerate(lattices):
        interior = [x for x in range(lat.n) if x not in (lat.bottom, lat.top)]
        if not interior:
            continue
        threshold = interior[i % len(interior)]
        below = lat.interval(lat.bottom, threshold)
        neutral = below[i % len(below)]
        anchor = i % lat.n
        inner_ub = gen_uninorm(lat, below, neutral, GenConfig(seed=i + 3, class_filter="ub"))
        spec = ConstructionSpec(lat, threshold, neutral, anchor, inner_ub)
        out = construct_eq1(spec)
        ok &= in_class_ub(out, neutral)                              # class is preserved
        ok &= in_class_umax(out, neutral) == in_class_umax(inner_ub, neutral)

        inner_any = gen_uninorm(lat, below, neutral, GenConfig(seed=i + 4))
        spec = ConstructionSpec(lat, threshold, neutral, anchor, inner_any)
        out = construct_eq1(spec)
        ok &= in_class_umax(out, neutral) == in_class_umax(inner_any, neutral)

        dual = dual_spec(spec)
        out2 = construct_eq2(dual)
        ok &= in_class_umin(out2, dual.neutral) == in_class_umin(dual.inner, dual.neutral)
        if in_class_ut(dual.inner, dual.neutral):
            ok &= in_class_ut(out2, dual.neutral)
    _report(6, "remark suite: boundary thresholds collapse to the inner or "
               "pinched operators; bounded classes and projection classes "
               "transfer exactly", ok)


def test_criterion_07_partitioned_associativity_oracle():
    import random as random_mod

    rng = random_mod.Random(42)
    from latnorm.lattice import build_lattice

    chains = {
        n: build_lattice(tuple(str(i) for i in range(n)),
                         [(str(i), str(i + 1)) for i in range(n - 1)])
        for n in range(2, 7)
    }
    agree = 0
    non_associative = 0
    for _ in range(1000):
        n = rng.randint(2, 6)
        lat = chains[n]
        vals = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                v = rng.randrange(n)
                vals[a][b] = vals[b][a] = v
        t = rows_table(lat, range(n), vals)
        k = rng.randint(1, n)
        labels = [rng.randrange(k) for _ in range(n)]
        classes = tuple(
            frozenset(i for i in range(n) if labels[i] == c) for c in range(k)
        )
        part = Partition(tuple(c for c in classes if c))
        naive = first_associativity_witness(t)
        partitioned = assoc_partitioned(t, part)
        if (naive is None) == (partitioned is None):
            agree += 1
        if naive is not None:
            non_associative += 1
    _report(7, f"partitioned associativity agrees with the naive oracle on "
               f"{agree}/1000 random commutative tables "
               f"({non_associative} non-associative)",
            agree == 1000 and non_associative >= 100)


def test_criterion_08_restriction_property():
    ok = True
    count = 0
    for entry_id in corpus.ENTRY_IDS:
        entry = corpus.load(entry_id)
        if not entry.expected_uninorm:
            continue
        lat = entry.lattice
        e = entry.spec.neutral
        ok &= is_uninorm(restrict(entry.stored, lat.interval(lat.bottom, e)), e).ok
        ok &= is_uninorm(restrict(entry.stored, lat.interval(e, lat.top)), e).ok
        count += 1
    seed = 0
    while count < 103 and seed < 1000:  # 3 corpus + 100 generated
        seed += 1
        lat = gen_lattice(GenConfig(seed=seed, size_range=(4, 9)))
        e = seed % lat.n
        t = gen_uninorm(lat, tuple(range(lat.n)), e, GenConfig(seed=seed * 3 + 7))
        ok &= is_uninorm(restrict(t, lat.interval(lat.bottom, e)), e).ok
        ok &= is_uninorm(restrict(t, lat.interval(e, lat.top)), e).ok
        count += 1
    _report(8, f"restrictions of {count} verified uninorms below/above the "
               "neutral pass the t-norm/t-conorm batteries", ok and count >= 103)


def test_criterion_09_duality():
    ok = True
    produced = 0
    for seed in range(200):
        anchor_class = ("over_neutral", "beside_neutral", "beside_threshold")[seed % 3]
        theorem = "th36" if anchor_class == "beside_threshold" else "th34"
        spec = gen_spec(
            GenConfig(seed=seed, size_range=(4, 9)),
            anchor_class,
            want_hypotheses=False,
            theorem=theorem,
        )
        via_eq2 = construct_eq2(spec)
        via_transport = construct_eq1(dual_spec(spec))
        ok &= via_eq2.values == via_transport.values
        produced += 1
    _report(9, f"meet-form construction equals the dual transport of the "
               f"join form on {produced} seeded instances, cell-exact",
            ok and produced == 200)


def test_criterion_10_cli_contract(tmp_path, capsys):
    ok = main(["corpus", "--replay"]) == 0
    golden = tmp_path / "golden"
    ok &= main(["corpus", "--export", str(golden)]) == 0
    capsys.readouterr()

    code = main(["verify", str(golden / "L13.U1.table.json"), "--e", "e"])
    err = capsys.readouterr().err
    ok &= code == 1
    ok &= "U(s,m) = 1" in err and "U(t,m) = d" in err

    for path in sorted(golden.glob("*.lattice.json")):
        text = path.read_text()
        name, lat = parse_lattice(text)
        ok &= render_lattice(lat, name) == text
    for path in sorted(golden.glob("*.table.json")):
        text = path.read_text()
        lattice_file = golden / (path.name.split(".")[0] + ".lattice.json")
        _, lat = parse_lattice(lattice_file.read_text())
        name, table = parse_table(text, lat)
        ok &= render_table(table, "json", lattice_name=name) == text
    _report(10, "CLI: replay exits 0, the counterexample table fails "
                "verification with the cited witness, and export/import "
                "round-trips byte-identical", ok)
