import hashlib
import random
import sys
import threading
from dataclasses import replace

import pytest

import latnorm.gen as gen_module
from latnorm.construct import (
    ANCHOR_CLASS_BLOCKS,
    THEOREMS,
    anchor_class_mask,
    check_for,
    dual_class,
    frame_report,
)
from latnorm.gen import (
    ExhaustedRejection,
    GenConfig,
    dual_spec,
    gen_lattice,
    gen_spec,
    gen_spec_candidates,
    gen_uninorm,
)
from latnorm.lattice import LatticeError, build_lattice, case_regions, ids_of, mask_of
from latnorm.optable import (
    in_class_ub,
    in_class_umax,
    in_class_umin,
    in_class_ut,
    is_uninorm,
)

from families import enumerate_uninorms, rows_table


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(seed=0, size_range=(1, 5))
    with pytest.raises(ValueError):
        GenConfig(seed=0, size_range=(5, 13))
    with pytest.raises(ValueError):
        GenConfig(seed=0, class_filter="nope")
    # random.Random seeds from abs(seed), so seed -3 would draw seed 3
    with pytest.raises(ValueError, match="seed must be non-negative, got -3"):
        GenConfig(seed=-3)


@pytest.mark.parametrize(
    "carrier, e, message",
    [
        (("0", "a"), "1", "neutral element must belong to the carrier"),
        (("a", "b"), "a", "carrier is not an interval"),
        # bounded but not an interval: a lies between 0 and 1
        (("0", "1"), "0", "carrier is not an interval"),
        (("0", "a", "b", "b", "1"), "a", "carrier has repeated elements"),
    ],
    ids=["neutral-outside", "not-an-interval", "bounded-not-an-interval", "repeated-element"],
)
def test_gen_uninorm_refuses_a_bad_carrier(carrier, e, message):
    lat = build_lattice(("0", "a", "b", "1"), [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
    with pytest.raises(ValueError, match=f"^{message}$"):
        gen_uninorm(lat, map(lat.index, carrier), lat.index(e), GenConfig(seed=0))


def test_lattice_determinism():
    for seed in (0, 7, 123, 9999):
        cfg = GenConfig(seed=seed)
        assert gen_lattice(cfg) == gen_lattice(cfg)


def test_two_element_range_gives_two_chain():
    lat = gen_lattice(GenConfig(seed=4, size_range=(2, 2)))
    assert lat.n == 2
    assert lat.leq(lat.bottom, lat.top)


def test_generated_lattices_revalidate():
    # construction goes through the validating builder, so rebuilding from
    # the recovered covers must reproduce the lattice exactly
    from latnorm.fileio import cover_pairs

    for seed in range(1000):
        lat = gen_lattice(GenConfig(seed=seed, size_range=(2, 9)))
        again = build_lattice(lat.names, cover_pairs(lat))
        assert again == lat


def _reference_gen_lattice(cfg):
    """The draw before lattices were drawn as id masks: name pairs through
    ``build_lattice``, a fresh lattice for every draw."""
    rng = random.Random(cfg.seed)
    for _ in range(gen_module.ATTEMPT_CAP):
        n = rng.randint(*cfg.size_range)
        names = tuple(f"x{i}" for i in range(n))
        if n == 2:
            return build_lattice(names, [("x0", "x1")])
        mids = n - 2
        layer_count = rng.randint(1, mids)
        cuts = sorted(rng.sample(range(1, mids), layer_count - 1)) if layer_count > 1 else []
        bounds = [0, *cuts, mids]
        layers = [list(range(1 + bounds[i], 1 + bounds[i + 1])) for i in range(layer_count)]
        covers, lower, has_upper = [], [0], set()
        for layer in layers:
            for node in layer:
                parents = [p for p in lower if rng.random() < gen_module.COVER_DENSITY]
                if not parents:
                    parents = [rng.choice(lower)]
                for p in parents:
                    covers.append((names[p], names[node]))
                    has_upper.add(p)
            lower.extend(layer)
        covers += [(names[x], names[n - 1]) for x in range(n - 1) if x not in has_upper]
        try:
            return build_lattice(names, covers)
        except LatticeError:
            pass
    raise AssertionError("the reference draw exhausted its cap")


def _fields(lat):
    return lat.names, lat.up, lat.down, lat.bottom, lat.top, lat.upper_covers


@pytest.mark.parametrize("size_range", [(2, 12), (4, 9), (10, 12)])
def test_interned_lattices_are_the_drawn_ones(size_range):
    # the same lattice with the intern table cold and warm, and the one the
    # name-pair draw built: the stream does not move
    for seed in range(2000):
        cfg = GenConfig(seed=seed, size_range=size_range)
        gen_module._interned_lattice.cache_clear()
        cold = gen_lattice(cfg)
        warm = gen_lattice(cfg)  # every attempt of this seed is in the table now
        assert warm is cold
        assert _fields(cold) == _fields(_reference_gen_lattice(cfg)), seed
    info = gen_module._interned_lattice.cache_info()
    assert info.maxsize == gen_module.INTERNED_LATTICES == 64


def test_interned_lattice_keeps_the_rebuilt_frame_reports():
    # a frame report read from a lattice shared between draws is the one
    # computed afresh on the same lattice rebuilt from its covers
    from latnorm.fileio import cover_pairs

    read = 0
    for seed in range(60):
        cfg = GenConfig(seed=seed, size_range=(4, 9))
        lat = gen_lattice(cfg)
        rebuilt = build_lattice(lat.names, cover_pairs(lat))
        for theorem, profile in THEOREMS.items():
            classes = profile.anchor_classes
            if profile.orientation == "meet":
                classes = tuple(map(dual_class, classes))
            for join_class in classes:
                for t, n, mask in gen_module._hosting_pairs(lat, join_class)[:3]:
                    a = ids_of(mask)[0]
                    frame_report(lat, t, n, a, theorem)
                    again = gen_lattice(cfg)
                    assert again is lat
                    assert ("frame", theorem, t, n, a) in again.kept
                    assert frame_report(again, t, n, a, theorem) == frame_report(
                        rebuilt, t, n, a, theorem)
                    read += 1
    assert read > 100


def test_threads_drawing_the_same_seeds_get_equal_lattices():
    cfgs = [GenConfig(seed=seed, size_range=(4, 9)) for seed in range(150)]
    gen_module._interned_lattice.cache_clear()
    want = [_fields(_reference_gen_lattice(cfg)) for cfg in cfgs]
    results = [None] * 8
    start = threading.Barrier(8)

    def draw(k):
        start.wait(timeout=30)
        results[k] = [_fields(gen_lattice(cfg)) for cfg in cfgs]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [want] * 8


def test_gen_uninorm_verifies_and_is_deterministic():
    for seed in range(40):
        lat = gen_lattice(GenConfig(seed=seed, size_range=(3, 9)))
        carrier = tuple(range(lat.n))
        e = seed % lat.n
        cfg = GenConfig(seed=seed * 11 + 1)
        t1 = gen_uninorm(lat, carrier, e, cfg)
        t2 = gen_uninorm(lat, carrier, e, cfg)
        assert t1 == t2
        assert is_uninorm(t1, e).ok


def test_gen_uninorm_on_interval_carrier():
    lat = gen_lattice(GenConfig(seed=8, size_range=(6, 9)))
    interior = [x for x in range(lat.n) if x not in (lat.bottom, lat.top)]
    hi = interior[0]
    carrier = lat.interval(lat.bottom, hi)
    for e in carrier:
        t = gen_uninorm(lat, carrier, e, GenConfig(seed=99))
        assert is_uninorm(t, e).ok
        assert set(t.carrier) == set(carrier)


def test_gen_uninorm_class_filters():
    checks = {"ub": in_class_ub, "ut": in_class_ut, "umin": in_class_umin, "umax": in_class_umax}
    for seed in range(20):
        lat = gen_lattice(GenConfig(seed=seed, size_range=(4, 8)))
        carrier = tuple(range(lat.n))
        e = (seed + 1) % lat.n
        for name, check in checks.items():
            t = gen_uninorm(lat, carrier, e, GenConfig(seed=seed, class_filter=name))
            assert check(t, e), (seed, name)


# gen_uninorm's tables at seeds 0..79 (sizes 3..9), on the whole carrier and
# on [bottom, t] for an interior t, under every class filter: both skeleton
# families, their t-norm cores and the kept mutations.  Recorded before the
# skeletons were built a row at a time and the mutations pre-filtered.
GEN_UNINORM_DIGEST = "a55e47fced67efae8cd7427e4c7f3b4f12dd07f619bc32ed93f1f8ba9ac7692a"


def test_gen_uninorm_output_is_pinned():
    digest = hashlib.sha256()
    for seed in range(80):
        lat = gen_lattice(GenConfig(seed=seed, size_range=(3, 9)))
        interior = [x for x in range(lat.n) if x not in (lat.bottom, lat.top)]
        threshold = interior[seed % len(interior)]
        for carrier in (tuple(range(lat.n)), lat.interval(lat.bottom, threshold)):
            e = carrier[seed % len(carrier)]
            for class_filter in (None, "ub", "ut", "umin", "umax"):
                cfg = GenConfig(seed=seed * 7 + 1, class_filter=class_filter)
                t = gen_uninorm(lat, carrier, e, cfg)
                digest.update(repr((lat.up, carrier, e, class_filter, t.values)).encode() + b"\n")
    assert digest.hexdigest() == GEN_UNINORM_DIGEST


def check_mutation_prefilter(seeds, size_range):
    """Draw ``gen_uninorm`` on the whole carrier of each seed's lattice,
    neutral ``seed % n``, no class filter, and replay every ``_mutate``
    call's proposal on a fresh table: ``_mutate`` keeps it exactly when the
    battery passes it, and every proposal the column pre-filter refuses
    fails the battery.  Returns (calls, proposals, refused, kept)."""
    mutate, column_drop = gen_module._mutate, gen_module._column_drop
    counts = dict.fromkeys(("calls", "proposals", "refused", "kept"), 0)
    drops = []

    def recording_drop(*args):
        drops.append(column_drop(*args))
        return drops[-1]

    def checked_mutate(t, e, rng):
        state = rng.getstate()
        drops.clear()
        got = mutate(t, e, rng)
        counts["calls"] += 1
        replay = random.Random()
        replay.setstate(state)
        a, b = replay.choice(t.carrier), replay.choice(t.carrier)
        if e in (a, b):
            assert got is None and not drops
            return got
        v = replay.choice(t.carrier)
        if v == t.value(a, b):
            assert got is None and not drops
            return got
        counts["proposals"] += 1
        values = [list(row) for row in t.values]
        values[t.pos[a]][t.pos[b]] = values[t.pos[b]][t.pos[a]] = v
        passes = is_uninorm(rows_table(t.lattice, t.carrier, values), e).ok
        if any(drops):
            counts["refused"] += 1
            assert not passes, (a, b, v)
        assert (got is not None) == passes
        if passes:
            assert got.values == tuple(map(tuple, values))
            counts["kept"] += 1
        return got

    patch = pytest.MonkeyPatch()
    patch.setattr(gen_module, "_mutate", checked_mutate)
    patch.setattr(gen_module, "_column_drop", recording_drop)
    try:
        for seed in seeds:
            lat = gen_lattice(GenConfig(seed=seed, size_range=size_range))
            gen_uninorm(lat, tuple(range(lat.n)), seed % lat.n, GenConfig(seed=seed))
    finally:
        patch.undo()
    return counts["calls"], counts["proposals"], counts["refused"], counts["kept"]


def test_mutation_prefilter_refuses_only_proposals_the_battery_fails():
    # 161 calls keep 7 mutations, as before the pre-filter; of the 87
    # proposals that reached the battery then, 75 now stop at the columns
    assert check_mutation_prefilter(range(150), (3, 8)) == (161, 87, 75, 7)


def test_gen_uninorm_fails_loudly_instead_of_redrawing(monkeypatch):
    # a class check that rejects every table: no mutation is kept and the
    # final check fails, which is a generator bug, not a reason to redraw
    monkeypatch.setitem(gen_module._CLASS_CHECKS, "ub", lambda t, e: False)
    lat = gen_lattice(GenConfig(seed=0, size_range=(6, 8)))
    with pytest.raises(AssertionError, match="not in class 'ub'"):
        gen_uninorm(lat, tuple(range(lat.n)), lat.top, GenConfig(seed=1, class_filter="ub"))


def test_two_element_carrier_forced():
    lat = build_lattice(("0", "e", "1"), [("0", "e"), ("e", "1")])
    carrier = lat.interval(0, 1)
    t = gen_uninorm(lat, carrier, 1, GenConfig(seed=0))
    assert t.value(0, 0) == 0 and t.value(0, 1) == 0 and t.value(1, 1) == 1
    assert enumerate_uninorms(lat, carrier, 1) == [t]


def test_gen_uninorm_on_four_chain():
    lat = build_lattice(("0", "a", "e", "rho"), [("0", "a"), ("a", "e"), ("e", "rho")])
    t = gen_uninorm(lat, tuple(range(4)), 2, GenConfig(seed=12))
    assert is_uninorm(t, 2).ok


def test_enumeration_matches_brute_force_on_three_chain():
    import itertools

    from latnorm.optable import OpTable

    lat = build_lattice(("a", "b", "c"), [("a", "b"), ("b", "c")])
    enum = {t.values for t in enumerate_uninorms(lat, (0, 1, 2), 1)}
    brute = set()
    for combo in itertools.product(range(3), repeat=9):
        t = OpTable(lat, (0, 1, 2), combo)
        if is_uninorm(t, 1).ok:
            brute.add(t.values)
    assert enum == brute


def test_generated_uninorms_appear_in_enumeration():
    lat = build_lattice(
        ("0", "a", "b", "1"), [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
    )
    carrier = tuple(range(4))
    enum = {t.values for t in enumerate_uninorms(lat, carrier, lat.index("a"))}
    for seed in range(30):
        t = gen_uninorm(lat, carrier, lat.index("a"), GenConfig(seed=seed))
        assert t.values in enum


def test_gen_spec_determinism_and_classes():
    cfg = GenConfig(seed=5, size_range=(4, 9))
    s1 = gen_spec(cfg, "under_neutral", want_hypotheses=True, theorem="th31")
    s2 = gen_spec(cfg, "under_neutral", want_hypotheses=True, theorem="th31")
    assert s1.lattice == s2.lattice and s1.inner == s2.inner
    assert (s1.threshold, s1.neutral, s1.anchor) == (s2.threshold, s2.neutral, s2.anchor)
    report = check_for(s1, "th31")
    assert report.anchor_class == "under_neutral"
    assert report.standing_failures() == ()


def test_gen_spec_all_anchor_classes():
    for anchor_class, theorem in (
        ("under_neutral", "th31"),
        ("beside_neutral", "th31"),
        ("beside_threshold", "th33"),
        ("over_neutral", "th34"),
        ("beside_neutral", "th34"),
        ("beside_threshold", "th36"),
    ):
        spec = gen_spec(
            GenConfig(seed=3, size_range=(5, 9)),
            anchor_class,
            want_hypotheses=True,
            theorem=theorem,
        )
        report = check_for(spec, theorem)
        assert report.anchor_class == anchor_class
        assert report.standing_failures() == ()


def test_side_anchor_impossible_on_chains():
    # only chains exist at sizes 2 and 3, and chains have no side regions
    with pytest.raises(ExhaustedRejection):
        gen_spec(
            GenConfig(seed=0, size_range=(2, 3)),
            "beside_threshold",
            want_hypotheses=False,
            theorem="th33",
        )


def test_coverage_probe():
    # across 500 seeds at n <= 9 the sampler must reach specs with
    # nonempty isolated and side regions, or the property suites would be
    # vacuous
    saw_isolated = saw_side_inner = False
    for seed in range(500):
        spec = gen_spec(
            GenConfig(seed=seed, size_range=(4, 9)),
            "under_neutral" if seed % 2 else "beside_neutral",
            want_hypotheses=True,
            theorem="th31",
        )
        regions = case_regions(spec.lattice, spec.neutral, spec.threshold)
        saw_isolated = saw_isolated or bool(regions.isolated)
        saw_side_inner = saw_side_inner or bool(regions.side_inner)
        if saw_isolated and saw_side_inner:
            break
    assert saw_isolated and saw_side_inner


JOIN_CLASSES = ("under_neutral", "beside_neutral", "beside_threshold")


def _brute_classes(lat, neutral, threshold) -> dict[str, int]:
    """The join-form anchor classes by their definitions, element by element."""

    lt, beside = lat.lt, lat.parallel

    def block(member):
        return mask_of(x for x in range(lat.n) if member(x))

    return {
        "under_neutral": block(lambda x: lt(lat.bottom, x) and lt(x, neutral)),
        "beside_neutral": block(lambda x: beside(x, neutral) and not beside(x, threshold)),
        "beside_threshold": block(lambda x: not beside(x, neutral) and beside(x, threshold)),
    }


def _brute_hosts(lat, join_class):
    return [
        (t, n)
        for t in range(lat.n)
        if t not in (lat.bottom, lat.top)
        for n in range(lat.n)
        if lat.leq(n, t) and _brute_classes(lat, n, t)[join_class]
    ]


def _fresh_lattices() -> list:
    """200 lattices of sizes 2..12."""
    return [gen_lattice(GenConfig(seed=seed, size_range=(2, 12))) for seed in range(200)]


def test_hosting_pairs_match_brute_force():
    hosted = dict.fromkeys(JOIN_CLASSES, 0)
    lattices = _fresh_lattices()
    assert max(lat.n for lat in lattices) == 12
    for lat in lattices:
        kept = dict(lat.kept)  # an interned lattice may hold reports from earlier draws
        for join_class in JOIN_CLASSES:
            hosts = gen_module._hosting_pairs(lat, join_class)
            assert hosts == [(t, n, _brute_classes(lat, n, t)[join_class])
                             for t, n in _brute_hosts(lat, join_class)]
            hosted[join_class] += bool(hosts)
        # the scan derives and keeps no regions, so a discarded lattice costs nothing more
        assert lat.kept == kept
        for t in range(lat.n):
            for n in lat.interval(lat.bottom, t):
                classes = {c: anchor_class_mask(lat, t, n, c) for c in JOIN_CLASSES}
                assert classes == _brute_classes(lat, n, t)
    # every class is hosted by some lattice and missing from another
    assert all(0 < count < 200 for count in hosted.values()), hosted


@pytest.mark.parametrize("join_class", JOIN_CLASSES)
def test_class_rule_is_the_case_regions_block(join_class):
    # the one rule that the hosting scan and the anchor classes read is the
    # class's block of the asserted six-block partition, less bottom and neutral
    block = ANCHOR_CLASS_BLOCKS[join_class]
    for lat in _fresh_lattices():
        for t in range(lat.n):
            for n in lat.interval(lat.bottom, t):
                want = getattr(case_regions(lat, n, t), block) & ~(1 << lat.bottom | 1 << n)
                assert anchor_class_mask(lat, t, n, join_class) == want, (lat.names, t, n)


def test_gen_spec_rejects_a_class_outside_the_theorem(monkeypatch):
    # one ValueError naming the theorem's classes, whatever the sizes, and
    # raised before any lattice is drawn
    def no_draw(cfg):
        pytest.fail("a lattice was drawn")

    monkeypatch.setattr(gen_module, "gen_lattice", no_draw)
    for theorem, anchor_class in (("th31", "nope"), ("th31", "beside_threshold"),
                                  ("th34", "under_neutral"), ("th36", "over_neutral")):
        classes = ", ".join(THEOREMS[theorem].anchor_classes)
        want = f"{theorem} has no anchor class '{anchor_class}'; its classes: {classes}$"
        for size_range in ((2, 2), (4, 9)):
            for want_hypotheses in (False, True):
                with pytest.raises(ValueError, match=want):
                    gen_spec(GenConfig(seed=0, size_range=size_range), anchor_class,
                             want_hypotheses, theorem)


@pytest.mark.parametrize(
    "theorem, anchor_class",
    [(theorem, c) for theorem, profile in THEOREMS.items() for c in profile.anchor_classes],
)
def test_directed_stream_discards_only_lattices_without_a_host(monkeypatch, theorem, anchor_class):
    drawn = []

    def recording_gen_lattice(cfg):
        drawn.append(gen_lattice(cfg))
        return drawn[-1]

    monkeypatch.setattr(gen_module, "gen_lattice", recording_gen_lattice)
    join_class = {"over_neutral": "under_neutral"}.get(anchor_class, anchor_class)
    stream = gen_spec_candidates(GenConfig(seed=11, size_range=(4, 9)), theorem, anchor_class)
    discarded = 0
    for _ in range(25):
        frame, draw = next(stream)
        spec = draw()
        *rejected, kept = drawn
        drawn.clear()
        assert all(not _brute_hosts(lat, join_class) for lat in rejected)
        discarded += len(rejected)
        if THEOREMS[theorem].orientation == "meet":
            spec = dual_spec(spec)
        assert spec.lattice == kept
        assert frame is frame_report(kept, spec.threshold, spec.neutral, spec.anchor, theorem)
        assert (spec.threshold, spec.neutral) in _brute_hosts(kept, join_class)
        assert spec.anchor in ids_of(_brute_classes(kept, spec.neutral, spec.threshold)[join_class])
    if join_class == "beside_neutral":
        assert discarded > 0  # the check above is not vacuous


def test_dual_spec_roundtrip(l11):
    twice = dual_spec(dual_spec(l11.spec))
    assert twice.lattice == l11.spec.lattice
    assert twice.inner.values == l11.spec.inner.values
    # the dual is kept both ways, as the lattice's is
    assert twice is l11.spec
    assert dual_spec(l11.spec) is dual_spec(l11.spec)
    assert dual_spec(l11.spec).lattice is l11.spec.lattice.dual()


def test_replace_starts_without_kept_state(l11):
    spec = l11.spec
    check_for(spec, "th31")
    dual_spec(spec)
    # a spec keeps its dual, and no inner verdict or hypothesis report
    assert set(vars(spec)) == {"lattice", "threshold", "neutral", "anchor", "inner", "_dual"}
    fresh = replace(spec)
    assert set(vars(fresh)) == {"lattice", "threshold", "neutral", "anchor", "inner"}
    assert dual_spec(fresh) is not dual_spec(spec)
    assert check_for(fresh, "th31") == check_for(spec, "th31")


def test_exhaustion_error_names_constraint():
    try:
        gen_spec(
            GenConfig(seed=0, size_range=(2, 3)),
            "beside_threshold",
            want_hypotheses=False,
            theorem="th33",
        )
    except ExhaustedRejection as exc:
        assert "beside_threshold" in str(exc) or "clause" in str(exc)
    else:
        pytest.fail("expected exhaustion")
