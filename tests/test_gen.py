import pytest

import latnorm.gen as gen_module
from latnorm.construct import check_for
from latnorm.gen import (
    ExhaustedRejection,
    GenConfig,
    dual_spec,
    enumerate_uninorms,
    gen_lattice,
    gen_spec,
    gen_uninorm,
)
from latnorm.lattice import build_lattice, case_regions
from latnorm.optable import (
    in_class_ub,
    in_class_umax,
    in_class_umin,
    in_class_ut,
    is_uninorm,
)


def test_config_validation():
    with pytest.raises(ValueError):
        GenConfig(seed=0, size_range=(1, 5))
    with pytest.raises(ValueError):
        GenConfig(seed=0, size_range=(5, 13))
    with pytest.raises(ValueError):
        GenConfig(seed=0, class_filter="nope")


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
        values = (combo[0:3], combo[3:6], combo[6:9])
        t = OpTable(lattice=lat, carrier=(0, 1, 2), values=values)
        if is_uninorm(t, 1).ok:
            brute.add(values)
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
        want = anchor_class
        if theorem in ("th34", "th36") and anchor_class == "under_neutral":
            want = "over_neutral"
        assert report.anchor_class == want
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


def test_dual_spec_roundtrip(l11):
    twice = dual_spec(dual_spec(l11.spec))
    assert twice.lattice == l11.spec.lattice
    assert twice.inner.values == l11.spec.inner.values


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
