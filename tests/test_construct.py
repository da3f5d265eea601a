import sys
import threading
from dataclasses import replace

import pytest

from latnorm import optable
from latnorm.construct import (
    ConstructionSpec,
    HypothesesNotMet,
    SpecInvalid,
    check_for,
    construct_eq1,
    construct_eq2,
    construct_for,
    construct_pinched_tconorm,
    construct_pinched_tnorm,
    validate_spec,
)
from latnorm.gen import GenConfig, dual_spec, gen_lattice, gen_spec, gen_uninorm
from latnorm.lattice import build_lattice, case_regions, lattice_from_edges
from latnorm.optable import in_class_ub, is_uninorm, meet_table, rewrap
from latnorm.verify import verify_equivalence

from families import chain, join_table, rows_table, table_from_function


def random_specs(count, **cfg_kwargs):
    out = []
    for seed in range(count):
        for anchor_class in ("under_neutral", "beside_neutral", "beside_threshold"):
            try:
                theorem = "th33" if anchor_class == "beside_threshold" else "th31"
                out.append(
                    gen_spec(
                        GenConfig(seed=seed, **cfg_kwargs),
                        anchor_class,
                        want_hypotheses=False,
                        theorem=theorem,
                    )
                )
            except Exception:
                continue
    return out


def test_l11_reproduces_table2(l11):
    table = construct_eq1(l11.spec)
    assert table.values == l11.printed.values
    assert is_uninorm(table, l11.spec.neutral).ok


def test_neutral_row_always_identity(l13):
    # holds even on counterexample specs: the construction is total and
    # commutative with the stated neutral, whatever the hypotheses do
    table = construct_eq1(l13.spec)
    lat = l13.lattice
    e = l13.spec.neutral
    for x in range(lat.n):
        assert table.value(e, x) == x
        assert table.value(x, e) == x


def test_constructed_commutative_and_neutral_unconditionally():
    for spec in random_specs(12, size_range=(4, 9)):
        table = construct_eq1(spec)
        report = is_uninorm(table, spec.neutral)
        assert report.commutative is None
        assert report.neutral is None
        assert report.closed is None


def test_every_cell_matches_exactly_one_case():
    # re-derive the five case predicates independently and check the
    # dispatch is a partition of the cell grid
    for spec in random_specs(8, size_range=(4, 8)):
        lat = spec.lattice
        inner = lat.interval_mask(lat.bottom, spec.threshold)
        low = lat.interval_mask(lat.bottom, spec.neutral)
        iso = case_regions(lat, spec.neutral, spec.threshold).isolated
        for x in range(lat.n):
            for y in range(lat.n):
                cases = [
                    bool(inner >> x & 1 and inner >> y & 1),
                    bool(not (inner >> x & 1) and low >> y & 1),
                    bool(low >> x & 1 and not (inner >> y & 1)),
                    bool(iso >> x & 1 and iso >> y & 1),
                ]
                assert sum(cases) <= 1


def test_invalid_specs_rejected(l11):
    lat = l11.lattice
    spec = l11.spec
    # neutral above threshold
    bad = ConstructionSpec(lat, spec.threshold, lat.top, spec.anchor, spec.inner)
    with pytest.raises(SpecInvalid):
        construct_eq1(bad)
    # carrier mismatch
    small = join_table(lat, lat.interval(lat.bottom, lat.index("e")))
    bad = ConstructionSpec(lat, spec.threshold, spec.neutral, spec.anchor, small)
    with pytest.raises(SpecInvalid):
        construct_eq1(bad)
    # ids that are no elements: the first of threshold, neutral, anchor is
    # named, before the neutral is compared with the threshold
    for fields, message in [
        ({"anchor": -1}, "anchor -1"),
        ({"anchor": 99}, "anchor 99"),
        ({"neutral": 99}, "neutral 99"),
        ({"neutral": -1, "anchor": 99}, "neutral -1"),
        ({"threshold": 11, "neutral": 99}, "threshold 11"),
    ]:
        bad = replace(spec, **fields)
        for check in (construct_eq1, lambda s: check_for(s, "th31")):
            with pytest.raises(SpecInvalid) as exc:
                check(bad)
            assert str(exc.value) == message + " is no element of the 11-element lattice"


def _broken_inner(spec):
    # (q,k) and (k,q) set to c: no longer associative nor monotone
    lat = spec.lattice
    rows = [list(row) for row in spec.inner.values]
    rows[1][3] = rows[3][1] = lat.index("c")
    inner = rows_table(lat, spec.inner.carrier, rows)
    return replace(spec, inner=inner)


def _invalid_specs(spec, orientation):
    lat = spec.lattice
    wrong_side = lat.top if orientation == "join" else lat.bottom
    other = rewrap(spec.inner, lat.dual())
    side = "below" if orientation == "join" else "above"
    return [
        (replace(spec, neutral=wrong_side), f"neutral element must lie {side} the threshold"),
        # the first failing check is the one reported
        (replace(spec, neutral=wrong_side, inner=other),
         f"neutral element must lie {side} the threshold"),
        (replace(spec, inner=table_from_function(lat, (spec.neutral,), lambda x, y: x)),
         "inner table carrier is not the threshold interval"),
        (replace(spec, inner=other), "inner table belongs to a different lattice"),
        (_broken_inner(spec), "inner table fails uninorm axioms: associative, monotone"),
    ]


@pytest.mark.parametrize("orientation", ["join", "meet"])
def test_validate_spec_texts(l11, orientation):
    # the meet-form spec is L11's spec on the dual lattice
    spec = l11.spec if orientation == "join" else dual_spec(l11.spec)
    join_spec = validate_spec(spec, orientation)
    if orientation == "join":
        assert join_spec is spec
    else:
        # transported once: the dual lattice, the same inner cells
        assert join_spec.lattice == spec.lattice.dual()
        assert join_spec.inner.carrier == spec.inner.carrier
        assert join_spec.inner.values == spec.inner.values
    for bad, message in _invalid_specs(spec, orientation):
        with pytest.raises(SpecInvalid) as exc:
            validate_spec(bad, orientation)
        assert str(exc.value) == message
    validate_spec(_broken_inner(spec), orientation, check_inner=False)
    with pytest.raises(ValueError, match="^unknown orientation 'sideways'$"):
        validate_spec(spec, "sideways")


def test_inner_verification_can_be_skipped(l11):
    lat = l11.lattice
    spec = _broken_inner(l11.spec)
    with pytest.raises(SpecInvalid):
        construct_eq1(spec)
    table = construct_eq1(spec, check_inner=False)
    assert table.value(lat.index("q"), lat.index("k")) == lat.index("c")


def test_threshold_top_yields_inner():
    for seed in range(20):
        lat = gen_lattice(GenConfig(seed=seed, size_range=(4, 8)))
        carrier = tuple(range(lat.n))
        e = seed % lat.n
        inner = gen_uninorm(lat, carrier, e, GenConfig(seed=seed + 50))
        spec = ConstructionSpec(lat, lat.top, e, lat.bottom, inner)
        assert construct_eq1(spec).values == inner.values


def test_neutral_bottom_yields_pinched_tconorm():
    for seed in range(20):
        lat = gen_lattice(GenConfig(seed=seed, size_range=(4, 8)))
        interior = [x for x in range(lat.n) if x not in (lat.bottom, lat.top)]
        if not interior:
            continue
        pivot = interior[seed % len(interior)]
        below = lat.interval(lat.bottom, pivot)
        inner = gen_uninorm(lat, below, lat.bottom, GenConfig(seed=seed + 9))
        spec = ConstructionSpec(lat, pivot, lat.bottom, lat.bottom, inner)
        assert construct_eq1(spec).values == construct_pinched_tconorm(lat, pivot, inner).values


def test_neutral_top_yields_pinched_tnorm():
    for seed in range(20):
        lat = gen_lattice(GenConfig(seed=seed, size_range=(4, 8)))
        interior = [x for x in range(lat.n) if x not in (lat.bottom, lat.top)]
        if not interior:
            continue
        pivot = interior[seed % len(interior)]
        above = lat.interval(pivot, lat.top)
        inner = gen_uninorm(lat, above, lat.top, GenConfig(seed=seed + 9))
        spec = ConstructionSpec(lat, pivot, lat.top, lat.top, inner)
        assert construct_eq2(spec).values == construct_pinched_tnorm(lat, pivot, inner).values


def test_pinched_three_chain_example():
    lat = chain(3)  # bottom, pivot, top
    lower = join_table(lat, lat.interval(0, 1))
    s = construct_pinched_tconorm(lat, 1, lower)
    assert s.value(0, 2) == 2 and s.value(0, 1) == 1
    assert s.value(1, 1) == 1
    assert s.value(1, 2) == 2
    assert is_uninorm(s, lat.bottom).ok

    upper = table_from_function(lat, lat.interval(1, 2), lat.meet)
    t = construct_pinched_tnorm(lat, 1, upper)
    for x in range(3):
        assert t.value(2, x) == x
    assert is_uninorm(t, lat.top).ok


CHAIN3 = chain(3)  # bottom, pivot 1, top
DIAMOND = build_lattice(("0", "a", "b", "1"), [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")])
# the diamond's names ordered 0 < a < b < 1: its meet and join pass the
# carrier and axiom checks, but are no operations of the diamond
DIAMOND_NAMES_CHAIN = build_lattice(("0", "a", "b", "1"), [("0", "a"), ("a", "b"), ("b", "1")])


@pytest.mark.parametrize(
    "side, lat, pivot, table, message",
    [
        ("upper", CHAIN3, 1, table_from_function(CHAIN3, (0, 1), CHAIN3.meet),
         "upper table carrier is not [pivot, top]"),
        ("upper", CHAIN3, 1, table_from_function(CHAIN3, (1, 2), CHAIN3.join),
         "upper table fails t-norm axioms: neutral"),
        ("lower", CHAIN3, 1, table_from_function(CHAIN3, (1, 2), CHAIN3.join),
         "lower table carrier is not [bottom, pivot]"),
        ("lower", CHAIN3, 1, table_from_function(CHAIN3, (0, 1), CHAIN3.meet),
         "lower table fails t-conorm axioms: neutral"),
        ("upper", DIAMOND, DIAMOND.bottom, meet_table(DIAMOND_NAMES_CHAIN),
         "upper table belongs to a different lattice"),
        ("lower", DIAMOND, DIAMOND.top, join_table(DIAMOND_NAMES_CHAIN),
         "lower table belongs to a different lattice"),
    ],
    ids=["t-norm-carrier", "not-a-t-norm", "t-conorm-carrier", "not-a-t-conorm",
         "t-norm-of-another-lattice", "t-conorm-of-another-lattice"],
)
def test_pinch_refuses_a_table_off_its_interval_or_axioms(side, lat, pivot, table, message):
    pinch = construct_pinched_tnorm if side == "upper" else construct_pinched_tconorm
    with pytest.raises(SpecInvalid) as info:
        pinch(lat, pivot, table)
    assert str(info.value) == message


def test_pinched_outputs_verify_on_random_lattices():
    for seed in range(15):
        lat = gen_lattice(GenConfig(seed=seed, size_range=(5, 9)))
        interior = [x for x in range(lat.n) if x not in (lat.bottom, lat.top)]
        if not interior:
            continue
        pivot = interior[0]
        lower = gen_uninorm(lat, lat.interval(lat.bottom, pivot), lat.bottom, GenConfig(seed=seed))
        upper = gen_uninorm(lat, lat.interval(pivot, lat.top), lat.top, GenConfig(seed=seed))
        assert is_uninorm(construct_pinched_tconorm(lat, pivot, lower), lat.bottom).ok
        assert is_uninorm(construct_pinched_tnorm(lat, pivot, upper), lat.top).ok


def test_eq2_matches_dual_transport(l22):
    spec2 = dual_spec(l22.spec)  # a meet-form spec on the dual lattice
    via_eq2 = construct_eq2(spec2)
    via_transport = construct_eq1(l22.spec)
    assert via_eq2.values == via_transport.values


def test_check_reports_on_corpus(entries):
    expect = {
        "L11": ("under_neutral", ()),
        "L12": ("beside_neutral", ()),
        "L13": ("under_neutral", ("join-pairs", "join-anchor")),
        "L21": ("beside_threshold", ()),
        "L22": ("beside_threshold", ("join-anchor",)),
    }
    for entry_id, (anchor_class, failures) in expect.items():
        entry = entries[entry_id]
        report = check_for(entry.spec, entry.theorem)
        assert report.anchor_class == anchor_class
        assert report.standing_failures() == failures
        assert report.parallel_condition_ok.ok
        assert report.inner_in_ub
        assert report.nonempty_guard


def test_l13_join_clause_witnesses(l13):
    lat = l13.lattice
    report = check_for(l13.spec, "th31")
    a, b, v = report.join_pairs_ok.witness
    assert lat.join(a, b) == v and v != lat.top
    # the cited failing pair joins to d as well
    assert lat.join(lat.index("t"), lat.index("m")) == lat.index("d")
    a, v = report.join_anchor_ok.witness
    assert lat.parallel(a, l13.spec.anchor)
    assert lat.join(a, l13.spec.anchor) == v and v != lat.top
    assert lat.join(lat.index("m"), lat.index("q")) == lat.index("d")


def test_l22_anchor_clause_witness(l22):
    lat = l22.lattice
    report = check_for(l22.spec, "th33")
    assert report.join_pairs_ok is None
    assert not report.join_anchor_ok.ok
    assert lat.join(lat.index("m"), lat.index("q")) == lat.index("d")


def test_predict_on_corpus(entries):
    assert verify_equivalence(entries["L11"].spec, "th31").predicted is True
    assert verify_equivalence(entries["L12"].spec, "th31").predicted is True
    assert verify_equivalence(entries["L21"].spec, "th33").predicted is True
    with pytest.raises(HypothesesNotMet) as err:
        verify_equivalence(entries["L13"].spec, "th31")
    assert err.value.clause == "join-pairs"
    with pytest.raises(HypothesesNotMet) as err:
        verify_equivalence(entries["L22"].spec, "th33")
    assert err.value.clause == "join-anchor"


def test_predict_vacuous_on_chain():
    lat = chain(5)
    threshold, e = 3, 1
    inner = gen_uninorm(lat, lat.interval(0, threshold), e, GenConfig(seed=2, class_filter="ub"))
    spec = ConstructionSpec(lat, threshold, e, 0, inner)  # anchor strictly below e? 0 is bottom
    spec = ConstructionSpec(lat, threshold, e, 2, inner)  # interior anchor above e -> other
    report = check_for(spec, "th31")
    assert report.anchor_class == "other"
    with pytest.raises(HypothesesNotMet) as err:
        verify_equivalence(spec, "th31")
    assert err.value.clause == "anchor-class"


def test_chain_construction_is_uninorm():
    # all side regions empty: hypotheses vacuous, prediction true, and the
    # brute-force check agrees
    lat = chain(6)
    threshold, e, anchor = 4, 2, 1
    inner = gen_uninorm(lat, lat.interval(0, threshold), e, GenConfig(seed=5, class_filter="ub"))
    spec = ConstructionSpec(lat, threshold, e, anchor, inner)
    verdict = verify_equivalence(spec, "th31")
    assert verdict.predicted is True and verdict.observed is True


@pytest.mark.parametrize("theorem", ["th31", "th34"])
def test_each_spec_runs_the_inner_battery_once(l11, monkeypatch, theorem):
    # a fresh join-form inner table (the corpus loader already checked
    # l11.spec's); th34 runs on the spec transported to the dual lattice
    # (meet form), whose join form holds that table
    lat = l11.lattice
    table = rows_table(lat, l11.spec.inner.carrier, l11.spec.inner.values)
    join = replace(l11.spec, inner=table)
    form = (lambda s: s) if theorem == "th31" else dual_spec
    spec = form(join)
    other_anchor = form(replace(join, anchor=lat.index("k")))
    runs = []
    battery = optable._axiom_battery

    def counting(t, e):
        if t is table:
            runs.append(e)
        return battery(t, e)

    monkeypatch.setattr(optable, "_axiom_battery", counting)
    check_for(spec, theorem)
    construct_for(spec, theorem)
    verify_equivalence(spec, theorem)
    check_for(other_anchor, theorem)
    construct_for(other_anchor, theorem)
    # the other orientation reads the same join-form table
    check_for(dual_spec(spec), {"th31": "th34", "th34": "th31"}[theorem])
    assert runs == [join.neutral]


def _at_once(fn, count=8):
    """``fn()`` from ``count`` threads released together; their results."""
    start = threading.Barrier(count)
    results = []

    def run():
        start.wait(timeout=10)
        results.append(fn())

    workers = [threading.Thread(target=run) for _ in range(count)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=10)
        assert not worker.is_alive()
    assert len(results) == count
    return results


def test_kept_state_is_one_object_across_threads(l11):
    # threads that ask a fresh spec for its dual and reports at once all
    # get the one dual that is kept, and equal reports; threads that check
    # one fresh table at once all get equal axiom reports, and equal ub
    # verdicts with one kept; threads that ask a fresh lattice for its dual
    # all get the one that is kept
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            spec = replace(l11.spec)

            def ask():
                dual = dual_spec(spec)
                return dual, check_for(dual, "th34")

            seen = _at_once(ask)
            assert all(dual is dual_spec(spec) for dual, _ in seen)
            assert dual_spec(dual_spec(spec)) is spec
            assert all(report == check_for(dual_spec(spec), "th34") for _, report in seen)

            table = rows_table(l11.lattice, l11.spec.inner.carrier, l11.spec.inner.values)
            reports = _at_once(lambda: is_uninorm(table, l11.spec.neutral))
            assert all(report == is_uninorm(table, l11.spec.neutral) for report in reports)
            assert reports[0].ok

            lat = lattice_from_edges(l11.lattice.names, l11.lattice.upper_covers)
            duals = _at_once(lat.dual)
            assert all(dual is lat.dual() for dual in duals)
            assert lat.dual().dual() is lat

            table = rows_table(l11.lattice, l11.spec.inner.carrier, l11.spec.inner.values)
            verdicts = _at_once(lambda: in_class_ub(table, l11.spec.neutral))
            assert verdicts == [in_class_ub(table, l11.spec.neutral)] * len(verdicts)
            assert [key for key in table.kept if key[0] == "ub"] == [("ub", l11.spec.neutral)]
    finally:
        sys.setswitchinterval(switch)


def test_checker_rejects_boundary_threshold(l11):
    lat = l11.lattice
    inner = gen_uninorm(lat, tuple(range(lat.n)), l11.spec.neutral, GenConfig(seed=1))
    spec = ConstructionSpec(lat, lat.top, l11.spec.neutral, l11.spec.anchor, inner)
    with pytest.raises(SpecInvalid):
        check_for(spec, "th31")


def test_dual_checkers_mirror(entries):
    for entry_id, dual_theorem in (("L11", "th34"), ("L21", "th36"), ("L13", "th34"), ("L22", "th36")):
        entry = entries[entry_id]
        spec = dual_spec(entry.spec)
        report = check_for(spec, dual_theorem)
        base = check_for(entry.spec, entry.theorem)
        dual_failures = tuple(
            f.replace("join", "meet") for f in base.standing_failures()
        )
        assert report.standing_failures() == dual_failures
        assert report.parallel_condition_ok.ok == base.parallel_condition_ok.ok


def test_construct_for_dispatch(l11):
    assert construct_for(l11.spec, "th31").values == construct_eq1(l11.spec).values
    spec2 = dual_spec(l11.spec)
    assert construct_for(spec2, "th34").values == construct_eq2(spec2).values


def test_dualized_l11_passes_th34(entries):
    spec = dual_spec(entries["L11"].spec)
    report = check_for(spec, "th34")
    assert report.standing_failures() == ()
    assert report.parallel_condition_ok.ok
    assert is_uninorm(construct_eq2(spec), spec.neutral).ok
