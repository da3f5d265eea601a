import hashlib
import random

import pytest

import latnorm.gen as gen_module
import latnorm.verify as verify_module
from latnorm.construct import (
    THEOREMS,
    ConstructionSpec,
    HypothesesNotMet,
    SpecInvalid,
    check_for,
    construct_eq1,
    construct_for,
    dual_spec,
)
from latnorm.gen import (
    ExhaustedRejection,
    GenConfig,
    gen_lattice,
    gen_spec,
    gen_spec_candidates,
    gen_uninorm,
)
from latnorm.lattice import build_lattice, case_regions, ids_of
from latnorm.optable import (
    first_associativity_witness,
    is_uninorm,
    meet_table,
)
from latnorm.verify import (
    NotCommutative,
    Partition,
    UnknownClause,
    assoc_partitioned,
    find_counterexample,
    verify_equivalence,
)

from families import catalogue_specs, chain, rows_table


def random_commutative_table(rng, lat, carrier):
    """Symmetric cells on ``carrier``, drawn anywhere in ``lat``."""
    k = len(carrier)
    vals = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(a, k):
            vals[a][b] = vals[b][a] = rng.randrange(lat.n)
    return rows_table(lat, carrier, vals)


def random_partition(rng, carrier):
    n = len(carrier)
    k = rng.randint(1, n)
    labels = [rng.randrange(k) for _ in range(n)]
    classes = [frozenset(x for x, label in zip(carrier, labels) if label == c) for c in range(k)]
    return Partition(tuple(c for c in classes if c))


def check_partitioned_witnesses(count):
    """The sha256 of the witnesses ``assoc_partitioned`` returns on
    ``count`` seeded commutative tables, and how many of those are not
    associative.  Table i is drawn from ``random.Random(i)``: a chain of 3
    to 6 elements, a carrier of two or more of its elements, symmetric
    cells anywhere in the chain (so closure fails too) and a random
    partition of the carrier."""
    digest = hashlib.sha256()
    failing = 0
    for seed in range(count):
        rng = random.Random(seed)
        lat = chain(rng.randint(3, 6))
        carrier = sorted(rng.sample(range(lat.n), rng.randint(2, lat.n)))
        t = random_commutative_table(rng, lat, carrier)
        witness = assoc_partitioned(t, random_partition(rng, carrier))
        digest.update(repr(witness).encode())
        failing += witness is not None
    return digest.hexdigest(), failing


def test_partitioned_witnesses_are_pinned():
    # the first violating triple itself, not only the verdict, over 3,000
    # tables (CI runs 30,000); recorded while clause (iii) had its own loop
    digest, failing = check_partitioned_witnesses(3000)
    assert digest == "9c89a3739f8e5b3a34644e9650333bcf33c05cdabd09a7e3e5c355268959765f"
    assert failing == 2014


def test_partition_validation():
    with pytest.raises(ValueError, match="empty"):
        Partition((frozenset(), frozenset({0}))).validate({0})
    with pytest.raises(ValueError, match="overlap"):
        Partition((frozenset({0, 1}), frozenset({1}))).validate({0, 1})
    with pytest.raises(ValueError, match="cover"):
        Partition((frozenset({0}),)).validate({0, 1})


def test_single_class_equals_naive():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(2, 6)
        t = random_commutative_table(rng, chain(n), range(n))
        naive = first_associativity_witness(t)
        part = Partition((frozenset(range(n)),))
        partitioned = assoc_partitioned(t, part)
        assert (naive is None) == (partitioned is None)


def test_partitioned_agrees_with_naive_oracle():
    rng = random.Random(7)
    non_associative = 0
    for _ in range(400):
        n = rng.randint(2, 6)
        t = random_commutative_table(rng, chain(n), range(n))
        part = random_partition(rng, range(n))
        naive = first_associativity_witness(t)
        partitioned = assoc_partitioned(t, part)
        assert (naive is None) == (partitioned is None)
        if naive is not None:
            non_associative += 1
        if partitioned is not None:
            a, b, c, left, right = partitioned
            assert t.value(a, t.value(b, c)) in (left, right)
            assert left != right
    assert non_associative >= 100


def test_table2_with_six_region_partition(l11):
    lat = l11.lattice
    regions = case_regions(lat, l11.spec.neutral, l11.spec.threshold)
    part = Partition(
        tuple(frozenset(ids_of(mask)) for mask in regions if mask)
    )
    assert assoc_partitioned(l11.stored, part) is None


def test_six_region_partition_on_every_catalogue_construction():
    # the join-form construction of every catalogue frame with n <= 6
    failing = 0
    for spec in catalogue_specs(6):
        t = construct_eq1(spec, check_inner=False)
        regions = case_regions(spec.lattice, spec.neutral, spec.threshold)
        part = Partition(tuple(frozenset(ids_of(mask)) for mask in regions if mask))
        verdict = assoc_partitioned(t, part)
        assert (verdict is None) == (first_associativity_witness(t) is None), spec
        failing += verdict is not None
    assert failing  # both verdicts occur


def test_partitioned_skips_intermediates_outside_the_carrier():
    # the meet on 0 < 1 < 2 with U(2, 2) = 3, outside the carrier: every
    # triple through that cell is closure's business, so both routes pass
    lat = chain(4)
    t = rows_table(lat, (0, 1, 2), ((0, 0, 0), (0, 1, 1), (0, 1, 3)))
    assert first_associativity_witness(t) is None
    for classes in (({0, 1, 2},), ({0, 1}, {2}), ({2}, {0, 1}), ({0}, {1}, {2})):
        assert assoc_partitioned(t, Partition(tuple(map(frozenset, classes)))) is None


def test_not_commutative_precondition():
    lat = chain(3)
    t = rows_table(lat, (0, 1, 2), ((0, 0, 2), (0, 1, 2), (1, 2, 2)))
    with pytest.raises(NotCommutative):
        assoc_partitioned(t, Partition((frozenset({0, 1, 2}),)))


def test_equivalence_on_corpus(entries):
    for entry_id in ("L11", "L12", "L21"):
        verdict = verify_equivalence(entries[entry_id].spec, entries[entry_id].theorem)
        assert verdict.predicted and verdict.observed and verdict.agree
    for entry_id in ("L13", "L22"):
        with pytest.raises(HypothesesNotMet):
            verify_equivalence(entries[entry_id].spec, entries[entry_id].theorem)


@pytest.mark.parametrize("dropped, named", [(None, "join-pairs"), ("join-pairs", "join-anchor"),
                                             ("join-anchor", "join-pairs")])
def test_refusal_names_the_first_failing_clause_other_than_the_dropped_one(l13, dropped, named):
    # L13 fails both join clauses under th31
    with pytest.raises(HypothesesNotMet) as err:
        verify_equivalence(l13.spec, "th31", dropped)
    assert err.value.clause == named
    assert str(err.value) == f"standing hypothesis failed: {named}"


@pytest.mark.parametrize("entry_id, theorem, dropped", [("L11", "th31", "join-pairs"),
                                                        ("L11", "th31", "join-anchor"),
                                                        ("L21", "th33", "join-anchor")])
def test_refusal_says_when_the_dropped_clause_holds(entries, entry_id, theorem, dropped):
    with pytest.raises(HypothesesNotMet) as err:
        verify_equivalence(entries[entry_id].spec, theorem, dropped)
    assert err.value.clause == dropped
    assert str(err.value) == f"dropped clause holds: {dropped}"


@pytest.mark.parametrize("entry_id, theorem, dropped, admitted", [
    ("L11", "th31", None, True), ("L22", "th33", "join-anchor", True),
    ("L13", "th31", None, False), ("L13", "th31", "join-pairs", False),
    ("L11", "th31", "join-anchor", False),
])
def test_refusal_and_verdict_carry_the_hypothesis_report(entries, entry_id, theorem, dropped,
                                                         admitted):
    spec = entries[entry_id].spec
    try:
        report = verify_equivalence(spec, theorem, dropped).hypotheses
    except HypothesesNotMet as err:
        assert not admitted
        report = err.report
    else:
        assert admitted
    assert report == check_for(spec, theorem)


def test_false_branch_has_necessity_shaped_witness():
    # hunt a spec whose parallel condition fails; the verdict must agree
    # and the counterwitness must be the increasingness failure the
    # necessity argument produces (a cell at top against a smaller cell)
    found = 0
    for seed in range(200):
        spec = gen_spec(
            GenConfig(seed=seed, size_range=(5, 9)),
            "beside_neutral",
            want_hypotheses=True,
            theorem="th31",
        )
        verdict = verify_equivalence(spec, "th31")
        assert verdict.agree
        if not verdict.predicted:
            found += 1
            axiom, witness = verdict.counterwitness
            assert axiom == "monotone"
            a, b, c, ua, ub, side = witness
            assert ua == spec.lattice.top and ub != spec.lattice.top
    assert found >= 5


def hand_built_side_anchor_counterexample():
    """Meet nothing: an instance where only the anchor clause fails.

    One isolated element sits above a side element of the inner interval
    and joins with the anchor strictly below the top, so the constructed
    table cannot be monotone.
    """
    lat = build_lattice(
        ("0", "x", "e", "k", "rho", "q", "v", "1"),
        [
            ("0", "x"), ("0", "e"),
            ("x", "k"), ("x", "rho"),
            ("e", "rho"), ("e", "q"),
            ("rho", "v"), ("k", "v"), ("q", "v"),
            ("v", "1"),
        ],
    )
    inner = gen_uninorm(
        lat,
        lat.interval(lat.bottom, lat.index("rho")),
        lat.index("e"),
        GenConfig(seed=0, class_filter="ub"),
    )
    return ConstructionSpec(
        lattice=lat,
        threshold=lat.index("rho"),
        neutral=lat.index("e"),
        anchor=lat.index("q"),
        inner=inner,
    )


def test_hand_built_instance_breaks_without_anchor_clause():
    spec = hand_built_side_anchor_counterexample()
    lat = spec.lattice
    report = check_for(spec, "th33")
    assert report.anchor_class == "beside_threshold"
    assert report.standing_failures() == ("join-anchor",)
    assert report.parallel_condition_ok.ok
    k, v = lat.index("k"), lat.index("v")
    assert lat.join(k, spec.anchor) == v and v != lat.top
    from latnorm.construct import construct_eq1

    axioms = is_uninorm(construct_eq1(spec), spec.neutral)
    assert not axioms.ok
    assert axioms.monotone is not None


def test_find_counterexample_unknown_clause():
    with pytest.raises(UnknownClause):
        find_counterexample("th31", "parallel", budget=1)
    with pytest.raises(UnknownClause):
        find_counterexample("th33", "join-pairs", budget=1)


@pytest.mark.parametrize("theorem, dropped, choices", [
    ("th31", "meet-pairs", "('join-pairs', 'join-anchor')"),
    ("th33", "join-pairs", "('join-anchor',)"),
    ("th31", "bogus", "('join-pairs', 'join-anchor')"),
], ids=["th31-meet-pairs", "th33-join-pairs", "th31-bogus"])
def test_a_clause_the_theorem_cannot_drop_is_unknown_to_both_checks(l11, theorem, dropped,
                                                                    choices):
    # the one droppable check runs before the spec is read
    for check in (lambda: verify_equivalence(l11.spec, theorem, dropped),
                  lambda: find_counterexample(theorem, dropped, budget=1)):
        with pytest.raises(UnknownClause) as err:
            check()
        assert str(err.value) == (
            f"{theorem} has no droppable clause {dropped!r}; choose from {choices}")


@pytest.mark.parametrize(
    "call",
    [
        lambda spec: check_for(spec, "th99"),
        lambda spec: construct_for(spec, "th99"),
        lambda spec: next(gen_spec_candidates(GenConfig(seed=0), "th99")),
        lambda spec: gen_spec(GenConfig(seed=0), "beside_threshold", True, "th99"),
        lambda spec: find_counterexample("th99", None, budget=1),
    ],
    ids=["check_for", "construct_for", "gen_spec_candidates", "gen_spec", "find_counterexample"],
)
def test_unknown_theorem_id_is_a_value_error(l13, call):
    with pytest.raises(ValueError) as info:
        call(l13.spec)
    assert str(info.value) == "unknown theorem id 'th99'"


@pytest.mark.parametrize("budget", [0, 5])
def test_search_draws_exactly_its_budget(monkeypatch, budget):
    # seed 0 isolates join-pairs only at candidate 145, so the whole budget
    # is spent, and not one candidate more
    real = verify_module.gen_spec_candidates
    drawn = []

    def counting(*args, **kwargs):
        for candidate in real(*args, **kwargs):
            drawn.append(candidate)
            yield candidate

    monkeypatch.setattr(verify_module, "gen_spec_candidates", counting)
    assert find_counterexample("th31", "join-pairs", budget=budget, seed=0) is None
    assert len(drawn) == budget


def check_search_draws(theorems, seed=0, budget=500):
    """The inner tables drawn by the clause-drop search of each droppable
    clause of each theorem, and then of none: ``find_counterexample`` at
    ``seed`` and ``budget`` in its default size window.  Each search must
    draw one table per frame that admits its clause among the candidates
    it scanned, and no other.  Returns the counts and the searches'
    sources (``None`` where nothing was found)."""
    real_stream, real_draw = verify_module.gen_spec_candidates, gen_module.gen_uninorm
    scanned, drawn = [], []

    def stream(*args, **kwargs):
        for frame, draw in real_stream(*args, **kwargs):
            scanned.append(frame)
            yield frame, draw

    def draw_table(*args, **kwargs):
        drawn.append(args)
        return real_draw(*args, **kwargs)

    counts, sources = [], []
    verify_module.gen_spec_candidates, gen_module.gen_uninorm = stream, draw_table
    try:
        for theorem in theorems:
            for clause in (*THEOREMS[theorem].droppable_clauses, None):
                scanned.clear()
                drawn.clear()
                hit = find_counterexample(theorem, clause, budget, seed)
                admitted = sum(frame.admits(clause) for frame in scanned)
                assert len(drawn) == admitted, (theorem, clause, len(drawn), admitted)
                counts.append(len(drawn))
                sources.append(hit and hit.source)
    finally:
        verify_module.gen_spec_candidates, gen_module.gen_uninorm = real_stream, real_draw
    return counts, sources


def test_search_draws_only_for_admitted_frames():
    # join-pairs stops at candidate 145, its 31st admitted frame; join-anchor
    # admits 16 of 500 frames and the search with no clause dropped 324.
    # CI runs all ten default searches
    counts, sources = check_search_draws(["th31"])
    assert counts == [31, 16, 324]
    assert sources[0] == "generated:0:145"


def test_drop_nothing_finds_nothing():
    assert find_counterexample("th31", None, budget=300, seed=0) is None


def test_drop_pairs_clause_finds_instance_within_default_budget():
    hit = find_counterexample("th31", "join-pairs", budget=500, seed=0)
    assert hit is not None
    assert hit.dropped_clause == "join-pairs"
    # the counterexample re-verifies: dropped clause fails, construction broken
    report = hit.hypothesis_report
    assert report.standing_failures() == ("join-pairs",)
    assert not hit.axiom_report.ok
    a, b, c, left, right = hit.axiom_report.associative
    t = hit.spec
    from latnorm.construct import construct_eq1

    table = construct_eq1(t)
    assert table.value(table.value(a, b), c) == left
    assert table.value(a, table.value(b, c)) == right


def test_search_size_range_is_honoured():
    # the default window is 5..9; sizes up to 12 draw another stream
    assert find_counterexample("th34", "meet-anchor", budget=500, seed=7).source == (
        "generated:7:236"
    )
    hit = find_counterexample("th34", "meet-anchor", budget=500, seed=7, size_range=(4, 12))
    assert hit.source == "generated:7:377" and hit.spec.lattice.n == 11
    # only chains have 2 or 3 elements: the stream runs dry, which is not a
    # negative result
    with pytest.raises(ExhaustedRejection):
        find_counterexample("th31", "join-pairs", budget=3, seed=0, size_range=(2, 3))


def test_drop_meet_pairs_finds_dual_instance():
    hit = find_counterexample("th34", "meet-pairs", budget=500, seed=0)
    assert hit is not None
    assert not hit.axiom_report.ok


def test_corpus_entries_do_not_qualify_for_single_clause_drops():
    # both join clauses fail on the L13 instance, so dropping just one
    # never isolates it; the search draws only generated instances, and
    # one of those isolates the clause
    hit = find_counterexample("th31", "join-pairs", budget=500, seed=0)
    assert hit is not None
    assert hit.source.startswith("generated:")


def test_no_corpus_entry_qualifies_for_any_clause_drop(entries):
    # the premise on which the clause-drop search leaves the corpus out: no
    # entry is admitted with a clause dropped, predicted a uninorm and
    # observed to fail
    for entry in entries.values():
        for theorem, profile in THEOREMS.items():
            spec = entry.spec if profile.orientation == "join" else dual_spec(entry.spec)
            for clause in (*profile.droppable_clauses, None):
                try:
                    verdict = verify_equivalence(spec, theorem, clause)
                except (HypothesesNotMet, SpecInvalid):
                    continue
                assert verdict.observed or not verdict.predicted, (entry.id, theorem, clause)


def test_chain_specs_always_agree():
    lat = chain(6)
    inner = gen_uninorm(lat, lat.interval(0, 4), 2, GenConfig(seed=3, class_filter="ub"))
    spec = ConstructionSpec(lat, 4, 2, 1, inner)
    verdict = verify_equivalence(spec, "th31")
    assert verdict.predicted and verdict.observed


def test_meet_table_is_associative_under_any_partition():
    rng = random.Random(3)
    for seed in range(20):
        lat = gen_lattice(GenConfig(seed=seed, size_range=(3, 7)))
        t = meet_table(lat)
        part = random_partition(rng, range(lat.n))
        assert assoc_partitioned(t, part) is None
