import random

import pytest

from latnorm.construct import THEOREMS, ConstructionSpec, HypothesesNotMet, check_for, dual_spec
from latnorm.gen import GenConfig, gen_lattice, gen_spec, gen_uninorm
from latnorm.lattice import build_lattice, case_regions, ids_of
from latnorm.optable import (
    OpTable,
    first_associativity_witness,
    is_uninorm,
    meet_table,
)
from latnorm.verify import (
    NotCommutative,
    Partition,
    UnknownClause,
    _qualifies,
    assoc_partitioned,
    find_counterexample,
    verify_equivalence,
)


def chain(n):
    names = tuple(str(i) for i in range(n))
    return build_lattice(names, [(str(i), str(i + 1)) for i in range(n - 1)])


def random_commutative_table(rng, n):
    lat = chain(n)
    vals = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            v = rng.randrange(n)
            vals[a][b] = vals[b][a] = v
    return OpTable(lattice=lat, carrier=tuple(range(n)), values=tuple(tuple(r) for r in vals))


def random_partition(rng, n):
    k = rng.randint(1, n)
    labels = [rng.randrange(k) for _ in range(n)]
    classes = [frozenset(i for i in range(n) if labels[i] == c) for c in range(k)]
    return Partition(tuple(c for c in classes if c))


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
        t = random_commutative_table(rng, n)
        naive = first_associativity_witness(t)
        part = Partition((frozenset(range(n)),))
        partitioned = assoc_partitioned(t, part)
        assert (naive is None) == (partitioned is None)


def test_partitioned_agrees_with_naive_oracle():
    rng = random.Random(7)
    non_associative = 0
    for _ in range(400):
        n = rng.randint(2, 6)
        t = random_commutative_table(rng, n)
        part = random_partition(rng, n)
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
        tuple(frozenset(ids_of(mask)) for mask in regions.blocks() if mask)
    )
    assert assoc_partitioned(l11.stored, part) is None


def test_not_commutative_precondition():
    lat = chain(3)
    t = OpTable(lattice=lat, carrier=(0, 1, 2), values=((0, 0, 2), (0, 1, 2), (1, 2, 2)))
    with pytest.raises(NotCommutative):
        assoc_partitioned(t, Partition((frozenset({0, 1, 2}),)))


def test_equivalence_on_corpus(entries):
    for entry_id in ("L11", "L12", "L21"):
        verdict = verify_equivalence(entries[entry_id].spec, entries[entry_id].theorem)
        assert verdict.predicted and verdict.observed and verdict.agree
    for entry_id in ("L13", "L22"):
        with pytest.raises(HypothesesNotMet):
            verify_equivalence(entries[entry_id].spec, entries[entry_id].theorem)


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
    # the premise on which the clause-drop search leaves the corpus out
    for entry in entries.values():
        for theorem, profile in THEOREMS.items():
            spec = entry.spec if profile.orientation == "join" else dual_spec(entry.spec)
            for clause in (*profile.droppable_clauses, None):
                assert _qualifies(spec, theorem, clause) is None, (entry.id, theorem, clause)


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
        part = random_partition(rng, lat.n)
        assert assoc_partitioned(t, part) is None
