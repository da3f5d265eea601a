"""Differential test of the hypothesis report.

``check_for`` reads each clause's first witness off the frame's masks: the
anchor classes, the elements incomparable to both the neutral and the
threshold, and the anchor's incomparables.  It must return exactly the
report of the per-pair loops it replaced, field for field.  Those loops
are kept here as the reference, with the anchor class read off
``case_regions``, and run on seeded frames: generated lattices of 3..10
elements, every interior threshold, every neutral below it and every
anchor, ``other`` included, for th31 and th33 on the spec and for th34
and th36 on its dual.
"""

from latnorm.construct import (
    THEOREMS,
    Clause,
    ConstructionSpec,
    HypothesisReport,
    check_for,
    dual_spec,
)
from latnorm.gen import GenConfig, gen_lattice, gen_uninorm
from latnorm.lattice import case_regions, ids_of
from latnorm.optable import in_class_ub


def reference_report(spec, theorem):
    profile = THEOREMS[theorem]
    if profile.orientation == "meet":
        spec = dual_spec(spec)
    lat = spec.lattice
    q = spec.anchor
    regions = case_regions(lat, spec.neutral, spec.threshold)
    top = lat.top
    join = lat.join

    classes = {
        "under_neutral": regions.low & ~(1 << lat.bottom | 1 << spec.neutral),
        "beside_neutral": regions.side_inner,
        "beside_threshold": regions.side_outer,
    }
    anchor_class = next((name for name, mask in classes.items() if mask >> q & 1), "other")
    if profile.orientation == "meet" and anchor_class == "under_neutral":
        anchor_class = "over_neutral"

    iso = ids_of(regions.isolated)

    pairs = None
    if profile.has_pairs_clause:
        pairs = Clause(ok=True)
        for i, a in enumerate(iso):
            for b in iso[i + 1:]:
                v = join(a, b)
                if v != top:
                    pairs = Clause(ok=False, witness=(a, b, v))
                    break
            if not pairs.ok:
                break

    anchor_clause = Clause(ok=True)
    for a in iso:
        if lat.parallel(a, q):
            v = join(a, q)
            if v != top:
                anchor_clause = Clause(ok=False, witness=(a, v))
                break

    parallel_clause = Clause(ok=True)
    side_inner = ids_of(regions.side_inner)
    for a in iso:
        if lat.comparable(a, q):
            for b in side_inner:
                if lat.comparable(a, b):
                    parallel_clause = Clause(ok=False, witness=(a, b))
                    break
        if not parallel_clause.ok:
            break

    guard_extra = lat.interval_mask(spec.threshold, top) & ~(1 << spec.threshold | 1 << top)
    guard = bool(regions.side_outer | regions.isolated | guard_extra)

    return HypothesisReport(
        theorem=profile.id,
        anchor_class=anchor_class,
        join_pairs_ok=pairs,
        join_anchor_ok=anchor_clause,
        parallel_condition_ok=parallel_clause,
        inner_in_ub=in_class_ub(spec.inner, spec.neutral),
        nonempty_guard=guard,
    )


def _frames(seed):
    """Every (interior threshold, neutral below it, anchor) spec of one
    generated lattice, each (threshold, neutral) with one unfiltered inner
    table, so the inner class varies too."""
    lat = gen_lattice(GenConfig(seed=seed, size_range=(3, 10)))
    for threshold in range(lat.n):
        if threshold in (lat.bottom, lat.top):
            continue
        below = lat.interval(lat.bottom, threshold)
        for neutral in below:
            inner = gen_uninorm(lat, below, neutral, GenConfig(seed=seed * 101 + threshold))
            for anchor in range(lat.n):
                yield ConstructionSpec(lat, threshold, neutral, anchor, inner)


def test_check_for_matches_the_clause_loops():
    seen = set()
    for seed in range(30):
        for spec in _frames(seed):
            meet = dual_spec(spec)
            for theorem in THEOREMS:
                frame = spec if THEOREMS[theorem].orientation == "join" else meet
                report = check_for(frame, theorem)
                assert report == reference_report(frame, theorem), (seed, theorem, spec)
                seen.add(report.anchor_class)
                clauses = {
                    "pairs": report.join_pairs_ok,
                    "anchor": report.join_anchor_ok,
                    "parallel": report.parallel_condition_ok,
                    "inner": Clause(report.inner_in_ub),
                    "guard": Clause(report.nonempty_guard),
                }
                seen.update((name, c.ok) for name, c in clauses.items() if c is not None)
    # every anchor class occurs, and every clause both holds and fails
    classes = {"under_neutral", "over_neutral", "beside_neutral", "beside_threshold", "other"}
    outcomes = {(name, ok) for name in ("pairs", "anchor", "parallel", "inner", "guard")
                for ok in (True, False)}
    assert classes | outcomes <= seen, (classes | outcomes) - seen
