"""Differential test of the hypothesis report.

``check_for`` reads each clause's first witness off the frame's masks.  It
must return exactly the report of the per-pair loops it replaced, field
for field; those loops are the reference, with the anchor class read off
``case_regions``.  They run for th31 and th33 on every catalogue frame
with n <= 6 (CI runs n <= 7), ``other`` anchors included (with these
inner tables every clause both holds and fails there; at n <= 5 the
parallel condition never fails), and on the frames of the generated
lattices of 3..10 elements,
seeds 0..29, that have more than 6.  On each spec's dual, th34 and th36
give that report with the anchor class renamed by ``dual_class``:
duality transports every report.
"""

from latnorm.construct import (
    THEOREMS,
    Clause,
    HypothesisReport,
    check_for,
    dual_class,
    dual_spec,
)
from latnorm.gen import GenConfig, gen_lattice
from latnorm.lattice import case_regions, ids_of
from latnorm.optable import in_class_ub

from families import catalogue_specs, frames


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


def assert_reports_match(specs) -> set:
    """``check_for`` equals the reference on every spec under th31 and th33,
    and on its dual under th34 and th36 it gives that report transported
    (which is the reference's there).  Returns the anchor classes and the
    (clause, outcome) pairs seen."""
    seen = set()
    for spec in specs:
        meet = dual_spec(spec)
        for join_theorem, meet_theorem in (("th31", "th34"), ("th33", "th36")):
            report = check_for(spec, join_theorem)
            assert report == reference_report(spec, join_theorem), (join_theorem, spec)
            dual = check_for(meet, meet_theorem)
            assert dual == report._replace(theorem=meet_theorem,
                                           anchor_class=dual_class(report.anchor_class)), spec
            clauses = {"pairs": report.join_pairs_ok, "anchor": report.join_anchor_ok,
                       "parallel": report.parallel_condition_ok,
                       "inner": Clause(report.inner_in_ub), "guard": Clause(report.nonempty_guard)}
            seen.update((name, c.ok) for name, c in clauses.items() if c is not None)
            seen.update((report.anchor_class, dual.anchor_class))
    return seen


def check_catalogue_reports(max_n):
    """:func:`assert_reports_match` on every catalogue frame with at most
    ``max_n`` elements; returns the number of specs and what they showed."""
    specs = list(catalogue_specs(max_n))
    return len(specs), assert_reports_match(specs)


def test_check_for_matches_the_clause_loops():
    count, seen = check_catalogue_reports(6)
    assert count == 1240
    # every anchor class occurs, and every clause both holds and fails
    classes = {"under_neutral", "over_neutral", "beside_neutral", "beside_threshold", "other"}
    outcomes = {(name, ok) for name in ("pairs", "anchor", "parallel", "inner", "guard")
                for ok in (True, False)}
    assert classes | outcomes <= seen, (classes | outcomes) - seen


def test_generated_frames_past_the_catalogue():
    for seed in range(30):
        lat = gen_lattice(GenConfig(seed=seed, size_range=(3, 10)))
        if lat.n > 6:
            assert_reports_match(frames(lat, seed))
