"""Differential tests of the join-form construction.

``_join_form`` is one call of ``_extend``, the row builder every
extension shares, with I = [bottom, threshold] from the ``case_regions``
blocks, absorbed by ``low``, filled with top and given the isolated
block's cells.  It must give exactly the cells of the per-cell closure it
replaced, kept here verbatim as the reference; the meet form is that
closure run on the dual spec and read back.  Both forms are compared on
every catalogue frame with n <= 7, on every corpus spec at every anchor,
on the generated specs of 4..12 elements of the fuzz suite's (theorem,
anchor class) pairs that have more than 7, and on join-form specs with a
meet-core inner table over the 64-element Boolean lattice and 8x8 grid.

At a neutral on a bound both forms are pinch-point extensions: the join
form at neutral bottom is the t-conorm pinch, the meet form at neutral
top the t-norm pinch, whatever the anchor.  They are compared with the
per-cell pinch references on every catalogue lattice with n <= 7.
"""

from dataclasses import replace

import pytest

from latnorm.catalogue import lattice_catalogue
from latnorm.construct import (
    THEOREMS,
    ConstructionSpec,
    construct_eq1,
    construct_eq2,
    dual_spec,
    validate_spec,
)
from latnorm.gen import GenConfig, gen_spec, gen_uninorm
from latnorm.lattice import ElementId, case_regions
from latnorm.optable import OpTable, is_uninorm, meet_table, rewrap

from families import (
    FUZZ_PAIRS, boolean, catalogue_specs, grid, join_table, meet_core, reference_pinch,
    reference_pinch_tconorm, table_from_function,
)


def reference_join_form(spec: ConstructionSpec) -> OpTable:
    lat = spec.lattice
    regions = case_regions(lat, spec.neutral, spec.threshold)
    low_mask = regions.low
    inner_mask = low_mask | regions.mid | regions.side_inner
    iso = regions.isolated
    inner = spec.inner
    join = lat.join
    anchor = spec.anchor
    top = lat.top

    def cell(x: ElementId, y: ElementId) -> ElementId:
        x_in = inner_mask >> x & 1
        y_in = inner_mask >> y & 1
        if x_in and y_in:
            return inner.value(x, y)
        if not x_in and low_mask >> y & 1:
            return x
        if low_mask >> x & 1 and not y_in:
            return y
        if iso >> x & 1 and iso >> y & 1:
            return join(join(x, y), anchor)
        return top

    return table_from_function(lat, range(lat.n), cell)


def reference_eq1(spec):
    return reference_join_form(validate_spec(spec, "join", check_inner=False))


def reference_eq2(spec):
    join_spec = validate_spec(spec, "meet", check_inner=False)
    return rewrap(reference_join_form(join_spec), spec.lattice)


def assert_both_forms_match(join_spec):
    """eq1 on a join-form spec, and eq2 on its dual, against the reference."""
    got = construct_eq1(join_spec, check_inner=False)
    assert got == reference_eq1(join_spec)
    assert got.carrier == tuple(range(join_spec.lattice.n))
    meet_spec = dual_spec(join_spec)
    assert construct_eq2(meet_spec, check_inner=False) == reference_eq2(meet_spec)


def test_every_catalogue_frame():
    for spec in catalogue_specs(7):
        assert_both_forms_match(spec)


def test_corpus_specs_at_every_anchor(entries):
    for entry in entries.values():
        for anchor in range(entry.lattice.n):
            assert_both_forms_match(replace(entry.spec, anchor=anchor))


@pytest.mark.parametrize("want_hypotheses", [True, False])
@pytest.mark.parametrize("theorem, anchor_class", FUZZ_PAIRS)
def test_generated_specs(theorem, anchor_class, want_hypotheses):
    for seed in range(20):
        spec = gen_spec(GenConfig(seed=seed, size_range=(4, 12)), anchor_class,
                        want_hypotheses=want_hypotheses, theorem=theorem)
        if spec.lattice.n > 7:  # the catalogue holds the rest
            assert_both_forms_match(spec if THEOREMS[theorem].orientation == "join" else dual_spec(spec))


@pytest.mark.parametrize(
    "lat, threshold, neutral",
    [
        # 2^6: threshold {0,1,2,3}, neutral {0,1}
        (boolean(6), "001111", "000011"),
        # 8x8 grid: [bottom, g4_3] holds the 5x4 corner, neutral g2_1 below it
        (grid(8, 8), "g4_3", "g2_1"),
    ],
    ids=["bool2^6", "grid8x8"],
)
def test_64_element_join_form_specs(lat, threshold, neutral):
    threshold, neutral = lat.index(threshold), lat.index(neutral)
    inner = meet_core(lat, threshold, neutral)
    regions = case_regions(lat, neutral, threshold)
    assert all(regions)  # every block is populated
    base = ConstructionSpec(lat, threshold, neutral, lat.bottom, inner)
    assert is_uninorm(base.inner, base.neutral).ok
    for anchor in range(lat.n):
        assert_both_forms_match(replace(base, anchor=anchor))


def check_bound_neutral_forms(n):
    """The join form at neutral bottom against the t-conorm pinch reference
    and the meet form at neutral top against the t-norm pinch reference, on
    every catalogue lattice with ``n`` elements, at every pivot (threshold;
    the bounds included) and every anchor.  Each pivot has two inner tables
    per form: the lattice's own operation (the join on [bottom, pivot], the
    meet on [pivot, top]) and a ``gen_uninorm`` draw at seed ``pivot``.
    Returns the number of (lattice, pivot, inner, anchor) cases, each
    checked in both forms."""
    count = 0
    for lat in lattice_catalogue(n):
        bottom, top = lat.bottom, lat.top
        for pivot in range(lat.n):
            below, above = lat.interval(bottom, pivot), lat.interval(pivot, top)
            cfg = GenConfig(seed=pivot)
            for lower, upper in [(join_table(lat, below), meet_table(lat, above)),
                                 (gen_uninorm(lat, below, bottom, cfg),
                                  gen_uninorm(lat, above, top, cfg))]:
                tconorm = reference_pinch_tconorm(lat, pivot, lower)
                tnorm = reference_pinch(lat, bottom, top, pivot, upper)
                for anchor in range(lat.n):
                    eq1 = construct_eq1(ConstructionSpec(lat, pivot, bottom, anchor, lower))
                    assert eq1 == tconorm
                    eq2 = construct_eq2(ConstructionSpec(lat, pivot, top, anchor, upper))
                    assert eq2 == tnorm
                    count += 1
    return count


@pytest.mark.parametrize("n, count", [(1, 2), (2, 8), (3, 18), (4, 64), (5, 250), (6, 1080),
                                      (7, 5194)])
def test_bound_neutral_forms_are_the_pinches(n, count):
    # 6,616 cases in all; CI runs n = 8
    assert check_bound_neutral_forms(n) == count
