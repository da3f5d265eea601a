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
"""

from dataclasses import replace

import pytest

from latnorm.construct import (
    THEOREMS,
    ConstructionSpec,
    construct_eq1,
    construct_eq2,
    dual_spec,
    validate_spec,
)
from latnorm.gen import GenConfig, gen_spec
from latnorm.lattice import ElementId, case_regions
from latnorm.optable import OpTable, is_uninorm, rewrap

from families import FUZZ_PAIRS, boolean, catalogue_specs, grid, meet_core, table_from_function


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
