"""Differential test of ``gen_spec`` wanting the hypotheses.

``gen_spec`` checks each candidate's frame before it draws the inner
table.  It must return the spec of the loop it replaced, which drew every
candidate's table and ran ``check_for`` on each; that loop is kept here as
the reference (reading the cap from the module, so a test can lower it),
calling every candidate's ``draw``.  Both run on
the six (theorem, anchor class) pairs of the fuzz suite, at 100 seeds with
sizes 4..9 and 30 seeds with sizes 4..12, and under a tiny candidate cap,
where both must raise the same exhaustion error.  A fuzz op (``gen_spec``,
then ``verify_equivalence``) builds one hypothesis report, in
``verify_equivalence``: the spec keeps none.
"""

from itertools import islice

import pytest

import latnorm.gen as gen_module
from latnorm import construct, optable
from latnorm.construct import THEOREMS, check_for
from latnorm.gen import ExhaustedRejection, GenConfig, gen_spec, gen_spec_candidates
from latnorm.verify import verify_equivalence

from families import FUZZ_PAIRS


def _reference_gen_spec(cfg, anchor_class, want_hypotheses, theorem):
    ATTEMPT_CAP = gen_module.ATTEMPT_CAP
    candidates = gen_spec_candidates(cfg, theorem, anchor_class=anchor_class)
    if not want_hypotheses:
        return next(candidates)[1]()
    for _, draw in islice(candidates, ATTEMPT_CAP):
        spec = draw()
        failures = check_for(spec, theorem).standing_failures()
        if not failures:
            return spec
    raise ExhaustedRejection(f"no spec within cap; last failing clause: {failures[0]}")


def _outcome(draw, cfg, anchor_class, theorem):
    """The drawn spec as plain data, or the exhaustion error's text."""
    try:
        spec = draw(cfg, anchor_class, True, theorem)
    except ExhaustedRejection as exc:
        return str(exc)
    return (spec.lattice.up, spec.threshold, spec.neutral, spec.anchor,
            spec.inner.carrier, spec.inner.values)


@pytest.mark.parametrize("theorem, anchor_class", FUZZ_PAIRS)
def test_gen_spec_draws_the_reference_spec(theorem, anchor_class):
    for seeds, window in ((range(100), (4, 9)), (range(100, 130), (4, 12))):
        for seed in seeds:
            cfg = GenConfig(seed=seed, size_range=window)
            want = _outcome(_reference_gen_spec, cfg, anchor_class, theorem)
            assert _outcome(gen_spec, cfg, anchor_class, theorem) == want, (seed, window)


def test_exhaustion_names_the_reference_clause(monkeypatch):
    # a cap of two candidates (and two lattice draws) exhausts often
    monkeypatch.setattr(gen_module, "ATTEMPT_CAP", 2)
    texts = set()
    for theorem, anchor_class in FUZZ_PAIRS:
        for seed in range(40):
            cfg = GenConfig(seed=seed, size_range=(4, 9))
            want = _outcome(_reference_gen_spec, cfg, anchor_class, theorem)
            assert _outcome(gen_spec, cfg, anchor_class, theorem) == want, (theorem, seed)
            if isinstance(want, str):
                texts.add(want)
    # both errors occur: no spec within the cap, and no lattice that hosts a candidate
    assert any("last failing clause" in text for text in texts), texts
    assert any("last failing clause" not in text for text in texts), texts


def test_gen_spec_draws_one_inner_table(count_calls):
    calls = count_calls(gen_module, "gen_uninorm")
    drawn = 0
    for theorem, anchor_class in FUZZ_PAIRS:
        for seed in range(10):
            cfg = GenConfig(seed=seed, size_range=(4, 9))
            calls.clear()
            _reference_gen_spec(cfg, anchor_class, True, theorem)
            drawn += len(calls)
            calls.clear()
            gen_spec(cfg, anchor_class, True, theorem)
            assert calls == ["gen_uninorm"], (theorem, anchor_class, seed)
    # the reference also draws a table for each rejected candidate
    assert drawn > len(FUZZ_PAIRS) * 10


@pytest.mark.parametrize("theorem, anchor_class", FUZZ_PAIRS)
def test_verify_equivalence_reads_the_kept_report(count_calls, monkeypatch, theorem,
                                                  anchor_class):
    # a fuzz op builds one report: gen_spec reads frames only, and
    # verify_equivalence builds the report from the frame report kept on
    # the lattice (no second _join_frame), then constructs.  The inner
    # table's axiom and class verdicts are the ones gen_uninorm kept on it:
    # no battery and no ub scan runs on it again
    calls = count_calls(construct, "_join_frame", "in_class_ub", "validate_spec")
    scans = []

    def on_inner(name, fn):
        def wrapper(t, e):
            if t is inner:
                scans.append(name)
            return fn(t, e)
        return wrapper

    inner = None
    for name in ("_axiom_battery", "_scan_ub"):
        monkeypatch.setattr(optable, name, on_inner(name, getattr(optable, name)))
    join_form = THEOREMS[theorem].orientation == "join"
    for seed in range(20):
        # generated lattices are interned, with the frame reports kept on
        # them: start from an empty table, so this seed's frames are new
        gen_module._interned_lattice.cache_clear()
        calls.clear()
        spec = gen_spec(GenConfig(seed=seed, size_range=(4, 9)), anchor_class, True, theorem)
        assert set(calls) == {"_join_frame"}, seed
        inner = (spec if join_form else construct.dual_spec(spec)).inner
        calls.clear()
        verify_equivalence(spec, theorem)
        assert calls == ["validate_spec", "in_class_ub", "validate_spec"], seed
        assert scans == [], seed
