"""Differential test of the clause-drop search's decision.

``find_counterexample`` keeps a candidate when its frame admits the
dropped clause and the ``verify_equivalence`` verdict on its drawn spec is
predicted True, observed False.  It must accept exactly the candidates of
the ``_qualifies`` check it replaced, which is kept here verbatim as the
reference and runs on every candidate's spec.  Both run on
the first candidates of each theorem's stream at seed 0 with sizes 5..9
(the search's default window) and at seed 7 with sizes 4..12, for every
droppable clause and for none; at seed 7 the reference accepts join-form
and meet-form specs alike, so both branches of the decision are compared.
"""

from itertools import islice
from typing import Optional

import pytest

from latnorm.construct import (
    THEOREMS,
    ConstructionSpec,
    SpecInvalid,
    check_for,
    construct_for,
)
from latnorm.gen import GenConfig, gen_spec_candidates
from latnorm.optable import is_uninorm
from latnorm.verify import Counterexample, find_counterexample, verify_equivalence

CANDIDATES = 130  # per stream; the seed-7 streams accept from candidate 18

# (theorem, seed) -> the (clause, candidate index) pairs the reference accepts
ACCEPTED = {
    ("th31", 7): [("join-pairs", 18), ("join-pairs", 110), ("join-pairs", 128)],
    ("th34", 7): [("meet-pairs", 18), ("meet-pairs", 110), ("meet-pairs", 128)],
}


def _qualifies(
    spec: ConstructionSpec, theorem: str, dropped: Optional[str], source: str = ""
) -> Optional[Counterexample]:
    """A counterexample isolates one clause: every other standing clause
    holds, the parallel condition holds, the dropped clause fails, and the
    constructed table fails an axiom.  With no dropped clause every clause
    must hold, so the theorem guarantees nothing qualifies."""
    try:
        report = check_for(spec, theorem)
    except SpecInvalid:
        return None
    failures = set(report.standing_failures())
    if failures != ({dropped} if dropped is not None else set()):
        return None
    if not report.parallel_condition_ok.ok:
        return None
    table = construct_for(spec, theorem)
    axioms = is_uninorm(table, spec.neutral)
    if axioms.ok:
        return None
    return Counterexample(
        spec=spec,
        theorem=theorem,
        dropped_clause=dropped or "",
        hypothesis_report=report,
        axiom_report=axioms,
        source=source,
    )


def _accepts(frame, draw, theorem, clause) -> bool:
    """The search's decision on one candidate: the frame first, then the
    drawn spec's verdict."""
    if not frame.admits(clause):
        return False
    verdict = verify_equivalence(draw(), theorem, clause)
    return verdict.predicted and not verdict.observed


@pytest.mark.parametrize("seed, window", [(0, (5, 9)), (7, (4, 12))])
@pytest.mark.parametrize("theorem", sorted(THEOREMS))
def test_search_accepts_what_the_reference_accepts(theorem, seed, window):
    cfg = GenConfig(seed=seed, size_range=window)
    candidates = [(frame, draw, draw())
                  for frame, draw in islice(gen_spec_candidates(cfg, theorem), CANDIDATES)]
    accepted = []
    for clause in (*THEOREMS[theorem].droppable_clauses, None):
        for i, (frame, draw, spec) in enumerate(candidates):
            expected = _qualifies(spec, theorem, clause) is not None
            assert _accepts(frame, draw, theorem, clause) == expected, (clause, i)
            if expected:
                accepted.append((clause, i))
    assert accepted == ACCEPTED.get((theorem, seed), [])
    for clause, i in accepted[:1]:  # and the search stops at the first
        hit = find_counterexample(theorem, clause, CANDIDATES, seed, window)
        assert hit.source == f"generated:{seed}:{i}"
