"""The three benchmark workloads.

Each workload is built from the latnorm modules of one set-up round and the
workload seed.  ``op(i)`` returns the zero-argument call for op ``i``;
``judge(i, result)`` compares its result with the known answer.  Op ``-1``
is the warm-up op of set-up.  The timed
loop stops only at a multiple of ``cycle`` ops, so every run holds whole
cycles and the mix of op kinds is the same in every run; the output
digest and the branch counts cover the first ``digest_ops`` ops, a fixed
window.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Hashable, Optional

import inputs


@dataclass(frozen=True)
class Verdict:
    ok: bool                     # the result matches the known answer so far
    text: str                    # stdout, stderr and verdict repr, for the digest
    tag: Optional[Hashable] = None             # fuzz-equiv branch, counted over the digest window
    recheck: Optional[Callable[[], bool]] = None  # run after the timed loop


def seed_base(seed: int) -> int:
    """Start of the run's instance seeds; runs with different seeds get
    disjoint ranges for up to a million ops."""
    return (seed + 1) * 1_000_000


class FuzzEquiv:
    """One equivalence instance: the body of the ``latnorm fuzz`` loop."""

    name = "fuzz-equiv"
    PAIRS = (
        ("th31", "under_neutral"),
        ("th31", "beside_neutral"),
        ("th33", "beside_threshold"),
        ("th34", "over_neutral"),
        ("th34", "beside_neutral"),
        ("th36", "beside_threshold"),
    )
    cycle = len(PAIRS)
    digest_ops = 40 * len(PAIRS)

    # the warm-up op is the same instance for every seed, so set-up time
    # does not depend on how hard the seed's first instance is to draw
    WARM_UP_SEED = 0

    def __init__(self, mods, seed: int, workdir: Path):
        self.mods = mods
        self.base = seed_base(seed)

    def instance_seed(self, i: int) -> int:
        return self.WARM_UP_SEED if i < 0 else self.base + i

    def op(self, i: int):
        theorem, anchor_class = self.PAIRS[i % self.cycle]
        gen, verify = self.mods.gen, self.mods.verify
        cfg = gen.GenConfig(seed=self.instance_seed(i), size_range=(4, 9))

        def call():
            spec = gen.gen_spec(cfg, anchor_class, want_hypotheses=True, theorem=theorem)
            return verify.verify_equivalence(spec, theorem)

        return call

    def judge(self, i: int, verdict) -> Verdict:
        theorem, anchor_class = self.PAIRS[i % self.cycle]
        text = repr((theorem, anchor_class, self.instance_seed(i), verdict.predicted,
                     verdict.observed, verdict.counterwitness))
        tag = (theorem, anchor_class, verdict.predicted, verdict.observed)
        # the theorem guarantees agreement whenever the hypotheses hold
        return Verdict(ok=verdict.agree, text=text, tag=tag)


class VerifyLarge:
    """One in-process ``latnorm`` CLI call on a table or spec file at n <= 64."""

    name = "verify-large"

    def __init__(self, mods, seed: int, workdir: Path):
        self.mods = mods
        cases = inputs.write_verify_large(workdir, seed)
        random.Random(seed).shuffle(cases)
        self.cases = cases
        self.cycle = len(cases)
        self.digest_ops = len(cases)
        # warm up on the replay, which loads the corpus, so set-up time does
        # not depend on which file the seed puts last
        self.warm_up = next(case for case in cases if case.argv[0] == "corpus")

    def case(self, i: int) -> inputs.Case:
        return self.warm_up if i < 0 else self.cases[i % self.cycle]

    def op(self, i: int):
        argv = list(self.case(i).argv)
        main = self.mods.cli.main
        if argv[0] == "corpus":
            # each ``latnorm corpus`` process starts with an empty corpus
            # cache; empty it here, before the op is timed
            getattr(self.mods.corpus, "_CACHE", {}).clear()

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
            return code, out.getvalue(), err.getvalue()

        return call

    def judge(self, i: int, result) -> Verdict:
        case = self.case(i)
        code, out, err = result
        ok = code == case.exit_code and case.stdout_has in out
        return Verdict(ok=ok, text=f"{case.label}\0{code}\0{out}\0{err}")


class ClauseDrop:
    """One necessity search: ``find_counterexample(theorem, clause, 500, seed)``."""

    name = "clause-drop"
    BUDGET = 500

    def __init__(self, mods, seed: int, workdir: Path):
        self.mods = mods
        self.base = seed_base(seed)
        self.ops = [
            (theorem, clause)
            for theorem, profile in mods.construct.THEOREMS.items()
            for clause in (*profile.droppable_clauses, None)
        ]
        self.cycle = len(self.ops)
        self.digest_ops = len(self.ops)

    def op(self, i: int):
        theorem, clause = self.ops[i % self.cycle]
        find = self.mods.verify.find_counterexample
        seed = self.base + i
        return lambda: find(theorem, clause, budget=self.BUDGET, seed=seed)

    def judge(self, i: int, hit) -> Verdict:
        theorem, clause = self.ops[i % self.cycle]
        if hit is None:
            text = repr((theorem, clause, self.base + i, None))
            return Verdict(ok=True, text=text)
        report = hit.axiom_report
        text = repr((theorem, clause, self.base + i, hit.source, hit.dropped_clause,
                     [(axiom, getattr(report, axiom)) for axiom in report.failures()]))
        if clause is None:
            # with no clause dropped the theorem forbids a counterexample
            return Verdict(ok=False, text=text)
        return Verdict(ok=True, text=text, recheck=lambda: self._recheck(theorem, clause, hit))

    def _recheck(self, theorem: str, clause: str, hit) -> bool:
        construct, optable = self.mods.construct, self.mods.optable
        failures = construct.check_for(hit.spec, theorem).standing_failures()
        table = construct.construct_for(hit.spec, theorem)
        return failures == (clause,) and not optable.is_uninorm(table, hit.spec.neutral).ok


WORKLOADS = {cls.name: cls for cls in (FuzzEquiv, VerifyLarge, ClauseDrop)}
