"""latnorm benchmark runner.

    python3 perfbench/run.py --workload fuzz-equiv --seed 7 --seconds 40 --trace 0

Runs one workload in this process as a closed loop with a single client:
each op starts when the previous one has returned.  Set-up is a fresh
import of latnorm from ``src/``, input generation and one warm-up op.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  The run is
``PASSES`` passes over the same ops.  The first pass runs whole cycles of
the workload for ``--seconds / PASSES`` seconds and sets up again about
every ``SETUP_EVERY_S`` seconds between cycles, outside the timed ops; the
other passes replay exactly its ops, setting up before the same ops.  Every
result is checked against its known answer, and every pass must give the
same verdicts.  The reference loop is timed before every op and around
every set-up, and each time is reported at the reference speed: an op's
time is the median over the passes of its time scaled by how fast the
reference loop ran around it.

``--trace 1`` sets up once, runs the loop for half of ``--seconds`` with
every public latnorm function wrapped in a span, replays the same ops
untraced to get the tracing overhead and to check that both passes give
identical verdicts, and reports the per-layer metrics.  Metric names and
units come from BENCHMARK.json; metrics that are computed but not listed
there (such as those of ``clause-drop`` only) are printed and recorded, not
reported.

Human-readable lines go first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
fuller record (digest, branch counts, sample counts) is written under
``perfbench/.out/``, and traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import tracer as tracing
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / ".out"

SETUP_EVERY_S = 0.5
PASSES = 5

# The reference loop's fastest wall time on the 2-core host the benchmark
# was tuned on (Intel Xeon, 2.1 GHz, Python 3.11).  Times are reported at
# the speed that makes the reference loop take this long; see ``scaled``.
REFERENCE_S = 64e-6
REFERENCE_WINDOW = 5  # reference timings on each side of an op


def declared_units(section: str) -> dict[str, str]:
    """Metric name -> unit of one section of BENCHMARK.json, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


# -- set-up ------------------------------------------------------------------


def import_latnorm() -> SimpleNamespace:
    """Fresh import of every traced latnorm module."""
    for name in list(sys.modules):
        if name == "latnorm" or name.startswith("latnorm."):
            del sys.modules[name]
    importlib.import_module("latnorm")
    return SimpleNamespace(
        **{name: importlib.import_module(f"latnorm.{name}") for name in tracing.TRACED_MODULES}
    )


def set_up(workload_cls, seed: int, workdir: Path):
    """One set-up round; returns (seconds, workload, warm-up op correct)."""
    start = time.perf_counter()
    mods = import_latnorm()
    workload = workload_cls(mods, seed, workdir)
    verdict = workload.judge(-1, workload.op(-1)())
    ok = verdict.ok and (verdict.recheck is None or verdict.recheck())
    return time.perf_counter() - start, workload, ok


# -- the reference loop -------------------------------------------------------


def reference_loop() -> None:
    """A fixed piece of pure-Python work that shares no code with latnorm."""
    counts = {}
    for i in range(600):
        counts[i % 37] = counts.get(i % 37, 0) + (i * 7) % 5


def time_reference() -> tuple[float, float]:
    """(wall s, CPU s) of one reference loop, with no garbage collection in it."""
    gc.disable()
    try:
        w0, c0 = time.perf_counter(), time.process_time()
        reference_loop()
        return time.perf_counter() - w0, time.process_time() - c0
    finally:
        gc.enable()


def scaled(times, refs, width: int = REFERENCE_WINDOW) -> list[float]:
    """Each of ``times`` at the reference speed: times[i] * REFERENCE_S over
    the median of the reference timings ``refs`` around i."""
    return [
        t * REFERENCE_S / statistics.median(refs[max(0, i - width): i + width + 1])
        for i, t in enumerate(times)
    ]


# -- the timed loop -----------------------------------------------------------


@dataclass
class LoopResult:
    ops: int = 0
    wall_s: float = 0.0
    latencies: array = field(default_factory=lambda: array("d"))  # wall s per op
    cpu: array = field(default_factory=lambda: array("d"))        # process CPU s per op
    ref_wall: array = field(default_factory=lambda: array("d"))   # reference loop before each op
    ref_cpu: array = field(default_factory=lambda: array("d"))
    setups: list = field(default_factory=list)  # op indices that a set-up preceded
    tags: list = field(default_factory=list)    # over the digest window
    failed_ops: list = field(default_factory=list)
    rechecks: list = field(default_factory=list)
    digest: str = ""       # over the digest window
    all_digest: str = ""   # over every op of the loop


def run_loop(workload, seconds: float, count=None, tracer=None, set_up_again=None,
             setups=None) -> LoopResult:
    """Run whole cycles of ops for about ``seconds``, past the digest
    window, or exactly ``count`` ops when given.

    ``set_up_again`` returns a freshly set-up workload for the same seed.
    When it is given, the loop sets up before op 0 (``workload`` may then
    be None) and at the cycle boundaries in ``setups`` or, without
    ``setups``, at the first cycle boundary ``SETUP_EVERY_S`` after the last
    set-up; it goes on with the new workload, and the pauses are left out
    of the loop's wall time.  A replay given the first pass's ``setups``
    repeats its allocations op for op, so garbage collections fall on the
    same ops.  Untraced, the reference loop is timed before each op.
    """
    res = LoopResult()
    window = hashlib.sha256()
    every = hashlib.sha256()
    clock, cpu_clock = time.perf_counter, time.process_time
    start_wall = last_setup = clock()
    paused_wall = 0.0
    i = 0
    while True:
        if count is not None:
            if i >= count:
                break
        elif i > 0 and i >= workload.digest_ops and i % workload.cycle == 0:
            # stop at the cycle boundary nearest to ``seconds``
            elapsed = clock() - start_wall
            if elapsed * (1 + 0.5 * workload.cycle / i) >= seconds:
                break
        if set_up_again is not None and (
            i == 0
            or (i in setups if setups is not None
                else i % workload.cycle == 0 and clock() - last_setup >= SETUP_EVERY_S)
        ):
            pause_wall = clock()
            # while this workload's modules are still the imported ones
            finish_rechecks(res)
            workload = set_up_again()
            # the dropped module set is garbage; collect it in the pause
            gc.collect()
            res.setups.append(i)
            last_setup = clock()
            paused_wall += last_setup - pause_wall
        if tracer is None:
            ref_wall, ref_cpu = time_reference()
            res.ref_wall.append(ref_wall)
            res.ref_cpu.append(ref_cpu)
        with tracer.op(i) if tracer is not None else contextlib.nullcontext():
            call = workload.op(i)
            t0, c0 = clock(), cpu_clock()
            try:
                result, raised = call(), None
            except Exception as exc:  # an op that raises is a failed op; keep going
                raised = exc
            res.cpu.append(cpu_clock() - c0)
            res.latencies.append(clock() - t0)
            if raised is None:
                verdict = workload.judge(i, result)
                text = verdict.text
            else:
                verdict = None
                text = f"raised {raised!r}"
                print(f"op {i} raised: {raised!r}", file=sys.stderr)
            if verdict is None or not verdict.ok:
                res.failed_ops.append(i)
            elif verdict.recheck is not None:
                res.rechecks.append((i, verdict.recheck))
            record = f"{i}\0{text}\n".encode()
            every.update(record)
            if i < workload.digest_ops:
                window.update(record)
                res.tags.append(verdict.tag if verdict is not None else None)
        i += 1
    res.wall_s = clock() - paused_wall - start_wall
    res.ops = i
    res.digest = window.hexdigest()
    res.all_digest = every.hexdigest()
    return res


def run_passes(set_up_again, seconds: float, passes: int = PASSES) -> list[LoopResult]:
    """The first pass runs for ``seconds / passes``; the others replay its ops."""
    first = run_loop(None, seconds / passes, set_up_again=set_up_again)
    return [first] + [
        run_loop(None, 0, count=first.ops, set_up_again=set_up_again, setups=set(first.setups))
        for _ in range(passes - 1)
    ]


def finish_rechecks(res: LoopResult) -> None:
    """Run the deferred known-answer checks, outside the timed loop."""
    for i, recheck in res.rechecks:
        try:
            ok = recheck()
        except Exception as exc:
            print(f"recheck of op {i} raised: {exc!r}", file=sys.stderr)
            ok = False
        if not ok:
            res.failed_ops.append(i)
    res.rechecks.clear()


# -- metrics ------------------------------------------------------------------

# Other tenants of a shared machine slow the program's CPU, not just its
# turn on it: on the 2-core host this was tuned on, a fixed pure-Python loop
# ran 10-80% slow, in wall and CPU time alike, in spells of a fraction of a
# second to a whole 40-second run.  So every op is timed next to the
# reference loop and reported at the reference speed (``scaled``), which
# takes out how fast the machine ran at that moment; each op's figure is
# the median over the passes.  A change to latnorm moves an op's time and
# not the reference loop's, so it moves the figures in full.


def p90(samples) -> float:
    return statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]


def per_op(runs: list[LoopResult], series: str, refs: str) -> list[float]:
    """Per op, the median over the passes of its time at the reference speed."""
    passes = [scaled(getattr(res, series), getattr(res, refs)) for res in runs]
    return [statistics.median(times) for times in zip(*passes)]


def end_to_end(setup_times, runs: list[LoopResult]) -> dict:
    lat, cpu = per_op(runs, "latencies", "ref_wall"), per_op(runs, "cpu", "ref_cpu")
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_p90_ms": p90(lat) * 1000,
        "cpu_ms_per_op": sum(cpu) * 1000 / len(cpu),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def branch_counts(res: LoopResult) -> Counter:
    return Counter(tag for tag in res.tags if tag is not None)


def per_layer(tr: tracing.Tracer, traced: LoopResult, untraced: LoopResult) -> dict:
    totals = tr.summary()
    ops = traced.ops
    empty = tracing.SpanTotals()

    def get(name):
        return totals.get(name, empty)

    def self_ms(name):
        return get(name).self_s * 1000 / ops

    def calls(name):
        return get(name).calls / ops

    def ratio(num, den):
        return num / den if den else 0.0

    yielded = tr.counters.get("gen.gen_spec_candidates.yielded", 0)
    uninorm = get("optable.is_uninorm")
    searches = get("verify.find_counterexample").calls
    m = {
        "gen.gen_lattice.calls": calls("gen.gen_lattice"),
        "gen.gen_lattice.self_ms": self_ms("gen.gen_lattice"),
        "gen.lattices_per_candidate": ratio(
            tr.count_descendants("lattice.build_lattice", "gen.gen_lattice"), yielded
        ),
        "gen.gen_uninorm.calls": calls("gen.gen_uninorm"),
        "gen.gen_uninorm.self_ms": self_ms("gen.gen_uninorm"),
        "gen.gen_spec_candidates.yielded": yielded / ops,
        "gen.gen_spec_candidates.self_ms": self_ms("gen.gen_spec_candidates"),
        "gen.gen_spec.self_ms": self_ms("gen.gen_spec"),
        "gen.spec_accept_ratio": ratio(get("gen.gen_spec").calls - get("gen.gen_spec").raised, yielded),
        "lattice.build_lattice.calls": calls("lattice.build_lattice"),
        "lattice.build_lattice.self_ms": self_ms("lattice.build_lattice"),
        "lattice.build_lattice.rejected": get("lattice.build_lattice").raised / ops,
        "optable.is_uninorm.calls": calls("optable.is_uninorm"),
        "optable.is_uninorm.self_ms": self_ms("optable.is_uninorm"),
        "optable.is_uninorm.cells": tr.counters.get("optable.is_uninorm.cells", 0) / ops,
        "optable.is_uninorm.fail_ratio": ratio(
            tr.counters.get("optable.is_uninorm.failed", 0), uninorm.calls
        ),
    }
    for axiom in ("commutativity", "associativity", "monotonicity", "neutral", "closure"):
        name = f"optable.first_{axiom}_witness"
        m[f"{name}.self_ms"] = self_ms(name)
    m["optable.in_class.self_ms"] = sum(
        self_ms(f"optable.in_class_{c}") for c in ("ub", "ut", "umin", "umax")
    )
    for name in ("check_for", "validate_spec", "construct_for"):
        m[f"construct.{name}.calls"] = calls(f"construct.{name}")
        m[f"construct.{name}.self_ms"] = self_ms(f"construct.{name}")
    m["verify.verify_equivalence.self_ms"] = self_ms("verify.verify_equivalence")
    m["verify.find_counterexample.self_ms"] = self_ms("verify.find_counterexample")
    m["verify.candidates_per_search"] = ratio(
        tr.count_descendants("construct.check_for", "verify.find_counterexample"), searches
    )
    m["corpus.replay_all.self_ms"] = self_ms("corpus.replay_all")
    m["corpus.load.self_ms"] = self_ms("corpus.load")
    for name in ("parse_lattice", "parse_table", "render_table"):
        m[f"fileio.{name}.self_ms"] = self_ms(f"fileio.{name}")
    m["cli.main.self_ms"] = self_ms("cli.main")

    layer_self = defaultdict(float)
    for name, agg in totals.items():
        layer_self[name.partition(".")[0]] += agg.self_s
    for layer in tracing.TRACED_MODULES:
        m[f"layer.{layer}.self_ms"] = layer_self[layer] * 1000 / ops
    m["bench.self_ms"] = self_ms("bench.op")
    m["trace.loop_ms_per_op"] = traced.wall_s * 1000 / ops
    m["trace.accounted_ratio"] = get("bench.op").total_s / traced.wall_s
    m["trace.overhead_ratio"] = (untraced.ops / untraced.wall_s) / (ops / traced.wall_s)
    return m


# -- main ---------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="latnorm benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "latnorm" / "__init__.py").is_file():
        print(f"error: no latnorm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload_cls = WORKLOADS[args.workload]
    workdir = BENCH_DIR / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    setup_times, failed_setup = [], 0
    workload = None

    def set_up_round():
        nonlocal failed_setup, workload
        refs = [time_reference()[0] for _ in range(REFERENCE_WINDOW)]
        seconds, workload, warm = set_up(workload_cls, args.seed, workdir)
        refs += [time_reference()[0] for _ in range(REFERENCE_WINDOW)]
        # at the reference speed, like the ops
        setup_times.append(seconds * REFERENCE_S / statistics.median(refs))
        failed_setup += not warm
        return workload

    try:
        if args.trace:
            set_up_round()
            tr = tracing.Tracer()
            tr.install([getattr(workload.mods, name) for name in tracing.TRACED_MODULES])
            try:
                res = run_loop(workload, args.seconds / 2, tracer=tr)
            finally:
                tr.uninstall()
            left_wrapped = tracing.wrapped_bindings()
            # the same ops again, untraced: end-to-end figures and overhead
            untraced = run_loop(workload, args.seconds, count=res.ops)
            runs = [res, untraced]
        else:
            runs = run_passes(set_up_round, args.seconds)
            res = untraced = runs[0]
        for loop in runs:
            finish_rechecks(loop)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # traced and untraced, or every pass: the same ops must give the same verdicts
    identical = len({loop.all_digest for loop in runs}) == 1
    failed = len({i for loop in runs for i in loop.failed_ops}) + failed_setup
    attempted = sum(loop.ops for loop in runs) + len(setup_times)
    correct = failed == 0 and identical
    timed = runs if not args.trace else [untraced]
    e2e = end_to_end(setup_times, timed)
    e2e_units = declared_units("end_to_end")
    branches = branch_counts(res) if args.workload == "fuzz-equiv" else Counter()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  ops {res.ops} ({res.ops // workload.cycle} cycles of {workload.cycle}) "
          f"x {len(timed)} untraced passes in {sum(loop.wall_s for loop in timed):.3f} s")
    for name, value in e2e.items():
        extra = ""
        if name.startswith("latency"):
            extra = f"  (median of {len(timed)} passes per op; n={res.ops} samples)"
        elif name == "setup_s":
            extra = f"  (median of {len(setup_times)} set-ups)"
        print(f"  {name:<16} {value:12.4f} {e2e_units[name]}{extra}")
    if not identical:
        print("  passes over the same ops gave different verdicts", file=sys.stderr)
    print(f"  {'fail_rate':<16} {failed / attempted:12.4f} ratio  ({failed}/{attempted} ops)")
    print(f"  digest sha256:{res.digest}  (first {workload.digest_ops} ops)")
    for tag, n in sorted(branches.items(), key=repr):
        print(f"  branch {tag}: {n}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": res.ops,
        "passes": len(timed),
        "setup_rounds": len(setup_times),
        "digest_ops": workload.digest_ops,
        "digest": res.digest,
        "failed_ops": sorted({i for loop in runs for i in loop.failed_ops}),
        "branches": {repr(k): v for k, v in sorted(branches.items(), key=repr)},
        "end_to_end": e2e,
    }
    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        computed = per_layer(tr, res, untraced)
        if left_wrapped:
            print(f"  tracer left wrapped: {left_wrapped}", file=sys.stderr)
        correct = correct and not left_wrapped
        record.update(per_layer=computed, identical_verdicts=identical, left_wrapped=left_wrapped)
        units = declared_units("per_layer")
        for name, value in computed.items():
            print(f"  {name:<52} {value:14.4f} {units.get(name, '(not in BENCHMARK.json)')}")
        tr.dump(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    else:
        computed, units = e2e, e2e_units
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": computed[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
