"""Checks of the benchmark itself; run with ``python -m pytest -q perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import inputs
import run
import tracer as tracing
from workloads import WORKLOADS

sys.path.insert(0, str(run.SRC))


def fresh(workload_name: str, tmp_path: Path, seed: int = 3):
    mods = run.import_latnorm()
    return WORKLOADS[workload_name](mods, seed, tmp_path / "work")


@pytest.mark.parametrize("name,count", [("fuzz-equiv", 60), ("verify-large", 37), ("clause-drop", 3)])
def test_traced_and_untraced_runs_agree_and_bindings_are_restored(name, count, tmp_path):
    workload = fresh(name, tmp_path)
    untraced = run.run_loop(workload, 0, count=count)

    tr = tracing.Tracer()
    tr.install([getattr(workload.mods, m) for m in tracing.TRACED_MODULES])
    try:
        assert tracing.wrapped_bindings()
        traced = run.run_loop(workload, 0, count=count, tracer=tr)
    finally:
        tr.uninstall()

    assert tracing.wrapped_bindings() == []
    assert traced.all_digest == untraced.all_digest
    assert traced.failed_ops == untraced.failed_ops == []
    totals = tr.summary()
    assert totals["bench.op"].calls == count
    assert "optable.is_uninorm" in totals
    # the result line carries exactly the metrics BENCHMARK.json lists
    assert set(run.declared_units("per_layer")) <= set(run.per_layer(tr, traced, untraced))
    e2e = run.end_to_end([0.1], [untraced])
    assert set(e2e) == set(run.declared_units("end_to_end"))


@pytest.mark.parametrize("name,cycles", [("fuzz-equiv", 10), ("verify-large", 2)])
def test_set_ups_between_cycles_do_not_change_verdicts(name, cycles, tmp_path, monkeypatch):
    workload = fresh(name, tmp_path)
    count = cycles * workload.cycle
    plain = run.run_loop(workload, 0, count=count)
    monkeypatch.setattr(run, "SETUP_EVERY_S", 0.0)
    rounds = []

    def set_up_again():
        seconds, again, warm = run.set_up(WORKLOADS[name], 3, tmp_path / "work")
        assert warm
        rounds.append(seconds)
        return again

    start = time.perf_counter()
    interleaved = run.run_loop(None, 0, count=count, set_up_again=set_up_again)
    elapsed = time.perf_counter() - start
    assert interleaved.setups == [c * workload.cycle for c in range(cycles)]
    assert len(rounds) == cycles
    assert interleaved.all_digest == plain.all_digest
    assert interleaved.failed_ops == []
    # the pauses are left out of the loop's times
    assert interleaved.wall_s <= elapsed - sum(rounds)

    # a replay sets up before the ops it is given, not by the clock
    replay = run.run_loop(None, 0, count=count, set_up_again=set_up_again, setups={workload.cycle})
    assert replay.setups == [0, workload.cycle]
    assert replay.all_digest == plain.all_digest


def test_passes_replay_the_first_pass_and_time_ops_at_the_reference_speed(tmp_path):
    def set_up_again():
        return run.set_up(WORKLOADS["fuzz-equiv"], 3, tmp_path / "work")[1]

    passes = run.run_passes(set_up_again, 0.3, passes=3)
    assert len(passes) == 3
    assert len({res.ops for res in passes}) == 1
    assert len({res.all_digest for res in passes}) == 1
    assert all(res.setups == passes[0].setups for res in passes)
    assert all(len(res.ref_wall) == len(res.ref_cpu) == res.ops for res in passes)
    assert len(run.per_op(passes, "latencies", "ref_wall")) == passes[0].ops


def test_scaling_takes_out_the_machine_speed():
    # an op that takes 5 reference loops reads 5 * REFERENCE_S, however fast
    # the machine ran; one slow reference timing does not move it
    ref = run.REFERENCE_S
    refs = [ref, 2 * ref, 2 * ref, 2 * ref, 9 * ref, 2 * ref, 3 * ref, 3 * ref, 3 * ref]
    times = [5 * r for r in refs[:4]] + [10 * ref] + [5 * r for r in refs[5:]]
    assert run.scaled(times, refs, width=1)[1:4] == pytest.approx([5 * ref] * 3)
    assert run.scaled(times, refs, width=1)[7] == pytest.approx(5 * ref)
    assert run.scaled(times, refs, width=1)[4] == pytest.approx(5 * ref)


def test_every_binding_is_wrapped(tmp_path):
    workload = fresh("fuzz-equiv", tmp_path)
    mods = workload.mods
    original = mods.optable.is_uninorm
    tr = tracing.Tracer()
    tr.install([getattr(mods, m) for m in tracing.TRACED_MODULES])
    try:
        for module in (mods.optable, mods.construct, mods.gen, mods.verify, mods.corpus, mods.cli):
            assert module.is_uninorm is not original
            assert module.is_uninorm.__wrapped__ is original
        assert all(hasattr(check, "__wrapped__") for check in mods.gen._CLASS_CHECKS.values())
        run.run_loop(workload, 0, count=6, tracer=tr)
    finally:
        tr.uninstall()
    assert mods.construct.is_uninorm is original
    parents = {
        tr.names[tr.name_id[tr.parent[i]]]
        for i in range(len(tr.name_id))
        if tr.names[tr.name_id[i]] == "optable.is_uninorm"
    }
    # calls through the construct, gen and verify bindings are all seen
    assert {"construct.validate_spec", "gen.gen_uninorm", "verify.verify_equivalence"} <= parents
    # one span per next() of the candidate stream, nested under gen_spec
    assert tr.counters["gen.gen_spec_candidates.yielded"] == tr.count_descendants(
        "gen.gen_spec_candidates", "gen.gen_spec"
    )


def has_planted_witness(lat: inputs.Lattice, rows) -> bool:
    """A violation read straight off the table, without the axiom battery."""
    meet = inputs.table(lat, lat.meet)
    x, y = next((x, y) for x in range(lat.n) for y in range(lat.n) if rows[x][y] != meet[x][y])
    if rows[x][y] != rows[y][x]:
        return True  # commutativity fails at (x, y)
    # top is the neutral of the meet table: x <= top but U(x, y) !<= U(top, y)
    return not lat.leq(rows[x][y], rows[lat.top][y])


def closed_form_ok(lat: inputs.Lattice, case: inputs.Case) -> bool:
    """Check a table file against the closed form it claims, not the battery."""
    path = Path(case.argv[1])
    doc = json.loads(path.read_text())
    index = {name: i for i, name in enumerate(lat.names())}
    rows = [[index[v] for v in row] for row in doc["rows"]]
    kind = path.name.split(".")[1]
    if kind in ("meet", "join"):
        op = lat.meet if kind == "meet" else lat.join
        # a lattice meet is a t-norm with neutral top, a join a t-conorm with neutral bottom
        return rows == inputs.table(lat, op) and case.exit_code == 0
    return has_planted_witness(lat, rows) and case.exit_code == 1


def prediction_ok(mods, case: inputs.Case) -> bool:
    """The paper's prediction for a construct spec, from the hypothesis checker."""
    lattice_path, ustar_path = case.argv[1], case.argv[2]
    opts = dict(zip(case.argv[3::2], case.argv[4::2]))
    _, lat = mods.fileio.parse_lattice(Path(lattice_path).read_text())
    _, inner = mods.fileio.parse_table(Path(ustar_path).read_text(), lat)
    spec = mods.construct.ConstructionSpec(
        lattice=lat,
        threshold=lat.index(opts["--rho"]),
        neutral=lat.index(opts["--e"]),
        anchor=lat.index(opts["--anchor"]),
        inner=inner,
    )
    for theorem in ("th31", "th33"):
        report = mods.construct.check_for(spec, theorem)
        if report.standing_ok:
            return report.parallel_condition_ok.ok == (case.exit_code == 0)
    return False


def test_verify_large_inputs_have_the_expected_exit_codes(tmp_path):
    workload = fresh("verify-large", tmp_path, seed=5)
    by_name = {lat.name: lat for lat in inputs.LATTICES}
    kinds = set()
    for i, case in enumerate(workload.cases):
        verb = case.argv[0]
        if verb == "verify":
            lat = by_name[Path(case.argv[1]).name.split(".")[0]]
            assert closed_form_ok(lat, case), case.label
        elif verb == "construct":
            assert prediction_ok(workload.mods, case), case.label
        kinds.add((verb, case.exit_code))
        code, out, _ = workload.op(i)()
        assert code == case.exit_code, case.label
        assert case.stdout_has in out
    assert kinds == {("verify", 0), ("verify", 1), ("construct", 0), ("construct", 1), ("corpus", 0)}
    assert {case.size for case in workload.cases} == {0, 16, 32, 64}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", ".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz-equiv", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
