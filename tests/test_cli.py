import json
import shutil

import pytest

from latnorm import cli, construct, corpus
from latnorm.cli import main
from latnorm.construct import check_for
from latnorm.fileio import (
    parse_lattice,
    parse_table,
    render_lattice,
    render_table,
)
from latnorm.lattice import build_lattice
from latnorm.optable import AxiomReport
from latnorm.verify import EquivalenceVerdict

from families import gen_uninorm_ut, rows_table, table_cells_from_csv, table_cells_from_text


@pytest.fixture()
def golden(tmp_path):
    out = tmp_path / "golden"
    assert main(["corpus", "--export", str(out)]) == 0
    return out


def test_corpus_replay_exit_zero(capsys):
    assert main(["corpus", "--replay"]) == 0
    out = capsys.readouterr().out
    assert "5/5 entries reproduce" in out


def test_corpus_replay_exits_one_when_an_entry_fails(monkeypatch, capsys):
    replay_all = corpus.replay_all

    def one_failing():
        first, *rest = replay_all().entries
        return corpus.ReplayReport((first._replace(verdict_ok=False), *rest))

    monkeypatch.setattr(corpus, "replay_all", one_failing)
    assert main(["corpus", "--replay"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("L11: FAIL (") and "verdict-ok=False" in out[0]
    assert out[-1] == "4/5 entries reproduce"


def test_check_lattice_ok(golden, capsys):
    assert main(["check-lattice", str(golden / "L11.lattice.json")]) == 0
    assert "11 elements" in capsys.readouterr().out


def test_check_lattice_one_element(tmp_path, capsys):
    path = tmp_path / "one.lattice.json"
    path.write_text(json.dumps({"name": "one", "elements": ["x"], "covers": []}))
    assert main(["check-lattice", str(path)]) == 0
    assert capsys.readouterr().out == "one: bounded lattice with 1 element, bottom 'x', top 'x'\n"


def test_check_lattice_regions(golden, capsys):
    code = main(["check-lattice", str(golden / "L11.lattice.json"), "--e", "e", "--rho", "rho"])
    assert code == 0
    out = capsys.readouterr().out
    assert "{m, t}" in out and "{k}" in out and "{s}" in out


@pytest.mark.parametrize("flag, value", [("--e", "e"), ("--rho", "rho")])
def test_check_lattice_region_flag_alone_exits_two(golden, capsys, flag, value):
    # the region breakdown needs both; one alone is refused, not ignored
    assert main(["check-lattice", str(golden / "L11.lattice.json"), flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "--e and --rho go together: give both for the region breakdown, or neither\n"
    )


def test_check_lattice_cycle_exits_one(tmp_path, capsys):
    doc = {"name": "bad", "elements": ["0", "a", "b", "1"],
           "covers": [["0", "a"], ["a", "b"], ["b", "a"], ["b", "1"]]}
    path = tmp_path / "bad.lattice.json"
    path.write_text(json.dumps(doc))
    assert main(["check-lattice", str(path)]) == 1
    assert "antisymmetry" in capsys.readouterr().err


def test_check_lattice_missing_file_exits_two():
    assert main(["check-lattice", "/nonexistent/x.json"]) == 2


def test_check_lattice_malformed_exits_two(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert main(["check-lattice", str(path)]) == 2


def test_verify_table2_exit_zero(golden, capsys):
    assert main(["verify", str(golden / "L11.U1.table.json"), "--e", "e"]) == 0
    assert "all axioms pass" in capsys.readouterr().out


def test_verify_table7_cited_witness(golden, capsys):
    assert main(["verify", str(golden / "L13.U1.table.json"), "--e", "e"]) == 1
    err = capsys.readouterr().err
    assert "U(s,m) = 1" in err and "U(t,m) = d" in err


def test_verify_table8_cited_witness(golden, capsys):
    assert main(["verify", str(golden / "L22.U2.table.json"), "--e", "e"]) == 1
    err = capsys.readouterr().err
    assert "U(s,t) = 1" in err and "U(m,t) = d" in err


def test_verify_missing_lattice_reference(tmp_path, golden):
    table = (golden / "L11.U1.table.json").read_text()
    orphan = tmp_path / "orphan.table.json"
    orphan.write_text(table)
    assert main(["verify", str(orphan), "--e", "e"]) == 2
    # explicit lattice path resolves it
    code = main([
        "verify", str(orphan), "--e", "e",
        "--lattice", str(golden / "L11.lattice.json"),
    ])
    assert code == 0


def test_construct_reproduces_table2_byte_for_byte(golden, tmp_path, capsys):
    out = tmp_path / "constructed.txt"
    code = main([
        "construct", str(golden / "L11.lattice.json"), str(golden / "L11.Ustar.table.json"),
        "--eq", "1", "--rho", "rho", "--e", "e", "--anchor", "q",
        "--format", "table", "--out", str(out),
    ])
    assert code == 0
    expected = render_table(corpus.load("L11").stored, "table")
    assert out.read_text() == expected


def test_construct_verify_passes_on_l13_formula_output(golden, capsys):
    # the formula output on the counterexample lattice is itself a valid
    # uninorm; only the printed table breaks (documented in the errata)
    code = main([
        "construct", str(golden / "L13.lattice.json"), str(golden / "L13.Ustar.table.json"),
        "--eq", "1", "--rho", "rho", "--e", "e", "--anchor", "q", "--verify",
        "--format", "json",
    ])
    assert code == 0
    assert "uninorm axioms all pass" in capsys.readouterr().err


def _unbounded_inner_argv(tmp_path, anchor):
    """Files and spec flags for a generated lattice whose inner operator
    lies outside the bounded-below class; ``anchor`` is an element id."""
    from latnorm.gen import GenConfig, gen_lattice

    lat = gen_lattice(GenConfig(seed=0, size_range=(6, 8)))
    interior = [x for x in range(lat.n) if x not in (lat.bottom, lat.top)]
    threshold = next(
        t for t in interior
        if len(lat.interval(lat.bottom, t)) >= 3
        and any(lat.parallel(x, t) for x in range(lat.n))
    )
    below = lat.interval(lat.bottom, threshold)
    e = below[1]
    inner = gen_uninorm_ut(lat, below, e, seed=2)
    lat_file = tmp_path / "L.lattice.json"
    lat_file.write_text(render_lattice(lat, "L"))
    inner_file = tmp_path / "L.inner.table.json"
    inner_file.write_text(render_table(inner, "json", lattice_name="L"))
    return [
        str(lat_file), str(inner_file),
        "--rho", lat.name(threshold), "--e", lat.name(e), "--anchor", lat.name(anchor),
    ]


def test_construct_verify_fails_with_unbounded_inner(tmp_path, capsys):
    # an inner operator outside the bounded-below class plus a nonempty
    # guard breaks associativity of the construction
    argv = _unbounded_inner_argv(tmp_path, anchor=0)  # the bottom
    code = main(["construct", *argv, "--eq", "1", "--verify", "--format", "json"])
    assert code == 1
    assert "associativity violated" in capsys.readouterr().err


def test_theorem_refuses_an_inner_outside_the_class(tmp_path, capsys):
    # element 4 is beside the threshold, so th33 applies; its only failing
    # standing hypothesis is the inner class
    code = main(["theorem", "--which", "th33", *_unbounded_inner_argv(tmp_path, anchor=4)])
    assert code == 0
    out = capsys.readouterr().out
    assert "  inner-class: FAIL\n" in out
    assert out.endswith("prediction refused: standing hypothesis failed (inner-class)\n")


def test_construct_threshold_top_equals_inner(golden, tmp_path, capsys):
    # build a full-carrier inner table, then construct with the threshold on
    # the top: the output must equal the inner operator
    from latnorm.gen import GenConfig, gen_uninorm

    entry = corpus.load("L11")
    lat = entry.lattice
    inner = gen_uninorm(lat, tuple(range(lat.n)), entry.spec.neutral, GenConfig(seed=4))
    path = tmp_path / "full.table.json"
    path.write_text(render_table(inner, "json", lattice_name="L11"))
    out = tmp_path / "out.json"
    code = main([
        "construct", str(golden / "L11.lattice.json"), str(path),
        "--eq", "1", "--rho", "1", "--e", "e", "--anchor", "q",
        "--format", "json", "--out", str(out),
    ])
    assert code == 0
    assert out.read_text() == render_table(inner, "json", lattice_name="L11")


def test_theorem_agreement_exit_zero(golden, capsys):
    code = main([
        "theorem", "--which", "th31",
        str(golden / "L11.lattice.json"), str(golden / "L11.Ustar.table.json"),
        "--rho", "rho", "--e", "e", "--anchor", "q",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "agree: True" in out


def test_theorem_refusal_on_counterexample(golden, capsys):
    code = main([
        "theorem", "--which", "th31",
        str(golden / "L13.lattice.json"), str(golden / "L13.Ustar.table.json"),
        "--rho", "rho", "--e", "e", "--anchor", "q",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "prediction refused" in out and "join-pairs" in out


def test_theorem_orientation_mismatch(golden):
    code = main([
        "theorem", "--which", "th34",
        str(golden / "L11.lattice.json"), str(golden / "L11.Ustar.table.json"),
        "--rho", "rho", "--e", "e", "--anchor", "q",
    ])
    assert code == 2


def test_fuzz_zero_seeds_vacuous_pass(capsys):
    assert main(["fuzz", "--theorem", "th31", "--seeds", "0"]) == 0
    assert "0/0 agree" in capsys.readouterr().out


def test_fuzz_small_run(capsys):
    assert main(["fuzz", "--theorem", "th33", "--seeds", "20"]) == 0
    assert "20/20 agree" in capsys.readouterr().out


def _planted_disagreement(spec, theorem):
    """A verdict that contradicts the prediction, with a commutativity witness
    and the spec's hypothesis report (no known spec disagrees)."""
    lat = spec.lattice
    report = AxiomReport(spec.neutral, (lat.bottom, lat.top, lat.top, lat.bottom),
                         None, None, None, None)
    return EquivalenceVerdict(True, False, ("commutative", report.commutative), report,
                              check_for(spec, theorem))


def test_theorem_disagreement_exits_one_with_its_witness(golden, monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_equivalence", _planted_disagreement)
    code = main(["theorem", "--which", "th31", str(golden / "L11.lattice.json"),
                 str(golden / "L11.Ustar.table.json"), "--rho", "rho", "--e", "e",
                 "--anchor", "q"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.endswith(
        "predicted uninorm: True\nbrute-force verdict: False\nagree: False\n"
    )
    assert captured.err == (
        "DISAGREEMENT: prediction contradicts exhaustive verification\n"
        "commutativity violated: U(0,1) = 1 but U(1,0) = 0\n"
    )


def test_theorem_builds_one_hypothesis_report(golden, count_calls, capsys):
    # the report printed is the one the verdict was checked against
    calls = count_calls(construct, "_join_frame", "validate_spec")
    code = main(["theorem", "--which", "th31", str(golden / "L11.lattice.json"),
                 str(golden / "L11.Ustar.table.json"), "--rho", "rho", "--e", "e",
                 "--anchor", "q"])
    assert code == 0
    assert capsys.readouterr().out.endswith("agree: True\n")
    assert calls.count("_join_frame") == 1
    assert calls.count("validate_spec") == 2  # the report's and the construction's


@pytest.mark.parametrize("anchor, theorem", [("q", "th31"), ("m", "th31"), ("s", "th33")])
def test_construct_builds_one_hypothesis_report(golden, count_calls, capsys, anchor, theorem):
    # the anchor class picks the theorem before any report is built
    calls = count_calls(construct, "_join_frame", "validate_spec")
    code = main(["construct", str(golden / "L11.lattice.json"),
                 str(golden / "L11.Ustar.table.json"), "--eq", "1", "--rho", "rho", "--e", "e",
                 "--anchor", anchor, "--verify"])
    assert code == 0
    assert f"theorem {theorem}: anchor class" in capsys.readouterr().err
    assert calls.count("_join_frame") == 1
    assert calls.count("validate_spec") == 2  # the construction's and the report's


def test_fuzz_disagreement_exits_one_and_dumps_the_instance(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_equivalence", _planted_disagreement)
    code = main(["fuzz", "--theorem", "th31", "--seeds", "3", "--dump", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "0/3 agree\n"
    [seed_line, witness] = captured.err.splitlines()
    assert seed_line == "seed 0: prediction True but verdict False"
    assert witness.startswith("commutativity violated: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "disagreement-th31-0.Ustar.table.json", "disagreement-th31-0.lattice.json",
    ]


def test_fuzz_drop_clause_dumps_artifacts(tmp_path, capsys):
    code = main([
        "fuzz", "--theorem", "th31", "--seeds", "500",
        "--drop-clause", "join-pairs", "--dump", str(tmp_path / "artifacts"),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "counterexample found" in out
    dumped = sorted(p.name for p in (tmp_path / "artifacts").iterdir())
    assert dumped == [
        "counterexample-th31.Ustar.table.json",
        "counterexample-th31.lattice.json",
    ]


def test_fuzz_drop_clause_honours_size(monkeypatch, tmp_path, capsys):
    # the default window of 5..9 finds this one at candidate 236; sizes up
    # to 12 are what it takes to show the anchor clause necessary at most seeds
    monkeypatch.setenv("LATNORM_SEED", "7")
    code = main([
        "fuzz", "--theorem", "th31", "--seeds", "500", "--drop-clause", "join-anchor",
        "--size", "4", "12", "--dump", str(tmp_path),
    ])
    assert code == 0
    assert capsys.readouterr().out == (
        "counterexample found (generated:7:377); dropped clause: join-anchor\n"
    )
    _, lat = parse_lattice((tmp_path / "counterexample-th31.lattice.json").read_text())
    assert lat.n == 11


def test_export_import_round_trip_byte_identical(golden):
    for path in sorted(golden.glob("*.lattice.json")):
        text = path.read_text()
        name, lat = parse_lattice(text)
        assert render_lattice(lat, name) == text
    for path in sorted(golden.glob("*.table.json")):
        text = path.read_text()
        lattice_file = golden / (path.name.split(".")[0] + ".lattice.json")
        _, lat = parse_lattice(lattice_file.read_text())
        name, table = parse_table(text, lat)
        assert render_table(table, "json", lattice_name=name) == text


def test_empty_lists_render_on_two_lines_and_parse_back():
    # a one-element lattice has no cover pair; a table on no carrier, no row
    lat = build_lattice(("x",), [])
    text = render_lattice(lat, "one")
    assert text == '{\n  "name": "one",\n  "elements": ["x"],\n  "covers": [\n  ]\n}\n'
    assert parse_lattice(text) == ("one", lat)
    table = rows_table(lat, (), ())
    text = render_table(table, "json", lattice_name="one")
    assert text == '{\n  "lattice": "one",\n  "carrier": [],\n  "rows": [\n  ]\n}\n'
    assert parse_table(text, lat) == ("one", table)


def test_empty_and_one_element_carriers_render_in_every_format():
    # the one element's cell holds an element outside its carrier
    lat = build_lattice(("x", "yy"), [("x", "yy")])
    empty, one = rows_table(lat, (), ()), rows_table(lat, (1,), [[0]])
    assert render_table(empty, "table") == "U | \n--+-\n"
    assert render_table(empty, "csv") == "U\n"
    assert render_table(empty, "json", lattice_name="two") == (
        '{\n  "lattice": "two",\n  "carrier": [],\n  "rows": [\n  ]\n}\n'
    )
    assert render_table(one, "table") == "U  | yy\n---+---\nyy | x \n"
    assert render_table(one, "csv") == "U,yy\nyy,x\n"
    assert render_table(one, "json", lattice_name="two") == (
        '{\n  "lattice": "two",\n  "carrier": ["yy"],\n  "rows": [\n    ["x"]\n  ]\n}\n'
    )


def test_export_twice_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["corpus", "--export", str(a)]) == 0
    assert main(["corpus", "--export", str(b)]) == 0
    for path in sorted(a.iterdir()):
        assert path.read_bytes() == (b / path.name).read_bytes()


def test_formats_render_same_content():
    entry = corpus.load("L11")
    lat = entry.lattice
    names = [[lat.names[v] for v in row] for row in entry.stored.values]
    text_cells = table_cells_from_text(render_table(entry.stored, "table"))
    csv_cells = table_cells_from_csv(render_table(entry.stored, "csv"))
    json_doc = json.loads(render_table(entry.stored, "json", lattice_name="L11"))
    assert text_cells == names
    assert csv_cells == names
    assert json_doc["rows"] == names


def test_unknown_table_format_is_refused():
    with pytest.raises(ValueError, match="^unknown table format 'xml'$"):
        render_table(corpus.load("L11").stored, "xml")


def test_csv_quotes_names_with_commas_and_quotes():
    odd = ("0", "a,b", 'say "hi"', "1")
    lat = build_lattice(odd, [("0", "a,b"), ("0", 'say "hi"'), ("a,b", "1"), ('say "hi"', "1")])
    table = rows_table(lat, range(4), [[lat.join(x, y) for y in range(4)] for x in range(4)])
    text = render_table(table, "csv")
    assert text.splitlines()[0] == 'U,0,"a,b","say ""hi""",1'
    json_doc = json.loads(render_table(table, "json", lattice_name="odd"))
    assert table_cells_from_csv(text) == json_doc["rows"]


def test_le_pairs_alternative_key(tmp_path):
    doc = {
        "name": "tiny",
        "elements": ["0", "1"],
        "le_pairs": [["0", "1"], ["0", "0"], ["1", "1"]],
    }
    path = tmp_path / "tiny.lattice.json"
    path.write_text(json.dumps(doc))
    assert main(["check-lattice", str(path)]) == 0


def _one_line(text: str) -> bool:
    return len(text.splitlines()) == 1 and "Traceback" not in text


_SPEC = ["{L11}", "{L11.Ustar}", "--e", "e", "--anchor", "q"]
_CYCLE = {"name": "bad", "elements": ["0", "a", "b", "1"],
          "covers": [["0", "a"], ["a", "b"], ["b", "a"], ["b", "1"]]}


@pytest.mark.parametrize(
    "argv, env, code, line",
    [
        (["check-lattice", "/nonexistent/x.json"], None, 2,
         "cannot read file: [Errno 2] No such file or directory: '/nonexistent/x.json'"),
        (["verify", "/nonexistent/x.json", "--e", "e"], None, 2,
         "cannot read file: [Errno 2] No such file or directory: '/nonexistent/x.json'"),
        (["construct", "/nonexistent/x.json", "{L11.Ustar}", "--e", "e", "--anchor", "q",
          "--eq", "1", "--rho", "rho"], None, 2,
         "cannot read file: [Errno 2] No such file or directory: '/nonexistent/x.json'"),
        (["check-lattice", "{junk}"], None, 2,
         "parse error: not valid JSON: Expecting property name enclosed in double quotes: "
         "line 1 column 2 (char 1)"),
        (["check-lattice", "{cycle}"], None, 1,
         "not a bounded lattice: antisymmetry violated: 'a' <= 'b' <= 'a'"),
        (["theorem", "--which", "th34", *_SPEC, "--rho", "rho"], None, 2, "th34 expects --sigma"),
        (["theorem", "--which", "th31", *_SPEC, "--rho", "1"], None, 2,
         "invalid spec: theorem checkers require an interior threshold"),
        (["verify", "{L11.Ustar}", "--e", "m"], None, 2,
         "invalid input: neutral 'm' is outside the table carrier"),
        (["fuzz", "--theorem", "th31", "--seeds", "-3"], None, 2,
         "--seeds must be a non-negative count, got -3"),
        (["fuzz", "--theorem", "th31", "--seeds", "3"], "abc", 2,
         "invalid fuzz input: LATNORM_SEED must be an integer, got 'abc'"),
        (["fuzz", "--theorem", "th31", "--seeds", "3", "--size", "1", "40"], None, 2,
         "invalid fuzz input: size_range must satisfy 2 <= min <= max <= 12"),
        (["construct", *_SPEC, "--eq", "1", "--sigma", "rho"], None, 2,
         "--eq 1 takes its threshold with --rho"),
        (["construct", *_SPEC, "--eq", "2", "--sigma", "rho"], None, 2,
         "invalid spec: neutral element must lie above the threshold"),
        (["theorem", "--which", "th34", *_SPEC, "--sigma", "rho"], None, 2,
         "invalid spec: neutral element must lie above the threshold"),
    ],
    ids=["missing-file", "verify-missing-file", "construct-missing-file", "bad-json", "cycle",
         "orientation", "bound-threshold", "neutral-outside", "negative-seeds", "seed-variable",
         "size-range", "eq-flag", "construct-invalid-spec", "theorem-invalid-spec"],
)
def test_every_failure_prints_its_one_line(golden, tmp_path, monkeypatch, capsys,
                                           argv, env, code, line):
    (tmp_path / "junk.json").write_text("{not json")
    (tmp_path / "cycle.lattice.json").write_text(json.dumps(_CYCLE))
    paths = {
        "{L11}": str(golden / "L11.lattice.json"),
        "{L11.Ustar}": str(golden / "L11.Ustar.table.json"),
        "{junk}": str(tmp_path / "junk.json"),
        "{cycle}": str(tmp_path / "cycle.lattice.json"),
    }
    if env is not None:
        monkeypatch.setenv("LATNORM_SEED", env)
    assert main([paths.get(arg, arg) for arg in argv]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == line + "\n"


@pytest.mark.parametrize("eq, flag", [("1", "--sigma"), ("2", "--rho")])
def test_construct_eq_must_match_threshold_flag(golden, capsys, eq, flag):
    code = main([
        "construct", str(golden / "L11.lattice.json"), str(golden / "L11.Ustar.table.json"),
        "--eq", eq, flag, "rho", "--e", "e", "--anchor", "q",
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and _one_line(captured.err)


@pytest.mark.parametrize(
    "argv, env",
    [
        (["--seeds", "3", "--size", "1", "40"], None),
        (["--seeds", "-3"], None),
        (["--seeds", "3"], "abc"),
        (["--seeds", "3", "--drop-clause", "join-pairs"], "1.5"),
        (["--seeds", "3", "--size", "4", "13", "--drop-clause", "join-pairs"], None),
        (["--theorem", "th99", "--seeds", "3"], None),  # the last --theorem wins
        # only chains have 2 or 3 elements, and chains host no anchor class
        (["--seeds", "3", "--size", "2", "3", "--drop-clause", "join-pairs"], None),
        # a negative seed would alias the positive one of the same magnitude
        (["--seeds", "3", "--seed", "-1"], None),
        (["--seeds", "3", "--seed", "-1", "--drop-clause", "join-pairs"], None),
        (["--seeds", "3"], "-1"),
        (["--seeds", "3", "--drop-clause", "join-pairs"], "-1"),
    ],
)
def test_fuzz_bad_input_exits_two(monkeypatch, capsys, argv, env):
    if env is not None:
        monkeypatch.setenv("LATNORM_SEED", env)
    code = main(["fuzz", "--theorem", "th31", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and _one_line(captured.err)


def test_fuzz_drop_clause_names_the_droppable_clauses(capsys):
    code = main(["fuzz", "--theorem", "th33", "--seeds", "5", "--drop-clause", "join-pairs"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "th33 has no droppable clause 'join-pairs'; choose from ('join-anchor',)\n"
    )


def test_fuzz_without_a_candidate_spec_exits_two(capsys):
    # a two-element lattice has no interior element to serve as threshold
    code = main(["fuzz", "--theorem", "th31", "--seeds", "1", "--size", "2", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("seed 0: rejection sampling exhausted: ")
    assert _one_line(captured.err)


def test_bad_seed_variable_only_matters_to_fuzz(monkeypatch, capsys):
    monkeypatch.setenv("LATNORM_SEED", "abc")
    assert main(["corpus", "--replay"]) == 0
    assert main(["fuzz", "--theorem", "th33", "--seeds", "2", "--seed", "4"]) == 0
    assert "2/2 agree" in capsys.readouterr().out


@pytest.mark.parametrize(
    "doc",
    [
        {"name": "s", "elements": "abc", "covers": []},
        {"name": "n", "elements": [0, 1], "covers": [[0, 1]]},
        {"name": "u", "elements": ["0", "1"], "covers": [["0", "x"]]},
        {"name": "c", "elements": ["0", "1"], "covers": [[["0"], "1"]]},
        {
            "name": "chain70",
            "elements": [f"x{i}" for i in range(70)],
            "covers": [[f"x{i}", f"x{i + 1}"] for i in range(69)],
        },
        {"name": "d", "elements": ["0", "a", "a", "1"], "covers": [["0", "a"], ["a", "1"]]},
        {"name": "e", "elements": ["0", "", "1"], "covers": [["0", ""], ["", "1"]]},
    ],
)
def test_malformed_lattice_file_exits_two(tmp_path, capsys, doc):
    path = tmp_path / "bad.lattice.json"
    path.write_text(json.dumps(doc))
    code = main(["check-lattice", str(path)])
    assert code == 2
    assert _one_line(capsys.readouterr().err)


@pytest.mark.parametrize(
    "patch, message",
    [
        ({"name": ["L11"]}, "'name' must be a string"),
        ({"le_pairs": [["0", "1"]]}, "lattice file has both 'covers' and 'le_pairs': give one"),
    ],
)
@pytest.mark.parametrize("command", ["check-lattice", "verify", "verify-sibling", "construct",
                                     "theorem"])
def test_malformed_lattice_file_has_one_message_on_every_path(
    golden, capsys, patch, message, command
):
    # a non-string name, or two order keys of which one would be ignored,
    # is malformed input to every subcommand that reads a lattice file
    doc = json.loads((golden / "L11.lattice.json").read_text())
    doc.update(patch)
    lattice = golden / "L11.lattice.json"
    lattice.write_text(json.dumps(doc))
    table = str(golden / "L11.U1.table.json")
    ustar = str(golden / "L11.Ustar.table.json")
    spec = ["--rho", "rho", "--e", "e", "--anchor", "q"]
    argv = {
        "check-lattice": ["check-lattice", str(lattice)],
        "verify": ["verify", table, "--e", "e", "--lattice", str(lattice)],
        "verify-sibling": ["verify", table, "--e", "e"],
        "construct": ["construct", str(lattice), ustar, "--eq", "1", *spec, "--format", "json"],
        "theorem": ["theorem", "--which", "th31", str(lattice), ustar, *spec],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: {message}\n"


@pytest.mark.parametrize(
    "patch",
    [{"rows": 5}, {"rows": [5]}, {"carrier": "e"}, {"carrier": ["e", "e"]}, {"lattice": 3}],
)
def test_malformed_table_file_exits_two(golden, capsys, patch):
    doc = json.loads((golden / "L11.U1.table.json").read_text())
    doc.update(patch)
    path = golden / "bad.table.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", str(path), "--e", "e"])
    assert code == 2
    assert _one_line(capsys.readouterr().err)


@pytest.mark.parametrize(
    "text, message",
    [
        ("not json", "not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("[]", "table file must be a JSON object"),
        ('{"carrier": [], "rows": []}', "table file missing key 'lattice'"),
        ('{"lattice": 3, "carrier": [], "rows": []}',
         "the table's 'lattice' reference must be a string"),
    ],
)
@pytest.mark.parametrize("command", ["verify", "verify-sibling", "construct"])
def test_broken_table_file_has_one_message_on_every_path(golden, capsys, text, message, command):
    # the table file is decoded once, by one reader, whether its lattice
    # comes from --lattice, the sibling file or the lattice argument
    path = golden / "broken.table.json"
    path.write_text(text)
    lattice = str(golden / "L11.lattice.json")
    argv = {
        "verify": ["verify", str(path), "--e", "e", "--lattice", lattice],
        "verify-sibling": ["verify", str(path), "--e", "e"],
        "construct": ["construct", lattice, str(path), "--eq", "1",
                      "--rho", "rho", "--e", "e", "--anchor", "q"],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"parse error: {message}\n"


def test_table_carrier_with_a_repeated_name_exits_two(golden, capsys):
    doc = json.loads((golden / "L11.Ustar.table.json").read_text())
    doc["carrier"][1] = doc["carrier"][0]  # still square over its carrier
    path = golden / "dup.table.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--e", "e"]) == 2
    assert capsys.readouterr().err == "parse error: carrier has repeated elements\n"


def test_verify_reports_a_one_sided_cell_as_a_commutativity_failure(golden, capsys):
    doc = json.loads((golden / "L11.U1.table.json").read_text())
    carrier = doc["carrier"]
    doc["rows"][carrier.index("q")][carrier.index("k")] = "1"  # U(k,q) stays k
    path = golden / "L11.onesided.table.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path), "--e", "e"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == "commutativity violated: U(q,k) = 1 but U(k,q) = k"


def test_verify_neutral_outside_carrier_exits_two(golden, capsys):
    code = main(["verify", str(golden / "L11.Ustar.table.json"), "--e", "m"])
    assert code == 2
    assert _one_line(capsys.readouterr().err)


def test_bad_element_names_exit_two_from_construct(golden, tmp_path, capsys):
    path = tmp_path / "dup.lattice.json"
    path.write_text(json.dumps({"name": "dup", "elements": ["0", "a", "a", "1"], "covers": []}))
    code = main([
        "construct", str(path), str(golden / "L11.Ustar.table.json"),
        "--eq", "1", "--rho", "a", "--e", "a", "--anchor", "a",
    ])
    assert code == 2
    assert _one_line(capsys.readouterr().err)


def test_construct_out_into_missing_directory_exits_two(golden, tmp_path, capsys):
    code = main([
        "construct", str(golden / "L11.lattice.json"), str(golden / "L11.Ustar.table.json"),
        "--eq", "1", "--rho", "rho", "--e", "e", "--anchor", "q",
        "--out", str(tmp_path / "missing" / "out.txt"),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and _one_line(captured.err)


def test_construct_on_a_non_lattice_exits_two(golden, tmp_path, capsys):
    path = tmp_path / "vee.lattice.json"
    path.write_text(json.dumps({"name": "vee", "elements": ["0", "a", "b"],
                                "covers": [["0", "a"], ["0", "b"]]}))
    code = main([
        "construct", str(path), str(golden / "L11.Ustar.table.json"),
        "--eq", "1", "--rho", "a", "--e", "0", "--anchor", "b",
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("invalid lattice:")


def test_fuzz_drop_clause_with_zero_seeds(capsys):
    code = main(["fuzz", "--theorem", "th31", "--seeds", "0", "--drop-clause", "join-pairs"])
    assert code == 0
    assert capsys.readouterr().out == "no counterexample within 0 instances\n"


@pytest.mark.parametrize(
    "mode, out",
    [
        ([], "0/0 agree\n"),
        (["--drop-clause", "join-pairs"], "no counterexample within 0 instances\n"),
    ],
    ids=["equivalence", "drop-clause"],
)
def test_fuzz_zero_seeds_draw_nothing_in_both_modes(capsys, mode, out):
    # no spec can be drawn from a window of chains, but zero seeds draw none
    code = main(["fuzz", "--theorem", "th31", "--seeds", "0", "--size", "2", "3", *mode])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == out and captured.err == ""


def test_verify_reports_a_cell_outside_the_carrier(tmp_path, capsys):
    doc = {"name": "c3", "elements": ["0", "a", "1"], "covers": [["0", "a"], ["a", "1"]]}
    (tmp_path / "c3.lattice.json").write_text(json.dumps(doc))
    table = {"lattice": "c3", "carrier": ["0", "a"], "rows": [["1", "0"], ["0", "a"]]}
    path = tmp_path / "c3.U.table.json"
    path.write_text(json.dumps(table))
    assert main(["verify", str(path), "--e", "a"]) == 1
    err = capsys.readouterr().err
    assert "closure violated: U(0,0) = 1 lies outside the carrier" in err


@pytest.mark.parametrize("under_file", [False, True])
def test_corpus_export_onto_a_file_exits_two(tmp_path, capsys, under_file):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    target = blocker / "out" if under_file else blocker
    assert main(["corpus", "--export", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and _one_line(captured.err)
    assert captured.err.startswith("cannot write file: ")


def test_fuzz_dump_under_a_file_exits_two(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    code = main([
        "fuzz", "--theorem", "th31", "--seeds", "500",
        "--drop-clause", "join-pairs", "--dump", str(blocker / "artifacts"),
    ])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and _one_line(captured.err)
    assert captured.err.startswith("cannot write file: ")


@pytest.mark.parametrize("command", ["verify", "verify-sibling", "construct", "theorem"])
def test_table_written_for_another_lattice_exits_two(golden, tmp_path, capsys, command):
    # a table names its lattice; read with a lattice of another name it is
    # rejected even though every element name resolves
    doc = json.loads((golden / "L11.lattice.json").read_text())
    doc["name"] = "other"
    other = tmp_path / "other.lattice.json"
    other.write_text(json.dumps(doc))
    (tmp_path / "L11.lattice.json").write_text(json.dumps(doc))
    sibling = tmp_path / "L11.U1.table.json"
    shutil.copy(golden / "L11.U1.table.json", sibling)
    ustar = str(golden / "L11.Ustar.table.json")
    spec = ["--rho", "rho", "--e", "e", "--anchor", "q"]
    argv = {
        "verify": ["verify", str(golden / "L11.U1.table.json"), "--e", "e",
                   "--lattice", str(other)],
        "verify-sibling": ["verify", str(sibling), "--e", "e"],
        "construct": ["construct", str(other), ustar, "--eq", "1", *spec],
        "theorem": ["theorem", "--which", "th31", str(other), ustar, *spec],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: table is written for lattice 'L11', not 'other'\n"


@pytest.mark.parametrize("command", ["verify", "verify-sibling", "construct", "theorem"])
def test_lattice_name_is_checked_before_the_cells(golden, tmp_path, capsys, command):
    # the L11 tables name elements that L12 lacks; read with L12 they are
    # reported as written for another lattice, not for their first unknown name
    l12 = str(golden / "L12.lattice.json")
    (tmp_path / "L11.lattice.json").write_text((golden / "L12.lattice.json").read_text())
    sibling = tmp_path / "L11.U1.table.json"
    shutil.copy(golden / "L11.U1.table.json", sibling)
    ustar = str(golden / "L11.Ustar.table.json")
    spec = ["--rho", "rho", "--e", "e", "--anchor", "q"]
    argv = {
        "verify": ["verify", str(golden / "L11.U1.table.json"), "--e", "e", "--lattice", l12],
        "verify-sibling": ["verify", str(sibling), "--e", "e"],
        "construct": ["construct", l12, ustar, "--eq", "1", *spec],
        "theorem": ["theorem", "--which", "th31", l12, ustar, *spec],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: table is written for lattice 'L11', not 'L12'\n"


def _covers_reversed(golden, tmp_path, entry_id):
    """Directory holding the entry's lattice with every cover pair flipped
    (its order dual, under the same name) and a copy of its inner table."""
    doc = json.loads((golden / f"{entry_id}.lattice.json").read_text())
    doc["covers"] = [[b, a] for a, b in doc["covers"]]
    out = tmp_path / "reversed"
    out.mkdir(exist_ok=True)
    (out / f"{entry_id}.lattice.json").write_text(json.dumps(doc))
    shutil.copy(golden / f"{entry_id}.Ustar.table.json", out)
    return out


def _construct_argv(directory, entry_id, eq, ustar=None):
    flag = "--rho" if eq == "1" else "--sigma"
    return [
        "construct", str(directory / f"{entry_id}.lattice.json"),
        str(ustar or directory / f"{entry_id}.Ustar.table.json"),
        "--eq", eq, flag, "rho", "--e", "e", "--anchor", "q",
    ]


@pytest.mark.parametrize(
    "entry_id, eq, report",
    [
        ("L11", "1", ("theorem th31: anchor class = under_neutral", "  join-pairs: pass",
                      "  join-anchor: pass")),
        ("L21", "1", ("theorem th33: anchor class = beside_threshold", "  join-anchor: pass")),
        ("L11", "2", ("theorem th34: anchor class = over_neutral", "  meet-pairs: pass",
                      "  meet-anchor: pass")),
        ("L21", "2", ("theorem th36: anchor class = beside_threshold", "  meet-anchor: pass")),
    ],
)
def test_construct_reports_the_hypotheses_of_the_matching_theorem(
    golden, tmp_path, capsys, entry_id, eq, report
):
    # --eq 2 runs on the covers-reversed lattice, where the corpus spec is a
    # meet-form spec
    directory = golden if eq == "1" else _covers_reversed(golden, tmp_path, entry_id)
    assert main(_construct_argv(directory, entry_id, eq)) == 0
    tail = ("  parallel-condition: pass", "  inner-class: pass", "  nonempty-guard: True")
    assert capsys.readouterr().err == "".join(line + "\n" for line in report + tail)


# construct output for the broken L11 inner below, the same in both forms
# (the covers-reversed lattice is the order dual)
BROKEN_L11_CONSTRUCTED = "".join(line + "\n" for line in (
    "U   | 0   q   e   k   c   rho m   t   s   d   1  ",
    "----+--------------------------------------------",
    "0   | 0   0   0   k   c   rho m   t   s   d   1  ",
    "q   | 0   q   q   c   c   rho m   t   s   d   1  ",
    "e   | 0   q   e   k   c   rho m   t   s   d   1  ",
    "k   | k   c   k   k   c   rho 1   1   1   1   1  ",
    "c   | c   c   c   c   c   rho 1   1   1   1   1  ",
    "rho | rho rho rho rho rho rho 1   1   1   1   1  ",
    "m   | m   m   m   1   1   1   m   1   1   1   1  ",
    "t   | t   t   t   1   1   1   1   t   1   1   1  ",
    "s   | s   s   s   1   1   1   1   1   1   1   1  ",
    "d   | d   d   d   1   1   1   1   1   1   1   1  ",
    "1   | 1   1   1   1   1   1   1   1   1   1   1  ",
))


@pytest.mark.parametrize("eq", ["1", "2"])
@pytest.mark.parametrize("skip", [False, True])
def test_construct_no_verify_inner_admits_a_broken_inner(golden, tmp_path, capsys, eq, skip):
    # the inner of test_inner_verification_can_be_skipped: (q,k) and (k,q)
    # set to c, which breaks associativity and monotonicity
    directory = golden if eq == "1" else _covers_reversed(golden, tmp_path, "L11")
    doc = json.loads((golden / "L11.Ustar.table.json").read_text())
    q, k = doc["carrier"].index("q"), doc["carrier"].index("k")
    doc["rows"][q][k] = doc["rows"][k][q] = "c"
    broken = tmp_path / "broken.table.json"
    broken.write_text(json.dumps(doc))
    argv = _construct_argv(directory, "L11", eq, ustar=broken)
    code = main(argv + ["--no-verify-inner"] if skip else argv)
    captured = capsys.readouterr()
    failure = "inner table fails uninorm axioms: associative, monotone\n"
    if skip:
        assert code == 0
        assert captured.out == BROKEN_L11_CONSTRUCTED
        assert captured.err == "no hypothesis report: " + failure
    else:
        assert code == 2
        assert captured.out == ""
        assert captured.err == "invalid spec: " + failure


def test_construct_meet_form_names_a_non_monotone_inner(golden, tmp_path, capsys):
    # U(q, q) = e breaks monotonicity alone; the meet-form spec is checked
    # in join form on the dual lattice, where the failure has the same name
    directory = _covers_reversed(golden, tmp_path, "L11")
    doc = json.loads((golden / "L11.Ustar.table.json").read_text())
    q = doc["carrier"].index("q")
    doc["rows"][q][q] = "e"
    broken = tmp_path / "nonmonotone.table.json"
    broken.write_text(json.dumps(doc))
    elements = json.loads((golden / "L11.lattice.json").read_text())["elements"]
    for anchor in elements:
        argv = _construct_argv(directory, "L11", "2", ustar=broken)
        argv[argv.index("--anchor") + 1] = anchor
        assert main(argv + ["--verify"]) == 2, anchor
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid spec: inner table fails uninorm axioms: monotone\n"


@pytest.mark.parametrize("command", ["verify", "verify-cell", "construct", "theorem"])
def test_an_unknown_element_name_is_quoted_once(golden, tmp_path, capsys, command):
    doc = json.loads((golden / "L11.U1.table.json").read_text())
    doc["rows"][0][0] = "zz"
    (tmp_path / "L11.U1.table.json").write_text(json.dumps(doc))
    shutil.copy(golden / "L11.lattice.json", tmp_path)
    lattice, ustar = str(golden / "L11.lattice.json"), str(golden / "L11.Ustar.table.json")
    argv = {
        "verify": ["verify", str(golden / "L11.U1.table.json"), "--e", "zz"],
        "verify-cell": ["verify", str(tmp_path / "L11.U1.table.json"), "--e", "e"],
        "construct": ["construct", lattice, ustar, "--eq", "1", "--rho", "rho", "--e", "e",
                      "--anchor", "zz"],
        "theorem": ["theorem", "--which", "th31", lattice, ustar, "--rho", "rho",
                    "--e", "zz", "--anchor", "q"],
    }[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "parse error: unknown element name 'zz'\n"


@pytest.mark.parametrize(
    "e, rho, message",
    [
        ("zz", "rho", "unknown element name 'zz'"),
        ("e", "zz", "unknown element name 'zz'"),
        ("rho", "e", "neutral 'rho' is not below threshold 'e'"),
    ],
)
def test_check_lattice_prints_nothing_when_the_regions_fail(golden, capsys, e, rho, message):
    code = main(["check-lattice", str(golden / "L11.lattice.json"), "--e", e, "--rho", rho])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"
