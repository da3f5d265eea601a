import json

import pytest

from latnorm import corpus
from latnorm.cli import main
from latnorm.fileio import (
    parse_lattice,
    parse_table,
    render_lattice,
    render_table,
    table_cells_from_csv,
    table_cells_from_text,
)


@pytest.fixture()
def golden(tmp_path):
    out = tmp_path / "golden"
    assert main(["corpus", "--export", str(out)]) == 0
    return out


def test_corpus_replay_exit_zero(capsys):
    assert main(["corpus", "--replay"]) == 0
    out = capsys.readouterr().out
    assert "5/5 entries reproduce" in out


def test_check_lattice_ok(golden, capsys):
    assert main(["check-lattice", str(golden / "L11.lattice.json")]) == 0
    assert "11 elements" in capsys.readouterr().out


def test_check_lattice_regions(golden, capsys):
    code = main(["check-lattice", str(golden / "L11.lattice.json"), "--e", "e", "--rho", "rho"])
    assert code == 0
    out = capsys.readouterr().out
    assert "{m, t}" in out and "{k}" in out and "{s}" in out


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


def test_construct_verify_fails_with_unbounded_inner(tmp_path, capsys):
    # an inner operator outside the bounded-below class plus a nonempty
    # guard breaks associativity of the construction
    from latnorm.gen import GenConfig, gen_lattice, gen_uninorm

    lat = gen_lattice(GenConfig(seed=0, size_range=(6, 8)))
    interior = [x for x in range(lat.n) if x not in (lat.bottom, lat.top)]
    threshold = next(
        t for t in interior
        if len(lat.interval(lat.bottom, t)) >= 3
        and any(lat.parallel(x, t) for x in range(lat.n))
    )
    below = lat.interval(lat.bottom, threshold)
    e = below[1]
    inner = gen_uninorm(lat, below, e, GenConfig(seed=2, class_filter="ut"))
    lat_file = tmp_path / "L.lattice.json"
    lat_file.write_text(render_lattice(lat, "L"))
    inner_file = tmp_path / "L.inner.table.json"
    inner_file.write_text(render_table(inner, "json", lattice_name="L"))
    code = main([
        "construct", str(lat_file), str(inner_file),
        "--eq", "1", "--rho", lat.name(threshold), "--e", lat.name(e),
        "--anchor", lat.name(lat.bottom), "--verify", "--format", "json",
    ])
    assert code == 1
    assert "associativity violated" in capsys.readouterr().err


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
        (["--seeds", "3", "--size", "5", "9", "--drop-clause", "join-pairs"], None),
        (["--theorem", "th99", "--seeds", "3"], None),  # the last --theorem wins
    ],
)
def test_fuzz_bad_input_exits_two(monkeypatch, capsys, argv, env):
    if env is not None:
        monkeypatch.setenv("LATNORM_SEED", env)
    code = main(["fuzz", "--theorem", "th31", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == "" and _one_line(captured.err)


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


def test_construct_on_a_non_lattice_exits_one(golden, tmp_path, capsys):
    path = tmp_path / "vee.lattice.json"
    path.write_text(json.dumps({"name": "vee", "elements": ["0", "a", "b"],
                                "covers": [["0", "a"], ["0", "b"]]}))
    code = main([
        "construct", str(path), str(golden / "L11.Ustar.table.json"),
        "--eq", "1", "--rho", "a", "--e", "0", "--anchor", "b",
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("invalid lattice:")


def test_fuzz_drop_clause_with_zero_seeds(capsys):
    code = main(["fuzz", "--theorem", "th31", "--seeds", "0", "--drop-clause", "join-pairs"])
    assert code == 0
    assert capsys.readouterr().out == "no counterexample within 0 instances\n"


def test_verify_reports_a_cell_outside_the_carrier(tmp_path, capsys):
    doc = {"name": "c3", "elements": ["0", "a", "1"], "covers": [["0", "a"], ["a", "1"]]}
    (tmp_path / "c3.lattice.json").write_text(json.dumps(doc))
    table = {"lattice": "c3", "carrier": ["0", "a"], "rows": [["1", "0"], ["0", "a"]]}
    path = tmp_path / "c3.U.table.json"
    path.write_text(json.dumps(table))
    assert main(["verify", str(path), "--e", "a"]) == 1
    err = capsys.readouterr().err
    assert "closure violated: U(0,0) = 1 lies outside the carrier" in err
