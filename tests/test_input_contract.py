"""Malformed-input contract: every CLI run exits 0, 1 or 2, never a traceback.

Corpus entries are exported as the CLI would write them, one file is
mutated at the JSON level (values replaced, keys or items deleted, names
swapped), and the subcommands that read it run on the result with flag
values that may name unknown elements.  JSON nested too deep to decode, or
holding an integer too long to convert, is one parse error, and a malformed
table or lattice file is rejected with the message of its first failing
check.  The ordered checks, run one at a time, are kept here as the
reference the one-pass readers must match on mutated corpus files.  A
malformed command line (a value that is not an integer or not one of the
choices, a required flag left out, an unknown flag, no subcommand) is one
``latnorm <command>: error: ...`` line, and ``main`` returns 2.
"""

import contextlib
import io
import json
import re
import tempfile
from itertools import chain
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latnorm import THEOREMS, corpus
from latnorm.cli import main
from latnorm.fileio import (
    FileFormatError,
    parse_lattice,
    parse_table,
    render_lattice,
    render_table,
)
from latnorm.lattice import NotALattice, NotAPoset, NotBounded, build_lattice
from latnorm.optable import OpTable, OpTableError

NAMES = ["0", "1", "e", "q", "rho", "m", "s", "", "nope"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 70) | st.sampled_from(NAMES) | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.sampled_from(NAMES), kids, max_size=3),
    max_leaves=6,
)


def _slots(node):
    """Every (container, key) position inside a JSON document."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        items = []
    for key, child in items:
        yield node, key
        yield from _slots(child)


def _mutate(data, doc):
    for _ in range(data.draw(st.integers(1, 3))):
        slots = list(_slots(doc))
        if not slots:
            break
        container, key = data.draw(st.sampled_from(slots))
        action = data.draw(st.sampled_from(("replace", "delete", "name", "append")))
        if action == "delete":
            del container[key]
        elif action == "name":
            container[key] = data.draw(st.sampled_from(NAMES))
        elif action == "append" and isinstance(container[key], list):
            container[key].append(data.draw(json_values))
        else:
            container[key] = data.draw(json_values)
    return doc


@settings(max_examples=60, deadline=None)
@given(
    entry_id=st.sampled_from(corpus.ENTRY_IDS),
    target=st.sampled_from(("lattice", "Ustar", "constructed")),
    flags=st.lists(st.sampled_from(NAMES[:-2] + ["nope"]), min_size=3, max_size=3),
    data=st.data(),
)
def test_mutated_corpus_files_never_crash(entry_id, target, flags, data):
    entry = corpus.load(entry_id)
    texts = {
        "lattice": render_lattice(entry.lattice, entry_id),
        "Ustar": render_table(entry.spec.inner, "json", lattice_name=entry_id),
        "constructed": render_table(entry.stored, "json", lattice_name=entry_id),
    }
    texts[target] = json.dumps(_mutate(data, json.loads(texts[target])))
    e, rho, anchor = flags
    with tempfile.TemporaryDirectory() as tmp:
        paths = {kind: Path(tmp) / f"{entry_id}.{kind}.json" for kind in texts}
        paths["constructed"] = Path(tmp) / f"{entry_id}.U.table.json"
        for kind, text in texts.items():
            paths[kind].write_text(text)
        lat, ustar, table = (str(paths[k]) for k in ("lattice", "Ustar", "constructed"))
        spec_flags = ["--e", e, "--anchor", anchor]
        runs = [
            ["check-lattice", lat, "--e", e, "--rho", rho],
            ["verify", table, "--e", e],
            ["verify", table, "--e", e, "--lattice", lat],
            ["construct", lat, ustar, "--eq", "1", "--rho", rho, *spec_flags, "--verify"],
            ["construct", lat, ustar, "--eq", "2", "--sigma", rho, *spec_flags],
            ["theorem", "--which", entry.theorem, lat, ustar, "--rho", rho, *spec_flags],
        ]
        for argv in runs:
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2), argv
            assert "Traceback" not in err.getvalue(), argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


DEEP = 100_000


@pytest.mark.parametrize(
    "deep_text, kind",
    [("[" * DEEP + "]" * DEEP, "array"), ('{"a":' * DEEP + "0" + "}" * DEEP, "object")],
    ids=["array", "object"],
)
def test_deeply_nested_json_is_one_parse_error(l11, deep_text, kind):
    with tempfile.TemporaryDirectory() as tmp:
        deep = Path(tmp) / "deep.json"
        deep.write_text(deep_text)
        lat = Path(tmp) / "L11.lattice.json"
        lat.write_text(render_lattice(l11.lattice, "L11"))
        ustar = Path(tmp) / "L11.Ustar.table.json"
        ustar.write_text(render_table(l11.spec.inner, "json", lattice_name="L11"))
        spec_flags = ["--rho", "rho", "--e", "e", "--anchor", "q"]
        runs = [
            ["check-lattice", str(deep)],
            ["verify", str(deep), "--e", "e"],
            ["verify", str(ustar), "--e", "e", "--lattice", str(deep)],
            ["construct", str(deep), str(ustar), "--eq", "1", *spec_flags],
            ["construct", str(lat), str(deep), "--eq", "1", *spec_flags],
            ["theorem", "--which", "th31", str(lat), str(deep), *spec_flags],
        ]
        for argv in runs:
            code, out, err = _run(argv)
            assert code == 2, argv
            assert out == "", argv
            assert err.splitlines() == [
                "parse error: not valid JSON: maximum recursion depth exceeded "
                f"while decoding a JSON {kind} from a unicode string"
            ], argv


def test_an_integer_too_long_to_convert_is_one_parse_error(l11, tmp_path):
    # past Python's int-string limit (4,300 digits) json.loads raises a
    # ValueError that is not a JSONDecodeError
    huge = "9" * 5000
    lat = tmp_path / "L11.lattice.json"
    lat.write_text(render_lattice(l11.lattice, "L11"))
    huge_lat = tmp_path / "huge.lattice.json"
    huge_lat.write_text(f'{{"name": {huge}, "elements": ["0"], "covers": []}}')
    huge_table = tmp_path / "huge.table.json"
    huge_table.write_text(f'{{"lattice": {huge}, "carrier": [], "rows": []}}')
    ustar = tmp_path / "L11.Ustar.table.json"
    ustar.write_text(render_table(l11.spec.inner, "json", lattice_name="L11"))
    runs = [
        ["check-lattice", str(huge_lat)],
        ["verify", str(huge_table), "--e", "e", "--lattice", str(lat)],
        ["verify", str(ustar), "--e", "e", "--lattice", str(huge_lat)],
    ]
    for argv in runs:
        code, out, err = _run(argv)
        assert code == 2, argv
        assert out == "", argv
        [line] = err.splitlines()
        assert line.startswith("parse error: not valid JSON: "), argv
        assert "5000 digits" in line, argv


# -- malformed table files: the first failing check names the fault --------

_CHAIN = build_lattice(("a", "b", "c"), [("a", "b"), ("b", "c")])
_ROWS = [["a", "a", "a"], ["a", "b", "b"], ["a", "b", "c"]]
_NOT_ROWS = "'rows' must be a list of lists of strings"


@pytest.mark.parametrize(
    "carrier, rows, message",
    [
        # a string row is rejected even though its characters are element names
        (["a", "b", "c"], ["abc", _ROWS[1], _ROWS[2]], _NOT_ROWS),
        (["a", "b", "c"], "abc", _NOT_ROWS),
        ("abc", _ROWS, "'carrier' must be a list of strings"),
        (["a", "b", "c"], [["a", ["a"], "a"], _ROWS[1], _ROWS[2]], _NOT_ROWS),
        (["a", "b", "c"], [_ROWS[0], ["a", True, "b"], _ROWS[2]], _NOT_ROWS),
        (["a", "b", "c"], [_ROWS[0], _ROWS[1], ["a", "b", 1]], _NOT_ROWS),
        (["a", "b", "c"], [_ROWS[0], _ROWS[1], ["a", "b", None]], _NOT_ROWS),
        # the carrier's names are resolved before the rows', names before shape
        (["a", "b", "yy"], [_ROWS[0], _ROWS[1], ["a", "b", "zz"]], "unknown element name 'yy'"),
        (["a", "b", "c"], [_ROWS[0], _ROWS[1], ["a", "b", "zz"]], "unknown element name 'zz'"),
        (["a", "b", "c"], [_ROWS[0], ["a", "b"], ["a", "zz", "c"]], "unknown element name 'zz'"),
        (["a", "b", "c"], [_ROWS[0], ["a", "b"], _ROWS[2]], "table is not square over its carrier"),
        (["a", "b", "c"], _ROWS[:2], "table is not square over its carrier"),
        (["a", "a", "c"], _ROWS, "carrier has repeated elements"),
    ],
    ids=[
        "string-row", "string-rows", "string-carrier", "list-cell", "true-cell", "int-cell",
        "null-cell", "unknown-in-carrier", "unknown-in-row", "unknown-in-short-row",
        "short-row", "missing-row", "repeated-carrier-name",
    ],
)
def test_malformed_table_names_its_first_fault(carrier, rows, message):
    text = json.dumps({"lattice": "chain", "carrier": carrier, "rows": rows})
    with pytest.raises(FileFormatError) as info:
        parse_table(text, _CHAIN)
    assert str(info.value) == message


# -- malformed lattice files: the first failing check names the fault ------

_NOT_PAIRS = "order pairs must be two-element lists of strings"
_SIXTY_FIVE = [f"x{i}" for i in range(65)]
_CHAIN_65 = [[f"x{i}", f"x{i + 1}"] for i in range(64)]
_BOWTIE = [["0", "a"], ["0", "b"], ["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"],
           ["c", "1"], ["d", "1"]]
_TWO_CYCLE = [["0", "a"], ["a", "b"], ["b", "a"], ["b", "1"]]


def _doc(name="L", elements=("0", "a", "b", "1"), **order):
    """A lattice file's object; ``order`` holds its order keys (``covers``
    by default, the diamond's)."""
    if not order:
        order = {"covers": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]}
    elements = list(elements) if isinstance(elements, tuple) else elements
    return {"name": name, "elements": elements, **order}


@pytest.mark.parametrize(
    "doc, error, message",
    [
        ({"elements": ["0"], "covers": []}, FileFormatError, "lattice file missing key 'name'"),
        # the order keys are checked first, then the name, the elements and the pairs
        (_doc(3, "01", covers=[], le_pairs=[]), FileFormatError,
         "lattice file has both 'covers' and 'le_pairs': give one"),
        ({"name": 3, "elements": "01"}, FileFormatError,
         "lattice file needs a 'covers' or 'le_pairs' key"),
        (_doc(3, "01", covers=[["0"]]), FileFormatError, "'name' must be a string"),
        (_doc(["L"]), FileFormatError, "'name' must be a string"),
        (_doc(None), FileFormatError, "'name' must be a string"),
        (_doc("L", "0ab1", covers=[["0"]]), FileFormatError,
         "'elements' must be a list of strings"),
        (_doc("L", ["0", "a", 1]), FileFormatError, "'elements' must be a list of strings"),
        (_doc("L", ["0", ["a"], "1"]), FileFormatError, "'elements' must be a list of strings"),
        (_doc("L", {"0": "a"}), FileFormatError, "'elements' must be a list of strings"),
        # a pair of another length, type or content; every pair before any name
        (_doc(covers="0a"), FileFormatError, _NOT_PAIRS),
        (_doc(covers=["0a"]), FileFormatError, _NOT_PAIRS),
        (_doc(covers=[["0", "a", "1"]]), FileFormatError, _NOT_PAIRS),
        (_doc(covers=[["0"]]), FileFormatError, _NOT_PAIRS),
        (_doc(covers=[["0", 1]]), FileFormatError, _NOT_PAIRS),
        (_doc(covers=[["0", ["a"]]]), FileFormatError, _NOT_PAIRS),
        (_doc(covers=[{"0": "a", "b": "1"}]), FileFormatError, _NOT_PAIRS),
        (_doc(le_pairs=[["zz", "a"], ["0", None]]), FileFormatError, _NOT_PAIRS),
        # the least unknown name, before any check of the names themselves
        (_doc(covers=[["zz", "a"], ["0", "yy"], ["b", "zz"]]), FileFormatError,
         "order pair references unknown element 'yy'"),
        (_doc(le_pairs=[["0", "zz"]]), FileFormatError,
         "order pair references unknown element 'zz'"),
        (_doc("L", [], covers=[["a", "b"]]), FileFormatError,
         "order pair references unknown element 'a'"),
        (_doc("L", ["0", "a", "a"], covers=[["0", "x"]]), FileFormatError,
         "order pair references unknown element 'x'"),
        # then the carrier: empty, too large, an empty or repeated name
        (_doc("L", [], covers=[]), NotAPoset, "empty carrier"),
        (_doc("L", _SIXTY_FIVE, covers=_CHAIN_65), FileFormatError,
         "65 elements exceed the limit of 64"),
        (_doc("L", _SIXTY_FIVE[:-2] + ["x0", ""], covers=_CHAIN_65[:62]), FileFormatError,
         "65 elements exceed the limit of 64"),
        (_doc("L", ["0", "", "1"], covers=[["0", ""], ["", "1"]]), FileFormatError,
         "empty element name"),
        (_doc("L", ["0", "a", "a", "1"], covers=[["0", "a"], ["a", "1"]]), FileFormatError,
         "duplicate element name 'a'"),
        (_doc("L", ["0", "a", "a", ""], covers=[]), FileFormatError,
         "duplicate element name 'a'"),
        (_doc("L", ["0", "", "a", "a"], covers=[]), FileFormatError, "empty element name"),
        (_doc("L", ["0", "a", "a", "b", "1"], covers=_TWO_CYCLE), FileFormatError,
         "duplicate element name 'a'"),
        # then the order: a cycle, a missing bound, a missing join or meet
        (_doc(covers=_TWO_CYCLE), NotAPoset, "antisymmetry violated: 'a' <= 'b' <= 'a'"),
        (_doc("L", ["a", "b", "c"], le_pairs=[["a", "b"], ["b", "a"]]), NotAPoset,
         "antisymmetry violated: 'a' <= 'b' <= 'a'"),
        (_doc(covers=[["a", "1"], ["b", "1"]]), NotBounded,
         "no bottom element; minimal elements include '0'"),
        (_doc("L", ["0", "a", "b"], covers=[["0", "a"], ["0", "b"]]), NotBounded,
         "no top element; maximal elements include 'a'"),
        (_doc("L", ["0", "a", "b", "c", "d", "1", "x"], covers=_BOWTIE), NotBounded,
         "no bottom element; minimal elements include '0'"),
        (_doc("L", ["0", "a", "b", "c", "d", "1"], covers=_BOWTIE), NotALattice,
         "no unique join for 'a' and 'b'"),
        (_doc("L", ["0", "c", "d", "a", "b", "1"], covers=_BOWTIE), NotALattice,
         "no unique meet for 'c' and 'd'"),
    ],
    ids=[
        "missing-name-key", "both-order-keys", "no-order-key", "int-name", "list-name",
        "null-name", "string-elements", "int-element", "list-element", "object-elements",
        "string-pairs", "string-pair", "long-pair", "short-pair", "int-in-pair",
        "list-in-pair", "object-pair", "null-in-le-pair", "least-unknown-named",
        "unknown-in-le-pairs", "unknown-before-empty-carrier", "unknown-before-duplicate",
        "empty-carrier", "65-elements", "65-elements-before-bad-names", "empty-name",
        "duplicate-name", "duplicate-before-empty-name", "empty-before-duplicate-name",
        "duplicate-before-cycle", "cycle", "cycle-before-missing-bound", "no-bottom",
        "no-top", "missing-bound-before-missing-join", "missing-join", "missing-meet",
    ],
)
def test_malformed_lattice_names_its_first_fault(doc, error, message):
    with pytest.raises(Exception) as info:
        parse_lattice(json.dumps(doc))
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("key", ["covers", "le_pairs"])
def test_well_formed_lattice_resolves_every_pair(key):
    # redundant, repeated and reflexive pairs are part of the order they give
    pairs = [["a", "1"], ["0", "a"], ["0", "1"], ["b", "b"], ["0", "b"], ["b", "1"], ["0", "a"]]
    name, lat = parse_lattice(json.dumps(_doc("diamond", **{key: pairs})))
    assert name == "diamond"
    want = build_lattice(("0", "a", "b", "1"), [tuple(p) for p in pairs])
    assert (lat.names, lat.up, lat.down, lat.upper_covers) == (
        want.names, want.up, want.down, want.upper_covers)


# -- the ordered checks, one at a time: the reference of the one-pass readers


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _checked_lattice(doc: dict, name, elements):
    """The lattice of a lattice file: the key, type and name checks in
    order, then :func:`build_lattice`, so the first fault is the one raised."""
    if "covers" in doc and "le_pairs" in doc:
        raise FileFormatError("lattice file has both 'covers' and 'le_pairs': give one")
    if "covers" in doc:
        pairs = doc["covers"]
    elif "le_pairs" in doc:
        pairs = doc["le_pairs"]
    else:
        raise FileFormatError("lattice file needs a 'covers' or 'le_pairs' key")
    if not isinstance(name, str):
        raise FileFormatError("'name' must be a string")
    if not _is_str_list(elements):
        raise FileFormatError("'elements' must be a list of strings")
    if not isinstance(pairs, list) or not all(
        _is_str_list(p) and len(p) == 2 for p in pairs
    ):
        raise FileFormatError("order pairs must be two-element lists of strings")
    unknown = {x for p in pairs for x in p} - set(elements)
    if unknown:
        raise FileFormatError(f"order pair references unknown element {min(unknown)!r}")
    try:
        return build_lattice(elements, [tuple(p) for p in pairs])
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None


def _resolve_names(index: dict, carrier_names, rows):
    """(carrier, cells) as ids for a square table of element names, one
    lookup per name; ``None`` when a type, a name or the shape is off."""
    size = len(carrier_names) if type(carrier_names) is list else -1
    if type(rows) is not list or len(rows) != size:
        return None
    for row in rows:
        if type(row) is not list or len(row) != size:
            return None
    try:
        ids = bytes(itemgetter(*carrier_names, *chain.from_iterable(rows))(index))
    except (KeyError, TypeError):
        return None
    return tuple(ids[:size]), ids[size:]


def _checked_names(lat, carrier_names, rows):
    """The type, name and shape checks, in order: raise the first failure."""
    if not _is_str_list(carrier_names):
        raise FileFormatError("'carrier' must be a list of strings")
    if not isinstance(rows, list) or not all(_is_str_list(row) for row in rows):
        raise FileFormatError("'rows' must be a list of lists of strings")
    try:
        carrier = tuple(lat.index(name) for name in carrier_names)
        cells = [lat.index(cell) for row in rows for cell in row]
    except KeyError as exc:
        raise FileFormatError(str(exc)) from None
    if len(rows) != len(carrier) or any(len(row) != len(carrier) for row in rows):
        raise FileFormatError("table is not square over its carrier")
    return carrier, cells


def _checked_table(lat, carrier_names, rows):
    """The table of a table file's carrier and rows: the names resolved in
    one lookup, or the ordered checks when anything is off."""
    resolved = _resolve_names(lat._index, carrier_names, rows)
    if resolved is None:
        resolved = _checked_names(lat, carrier_names, rows)
    try:
        return OpTable(lat, *resolved)
    except OpTableError as exc:
        raise FileFormatError(str(exc)) from None


def _same_outcome(reference, reader):
    """``reader()`` raises what ``reference()`` raises, type and text, or
    returns what it returns."""
    try:
        want = reference()
    except Exception as exc:
        with pytest.raises(Exception) as info:
            reader()
        assert (type(info.value), str(info.value)) == (type(exc), str(exc))
        return
    assert reader() == want


def _named_lattice(name, lat):
    return name, lat.names, lat.up, lat.down, lat.upper_covers


@settings(max_examples=200, deadline=None)
@given(entry_id=st.sampled_from(corpus.ENTRY_IDS), key=st.sampled_from(("covers", "le_pairs")),
       data=st.data())
def test_mutated_lattice_files_meet_the_ordered_checks(entry_id, key, data):
    # the one-pass reader names the first fault of the ordered checks, type
    # and text, or builds what they build
    doc = json.loads(render_lattice(corpus.load(entry_id).lattice, entry_id))
    doc[key] = doc.pop("covers")
    doc = _mutate(data, doc)
    if "name" not in doc or "elements" not in doc:
        return
    _same_outcome(
        lambda: _named_lattice(doc["name"], _checked_lattice(doc, doc["name"], doc["elements"])),
        lambda: _named_lattice(*parse_lattice(json.dumps(doc))),
    )


@settings(max_examples=200, deadline=None)
@given(entry_id=st.sampled_from(corpus.ENTRY_IDS), target=st.sampled_from(("Ustar", "stored")),
       data=st.data())
def test_mutated_table_files_meet_the_ordered_checks(entry_id, target, data):
    # the one-lookup reader names the first fault of the ordered checks,
    # type and text, or builds the carrier and buffer they build
    entry = corpus.load(entry_id)
    table = entry.spec.inner if target == "Ustar" else entry.stored
    doc = _mutate(data, json.loads(render_table(table, "json", lattice_name=entry_id)))
    if not doc.keys() >= {"lattice", "carrier", "rows"}:
        return
    _same_outcome(
        lambda: _checked_table(entry.lattice, doc["carrier"], doc["rows"]),
        lambda: parse_table(json.dumps(doc), entry.lattice)[1],
    )


def test_well_formed_table_resolves_every_name():
    text = json.dumps({"lattice": "chain", "carrier": ["c", "a", "b"], "rows": _ROWS})
    name, table = parse_table(text, _CHAIN)
    assert name == "chain"
    assert table.carrier == (2, 0, 1)
    assert table.values == ((0, 0, 0), (0, 1, 1), (0, 1, 2))


# -- malformed command lines: one argparse line, returned as exit 2 ----------

# per subcommand: positionals, then (flag, values) pairs; every one required
# but construct's --format and fuzz's --size and --seed
_ARGV = {
    "check-lattice": (["L.lattice.json"], []),
    "construct": (["L.lattice.json", "L.Ustar.table.json"], [
        ("--eq", ["1"]), ("--rho", ["rho"]), ("--e", ["e"]), ("--anchor", ["q"]),
        ("--format", ["csv"]),
    ]),
    "verify": (["L.U1.table.json"], [("--e", ["e"])]),
    "theorem": (["L.lattice.json", "L.Ustar.table.json"], [
        ("--which", ["th31"]), ("--rho", ["rho"]), ("--e", ["e"]), ("--anchor", ["q"]),
    ]),
    "fuzz": ([], [("--theorem", ["th31"]), ("--seeds", ["1"]), ("--size", ["4", "5"]),
                  ("--seed", ["3"])]),
    "corpus": ([], [("--replay", [])]),
}
_OPTIONAL = {"--format", "--size", "--seed"}
_INT_FLAGS = {"--seeds", "--size", "--seed"}
_CHOICES = {"--eq": (1, 2), "--format": ("table", "csv", "json"),
            "--which": tuple(THEOREMS), "--theorem": tuple(THEOREMS)}


def _is_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _outside_choices(flag: str, text: str) -> bool:
    """Whether ``flag`` rejects ``text``; --eq converts it with int() first."""
    if flag == "--eq":
        return not _is_int(text) or int(text) not in _CHOICES[flag]
    return text not in _CHOICES[flag]


# a value that is not itself read as a flag (``-h`` would print the help)
_values = st.text(max_size=4).filter(lambda text: not text.startswith("-"))


@st.composite
def malformed_argv(draw):
    command = draw(st.sampled_from(sorted(_ARGV)))
    positionals, options = _ARGV[command]
    positionals, options = list(positionals), [(flag, list(vals)) for flag, vals in options]
    kinds = ["unknown-argument", "no-subcommand", "missing"]
    kinds += ["not-an-int"] * any(flag in _INT_FLAGS for flag, _ in options)
    kinds += ["no-such-choice"] * any(flag in _CHOICES for flag, _ in options)
    kind = draw(st.sampled_from(kinds))
    if kind == "not-an-int":
        flag, vals = draw(st.sampled_from([o for o in options if o[0] in _INT_FLAGS]))
        vals[draw(st.integers(0, len(vals) - 1))] = draw(
            _values.filter(lambda text: not _is_int(text))
        )
    elif kind == "no-such-choice":
        flag, vals = draw(st.sampled_from([o for o in options if o[0] in _CHOICES]))
        vals[0] = draw(_values.filter(lambda text: _outside_choices(flag, text)))
    elif kind == "missing":
        required = [("positional", i) for i in range(len(positionals))]
        required += [("flag", o) for o in options if o[0] not in _OPTIONAL]
        what, item = draw(st.sampled_from(required))
        if what == "positional":
            del positionals[item]
        else:
            options.remove(item)
    tokens = positionals + [token for flag, vals in options for token in (flag, *vals)]
    if kind == "unknown-argument":
        unknown = st.builds("--x{}".format, st.text("abcdefgh-", max_size=4)) | _values
        tokens.insert(draw(st.integers(0, len(tokens))), draw(unknown))
    if kind == "no-subcommand":
        return tokens
    return [command, *tokens]


@settings(max_examples=150, deadline=None)
@given(argv=malformed_argv())
def test_a_malformed_command_line_is_one_line_and_exit_two(argv):
    code, out, err = _run(argv)  # returns: no SystemExit
    assert code == 2, argv
    assert out == "", argv
    [line] = err.splitlines()
    # argparse's own wording differs across Python versions; its prefix does not
    assert re.match(r"latnorm( [a-z-]+)?: error: ", line), (argv, line)


@pytest.mark.parametrize(
    "argv, prefix",
    [
        ([], "latnorm: error: "),
        (["fuzz", "--theorem", "th31", "--seeds", "abc"], "latnorm fuzz: error: argument --seeds: "),
        (["construct", "x", "y", "--eq", "3", "--rho", "r", "--e", "e", "--anchor", "q"],
         "latnorm construct: error: argument --eq: "),
        # argparse does not quote unrecognized arguments
        (["corpus", "--replay", "a\nb"], "latnorm: error: unrecognized arguments: a\\nb"),
    ],
    ids=["no-subcommand", "seeds", "eq", "line-break"],
)
def test_a_malformed_flag_is_one_line(argv, prefix):
    code, out, err = _run(argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith(prefix)


def test_help_still_exits_zero():
    with contextlib.redirect_stdout(io.StringIO()) as out, pytest.raises(SystemExit) as info:
        main(["fuzz", "--help"])
    assert info.value.code == 0
    assert out.getvalue().startswith("usage: latnorm fuzz")
