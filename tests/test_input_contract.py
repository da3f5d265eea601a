"""Malformed-input contract: every CLI run exits 0, 1 or 2, never a traceback.

Corpus entries are exported as the CLI would write them, one file is
mutated at the JSON level (values replaced, keys or items deleted, names
swapped), and the subcommands that read it run on the result with flag
values that may name unknown elements.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from latnorm import corpus
from latnorm.cli import main
from latnorm.fileio import render_lattice, render_table

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
