"""On-disk formats for lattices and operation tables, and their file layout.

Both formats are JSON with a fixed canonical layout (one cover pair or
table row per line), so export -> parse -> export is byte-identical.
Element names are plain strings; the corpus transliterates non-ASCII
symbols ("rho", "sigma") so labels survive round-trips everywhere.

This module is the only one that knows how the files sit on disk:

* an instance ``stem`` is written as ``<stem>.lattice.json`` (the lattice,
  named ``stem``) and one ``<stem>.<key>.table.json`` per table
  (:func:`write_instance`);
* a table file names its lattice in ``"lattice"``; unless a lattice file
  is given, it is read with the sibling ``<name>.lattice.json``
  (:func:`read_table`);
* a table's ``"lattice"`` must equal the ``"name"`` of the lattice file it
  is read with, even when every element name would resolve.
"""

from __future__ import annotations

import csv
import io
import json
from itertools import chain
from operator import itemgetter
from pathlib import Path

from .lattice import BoundedLattice, _check_names, _successor_masks, ids_of, lattice_from_edges
from .optable import OpTable, OpTableError


class FileFormatError(Exception):
    pass


def _json_object(text: str, kind: str, keys: tuple[str, ...]) -> tuple[dict, list]:
    """Decode a ``kind`` file: a JSON object holding every key of ``keys``."""
    try:
        doc = json.loads(text)
    # ValueError: malformed (a JSONDecodeError), or an integer too long to
    # convert; RecursionError: nested too deep
    except (ValueError, RecursionError) as exc:
        raise FileFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FileFormatError(f"{kind} file must be a JSON object")
    try:
        return doc, [doc[key] for key in keys]
    except KeyError as exc:
        raise FileFormatError(f"{kind} file missing key {exc}") from None


def _render_json(fields: dict, list_key: str, items: list) -> str:
    """The canonical layout of both file kinds: a JSON object with one
    ``fields`` entry per line, in order, then the list ``list_key`` with one
    item per line (``[`` and ``]`` on lines of their own), then a newline."""
    listed = [f"    {json.dumps(item)}" for item in items]
    return "\n".join([
        "{",
        *(f"  {json.dumps(key)}: {json.dumps(value)}," for key, value in fields.items()),
        f"  {json.dumps(list_key)}: [",
        *(line + "," for line in listed[:-1]),
        *listed[-1:],
        "  ]",
        "}",
    ]) + "\n"


# -- lattices ---------------------------------------------------------------


def cover_pairs(lat: BoundedLattice) -> list[tuple[str, str]]:
    """Cover relation recovered from the order, sorted by identifier."""
    covers = lat.upper_covers
    return [(lat.names[a], lat.names[b]) for a in range(lat.n) for b in ids_of(covers[a])]


def render_lattice(lat: BoundedLattice, name: str) -> str:
    return _render_json({"name": name, "elements": list(lat.names)}, "covers", cover_pairs(lat))


def parse_lattice(text: str) -> tuple[str, BoundedLattice]:
    """The name and lattice of a lattice file, its checks run in order in
    one pass: the order keys (one of ``covers`` and ``le_pairs``), the
    name, the elements, the shape of every pair, the least unknown name,
    the element names (:func:`~latnorm.lattice._check_names`), then
    the order (:func:`~latnorm.lattice.lattice_from_edges`).  The pairs are
    resolved in one pass; only when a lookup fails are they looked at
    again, to name the fault."""
    doc, (name, elements) = _json_object(text, "lattice", ("name", "elements"))
    if "covers" in doc:
        if "le_pairs" in doc:
            raise FileFormatError("lattice file has both 'covers' and 'le_pairs': give one")
        pairs = doc["covers"]
    elif "le_pairs" in doc:
        pairs = doc["le_pairs"]
    else:
        raise FileFormatError("lattice file needs a 'covers' or 'le_pairs' key")
    if type(name) is not str:
        raise FileFormatError("'name' must be a string")
    if type(elements) is not list or not set(map(type, elements)) <= {str}:
        raise FileFormatError("'elements' must be a list of strings")
    if type(pairs) is not list or not set(map(type, pairs)) <= {list}:
        raise FileFormatError(_NOT_PAIRS)
    try:
        # only strings are keys of the index, so every name that resolves is one
        succ = _successor_masks(dict(zip(elements, range(len(elements)))), len(elements), pairs)
    except (KeyError, TypeError, ValueError):  # an unknown or unhashable name, a pair's length
        if not all(len(pair) == 2 and set(map(type, pair)) == {str} for pair in pairs):
            raise FileFormatError(_NOT_PAIRS) from None
        unknown = min(set(chain.from_iterable(pairs)) - set(elements))
        raise FileFormatError(f"order pair references unknown element {unknown!r}") from None
    try:
        _check_names(elements)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None
    return name, lattice_from_edges(elements, succ)


_NOT_PAIRS = "order pairs must be two-element lists of strings"


# -- tables ------------------------------------------------------------------


def render_table_json(table: OpTable, lattice_name: str) -> str:
    names = table.lattice.names
    fields = {"lattice": lattice_name, "carrier": [names[a] for a in table.carrier]}
    return _render_json(fields, "rows", [[names[v] for v in row] for row in table.values])


_TABLE_KEYS = ("lattice", "carrier", "rows")


def parse_table(text: str, lat: BoundedLattice) -> tuple[str, OpTable]:
    _, (lattice_name, carrier_names, rows) = _json_object(text, "table", _TABLE_KEYS)
    return lattice_name, _build_table(lat, carrier_names, rows)


def _build_table(lat: BoundedLattice, carrier_names, rows) -> OpTable:
    """The table of the carrier and rows of element names, its checks run
    in order: the carrier's type, the rows' type, every name, squareness,
    then :class:`OpTable`'s own.  The names are resolved in one lookup;
    only when it fails are they looked at again, to name the first
    non-string, else the first unknown name (the carrier's, then the rows'
    in row-major order)."""
    if type(carrier_names) is not list or not set(map(type, carrier_names)) <= {str}:
        raise FileFormatError("'carrier' must be a list of strings")
    if type(rows) is not list or not set(map(type, rows)) <= {list}:
        raise FileFormatError(_NOT_ROWS)
    size = len(carrier_names)
    try:
        # every name in one C loop; only strings are keys of the index, so
        # every name that resolves is one
        ids = bytes(itemgetter(*carrier_names, *chain.from_iterable(rows))(lat._index))
    except (KeyError, TypeError):  # an unknown or unhashable name, or none at all
        if not all(set(map(type, row)) <= {str} for row in rows):
            raise FileFormatError(_NOT_ROWS) from None
        for name in chain(carrier_names, *rows):
            if name not in lat._index:
                raise FileFormatError(f"unknown element name {name!r}") from None
        ids = b""  # the empty table: itemgetter takes no key
    # a lone name gives itemgetter's result as an int, not a tuple, and
    # `ids` is no table; no table of one name is square
    if len(rows) != size or not set(map(len, rows)) <= {size}:
        raise FileFormatError("table is not square over its carrier")
    try:
        return OpTable(lat, tuple(ids[:size]), ids[size:])
    except OpTableError as exc:
        raise FileFormatError(str(exc)) from None


_NOT_ROWS = "'rows' must be a list of lists of strings"


def render_table_text(table: OpTable) -> str:
    """Row/column layout mirroring the printed source tables."""
    lat = table.lattice
    names = [lat.names[a] for a in table.carrier]
    width = max(1, *(len(n) for n in names))
    # every lattice element padded once; a cell may lie outside the carrier
    padded = [name.ljust(width) for name in lat.names]
    header = "U".ljust(width) + " | " + " ".join(padded[a] for a in table.carrier)
    rule = "-" * (width + 1) + "+" + "-" * (len(header) - width - 2)
    lines = [header, rule]
    for a, row in zip(table.carrier, table.values):
        lines.append(padded[a] + " | " + " ".join(map(padded.__getitem__, row)))
    return "\n".join(lines) + "\n"


def render_table_csv(table: OpTable) -> str:
    """Header ``U`` and the carrier, then one row per element, quoted as CSV needs."""
    names = table.lattice.names
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["U", *(names[a] for a in table.carrier)])
    writer.writerows([names[a], *map(names.__getitem__, row)]
                     for a, row in zip(table.carrier, table.values))
    return out.getvalue()


def render_table(table: OpTable, fmt: str, lattice_name: str = "") -> str:
    if fmt == "json":
        return render_table_json(table, lattice_name)
    if fmt == "table":
        return render_table_text(table)
    if fmt == "csv":
        return render_table_csv(table)
    raise ValueError(f"unknown table format {fmt!r}")


# -- file layout -------------------------------------------------------------


def read_table(table_path, lattice_path=None) -> tuple[str, BoundedLattice, OpTable]:
    """Read a table file and the lattice it is written for.

    The lattice is ``lattice_path`` when given, read before the table;
    otherwise the sibling ``<name>.lattice.json`` of the table's
    ``"lattice"`` reference.  The reference must equal the lattice's
    ``"name"``; this is checked before the cells are resolved, so a table
    read with another lattice is reported as such, whatever its cells
    name.  Returns (lattice name, lattice, table).
    """
    table_path = Path(table_path)
    if lattice_path is not None:
        name, lat = parse_lattice(Path(lattice_path).read_text())
    _, (reference, carrier_names, rows) = _json_object(
        table_path.read_text(), "table", _TABLE_KEYS
    )
    if not isinstance(reference, str):
        raise FileFormatError("the table's 'lattice' reference must be a string")
    if lattice_path is None:
        sibling = table_path.parent / f"{reference}.lattice.json"
        if not sibling.exists():
            raise FileFormatError(
                f"cannot resolve lattice {reference!r}: no {sibling.name} next to the table "
                "(pass --lattice)"
            )
        name, lat = parse_lattice(sibling.read_text())
    if reference != name:
        raise FileFormatError(f"table is written for lattice {reference!r}, not {name!r}")
    return name, lat, _build_table(lat, carrier_names, rows)


def write_instance(directory, stem: str, lattice: BoundedLattice, tables: dict) -> None:
    """Write ``lattice`` and each table of ``tables`` (key -> table) under
    ``directory``, creating it; raises OSError when they cannot be written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / f"{stem}.lattice.json").write_text(render_lattice(lattice, stem))
    for key, table in tables.items():
        (directory / f"{stem}.{key}.table.json").write_text(
            render_table(table, "json", lattice_name=stem)
        )
