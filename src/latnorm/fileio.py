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
from pathlib import Path

from .lattice import MAX_ELEMENTS, BoundedLattice, build_lattice, ids_of, lattice_from_edges
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
    doc, (name, elements) = _json_object(text, "lattice", ("name", "elements"))
    succ = _resolve_pairs(doc, name, elements)
    if succ is None:
        return name, _checked_lattice(doc, name, elements)
    return name, lattice_from_edges(elements, succ)


def _resolve_pairs(doc: dict, name, elements):
    """One mask of direct successors per element, resolved in one pass, for
    a lattice file whose name, elements and one order key are well formed;
    ``None`` when a key, a type, a name or the size is off.  Only strings
    are keys of the name -> element map, so every name that resolves is
    one."""
    if ("covers" in doc) == ("le_pairs" in doc) or type(name) is not str:
        return None
    pairs = doc["covers"] if "covers" in doc else doc["le_pairs"]
    if type(elements) is not list or type(pairs) is not list:
        return None
    n = len(elements)
    if not 0 < n <= MAX_ELEMENTS or set(map(type, elements)) != {str}:
        return None
    index = dict(zip(elements, range(n)))
    if len(index) != n or "" in index:
        return None
    succ = [0] * n
    try:
        for pair in pairs:
            if type(pair) is not list or len(pair) != 2:
                return None
            lo, hi = pair
            i, j = index[lo], index[hi]
            if i != j:
                succ[i] |= 1 << j
    except (KeyError, TypeError):  # an unknown name, or an unhashable one
        return None
    return succ


def _checked_lattice(doc: dict, name, elements) -> BoundedLattice:
    """The lattice of a file :func:`_resolve_pairs` turned down: the key,
    type and name checks in order, then :func:`build_lattice`, so the
    first fault is the one raised."""
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


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


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
    resolved = _resolve_names(lat._index, carrier_names, rows)
    if resolved is None:
        resolved = _checked_names(lat, carrier_names, rows)
    carrier, values = resolved
    try:
        return OpTable(lattice=lat, carrier=carrier, values=values)
    except OpTableError as exc:
        raise FileFormatError(str(exc)) from None


def _resolve_names(index: dict, carrier_names, rows):
    """(carrier, values) as ids, one lookup per name, for a square table of
    element names; ``None`` when a type, a name or the shape is off.  Only
    strings are keys of ``index`` (the lattice's name -> element map), so
    every name that resolves is one."""
    size = len(carrier_names) if type(carrier_names) is list else -1
    if type(rows) is not list or len(rows) != size:
        return None
    get = index.__getitem__
    try:
        carrier = tuple(map(get, carrier_names))
        values = []
        for row in rows:
            if type(row) is not list or len(row) != size:
                return None
            values.append(tuple(map(get, row)))
    except (KeyError, TypeError):  # an unknown name, or an unhashable cell
        return None
    return carrier, tuple(values)


def _checked_names(lat: BoundedLattice, carrier_names, rows):
    """The type, name and shape checks, in order: raise the first failure."""
    if not _is_str_list(carrier_names):
        raise FileFormatError("'carrier' must be a list of strings")
    if not isinstance(rows, list) or not all(_is_str_list(row) for row in rows):
        raise FileFormatError("'rows' must be a list of lists of strings")
    try:
        carrier = tuple(lat.index(name) for name in carrier_names)
        values = tuple(tuple(lat.index(cell) for cell in row) for row in rows)
    except KeyError as exc:
        raise FileFormatError(str(exc)) from None
    if len(rows) != len(carrier) or any(len(row) != len(carrier) for row in rows):
        raise FileFormatError("table is not square over its carrier")
    return carrier, values


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


def table_cells_from_text(text: str) -> list[list[str]]:
    """Re-extract cell names from the text rendering (cross-format checks)."""
    lines = [line for line in text.splitlines() if line and "+" not in line]
    out = []
    for line in lines[1:]:
        _, _, cells = line.partition("|")
        out.append(cells.split())
    return out


def table_cells_from_csv(text: str) -> list[list[str]]:
    return [row[1:] for row in list(csv.reader(io.StringIO(text)))[1:]]


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
