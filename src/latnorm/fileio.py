"""On-disk formats for lattices and operation tables.

Both formats are JSON with a fixed canonical layout (one cover pair or
table row per line), so export -> parse -> export is byte-identical.
Element names are plain strings; the corpus transliterates non-ASCII
symbols ("rho", "sigma") so labels survive round-trips everywhere.
"""

from __future__ import annotations

import json
from typing import Optional

from .lattice import BoundedLattice, build_lattice, ids_of
from .optable import OpTable, OpTableError


class FileFormatError(Exception):
    pass


# -- lattices ---------------------------------------------------------------


def cover_pairs(lat: BoundedLattice) -> list[tuple[str, str]]:
    """Cover relation recovered from the order, sorted by identifier."""
    pairs = []
    for a in range(lat.n):
        strict_up = lat.up[a] & ~(1 << a)
        for b in ids_of(strict_up):
            between = lat.up[a] & lat.down[b] & ~(1 << a) & ~(1 << b)
            if not between:
                pairs.append((lat.names[a], lat.names[b]))
    return pairs


def render_lattice(lat: BoundedLattice, name: str) -> str:
    pairs = cover_pairs(lat)
    lines = ["{"]
    lines.append(f'  "name": {json.dumps(name)},')
    lines.append(f'  "elements": {json.dumps(list(lat.names))},')
    lines.append('  "covers": [')
    for i, pair in enumerate(pairs):
        comma = "," if i < len(pairs) - 1 else ""
        lines.append(f"    {json.dumps(list(pair))}{comma}")
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_lattice(text: str) -> tuple[str, BoundedLattice]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FileFormatError("lattice file must be a JSON object")
    try:
        name = doc["name"]
        elements = doc["elements"]
    except KeyError as exc:
        raise FileFormatError(f"lattice file missing key {exc}") from None
    if "covers" in doc:
        pairs = doc["covers"]
    elif "le_pairs" in doc:
        pairs = doc["le_pairs"]
    else:
        raise FileFormatError("lattice file needs a 'covers' or 'le_pairs' key")
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
        return name, build_lattice(elements, [tuple(p) for p in pairs])
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


# -- tables ------------------------------------------------------------------


def render_table_json(table: OpTable, lattice_name: str) -> str:
    lat = table.lattice
    carrier = [lat.names[a] for a in table.carrier]
    lines = ["{"]
    lines.append(f'  "lattice": {json.dumps(lattice_name)},')
    lines.append(f'  "carrier": {json.dumps(carrier)},')
    lines.append('  "rows": [')
    for i, row in enumerate(table.values):
        comma = "," if i < len(table.values) - 1 else ""
        lines.append(f"    {json.dumps([lat.names[v] for v in row])}{comma}")
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_table(text: str, lat: BoundedLattice) -> tuple[str, OpTable]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FileFormatError("table file must be a JSON object")
    try:
        lattice_name = doc["lattice"]
        carrier_names = doc["carrier"]
        rows = doc["rows"]
    except KeyError as exc:
        raise FileFormatError(f"table file missing key {exc}") from None
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
    try:
        return lattice_name, OpTable(lattice=lat, carrier=carrier, values=values)
    except OpTableError as exc:
        raise FileFormatError(str(exc)) from None


def table_lattice_name(text: str) -> str:
    """The lattice a table file references, without resolving it."""
    try:
        name = json.loads(text)["lattice"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise FileFormatError(f"cannot read lattice reference: {exc}") from None
    if not isinstance(name, str):
        raise FileFormatError("the table's 'lattice' reference must be a string")
    return name


def render_table_text(table: OpTable, label: str = "U") -> str:
    """Row/column layout mirroring the printed source tables."""
    lat = table.lattice
    names = [lat.names[a] for a in table.carrier]
    width = max(len(label), *(len(n) for n in names))

    def pad(s: str) -> str:
        return s.ljust(width)

    header = pad(label) + " | " + " ".join(pad(n) for n in names)
    rule = "-" * (width + 1) + "+" + "-" * (len(header) - width - 2)
    lines = [header, rule]
    for a, row in zip(table.carrier, table.values):
        cells = " ".join(pad(lat.names[v]) for v in row)
        lines.append(pad(lat.names[a]) + " | " + cells)
    return "\n".join(lines) + "\n"


def render_table_csv(table: OpTable, label: str = "U") -> str:
    lat = table.lattice
    names = [lat.names[a] for a in table.carrier]
    lines = [",".join([label, *names])]
    for a, row in zip(table.carrier, table.values):
        lines.append(",".join([lat.names[a], *(lat.names[v] for v in row)]))
    return "\n".join(lines) + "\n"


def render_table(table: OpTable, fmt: str, lattice_name: str = "", label: str = "U") -> str:
    if fmt == "json":
        return render_table_json(table, lattice_name)
    if fmt == "table":
        return render_table_text(table, label)
    if fmt == "csv":
        return render_table_csv(table, label)
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
    lines = text.strip().splitlines()
    return [line.split(",")[1:] for line in lines[1:]]


def find_lattice_for_table(table_path, lattice_path: Optional[str] = None):
    """Resolve the lattice file a table references.

    Explicit path wins; otherwise look for ``<name>.lattice.json`` next to
    the table file.
    """
    import pathlib

    table_path = pathlib.Path(table_path)
    text = table_path.read_text()
    if lattice_path is not None:
        return text, pathlib.Path(lattice_path).read_text()
    name = table_lattice_name(text)
    sibling = table_path.parent / f"{name}.lattice.json"
    if not sibling.exists():
        raise FileFormatError(
            f"cannot resolve lattice {name!r}: no {sibling.name} next to the table "
            "(pass --lattice)"
        )
    return text, sibling.read_text()
