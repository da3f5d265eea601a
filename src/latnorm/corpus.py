"""Reference corpus: five worked example lattices with operator tables.

Each entry carries the cover relation of its lattice, the inner operator
on the threshold interval, and the constructed table exactly as printed
in the source material, together with an errata ledger reconciling the
printed cells against the construction formula.

Errata policy: a printed cell that contradicts commutativity or the
neutral-element axiom is repaired in the stored table (the formula value
is also what the symmetric cell and the inner table force).  Printed
cells that are symmetric and self-consistent but disagree with the
formula's join case are kept as printed and documented; for the two
counterexample entries these cells are precisely what makes the stored
table fail monotonicity at the cited positions.

Cover relations were reconstructed from the printed tables, which are
authoritative where the accompanying diagrams are ambiguous or
inconsistent.  In particular:

  * L12's inner interval is not a chain: the inner table forces c < q
    with both incomparable to the neutral element.
  * L13 places s strictly below t, and L22 places s strictly below m;
    these are the comparabilities that realize the cited monotonicity
    violations of the counterexamples.
  * L13 lists m before t so that deterministic witness reporting finds
    the cited cell pair first.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .construct import ConstructionSpec, construct_for
from .fileio import _build_table
from .lattice import BoundedLattice, build_lattice
from .optable import OpTable, is_uninorm

class UnknownId(Exception):
    pass


class Erratum(NamedTuple):
    row: str
    col: str
    printed: str
    formula: str
    repaired: bool
    note: str


class CorpusEntry(NamedTuple):
    id: str
    lattice: BoundedLattice
    theorem: str
    spec: ConstructionSpec
    printed: OpTable           # constructed table exactly as printed
    stored: OpTable            # printed with repaired errata applied
    constructed_key: str       # "U1" or "U2"
    expected_uninorm: bool
    errata: tuple[Erratum, ...]
    cited_witness: Optional[tuple]  # (a, b, c) ids: U(a,c) !<= U(b,c), a <= b

    @property
    def tables(self) -> dict:
        return {"Ustar": self.spec.inner, self.constructed_key: self.stored}


def _parse_grid(lat: BoundedLattice, carrier_names, text: str) -> OpTable:
    lines = [line.split() for line in text.strip().splitlines()]
    assert len(lines) == len(carrier_names), "grid has wrong row count"
    for row_name, line in zip(carrier_names, lines):
        assert line[0] == row_name, f"row label {line[0]} != {row_name}"
        assert len(line) == len(carrier_names) + 1, f"row {row_name} has wrong width"
    return _build_table(lat, list(carrier_names), [line[1:] for line in lines])


def _apply_errata(printed: OpTable, errata) -> OpTable:
    lat = printed.lattice
    pos = printed.pos
    k = len(printed.carrier)
    cells = bytearray(printed.buf)
    for erratum in errata:
        if not erratum.repaired:
            continue
        cell = pos[lat.index(erratum.row)] * k + pos[lat.index(erratum.col)]
        assert cells[cell] == lat.index(erratum.printed)
        cells[cell] = lat.index(erratum.formula)
    return OpTable(lat, printed.carrier, cells)


def _entry(
    entry_id: str,
    *,
    elements,
    covers,
    inner_carrier,
    inner_grid: str,
    printed_grid: str,
    theorem: str,
    constructed_key: str,
    expected_uninorm: bool,
    errata=(),
    cited_witness=None,
) -> CorpusEntry:
    lat = build_lattice(elements, covers)
    inner = _parse_grid(lat, inner_carrier, inner_grid)
    printed = _parse_grid(lat, elements, printed_grid)
    errata = tuple(errata)
    stored = _apply_errata(printed, errata)
    spec = ConstructionSpec(
        lattice=lat,
        threshold=lat.index("rho"),
        neutral=lat.index("e"),
        anchor=lat.index("q"),
        inner=inner,
    )
    witness = None
    if cited_witness is not None:
        witness = tuple(lat.index(name) for name in cited_witness)
    return CorpusEntry(
        id=entry_id,
        lattice=lat,
        theorem=theorem,
        spec=spec,
        printed=printed,
        stored=stored,
        constructed_key=constructed_key,
        expected_uninorm=expected_uninorm,
        errata=errata,
        cited_witness=witness,
    )


# note of the L13 and L22 cells that are kept as printed
_KEPT = (
    "symmetric as printed but contradicts the join case of the "
    "formula on the reconstructed covers; kept because the printed "
    "table is the counterexample object"
)


_ENTRIES = {
    "L11": dict(
        elements=("0", "q", "e", "k", "c", "rho", "m", "t", "s", "d", "1"),
        covers=[
            ("0", "q"), ("0", "k"),
            ("q", "e"), ("q", "t"), ("q", "m"),
            ("e", "c"), ("e", "s"),
            ("k", "c"),
            ("c", "rho"),
            ("rho", "d"), ("s", "d"),
            ("d", "1"), ("t", "1"), ("m", "1"),
        ],
        inner_carrier=("0", "q", "e", "k", "c", "rho"),
        inner_grid="""
            0    0   0   0   k   c   rho
            q    0   q   q   k   c   rho
            e    0   q   e   k   c   rho
            k    k   k   k   k   c   rho
            c    c   c   c   c   c   rho
            rho  rho rho rho rho rho rho
        """,
        printed_grid="""
            0    0   0   0   k   c   rho m   t   s   d   1
            q    0   q   q   k   c   rho m   t   s   d   1
            e    0   q   e   k   c   rho m   t   s   d   1
            k    k   k   k   k   c   rho 1   1   1   1   1
            c    c   c   c   c   c   rho 1   1   1   1   1
            rho  rho rho rho rho rho rho 1   1   1   1   1
            m    m   m   m   1   1   1   m   1   1   1   1
            t    t   t   t   1   1   1   1   t   1   1   1
            s    s   s   s   1   1   1   1   1   1   1   1
            d    d   d   d   1   1   1   1   1   1   1   1
            1    1   1   1   1   1   1   1   1   1   1   1
        """,
        theorem="th31",
        constructed_key="U1",
        expected_uninorm=True,
    ),
    "L12": dict(
        elements=("0", "f", "e", "c", "q", "rho", "s", "t", "m", "d", "1"),
        covers=[
            ("0", "f"), ("0", "t"),
            ("f", "e"), ("f", "c"), ("f", "m"),
            ("e", "rho"), ("e", "s"),
            ("c", "q"),
            ("q", "rho"),
            ("rho", "d"), ("s", "d"),
            ("d", "1"), ("t", "1"), ("m", "1"),
        ],
        inner_carrier=("0", "f", "e", "c", "q", "rho"),
        inner_grid="""
            0    0   0   0   c   q   rho
            f    0   f   f   c   q   rho
            e    0   f   e   c   q   rho
            c    c   c   c   c   q   rho
            q    q   q   q   q   q   rho
            rho  rho rho rho rho rho rho
        """,
        printed_grid="""
            0    0   0   0   c   q   rho s   t   m   d   1
            f    0   f   f   c   q   rho s   t   m   d   1
            e    0   q   e   c   q   rho s   t   m   d   1
            c    c   c   c   c   q   rho 1   1   1   1   1
            q    q   q   q   q   q   rho 1   1   1   1   1
            rho  rho rho rho rho rho rho 1   1   1   1   1
            s    s   s   s   1   1   1   1   1   1   1   1
            t    t   t   t   1   1   1   1   1   1   1   1
            m    m   m   m   1   1   1   1   1   1   1   1
            d    d   d   d   1   1   1   1   1   1   1   1
            1    1   1   1   1   1   1   1   1   1   1   1
        """,
        theorem="th31",
        constructed_key="U1",
        expected_uninorm=True,
        errata=[
            Erratum(
                row="e", col="f", printed="q", formula="f", repaired=True,
                note="neutral row must reproduce f; inner table and the "
                     "symmetric cell (f,e) both give f",
            ),
        ],
    ),
    "L13": dict(
        elements=("0", "q", "e", "rho", "s", "m", "t", "d", "1"),
        covers=[
            ("0", "q"), ("0", "s"), ("0", "m"),
            ("q", "e"),
            ("e", "rho"),
            ("rho", "d"),
            ("s", "t"),
            ("t", "d"), ("m", "d"),
            ("d", "1"),
        ],
        inner_carrier=("0", "q", "e", "rho"),
        inner_grid="""
            0    0   0   0   rho
            q    0   q   q   rho
            e    0   q   e   rho
            rho  rho rho rho rho
        """,
        printed_grid="""
            0    0   0   0   rho s   m   t   d   1
            q    0   q   q   rho s   m   t   1   1
            e    0   q   e   rho s   m   t   d   1
            rho  rho rho rho rho 1   1   1   1   1
            s    s   s   s   1   1   1   1   1   1
            m    m   m   m   1   1   d   d   1   1
            t    t   t   t   1   1   d   d   1   1
            d    d   d   d   1   1   1   1   1   1
            1    1   1   1   1   1   1   1   1   1
        """,
        theorem="th31",
        constructed_key="U1",
        expected_uninorm=False,
        errata=[
            Erratum(
                row="q", col="d", printed="1", formula="d", repaired=True,
                note="the below-neutral-times-outside case forces the second "
                     "argument; row 0 prints d and the symmetric cell (d,q) "
                     "prints d",
            ),
            Erratum(row="s", col="s", printed="1", formula="d", repaired=False, note=_KEPT),
            Erratum(row="s", col="m", printed="1", formula="d", repaired=False, note=_KEPT),
            Erratum(row="m", col="s", printed="1", formula="d", repaired=False, note=_KEPT),
            Erratum(row="s", col="t", printed="1", formula="d", repaired=False, note=_KEPT),
            Erratum(row="t", col="s", printed="1", formula="d", repaired=False, note=_KEPT),
        ],
        cited_witness=("s", "t", "m"),
    ),
    "L21": dict(
        elements=("0", "f", "e", "c", "rho", "q", "t", "m", "d", "1"),
        covers=[
            ("0", "f"), ("0", "t"),
            ("f", "e"), ("f", "m"),
            ("e", "c"), ("e", "q"),
            ("c", "rho"),
            ("rho", "d"), ("q", "d"),
            ("d", "1"), ("t", "1"), ("m", "1"),
        ],
        inner_carrier=("0", "f", "e", "c", "rho"),
        inner_grid="""
            0    0   0   0   c   rho
            f    0   f   f   c   rho
            e    0   f   e   c   rho
            c    c   c   c   c   rho
            rho  rho rho rho rho rho
        """,
        printed_grid="""
            0    0   0   0   c   rho q   t   m   d   1
            f    0   f   f   c   rho q   t   m   d   1
            e    0   q   e   c   rho q   t   m   d   1
            c    c   c   c   c   rho 1   1   1   1   1
            rho  rho rho rho rho rho 1   1   1   1   1
            q    q   q   q   1   1   1   1   1   1   1
            t    t   t   t   1   1   1   1   1   1   1
            m    m   m   m   1   1   1   1   1   1   1
            d    d   d   d   1   1   1   1   1   1   1
            1    1   1   1   1   1   1   1   1   1   1
        """,
        theorem="th33",
        constructed_key="U2",
        expected_uninorm=True,
        errata=[
            Erratum(
                row="e", col="f", printed="q", formula="f", repaired=True,
                note="neutral row must reproduce f; inner table and the "
                     "symmetric cell (f,e) both give f",
            ),
        ],
    ),
    "L22": dict(
        elements=("0", "e", "rho", "s", "t", "m", "q", "d", "1"),
        covers=[
            ("0", "e"), ("0", "s"), ("0", "t"),
            ("e", "rho"), ("e", "q"),
            ("s", "m"),
            ("rho", "d"), ("t", "d"), ("m", "d"), ("q", "d"),
            ("d", "1"),
        ],
        inner_carrier=("0", "e", "rho"),
        inner_grid="""
            0    0   0   rho
            e    0   e   rho
            rho  rho rho rho
        """,
        printed_grid="""
            0    0   0   rho s   t   m   q   d   1
            e    0   e   rho s   t   m   q   d   1
            rho  rho rho rho 1   1   1   1   1   1
            s    s   s   1   1   1   1   1   1   1
            t    t   t   1   1   d   d   1   1   1
            m    m   m   1   1   d   d   1   1   1
            q    q   q   1   1   1   1   1   1   1
            d    d   d   1   1   1   1   1   1   1
            1    1   1   1   1   1   1   1   1   1
        """,
        theorem="th33",
        constructed_key="U2",
        expected_uninorm=False,
        errata=[
            Erratum(row="s", col="s", printed="1", formula="d", repaired=False, note=_KEPT),
            Erratum(row="s", col="t", printed="1", formula="d", repaired=False, note=_KEPT),
            Erratum(row="t", col="s", printed="1", formula="d", repaired=False, note=_KEPT),
            Erratum(row="s", col="m", printed="1", formula="d", repaired=False, note=_KEPT),
            Erratum(row="m", col="s", printed="1", formula="d", repaired=False, note=_KEPT),
        ],
        cited_witness=("s", "m", "t"),
    ),
}

ENTRY_IDS = tuple(_ENTRIES)


def load(entry_id: str) -> CorpusEntry:
    """Build and validate one corpus entry."""
    if entry_id not in _ENTRIES:
        raise UnknownId(f"unknown corpus id {entry_id!r}; choose from {ENTRY_IDS}")
    entry = _entry(entry_id, **_ENTRIES[entry_id])
    report = is_uninorm(entry.spec.inner, entry.spec.neutral)
    assert report.ok, f"{entry_id}: inner table fails {report.failures()}"
    return entry


def all_entries() -> tuple[CorpusEntry, ...]:
    return tuple(load(entry_id) for entry_id in ENTRY_IDS)


class EntryReplay(NamedTuple):
    id: str
    diff_cells: tuple            # construct output vs printed table
    diff_matches_errata: bool
    verdict_ok: bool             # stored-table axiom verdict vs expectation
    witness_ok: bool             # cited witness cells reproduced (when any)

    @property
    def ok(self) -> bool:
        return self.diff_matches_errata and self.verdict_ok and self.witness_ok


class ReplayReport(NamedTuple):
    entries: tuple[EntryReplay, ...]

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)


def replay_entry(entry: CorpusEntry) -> EntryReplay:
    """Construct the entry's table and check it against the print: the
    cells where they differ must be exactly the errata's, one erratum per
    cell, each holding the constructed value as ``formula`` and the
    printed one as ``printed``."""
    table = construct_for(entry.spec, entry.theorem)
    diff = table.diff(entry.printed)
    index = entry.lattice.index
    ledger = {
        (index(err.row), index(err.col)): (index(err.formula), index(err.printed))
        for err in entry.errata
    }
    diff_ok = (
        len(ledger) == len(entry.errata)
        and set(diff) == set(ledger)
        and all(ledger[r, c] == (table.value(r, c), entry.printed.value(r, c)) for r, c in diff)
    )

    report = is_uninorm(entry.stored, entry.spec.neutral)
    verdict_ok = report.ok == entry.expected_uninorm

    witness_ok = True
    if not entry.expected_uninorm and entry.cited_witness is not None:
        witness_ok = (
            report.monotone is not None
            and report.monotone[:3] == entry.cited_witness
        )
    return EntryReplay(
        id=entry.id,
        diff_cells=diff,
        diff_matches_errata=diff_ok,
        verdict_ok=verdict_ok,
        witness_ok=witness_ok,
    )


def replay_all() -> ReplayReport:
    """Rebuild every entry from its spec and diff against the printed data."""
    return ReplayReport(entries=tuple(replay_entry(entry) for entry in all_entries()))
