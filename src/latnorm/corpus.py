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

from dataclasses import dataclass
from typing import Optional

from .construct import ConstructionSpec, construct_for
from .lattice import BoundedLattice, build_lattice
from .optable import OpTable, is_uninorm

ENTRY_IDS = ("L11", "L12", "L13", "L21", "L22")


class UnknownId(Exception):
    pass


@dataclass(frozen=True)
class Erratum:
    row: str
    col: str
    printed: str
    formula: str
    repaired: bool
    note: str


@dataclass(frozen=True)
class CorpusEntry:
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
    carrier = tuple(lat.index(name) for name in carrier_names)
    values = []
    lines = [line.split() for line in text.strip().splitlines()]
    assert len(lines) == len(carrier), "grid has wrong row count"
    for row_name, line in zip(carrier_names, lines):
        assert line[0] == row_name, f"row label {line[0]} != {row_name}"
        cells = line[1:]
        assert len(cells) == len(carrier), f"row {row_name} has wrong width"
        values.append(tuple(lat.index(cell) for cell in cells))
    return OpTable(lattice=lat, carrier=carrier, values=tuple(values))


def _apply_errata(printed: OpTable, errata) -> OpTable:
    lat = printed.lattice
    pos = printed.pos
    rows = [list(row) for row in printed.values]
    for erratum in errata:
        if not erratum.repaired:
            continue
        r = pos[lat.index(erratum.row)]
        c = pos[lat.index(erratum.col)]
        assert rows[r][c] == lat.index(erratum.printed)
        rows[r][c] = lat.index(erratum.formula)
    return OpTable(lattice=lat, carrier=printed.carrier, values=tuple(tuple(r) for r in rows))


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


def _build_l11() -> CorpusEntry:
    return _entry(
        "L11",
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
    )


def _build_l12() -> CorpusEntry:
    return _entry(
        "L12",
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
    )


# note of the L13 and L22 cells that are kept as printed
_KEPT = (
    "symmetric as printed but contradicts the join case of the "
    "formula on the reconstructed covers; kept because the printed "
    "table is the counterexample object"
)


def _build_l13() -> CorpusEntry:
    return _entry(
        "L13",
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
    )


def _build_l21() -> CorpusEntry:
    return _entry(
        "L21",
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
    )


def _build_l22() -> CorpusEntry:
    return _entry(
        "L22",
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
    )


_BUILDERS = {
    "L11": _build_l11,
    "L12": _build_l12,
    "L13": _build_l13,
    "L21": _build_l21,
    "L22": _build_l22,
}

_CACHE: dict = {}


def load(entry_id: str) -> CorpusEntry:
    """Load and validate one corpus entry."""
    if entry_id not in _BUILDERS:
        raise UnknownId(f"unknown corpus id {entry_id!r}; choose from {ENTRY_IDS}")
    if entry_id not in _CACHE:
        entry = _BUILDERS[entry_id]()
        report = is_uninorm(entry.spec.inner, entry.spec.neutral)
        assert report.ok, f"{entry_id}: inner table fails {report.failures()}"
        _CACHE[entry_id] = entry
    return _CACHE[entry_id]


def all_entries() -> tuple[CorpusEntry, ...]:
    return tuple(load(entry_id) for entry_id in ENTRY_IDS)


@dataclass(frozen=True)
class EntryReplay:
    id: str
    diff_cells: tuple            # construct output vs printed table
    diff_matches_errata: bool
    verdict_ok: bool             # stored-table axiom verdict vs expectation
    witness_ok: bool             # cited witness cells reproduced (when any)

    @property
    def ok(self) -> bool:
        return self.diff_matches_errata and self.verdict_ok and self.witness_ok


@dataclass(frozen=True)
class ReplayReport:
    entries: tuple[EntryReplay, ...]

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)


def replay_entry(entry: CorpusEntry) -> EntryReplay:
    table = construct_for(entry.spec, entry.theorem)
    diff = table.diff(entry.printed)
    expected_diff = {
        (entry.lattice.index(err.row), entry.lattice.index(err.col))
        for err in entry.errata
    }
    diff_ok = set(diff) == expected_diff
    if diff_ok:
        for err in entry.errata:
            r = entry.lattice.index(err.row)
            c = entry.lattice.index(err.col)
            if table.value(r, c) != entry.lattice.index(err.formula):
                diff_ok = False
            if entry.printed.value(r, c) != entry.lattice.index(err.printed):
                diff_ok = False

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
