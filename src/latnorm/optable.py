"""Binary operation tables over lattice carriers and their axiom checks.

An :class:`OpTable` is a raw candidate: it may be non-commutative,
non-associative, or take values outside its carrier.  Verification is a
separate act (:func:`is_uninorm` and friends) that runs every check
exhaustively and reports the first violation per axiom, with a witness
that can be re-evaluated against the table.

Witnesses are the lexicographically first in carrier presentation order,
so reports are reproducible run to run.  The scans work on whole rows and
bit masks rather than single cells (commutativity compares row i with
column i, associativity all rows through ``bytes.translate``, and
monotonicity finds the failing element with per-line masks); only where a
row or an element fails does a per-cell walk name the witness, which is
the one a per-cell scan of every cell would return.  The per-cell loops
are kept as the reference in ``tests/test_battery_oracle.py``.

The ``ut`` and ``umin`` class predicates are not written out: each is its
twin (``ub``, ``umax``) evaluated on the table transported to the order
dual of its lattice with :func:`rewrap`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .lattice import BoundedLattice, ElementId, ids_of, mask_of


class OpTableError(Exception):
    pass


class NeutralOutsideCarrier(OpTableError):
    pass


class SubNotContained(OpTableError):
    pass


@dataclass(frozen=True, eq=False)
class OpTable:
    """A binary operation table on a sub-carrier of a lattice.

    ``carrier`` lists element ids in presentation order (rows and columns
    follow it); ``values[i][j]`` is the result of row element i applied to
    column element j.  Values may be any lattice element.
    """

    lattice: BoundedLattice
    carrier: tuple[ElementId, ...]
    values: tuple[tuple[ElementId, ...], ...]

    def __post_init__(self):
        n = len(self.carrier)
        if len(self.values) != n or any(len(row) != n for row in self.values):
            raise OpTableError("values table is not square over the carrier")
        if len(set(self.carrier)) != n:
            raise OpTableError("carrier has repeated elements")
        object.__setattr__(self, "_pos", {a: i for i, a in enumerate(self.carrier)})

    @property
    def pos(self) -> dict:
        return self._pos

    @property
    def carrier_mask(self) -> int:
        return mask_of(self.carrier)

    def value(self, a: ElementId, b: ElementId) -> ElementId:
        pos = self.pos
        return self.values[pos[a]][pos[b]]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OpTable)
            and self.lattice == other.lattice
            and self.carrier == other.carrier
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash((self.carrier, self.values))

    def diff(self, other: "OpTable") -> tuple[tuple[ElementId, ElementId], ...]:
        """Cells (row, col) where the two tables disagree; carriers must match."""
        if set(self.carrier) != set(other.carrier):
            raise OpTableError("cannot diff tables over different carriers")
        cells = []
        for a in self.carrier:
            for b in self.carrier:
                if self.value(a, b) != other.value(a, b):
                    cells.append((a, b))
        return tuple(cells)


def table_from_function(
    lattice: BoundedLattice,
    carrier,
    fn: Callable[[ElementId, ElementId], ElementId],
) -> OpTable:
    carrier = tuple(carrier)
    values = tuple(tuple(fn(a, b) for b in carrier) for a in carrier)
    return OpTable(lattice=lattice, carrier=carrier, values=values)


def rewrap(t: OpTable, lattice: BoundedLattice) -> OpTable:
    """The same cells on the same carrier, read in ``lattice``.

    With ``lattice = t.lattice.dual()`` this transports a table across
    duality; a second call with the original lattice brings it back.
    """
    return OpTable(lattice=lattice, carrier=t.carrier, values=t.values)


def meet_table(lattice: BoundedLattice, carrier=None) -> OpTable:
    carrier = tuple(range(lattice.n)) if carrier is None else tuple(carrier)
    return table_from_function(lattice, carrier, lattice.meet)


def join_table(lattice: BoundedLattice, carrier=None) -> OpTable:
    carrier = tuple(range(lattice.n)) if carrier is None else tuple(carrier)
    return table_from_function(lattice, carrier, lattice.join)


# -- axiom verification ----------------------------------------------------

CommutativityWitness = tuple  # (a, b, ab, ba)
AssociativityWitness = tuple  # (a, b, c, left, right)
MonotonicityWitness = tuple   # (a, b, c, ua, ub, side); a <= b, side "left":
                              # U(a,c) !<= U(b,c); side "right": U(c,a) !<= U(c,b)
NeutralWitness = tuple        # (x, got) where U(e,x) or U(x,e) == got != x
ClosureWitness = tuple        # (a, b, value) with value outside carrier


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the exhaustive uninorm axiom battery.

    Each field is ``None`` on pass, else the lexicographically first
    witness.
    """

    neutral_element: ElementId
    commutative: Optional[CommutativityWitness]
    associative: Optional[AssociativityWitness]
    monotone: Optional[MonotonicityWitness]
    neutral: Optional[NeutralWitness]
    closed: Optional[ClosureWitness]

    @property
    def second_side_checked(self) -> bool:
        """Whether monotonicity was checked in both arguments, as it must be
        when commutativity fails."""
        return self.commutative is not None

    @property
    def ok(self) -> bool:
        return (
            self.commutative is None
            and self.associative is None
            and self.monotone is None
            and self.neutral is None
            and self.closed is None
        )

    def failures(self) -> tuple[str, ...]:
        out = []
        for axiom in ("commutative", "associative", "monotone", "neutral", "closed"):
            if getattr(self, axiom) is not None:
                out.append(axiom)
        return tuple(out)


def first_commutativity_witness(t: OpTable) -> Optional[CommutativityWitness]:
    """First (a, b), a before b in carrier order, with U(a,b) != U(b,a).

    Row i is compared whole with column i.  Every pair before row i agreed,
    so the first mismatching cell of the first mismatching row lies past
    the diagonal.
    """
    carrier = t.carrier
    for a, row, col in zip(carrier, t.values, zip(*t.values)):
        if row != col:
            for b, ab, ba in zip(carrier, row, col):
                if ab != ba:
                    return (a, b, ab, ba)
    return None


def first_associativity_witness(t: OpTable) -> Optional[AssociativityWitness]:
    """All-triples check; the ground-truth associativity oracle.

    Every triple is decided, a whole row at a time.  Rows are held as
    bytes of element ids (ids stay below ``MAX_ELEMENTS`` = 64), and for
    each ``a`` in carrier order U(a, .) becomes a translation table, so one
    ``bytes.translate`` of all the rows gives U(a, U(b, c)) for every
    (b, c) at once, compared with the rows U(U(a, b), .) that row a picks.
    A mismatching ``a``, or one whose row leaves the carrier, is rescanned
    row by row, and a mismatching (a, b) cell by cell, so the witness is
    the lexicographically first triple of a per-cell scan, and cells
    outside the carrier are skipped as there.
    """
    carrier = t.carrier
    values = t.values
    pos = t.pos
    in_carrier = set(carrier)
    rows = [bytes(row) for row in values]
    row_of = dict(zip(carrier, rows))
    all_rows = b"".join(rows)
    # byte x of the table of row a is U(a, x), or 0xFF, which no element id
    # reaches, where x is outside the carrier; no cell holds an id past the
    # lattice, so the rest of the 256 bytes is padding
    cols = [pos.get(x, len(carrier)) for x in range(t.lattice.n)]
    pad = bytes(256 - t.lattice.n)
    for a, row_a in zip(carrier, values):
        u_a = bytes(map((*row_a, 0xFF).__getitem__, cols)) + pad
        if in_carrier.issuperset(row_a) and all_rows.translate(u_a) == b"".join(
            map(row_of.__getitem__, row_a)
        ):
            continue
        for b, ab, row_b, cells_b in zip(carrier, row_a, rows, values):
            if ab not in in_carrier:
                continue  # closure violation is reported separately
            if row_b.translate(u_a) == row_of[ab]:
                continue
            for c, bc, left in zip(carrier, cells_b, values[pos[ab]]):
                if bc not in in_carrier:
                    continue
                right = row_a[pos[bc]]
                if left != right:
                    return (a, b, c, left, right)
    return None


def _first_drop(lines, bits, above, cover_pairs, n: int) -> Optional[int]:
    """Position of the first carrier element ``a`` with some ``b`` above it
    and some line L (a column or a row of the table, over the carrier) where
    L[a] is not <= L[b].  ``bits[i]`` is the id bit of carrier[i] and
    ``above[i]`` the mask of carrier elements strictly above it.

    Per line, ``reach[v]`` is the mask of carrier elements b with v <= L[b]:
    each b is put on its own value, then the masks flow down the upper
    covers, which ``cover_pairs`` lists from the top down.
    """
    first = None
    for line in lines:
        reach = [0] * n
        for bit, w in zip(bits, line):
            reach[w] |= bit
        for v, w in cover_pairs:
            reach[v] |= reach[w]
        for i, (s, v) in enumerate(zip(above[:first], line)):
            if s & ~reach[v]:
                first = i
                break
    return first


def first_monotonicity_witness(
    t: OpTable, *, both_sides: bool
) -> Optional[MonotonicityWitness]:
    """First pair a <= b and argument c where the table is not increasing.

    One side suffices for commutative tables; ``both_sides`` is set by the
    caller when commutativity already failed.  Enumeration follows carrier
    presentation order, so reports are reproducible.

    The pairs are not all scanned against every c.  Each column (and with
    ``both_sides`` each row) gives, for every lattice element v, the mask of
    carrier elements whose cell in that line lies at or above v, filled from
    the top of the lattice down its upper covers.  The witness's ``a`` is
    the first ``a`` whose strict up-set escapes the mask of its own cell in
    some line, and the per-cell (b, c, side) scan of that one ``a`` names
    the witness a full scan would.  O(n * (n + covers)) instead of O(n^3).
    """
    lat = t.lattice
    carrier = t.carrier
    up = lat.up
    cm = t.carrier_mask
    above = [up[a] & cm & ~(1 << a) for a in carrier]
    covers = lat.upper_covers()
    # from the top down: fewer elements above v than above anything below v
    cover_pairs = [
        (v, w)
        for v in sorted(range(lat.n), key=lambda x: up[x].bit_count())
        for w in ids_of(covers[v])
    ]
    lines = list(zip(*t.values))
    if both_sides:
        lines += t.values
    i = _first_drop(lines, [1 << b for b in carrier], above, cover_pairs, lat.n)
    if i is None:
        return None
    a = carrier[i]
    for b in carrier:
        if a == b or not lat.leq(a, b):
            continue
        for c in carrier:
            ua = t.value(a, c)
            ub = t.value(b, c)
            if not lat.leq(ua, ub):
                return (a, b, c, ua, ub, "left")
            if both_sides:
                va = t.value(c, a)
                vb = t.value(c, b)
                if not lat.leq(va, vb):
                    return (a, b, c, va, vb, "right")
    raise AssertionError("the masks found a drop at this element")


def first_neutral_witness(t: OpTable, e: ElementId) -> Optional[NeutralWitness]:
    for x in t.carrier:
        got = t.value(e, x)
        if got != x:
            return (x, got)
        got = t.value(x, e)
        if got != x:
            return (x, got)
    return None


def first_closure_witness(t: OpTable) -> Optional[ClosureWitness]:
    in_carrier = set(t.carrier)
    for a, row in zip(t.carrier, t.values):
        if not in_carrier.issuperset(row):
            for b, v in zip(t.carrier, row):
                if v not in in_carrier:
                    return (a, b, v)
    return None


def is_uninorm(t: OpTable, e: ElementId) -> AxiomReport:
    """Run all five uninorm checks exhaustively with the given neutral."""
    if e not in set(t.carrier):
        raise NeutralOutsideCarrier(
            f"neutral {t.lattice.name(e)!r} is outside the table carrier"
        )
    commutative = first_commutativity_witness(t)
    return AxiomReport(
        neutral_element=e,
        commutative=commutative,
        associative=first_associativity_witness(t),
        monotone=first_monotonicity_witness(t, both_sides=commutative is not None),
        neutral=first_neutral_witness(t, e),
        closed=first_closure_witness(t),
    )


def restrict(t: OpTable, sub) -> OpTable:
    """Restrict the table to sub x sub, keeping the sub order given."""
    sub = tuple(sub)
    missing = set(sub) - set(t.carrier)
    if missing:
        name = t.lattice.name(sorted(missing)[0])
        raise SubNotContained(f"element {name!r} is not in the table carrier")
    return table_from_function(t.lattice, sub, t.value)


# -- class predicates ------------------------------------------------------


def _carrier_interval_masks(t: OpTable, e: ElementId) -> tuple[int, int]:
    """(below-e, full) masks within the carrier interval."""
    cm = t.carrier_mask
    bounds = t.lattice.extremes(cm)
    if bounds is None:
        raise OpTableError("carrier has no extreme element; not an interval")
    return t.lattice.interval_mask(bounds[0], e) & cm, cm


def in_class_umax(t: OpTable, e: ElementId) -> bool:
    """Projection onto the second argument on [bottom, e) x (carrier - [bottom, e]).

    The commuted rectangle is checked as well so the predicate is
    meaningful on raw candidate tables.
    """
    below, cm = _carrier_interval_masks(t, e)
    strict_below = below & ~(1 << e)
    outside = cm & ~below
    for a in ids_of(strict_below):
        for b in ids_of(outside):
            if t.value(a, b) != b or t.value(b, a) != b:
                return False
    return True


def in_class_ub(t: OpTable, e: ElementId) -> bool:
    """Values landing in [bottom, e] force both arguments into [bottom, e]."""
    below, _ = _carrier_interval_masks(t, e)
    for a in t.carrier:
        a_in = below >> a & 1
        for b in t.carrier:
            v = t.value(a, b)
            if below >> v & 1 and not (a_in and below >> b & 1):
                return False
    return True


def in_class_ut(t: OpTable, e: ElementId) -> bool:
    """Values landing in [e, top] force both arguments into [e, top]."""
    return in_class_ub(rewrap(t, t.lattice.dual()), e)


def in_class_umin(t: OpTable, e: ElementId) -> bool:
    """Projection onto the second argument on (e, top] x (carrier - [e, top])."""
    return in_class_umax(rewrap(t, t.lattice.dual()), e)
