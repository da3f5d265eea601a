"""Binary operation tables over lattice carriers and their axiom checks.

An :class:`OpTable` is a raw candidate: it may be non-commutative,
non-associative, or take values outside its carrier.  Verification is a
separate act (:func:`is_uninorm` and friends) that runs every check
exhaustively and reports the first violation per axiom, with a witness
that can be re-evaluated against the table.

Witnesses are the lexicographically first in carrier presentation order,
so reports are reproducible run to run.  The scans work on whole rows and
bit masks rather than single cells: commutativity compares row i with
column i, the neutral check row e and column e with the carrier,
associativity all rows through ``bytes.translate``, and
monotonicity is bit-sliced.  There each table line (a row, plus its column
when both arguments are checked) is one int whose field c is the down-set
mask of the cell (all lines at once: one ``bytes.translate`` of every cell
per byte of the mask), and the ints are ANDed down the covers of the carrier,
so one comparison per element decides it (O(lines * (n + carrier covers))
big-int operations on ints of n * ceil(n / 8) bytes); the same ints name
the witness, one AND per element above the failing one.  Only where a
commutativity, neutral or associativity row fails does a walk of its cells
name the witness.  Every witness is the one a per-cell scan of every cell
would return; the per-cell loops are kept as the reference in
``tests/test_battery_oracle.py``.

The ``ut`` and ``umin`` class predicates are not written out: each is its
twin (``ub``, ``umax``) evaluated on the table transported to the order
dual of its lattice with :func:`rewrap`.

A table keeps its own verdicts: :func:`is_uninorm` and :func:`in_class_ub`
compute theirs once per table and neutral and keep it on the table
(:attr:`OpTable.kept`), so a table checked where it is drawn is not checked
again where it is used.  A verdict is not carried across duality: a table
read in another lattice is another table, with verdicts of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import itemgetter
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

    @cached_property
    def kept(self) -> dict:
        """The verdicts of :func:`is_uninorm` and :func:`in_class_ub`, kept
        with the table by tagged key ``("uninorm", e)`` / ``("ub", e)``."""
        return {}

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
    each ``a`` in carrier order U(a, .) becomes a translation table (itself
    one ``bytes.translate`` of the carrier position of every id through row
    a's bytes), so one ``bytes.translate`` of all the rows gives
    U(a, U(b, c)) for every (b, c) at once, compared with the rows
    U(U(a, b), .) that row a picks.
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
    # lattice, so the rest of the 256 bytes is padding.  `gather` holds the
    # carrier position of each x (len(carrier) outside it), so translating
    # it through row a's bytes, then 0xFF, then filler, is that table.
    gather = bytes([pos.get(x, len(carrier)) for x in range(t.lattice.n)])
    tail = b"\xff" + bytes(255 - len(carrier))
    pad = bytes(256 - t.lattice.n)
    for a, row_a, bytes_a in zip(carrier, values, rows):
        u_a = gather.translate(bytes_a + tail) + pad
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


def first_monotonicity_witness(
    t: OpTable, *, both_sides: bool
) -> Optional[MonotonicityWitness]:
    """First pair a <= b and argument c where the table is not increasing.

    One side suffices for commutative tables; ``both_sides`` is set by the
    caller when commutativity already failed.  Enumeration follows carrier
    presentation order, so reports are reproducible.

    The pairs are not all scanned against every c.  x <= y exactly when
    down(x) is a subset of down(y), so each carrier element a gets one int
    ``D[a]`` whose field c is the down-set mask of U(a, c), w = ceil(n / 8)
    bytes per field, little-endian; with ``both_sides`` the fields of U(c, a)
    follow.  All lines are built at once: the cells, as bytes, go through
    one ``bytes.translate`` per byte of w into every w-th byte of one
    buffer, which each line reads a slice of.  From the top of the carrier
    down, ``N[a]`` is ``D[a]`` ANDed with ``N[b]`` for every upper cover b
    of a in the order induced on the carrier: a meet of down-sets is a
    down-set, so ``N[a]`` holds in field c the down-set of the meet of
    U(b, c) over all b >= a, and it differs from ``D[a]`` exactly when
    some b > a and some c have U(a, c) not <= U(b, c).  The first such
    ``a`` in carrier order is the witness's.  Its b is the
    first b > a in carrier order with ``drop = D[a] & ~D[b]`` non-zero: a
    set field c of the first half is U(a, c) not <= U(b, c), of the second
    U(c, a) not <= U(c, b).  The lowest set field of each half gives c, the
    left side winning at equal c, which is the witness a per-cell
    (b, c, side) scan would name.  O(lines * (n + carrier covers)) big-int
    operations on n * w-byte ints instead of O(n^3) cell comparisons.
    """
    lat = t.lattice
    carrier = t.carrier
    cm = t.carrier_mask
    covers = lat.upper_covers if cm == lat.all_mask else lat.upper_covers_within(cm)
    width = (lat.n + 7) // 8
    cells = map(bytes, t.values)
    if both_sides:
        cells = chain.from_iterable(zip(cells, map(bytes, zip(*t.values))))
    cells = b"".join(cells)  # every line's cells, line after line
    # byte j of field c is byte j of the cell's down-mask: one translation
    # of all cells per byte of the width, written every width-th byte; the
    # table of byte j is downs[j::width], zero past the carrier
    downs = b"".join([d.to_bytes(width, "little") for d in lat.down]).ljust(256 * width, b"\0")
    fields = bytearray(len(cells) * width)
    for j in range(width):
        fields[j::width] = cells.translate(downs[j::width])
    fields = bytes(fields)  # slices of bytes cost less than of a bytearray
    size = len(fields) // len(carrier)
    D = {
        a: int.from_bytes(fields[start:start + size], "little")
        for a, start in zip(carrier, range(0, len(fields), size))
    }
    N = {}
    up = lat.up
    # from the top down: anything above a has fewer elements above it than a
    for a in sorted(carrier, key=lambda x: up[x].bit_count()):
        meet = D[a]
        rest = covers[a]
        while rest:
            low = rest & -rest
            meet &= N[low.bit_length() - 1]
            rest ^= low
        N[a] = meet
    a = next((a for a in carrier if N[a] != D[a]), None)
    if a is None:
        return None
    k = len(carrier)
    bits = 8 * width
    half = k * bits
    above = up[a] & ~(1 << a)
    line_a = D[a]
    for b in carrier:
        drop = line_a & ~D[b] if above >> b & 1 else 0
        if drop:
            left = _lowest_field(drop & ((1 << half) - 1), bits, k)
            right = _lowest_field(drop >> half, bits, k)
            if left <= right:  # at equal c the left side is named first
                c = carrier[left]
                return (a, b, c, t.value(a, c), t.value(b, c), "left")
            c = carrier[right]
            return (a, b, c, t.value(c, a), t.value(c, b), "right")
    raise AssertionError("the masks found a drop at this element")


def _lowest_field(mask: int, bits: int, empty: int) -> int:
    """Index of the lowest non-zero ``bits``-bit field of ``mask``;
    ``empty`` when ``mask`` is 0."""
    return ((mask & -mask).bit_length() - 1) // bits if mask else empty


def first_neutral_witness(t: OpTable, e: ElementId) -> Optional[NeutralWitness]:
    """First x in carrier order with U(e,x) != x, else U(x,e) != x.

    Row e and column e are compared whole with the carrier; only on a
    mismatch are their cells walked to name the witness.
    """
    carrier = t.carrier
    i = t.pos[e]
    row, col = t.values[i], tuple(map(itemgetter(i), t.values))
    if row != carrier or col != carrier:
        for x, ex, xe in zip(carrier, row, col):
            if ex != x:
                return (x, ex)
            if xe != x:
                return (x, xe)
    return None


def first_closure_witness(t: OpTable) -> Optional[ClosureWitness]:
    in_carrier = set(t.carrier)
    for a, row in zip(t.carrier, t.values):
        if not in_carrier.issuperset(row):
            for b, v in zip(t.carrier, row):
                if v not in in_carrier:
                    return (a, b, v)
    return None


def _kept(t: OpTable, name: str, compute: Callable[[OpTable, ElementId], object], e: ElementId):
    """The verdict ``t.kept[name, e]``, ``compute(t, e)`` on first use and
    kept (of racing threads, the first to store it wins)."""
    kept = t.kept
    verdict = kept.get((name, e))
    if verdict is None:
        verdict = kept.setdefault((name, e), compute(t, e))
    return verdict


def is_uninorm(t: OpTable, e: ElementId) -> AxiomReport:
    """Run all five uninorm checks exhaustively with the given neutral.
    Computed once per table and neutral and kept on the table."""
    if e not in t.pos:
        raise NeutralOutsideCarrier(
            f"neutral {t.lattice.name(e)!r} is outside the table carrier"
        )
    return _kept(t, "uninorm", _axiom_battery, e)


def _axiom_battery(t: OpTable, e: ElementId) -> AxiomReport:
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
    """Values landing in [bottom, e] force both arguments into [bottom, e].
    Computed once per table and neutral and kept on the table."""
    return _kept(t, "ub", _scan_ub, e)


def _scan_ub(t: OpTable, e: ElementId) -> bool:
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
