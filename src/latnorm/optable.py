"""Binary operation tables over lattice carriers and their axiom checks.

An :class:`OpTable` is a raw candidate: it may be non-commutative,
non-associative, or take values outside its carrier.  Verification is a
separate act (:func:`is_uninorm` and friends) that runs every check
exhaustively and reports the first violation per axiom, with a witness
that can be re-evaluated against the table.

A table stores its cells as one row-major ``bytes`` buffer of element
ids (:attr:`OpTable.buf`; ids stay below ``MAX_ELEMENTS`` = 64, so each
fits in a byte), built once per table and handed to the one constructor,
``OpTable(lattice, carrier, cells)``, which maps the carrier's positions
itself.  The join-form construction, the pinch t-norms, the generator's
skeletons and :func:`restrict` build it a row at a time, each row one
gather (:func:`_gather`, a ``bytes.translate`` through the row's values);
the file reader resolves it from the names in one lookup,
:func:`meet_table` in one comprehension; mutations and errata copy another
table's and set cells; :func:`rewrap` shares it.
``values``, the rows as tuples, is a view derived from it on first use.

Witnesses are the lexicographically first in carrier presentation order,
so reports are reproducible run to run.  The scans read the buffer whole,
or its row and column slices, rather than single cells: commutativity
compares it with its transpose (the join of its strided column slices),
closure deletes the carrier's ids from it with one ``bytes.translate`` (an
empty result means closed), the neutral check compares row e and column e
with the carrier, associativity translates the buffer through each row
(``bytes.translate``), and monotonicity is bit-sliced.  There each table
line (a row, plus its column when both arguments are checked) is one int
whose field c is the down-set mask of the cell (all lines at once: one
``bytes.translate`` of the buffer, or of rows and columns interleaved,
per byte of the mask), and the ints are ANDed down the covers of the
lattice, on a sub-carrier down a relation read off them that holds every
cover of the order it inherits, so one comparison per element decides it
(O(lines * (n + covers)) big-int operations on ints of n * ceil(n / 8) bytes);
the same ints name the witness, one AND per element above the failing
one.  Only where a commutativity, neutral or associativity row fails does
a walk of its cells name the witness.  Every witness is the one a
per-cell scan of every cell would return; the per-cell loops are kept as
the reference in ``tests/test_battery_oracle.py``, with those of the
``ub`` class scan, which marks the cells landing in [bottom, e] with one
``bytes.translate`` and compares them, as an int, with the block where
both arguments lie in [bottom, e], and of the ``umax`` scan and
:meth:`OpTable.diff`, which compare row and column slices.

On the n = 64 tables of the ``verify-large`` benchmark (seed 7), the
battery of a passing table takes 0.57-0.65 ms: associativity 0.41-0.44 ms,
monotonicity 0.14-0.18 ms, commutativity 9 us and closure 2 us; the
``ub`` scan takes 36-52 us (best of four runs of 7 x 20 calls; 2-core
Intel Xeon, Python 3.11).

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

from functools import cached_property
from itertools import chain
from typing import Callable, NamedTuple, Optional

from .lattice import BoundedLattice, ElementId, ids_of, mask_of


class OpTableError(Exception):
    pass


class NeutralOutsideCarrier(OpTableError):
    pass


class SubNotContained(OpTableError):
    pass


_IDS = bytes(range(256))  # _IDS[:n]: every element id of an n-element lattice


def _gather(index: bytes, values: bytes) -> bytes:
    """Byte i is ``values[index[i]]``: one ``bytes.translate`` of ``index``
    through ``values`` padded to a translation table (``values`` holds at
    most 256 bytes; an index past it reads 0)."""
    return index.translate(values.ljust(256, b"\0"))


def _refuse_ids(n: int, error: type, *named) -> None:
    """Raise ``error`` naming the first id, over the ``(what, ids)`` pairs
    of ``named`` in order, that is no element id of an ``n``-element
    lattice."""
    for what, items in named:
        for x in items:
            if not (isinstance(x, int) and 0 <= x < n):
                raise error(f"{what} {x!r} is no element of the {n}-element lattice")


class OpTable:
    """A binary operation table on a sub-carrier of a lattice.

    ``carrier`` lists element ids in presentation order (rows and columns
    follow it).  The cells are one row-major ``bytes`` buffer ``buf`` of
    element ids (ids stay below ``MAX_ELEMENTS`` = 64, so each fits in a
    byte): byte ``i * len(carrier) + j`` is the result of row element i
    applied to column element j.  Values may be any lattice element, and
    nothing else.  ``values[i][j]`` is the same cell, in a tuple-of-tuples
    view of the buffer derived on first use.

    ``OpTable(lattice, carrier, cells)`` takes the row-major cells:
    ``bytes``, which the table keeps as its buffer, or any sequence of ids.
    It raises :class:`OpTableError` when the table is not square, the
    carrier repeats an element, or an id is no element of ``lattice``.
    Tables are immutable.
    """

    def __init__(self, lattice: BoundedLattice, carrier, cells):
        carrier = tuple(carrier)
        k = len(carrier)
        if len(cells) != k * k:
            raise OpTableError("values table is not square over the carrier")
        pos = dict(zip(carrier, range(k)))
        if len(pos) != k:
            raise OpTableError("carrier has repeated elements")
        try:
            carrier_ids, buf = bytes(carrier), bytes(cells)  # bytes(b) is b
        except (TypeError, ValueError):  # an id that is no byte
            carrier_ids = buf = b"\xff"
        # deleting every id of the lattice leaves the ids that are none
        ids = _IDS[:lattice.n]
        if carrier_ids.translate(None, ids) or buf.translate(None, ids):
            _refuse_ids(lattice.n, OpTableError,
                        ("carrier element", carrier), ("cell value", cells))
        attrs = self.__dict__
        attrs["lattice"], attrs["carrier"], attrs["pos"] = lattice, carrier, pos
        attrs["carrier_ids"], attrs["buf"] = carrier_ids, buf

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: tables are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: tables are immutable")

    @cached_property
    def values(self) -> tuple[tuple[ElementId, ...], ...]:
        return tuple(map(tuple, _rows(self.buf, len(self.carrier))))

    @cached_property
    def carrier_mask(self) -> int:
        return mask_of(self.carrier)

    @cached_property
    def kept(self) -> dict:
        """The verdicts of :func:`is_uninorm` and :func:`in_class_ub`, kept
        with the table by tagged key ``("uninorm", e)`` / ``("ub", e)``."""
        return {}

    def value(self, a: ElementId, b: ElementId) -> ElementId:
        pos = self.pos
        return self.buf[pos[a] * len(self.carrier) + pos[b]]

    def row(self, a: ElementId) -> bytes:
        """Row ``a``'s cells, in carrier order."""
        k = len(self.carrier)
        start = self.pos[a] * k
        return self.buf[start:start + k]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OpTable)
            and self.lattice == other.lattice
            and self.carrier == other.carrier
            and self.buf == other.buf
        )

    def __hash__(self) -> int:
        return hash((self.carrier, self.buf))

    def __repr__(self) -> str:
        return f"OpTable(lattice={self.lattice!r}, carrier={self.carrier!r}, values={self.values!r})"

    def diff(self, other: "OpTable") -> tuple[tuple[ElementId, ElementId], ...]:
        """Cells (row, col) where the two tables disagree; carriers must match."""
        if set(self.carrier) != set(other.carrier):
            raise OpTableError("cannot diff tables over different carriers")
        carrier, k = self.carrier, len(self.carrier)
        theirs = restrict(other, carrier).buf  # in this carrier's order
        if theirs == self.buf:
            return ()
        return tuple(
            (a, b)
            for a, mine, yours in zip(carrier, _rows(self.buf, k), _rows(theirs, k))
            if mine != yours
            for b, x, y in zip(carrier, mine, yours)
            if x != y
        )


def _rows(buf: bytes, k: int) -> list[bytes]:
    """The rows of a row-major ``k``-column buffer."""
    return [buf[start:start + k] for start in range(0, len(buf), k or 1)]


def rewrap(t: OpTable, lattice: BoundedLattice) -> OpTable:
    """The same cells on the same carrier, read in ``lattice``, sharing the buffer.

    With ``lattice = t.lattice.dual()`` this transports a table across
    duality; a second call with the original lattice brings it back.
    """
    return OpTable(lattice, t.carrier, t.buf)


def meet_table(lattice: BoundedLattice, carrier=None) -> OpTable:
    carrier = tuple(range(lattice.n)) if carrier is None else tuple(carrier)
    return OpTable(lattice, carrier, lattice.dual().join_cells(carrier))


# -- axiom verification ----------------------------------------------------

CommutativityWitness = tuple  # (a, b, ab, ba)
AssociativityWitness = tuple  # (a, b, c, left, right)
MonotonicityWitness = tuple   # (a, b, c, ua, ub, side); a <= b, side "left":
                              # U(a,c) !<= U(b,c); side "right": U(c,a) !<= U(c,b)
NeutralWitness = tuple        # (x, got) where U(e,x) or U(x,e) == got != x
ClosureWitness = tuple        # (a, b, value) with value outside carrier


class AxiomReport(NamedTuple):
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

    The buffer is compared whole with its transpose, the join of its
    strided column slices.  On a mismatch, row i is compared with column i
    until one differs; every pair before row i agreed, so the first
    mismatching cell of that row lies past the diagonal.
    """
    carrier, buf = t.carrier, t.buf
    k = len(carrier)
    transposed = b"".join([buf[j::k] for j in range(k)])
    if transposed == buf:
        return None
    for a, row, col in zip(carrier, _rows(buf, k), _rows(transposed, k)):
        if row != col:
            for b, ab, ba in zip(carrier, row, col):
                if ab != ba:
                    return (a, b, ab, ba)
    raise AssertionError("the buffer differs from its transpose")


def first_associativity_witness(t: OpTable) -> Optional[AssociativityWitness]:
    """All-triples check; the ground-truth associativity oracle.

    Every triple is decided, a whole row at a time.  The rows are slices
    of the table's buffer, and for each ``a`` in carrier order U(a, .)
    becomes a translation table (itself one ``bytes.translate`` of the
    carrier position of every id through row a's bytes), so one
    ``bytes.translate`` of the whole buffer gives U(a, U(b, c)) for every
    (b, c) at once, compared with the rows U(U(a, b), .) that row a picks.
    A mismatching ``a``, or one whose row leaves the carrier (one
    delete-translate of the buffer tells whether any row does), is
    rescanned row by row, and a mismatching (a, b) cell by cell, so the
    witness is the lexicographically first triple of a per-cell scan, and
    cells outside the carrier are skipped as there.
    """
    carrier, buf, pos = t.carrier, t.buf, t.pos
    carrier_ids = t.carrier_ids
    n, k = t.lattice.n, len(carrier)
    rows = _rows(buf, k)
    row_of = [b""] * n  # by element id
    for a, row in zip(carrier, rows):
        row_of[a] = row
    closed = not buf.translate(None, carrier_ids)
    # byte x of the table of row a is U(a, x), or 0xFF, which no element id
    # reaches, where x is outside the carrier; no cell holds an id past the
    # lattice, so the rest of the 256 bytes is padding.  `gather` holds the
    # carrier position of each x (k outside it), so gathering row a's
    # bytes, then 0xFF, through it, padded, is that table.
    gather = bytes([pos.get(x, k) for x in range(n)])
    for a, row_a in zip(carrier, rows):
        u_a = _gather(gather, row_a + b"\xff").ljust(256, b"\0")
        inside = closed or not row_a.translate(None, carrier_ids)
        if inside and buf.translate(u_a) == b"".join(map(row_of.__getitem__, row_a)):
            continue
        for b, ab, row_b in zip(carrier, row_a, rows):
            if ab not in pos:
                continue  # closure violation is reported separately
            row_ab = row_of[ab]
            if row_b.translate(u_a) == row_ab:
                continue
            for c, bc, left in zip(carrier, row_b, row_ab):
                if bc not in pos:
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
    follow.  All lines are built at once: their cells are the table's
    buffer itself, or with ``both_sides`` each row followed by its column
    (a strided slice), and go through one ``bytes.translate`` per byte of w
    into every w-th byte of one buffer, which each line reads a slice of.
    From the top of the carrier down, ``N[a]`` is ``D[a]`` ANDed with
    ``N[b]`` for every b in R(a), below: a meet of down-sets is a
    down-set, so ``N[a]`` holds in field c the down-set of the meet of
    U(b, c) over all b >= a, and it differs from ``D[a]`` exactly when
    some b > a and some c have U(a, c) not <= U(b, c).  The first such
    ``a`` in carrier order is the witness's.  Its b is the first b > a in
    carrier order with ``drop = D[a] & ~D[b]`` non-zero: a set field c of
    the first half is U(a, c) not <= U(b, c), of the second U(c, a) not
    <= U(c, b).  The lowest set field of each half gives c, the left side
    winning at equal c, which is the witness a per-cell (b, c, side) scan
    would name.  O(lines * (n + |R|)) big-int operations on n * w-byte
    ints instead of O(n^3) cell comparisons; an empty carrier has no line
    and passes.

    On the whole lattice R(a) is a's upper covers.  On another carrier C,
    R(a) is the elements of C strictly above a that lie strictly above
    none of a's lattice covers in C (those covers included), one OR per
    cover.  Every element of R(a) lies above a, and R(a) holds every cover
    d of a in the order C inherits: were d strictly above a cover b of a
    in C, then a < b < d in C.  So the ANDs down R reach every b > a in
    C, and no other.
    """
    lat = t.lattice
    carrier = t.carrier
    k = len(carrier)
    if not k:
        return None
    width = (lat.n + 7) // 8
    cells = t.buf  # every line's cells, line after line
    if both_sides:
        cols = [cells[j::k] for j in range(k)]
        cells = b"".join(chain.from_iterable(zip(_rows(cells, k), cols)))
    # byte j of field c is byte j of the cell's down-mask: one translation
    # of all cells per byte of the width, written every width-th byte; the
    # table of byte j is downs[j::width], zero past the carrier
    downs = b"".join([d.to_bytes(width, "little") for d in lat.down]).ljust(256 * width, b"\0")
    fields = bytearray(len(cells) * width)
    for j in range(width):
        fields[j::width] = cells.translate(downs[j::width])
    fields = bytes(fields)  # slices of bytes cost less than of a bytearray
    size = len(fields) // k
    D = {
        a: int.from_bytes(fields[start:start + size], "little")
        for a, start in zip(carrier, range(0, len(fields), size))
    }
    N = {}
    up, covers = lat.up, lat.upper_covers
    cm = t.carrier_mask
    whole = cm == lat.all_mask
    # from the top down: anything above a has fewer elements above it than a
    for a in sorted(carrier, key=lambda x: up[x].bit_count()):
        meet = D[a]
        rest = covers[a]
        if not whole:
            # R(a): a's covers in the carrier, then what lies above none of them
            rest &= cm
            beyond = 1 << a
            while rest:
                low = rest & -rest
                b = low.bit_length() - 1
                meet &= N[b]
                beyond |= up[b]
                rest ^= low
            rest = up[a] & cm & ~beyond
        while rest:
            low = rest & -rest
            meet &= N[low.bit_length() - 1]
            rest ^= low
        N[a] = meet
    a = next((a for a in carrier if N[a] != D[a]), None)
    if a is None:
        return None
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
    carrier, buf = t.carrier, t.buf
    k = len(carrier)
    i = t.pos[e]
    row, col = buf[i * k:i * k + k], buf[i::k]
    if row != t.carrier_ids or col != t.carrier_ids:
        for x, ex, xe in zip(carrier, row, col):
            if ex != x:
                return (x, ex)
            if xe != x:
                return (x, xe)
    return None


def first_closure_witness(t: OpTable) -> Optional[ClosureWitness]:
    """First cell in row-major carrier order whose value is outside the
    carrier.  Deleting the carrier's ids from the buffer leaves the values
    outside it, in cell order; the first such cell is the first cell that
    holds the first of them."""
    stray = t.buf.translate(None, t.carrier_ids)
    if not stray:
        return None
    i, j = divmod(t.buf.index(stray[0]), len(t.carrier))
    return (t.carrier[i], t.carrier[j], stray[0])


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
        raise _outside_carrier(t, (e,), NeutralOutsideCarrier, "neutral", _NEUTRAL_OUTSIDE)
    return _kept(t, "uninorm", _axiom_battery, e)


_NEUTRAL_OUTSIDE = "neutral {} is outside the table carrier"


def _outside_carrier(t: OpTable, ids, error: type, what: str, text: str) -> OpTableError:
    """The refusal of ``ids``, some of which lie outside the carrier of
    ``t``: raise ``error`` naming the first id that is no element of the
    lattice (``what`` names its role), else return ``error`` with ``text``
    naming the least element outside the carrier."""
    _refuse_ids(t.lattice.n, error, (what, ids))
    return error(text.format(repr(t.lattice.name(min(set(ids) - t.pos.keys())))))


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
    """Restrict the table to sub x sub, keeping the sub order given: each
    row of ``sub`` gathered through the carrier positions of ``sub``."""
    sub = tuple(sub)
    pos = t.pos
    if not pos.keys() >= set(sub):
        raise _outside_carrier(t, sub, SubNotContained, "sub-carrier element",
                               "element {} is not in the table carrier")
    cols, k, buf = bytes(map(pos.__getitem__, sub)), len(t.carrier), t.buf
    cells = b"".join([_gather(cols, buf[i * k:i * k + k]) for i in cols])
    return OpTable(t.lattice, sub, cells)


# -- class predicates ------------------------------------------------------


def _below_in_carrier(t: OpTable, e: ElementId) -> int:
    """The mask of the carrier's elements in [bottom, e], bottom the
    carrier's own; ``e`` must lie in the carrier, and the carrier must be
    an interval."""
    if e not in t.pos:
        raise _outside_carrier(t, (e,), NeutralOutsideCarrier, "neutral", _NEUTRAL_OUTSIDE)
    cm = t.carrier_mask
    bounds = t.lattice.extremes(cm)
    if bounds is None:
        raise OpTableError("carrier has no extreme element; not an interval")
    return t.lattice.interval_mask(bounds[0], e) & cm


def in_class_umax(t: OpTable, e: ElementId) -> bool:
    """Projection onto the second argument on [bottom, e) x (carrier - [bottom, e]).

    The commuted rectangle is checked as well so the predicate is
    meaningful on raw candidate tables.
    """
    below = _below_in_carrier(t, e)
    buf, k = t.buf, len(t.carrier)
    # the carrier positions of the elements outside [bottom, e]; gathered
    # from a row (or a column) they must give those elements themselves
    outside = bytes([i for i, b in enumerate(t.carrier) if not below >> b & 1])
    want = _gather(outside, t.carrier_ids)
    for a in ids_of(below & ~(1 << e)):
        i = t.pos[a]
        if (_gather(outside, buf[i * k:i * k + k]) != want
                or _gather(outside, buf[i::k]) != want):
            return False
    return True


def in_class_ub(t: OpTable, e: ElementId) -> bool:
    """Values landing in [bottom, e] force both arguments into [bottom, e].
    Computed once per table and neutral and kept on the table."""
    return _kept(t, "ub", _scan_ub, e)


def _scan_ub(t: OpTable, e: ElementId) -> bool:
    """One translate of the buffer marks the cells whose value lands in
    [bottom, e] with a 1 byte; as an int, it must lie inside the mask of
    the cells whose arguments are both in [bottom, e]."""
    below = _below_in_carrier(t, e)
    lands = bytearray(256)
    for v in ids_of(below):
        lands[v] = 1
    inside = t.carrier_ids.translate(lands)  # 1 on the carrier's [bottom, e]
    zeros = bytes(len(inside))
    block = b"".join([inside if x else zeros for x in inside])
    landed = int.from_bytes(t.buf.translate(lands), "little")
    return not landed & ~int.from_bytes(block, "little")


def in_class_ut(t: OpTable, e: ElementId) -> bool:
    """Values landing in [e, top] force both arguments into [e, top]."""
    return in_class_ub(rewrap(t, t.lattice.dual()), e)


def in_class_umin(t: OpTable, e: ElementId) -> bool:
    """Projection onto the second argument on (e, top] x (carrier - [e, top])."""
    return in_class_umax(rewrap(t, t.lattice.dual()), e)
