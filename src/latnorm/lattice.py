"""Finite bounded lattices over a bit-mask order relation.

Elements are dense integer identifiers 0..n-1; names are for I/O only.
The order relation is stored as bit masks (``up[i]`` has bit ``j`` set iff
``i <= j``), so every comparability query is O(1) and the whole carrier
fits in a machine word for the sizes this library targets (n <= 64).

All validation happens at construction time: a ``BoundedLattice`` that
exists is reflexive, antisymmetric, transitive, bounded, and has a unique
join and meet for every pair.  There is one validation path.  Its core,
:func:`lattice_from_edges`, takes the names and one mask of direct
successors per element; :func:`build_lattice` is its name front-end, which
checks the names and resolves (lower, upper) name pairs to those masks.
The core walks the edges twice, along the ids when every edge goes up
(as generated, catalogued and corpus lattices list them), else along
Kahn's order: backwards to close ``up`` and take the upper covers, which
are generating edges, forwards to push ``down`` along the covers.  It
checks one join per pair of upper covers of one element: a finite poset
with a bottom in which those joins exist is a lattice.  No join or meet
table is stored: a join is one dict lookup of ``up[a] & up[b]``, a meet
the same over ``down``.
Instances are immutable and safe to share across threads: the dual and
the hypothesis frame reports are derived once, on first use, and kept;
the :func:`case_regions` blocks are derived on every call, a few mask
operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple, Optional

ElementId = int

MAX_ELEMENTS = 64  # the design limit of the bit-mask representation


class LatticeError(Exception):
    """Base class for order-structure construction failures."""


class NotAPoset(LatticeError):
    """Input relation is not a partial order (cycle, or bad names)."""


class BadElementName(NotAPoset, ValueError):
    """An element name is empty or repeated.  Also a ``ValueError``, so file
    readers report it as malformed input rather than as a bad order."""


class UnknownElement(KeyError):
    """A name that is no element; ``str()`` is the message, not its repr."""

    __str__ = Exception.__str__


class NotALattice(LatticeError):
    """Some pair has no unique least upper bound or greatest lower bound."""

    def __init__(self, kind: str, a: str, b: str):
        super().__init__(f"no unique {kind} for {a!r} and {b!r}")
        self.kind = kind
        self.pair = (a, b)


class NotBounded(LatticeError):
    """The poset lacks a global bottom or top element."""


def _bits(mask: int):
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True, eq=False)
class BoundedLattice:
    """A finite bounded lattice.  Use :func:`build_lattice` or
    :func:`lattice_from_edges` to construct one."""

    names: tuple[str, ...]
    up: tuple[int, ...]    # up[i] bit j <=> i <= j
    down: tuple[int, ...]  # down[i] bit j <=> j <= i
    bottom: ElementId
    top: ElementId
    upper_covers: tuple[int, ...] = field(repr=False)  # bit j of entry i <=> i is covered by j
    _by_up: dict = field(repr=False)    # up-mask -> element
    _by_down: dict = field(repr=False)  # down-mask -> element
    _index: dict = field(repr=False)    # name -> element

    # -- identity ---------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.names)

    @property
    def all_mask(self) -> int:
        return (1 << self.n) - 1

    def index(self, name: str) -> ElementId:
        try:
            return self._index[name]
        except KeyError:
            raise UnknownElement(f"unknown element name {name!r}") from None

    def name(self, a: ElementId) -> str:
        return self.names[a]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BoundedLattice)
            and self.names == other.names
            and self.up == other.up
        )

    def __hash__(self) -> int:
        return hash((self.names, self.up))

    def __repr__(self) -> str:
        return f"BoundedLattice({len(self.names)} elements)"

    # -- order queries ----------------------------------------------------

    def leq(self, a: ElementId, b: ElementId) -> bool:
        return bool(self.up[a] >> b & 1)

    def lt(self, a: ElementId, b: ElementId) -> bool:
        return a != b and self.leq(a, b)

    def comparable(self, a: ElementId, b: ElementId) -> bool:
        return self.leq(a, b) or self.leq(b, a)

    def parallel(self, a: ElementId, b: ElementId) -> bool:
        return not self.comparable(a, b)

    def join(self, a: ElementId, b: ElementId) -> ElementId:
        # the common upper bounds of a and b are the elements above a v b
        return self._by_up[self.up[a] & self.up[b]]

    def meet(self, a: ElementId, b: ElementId) -> ElementId:
        return self._by_down[self.down[a] & self.down[b]]

    def join_cells(self, ids) -> bytes:
        """x v y for each x, then each y, of ``ids``: the row-major cells of
        the join on ``ids``, one lookup per cell and no Python call (324-358
        us against 503-524 us for a :meth:`join` per cell on 2^6, 2-core Xeon)."""
        by_up, ups = self._by_up, [self.up[x] for x in ids]
        return bytes([by_up[u & v] for u in ups for v in ups])

    # -- subsets ----------------------------------------------------------

    def interval_mask(self, lo: ElementId, hi: ElementId) -> int:
        return self.up[lo] & self.down[hi]

    def interval(self, lo: ElementId, hi: ElementId) -> tuple[ElementId, ...]:
        """Elements x with lo <= x <= hi (empty when lo, hi incomparable).
        An open end is the mask without it: ``interval_mask(lo, hi) & ~(1 << lo)``."""
        return tuple(_bits(self.interval_mask(lo, hi)))

    def extremes(self, mask: int) -> Optional[tuple[ElementId, ElementId]]:
        """(least, greatest) element of the subset ``mask``; ``None`` when it
        lacks either, so a subset without both is not an interval."""
        lo = hi = None
        for a in _bits(mask):
            if mask & ~self.up[a] == 0:
                lo = a
            if mask & ~self.down[a] == 0:
                hi = a
        if lo is None or hi is None:
            return None
        return lo, hi

    def upper_covers_within(self, mask: int) -> tuple[int, ...]:
        """Mask of the upper covers of each element of ``mask`` in the order
        the lattice induces on ``mask`` (0 for elements outside it).  When
        ``mask`` is convex (its up-closure and down-closure meet in
        ``mask``, as an interval's do) these are the lattice's covers inside
        ``mask`` (on a 2-core Xeon, 19-20 us against 76 us for the scan on
        56 elements of the 8 x 8 grid, 21 against 136 on 2^6, 21 against
        47-49 on 63 of the 64-chain); otherwise they include pairs
        the lattice does not cover, found by a scan along a linear extension."""
        up, down = self.up, self.down
        above = below = 0
        for x in _bits(mask):
            above |= up[x]
            below |= down[x]
        if above & below == mask:
            return tuple(c & mask if mask >> a & 1 else 0 for a, c in enumerate(self.upper_covers))
        # a linear extension, bottom first: anything above x comes after x
        rank = sorted(_bits(mask), key=lambda x: down[x].bit_count())
        covers = [0] * self.n
        for r, v in enumerate(rank):
            rest = up[v] & mask & ~(1 << v)
            for w in rank[r + 1:]:
                if not rest:
                    break
                if rest >> w & 1:  # nothing left lies below w: a cover
                    covers[v] |= 1 << w
                    rest &= ~up[w]
        return tuple(covers)

    @cached_property
    def kept(self) -> dict:
        """The hypothesis frame reports of
        :func:`latnorm.construct.frame_report`, kept with the lattice by
        tagged key ``("frame", ...)``."""
        return {}

    def incomparables_mask(self, a: ElementId) -> int:
        return self.all_mask & ~(self.up[a] | self.down[a])

    def dual(self) -> "BoundedLattice":
        """Same carrier with the order reversed; an involution.  Built once and
        kept (of racing threads, the first to store it wins), so
        ``lat.dual().dual() is lat``."""
        dual = self.__dict__.get("_dual")
        if dual is None:
            lower_covers = [0] * self.n
            for a, mask in enumerate(self.upper_covers):
                for b in _bits(mask):
                    lower_covers[b] |= 1 << a
            built = BoundedLattice(
                names=self.names, up=self.down, down=self.up, bottom=self.top, top=self.bottom,
                upper_covers=tuple(lower_covers),
                _by_up=self._by_down, _by_down=self._by_up, _index=self._index,
            )
            built.__dict__["_dual"] = self
            dual = self.__dict__.setdefault("_dual", built)
        return dual


class CaseRegions(NamedTuple):
    """The six-block partition of the carrier induced by neutral <= threshold,
    a tuple of masks in the order of the fields below.

    Blocks (as masks): ``low`` = [bottom, neutral]; ``mid`` = (neutral,
    threshold]; ``side_inner`` = incomparable to neutral, comparable to
    threshold (so below it); ``side_outer`` = comparable to neutral (so
    above it), incomparable to threshold; ``isolated`` = incomparable to
    both; ``high`` = (threshold, top].  [bottom, threshold] is ``low | mid |
    side_inner``.  The constructions, reports and anchor classes read these.
    """

    low: int
    mid: int
    side_inner: int
    side_outer: int
    isolated: int
    high: int


# The three blocks of :func:`case_regions` that hold the anchor classes, each
# a rule on the order masks of the neutral and the threshold alone:
# (up_n, down_n, up_t, down_t) -> block.  ``~(up | down)`` is the complement
# of an element's comparables, a negative int that a carrier mask bounds.
ANCHOR_BLOCK_RULES: dict[str, Callable[[int, int, int, int], int]] = {
    "low": lambda up_n, down_n, up_t, down_t: down_n,
    "side_inner": lambda up_n, down_n, up_t, down_t: down_t & ~(up_n | down_n),
    "side_outer": lambda up_n, down_n, up_t, down_t: up_n & ~(up_t | down_t),
}


def case_regions(lat: BoundedLattice, neutral: ElementId, threshold: ElementId) -> CaseRegions:
    """Partition the carrier for the threshold constructions.

    Requires neutral <= threshold.  The six blocks are pairwise disjoint
    and cover the carrier; this is asserted because every construction
    case split relies on it.  Derived on every call, from the order masks
    of the pair.
    """
    up_n, down_n = lat.up[neutral], lat.down[neutral]
    up_t, down_t = lat.up[threshold], lat.down[threshold]
    if not up_n >> threshold & 1:
        raise LatticeError(
            f"neutral {lat.name(neutral)!r} is not below threshold {lat.name(threshold)!r}"
        )
    masks = (up_n, down_n, up_t, down_t)
    low = ANCHOR_BLOCK_RULES["low"](*masks)
    side_inner = ANCHOR_BLOCK_RULES["side_inner"](*masks)
    side_outer = ANCHOR_BLOCK_RULES["side_outer"](*masks)
    all_mask = lat.up[lat.bottom]  # the carrier
    mid = up_n & down_t & ~(1 << neutral)
    isolated = all_mask & ~(up_n | down_n | up_t | down_t)
    high = up_t & ~(1 << threshold)
    union = low | mid | side_inner | side_outer | isolated | high
    # the sum exceeds the union exactly when two blocks share a bit
    assert low + mid + side_inner + side_outer + isolated + high == union, "case regions overlap"
    assert union == all_mask, "case regions do not cover the carrier"
    return CaseRegions(low, mid, side_inner, side_outer, isolated, high)


def _closure(up: list[int], n: int) -> None:
    # Warshall over bit rows: one pass per intermediate element.
    for k in range(n):
        row_k = up[k]
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= row_k


def _cycle_error(names: tuple[str, ...], succ: list[int]) -> NotAPoset:
    """The antisymmetry error of a cyclic relation (``succ`` holds each
    element's direct successors): the first element, in id order, that
    lies on a cycle, and the smallest other element of that cycle."""
    n = len(names)
    up = [1 << i | succ[i] for i in range(n)]
    _closure(up, n)
    down = [0] * n
    for i in range(n):
        for j in _bits(up[i]):
            down[j] |= 1 << i
    for i in range(n):
        cycle = up[i] & down[i] & ~(1 << i)
        if cycle:
            j = next(_bits(cycle))
            return NotAPoset(f"antisymmetry violated: {names[i]!r} <= {names[j]!r} <= {names[i]!r}")
    raise AssertionError("the relation has no cycle")


def _unbounded_pair_error(names, up, down, by_up, by_down) -> NotALattice:
    """The first pair in id order, the join before the meet, whose common
    upper (or lower) bounds are no element's mask.  Called only when some
    pair has no join, so there is one."""
    for a in range(len(names)):
        joins = [by_up.get(up[a] & mask) for mask in up]
        meets = [by_down.get(down[a] & mask) for mask in down]
        if None in joins or None in meets:
            # pairs (b, a) with b < a passed on row b, so the first miss is
            # past a; at one b the join is checked before the meet
            b = min(row.index(None) for row in (joins, meets) if None in row)
            return NotALattice("join" if joins[b] is None else "meet", names[a], names[b])
    raise AssertionError("every pair has a join and a meet")


def build_lattice(names, order_pairs) -> BoundedLattice:
    """Build and fully validate a bounded lattice from named order pairs.

    This is the name front-end of :func:`lattice_from_edges`.
    ``order_pairs`` lists (lower, upper) name pairs: the cover edges, or
    any other subset of the order that generates it; a pair (x, x) is
    reflexivity.  The names are checked first (:func:`_check_names`), then
    the first pair that names no element is refused.  The pairs are
    resolved to one mask of direct successors per element, and the core
    closes the order and checks every other invariant.
    """
    names = tuple(names)
    _check_names(names)
    try:
        succ = _successor_masks(dict(zip(names, range(len(names)))), len(names), order_pairs)
    except KeyError as exc:  # the first unknown name, lower before upper
        raise NotAPoset(f"order pair references unknown name {exc.args[0]!r}") from None
    return lattice_from_edges(names, succ)


def _check_names(names) -> None:
    """Refuse a carrier that :func:`lattice_from_edges` cannot take: an
    empty one (``NotAPoset``), more than :data:`MAX_ELEMENTS` elements
    (``ValueError``), then the first empty or repeated name.  One test
    passes a good carrier; only a bad one is walked, to name its fault."""
    n = len(names)
    if 0 < n <= MAX_ELEMENTS and all(names) and len(set(names)) == n:
        return
    if not n:
        raise NotAPoset("empty carrier")
    if n > MAX_ELEMENTS:
        raise ValueError(f"{n} elements exceed the limit of {MAX_ELEMENTS}")
    seen = set()
    for name in names:
        if not name:
            raise BadElementName("empty element name")
        if name in seen:
            raise BadElementName(f"duplicate element name {name!r}")
        seen.add(name)


def _successor_masks(index: dict, n: int, pairs) -> list[int]:
    """One mask of direct successors per element of an ``n``-element
    carrier, from the (lower, upper) name pairs ``pairs`` resolved through
    ``index`` (name -> element); a pair (x, x) sets no bit.  An unknown
    name raises the ``KeyError`` of its lookup, the lower name of a pair
    looked up first."""
    succ = [0] * n
    for lo, hi in pairs:
        i, j = index[lo], index[hi]
        if i != j:
            succ[i] |= 1 << j
    return succ


def _kahn_order(names: tuple[str, ...], succ: list[int]) -> list[int]:
    """An order in which every edge goes forward (Kahn's algorithm); when
    it comes out short the edges hold a cycle, named by :func:`_cycle_error`."""
    indegree = [0] * len(succ)
    for mask in succ:
        for w in _bits(mask):
            indegree[w] += 1
    order = [i for i, d in enumerate(indegree) if not d]
    for v in order:
        for w in _bits(succ[v]):
            indegree[w] -= 1
            if not indegree[w]:
                order.append(w)
    if len(order) < len(succ):
        raise _cycle_error(names, succ)
    return order


def lattice_from_edges(names, succ) -> BoundedLattice:
    """Build and fully validate a bounded lattice from id masks.

    ``names`` are distinct, non-empty and at most :data:`MAX_ELEMENTS`
    (:func:`build_lattice` and the file reader check names with
    :func:`_check_names`; this core does not).  ``succ[i]`` is the mask
    of the elements given directly above element ``i``: the upper covers,
    or any other edges whose reflexive-transitive closure is the order.
    A mask with a bit outside the carrier or with its own element's bit
    raises ``ValueError``, an empty carrier ``NotAPoset``.  Then every
    invariant is checked, in this order: antisymmetry, global bounds, and
    a unique join and meet for each pair.

    A valid input costs two walks of its edges along an order in which
    each edge goes forward: the ids, when the mask check sees every edge
    go up (no cycle is then possible), else :func:`_kahn_order`.
    Backwards, ``up[v]`` is v, its successors and ``beyond``, the union
    of their strict up-sets; every cover is a generating edge, so the
    upper covers of v are ``succ[v] & ~beyond``.  Forwards, ``down`` is
    pushed along the covers, which generate the order.  A finite poset
    has a bottom iff it has exactly one minimal element: the first of the
    order is the bottom iff its up-set is the carrier, the last the top
    iff its down-set is; else the first minimal (maximal) id is named.

    A finite poset with a bottom is a lattice iff any two distinct upper
    covers of one element have a join.  Proof, by downward induction on
    z, that any x, y >= z have a join (with x = z or y = z it is the
    other): pick z < x1 <= x and z < y1 <= y with x1 and y1 covering z,
    and let w = x1 v y1 (when x1 = y1, induction at x1 gives x v y).
    Then u = x v w exists by induction at x1, v = y v u by induction at
    y1, and every upper bound of x and y lies above w, then u, then v, so
    v = x v y.  With every join, the meet of a and b is the join of their
    common lower bounds, which include the bottom.  A join of two covers
    exists iff ``up[x1] & up[y1]`` is some element's up-mask, one dict
    lookup per pair: 240 pairs on the Boolean lattice 2^6, against 1,351
    incomparable pairs.  Only when a join is missing does the full
    id-order scan run, to name the first pair without a unique join or
    meet (the join before the meet) in :class:`NotALattice`.  No join or
    meet table is stored: each join is looked up on use (see
    :meth:`BoundedLattice.join`).
    """
    names = tuple(names)
    n = len(names)
    if len(succ) != n:
        raise ValueError(f"{len(succ)} successor masks for {n} elements")
    if not n:
        raise NotAPoset("empty carrier")
    all_mask = (1 << n) - 1
    forward = True
    for i, mask in enumerate(succ):
        if mask & ~all_mask or mask >> i & 1:
            raise ValueError(f"successor mask of element {i} is not a set of other elements")
        if mask & ((1 << i) - 1):
            forward = False
    order = range(n) if forward else _kahn_order(names, succ)

    up = [0] * n
    covers = [0] * n
    for v in reversed(order):
        beyond = 0
        rest = mask = succ[v]
        while rest:
            low = rest & -rest
            beyond |= up[low.bit_length() - 1] ^ low
            rest ^= low
        up[v] = 1 << v | mask | beyond
        covers[v] = mask & ~beyond
    down = [1 << i for i in range(n)]
    for v in order:
        below = down[v]
        rest = covers[v]
        while rest:
            low = rest & -rest
            down[low.bit_length() - 1] |= below
            rest ^= low

    bottom, top = order[0], order[-1]
    if up[bottom] != all_mask:
        minimal = [i for i in range(n) if down[i] == 1 << i]
        raise NotBounded(f"no bottom element; minimal elements include {names[minimal[0]]!r}")
    if down[top] != all_mask:
        maximal = [i for i in range(n) if up[i] == 1 << i]
        raise NotBounded(f"no top element; maximal elements include {names[maximal[0]]!r}")

    by_up = dict(zip(up, range(n)))
    by_down = dict(zip(down, range(n)))
    for rest in covers:
        # every two upper covers of one element have a join
        while rest & (rest - 1):
            low = rest & -rest
            rest ^= low
            up_x = up[low.bit_length() - 1]
            others = rest
            while others:
                low = others & -others
                if (up_x & up[low.bit_length() - 1]) not in by_up:
                    raise _unbounded_pair_error(names, up, down, by_up, by_down)
                others ^= low

    return BoundedLattice(
        names=names,
        up=tuple(up),
        down=tuple(down),
        bottom=bottom,
        top=top,
        upper_covers=tuple(covers),
        _by_up=by_up,
        _by_down=by_down,
        _index=dict(zip(names, range(n))),
    )


def mask_of(ids) -> int:
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


def ids_of(mask: int) -> tuple[ElementId, ...]:
    return tuple(_bits(mask))
