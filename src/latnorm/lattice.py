"""Finite bounded lattices with precomputed order and join/meet tables.

Elements are dense integer identifiers 0..n-1; names are for I/O only.
The order relation is stored as bit masks (``up[i]`` has bit ``j`` set iff
``i <= j``), so every comparability query is O(1) and the whole carrier
fits in a machine word for the sizes this library targets (n <= 64).

All validation happens at construction time: a ``BoundedLattice`` that
exists is reflexive, antisymmetric, transitive, bounded, and has a unique
join and meet for every pair.  Instances are immutable and safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

ElementId = int

MAX_ELEMENTS = 64  # the design limit of the bit-mask representation


class LatticeError(Exception):
    """Base class for order-structure construction failures."""


class NotAPoset(LatticeError):
    """Input relation is not a partial order (cycle, or bad names)."""


class BadElementName(NotAPoset, ValueError):
    """An element name is empty or repeated.  Also a ``ValueError``, so file
    readers report it as malformed input rather than as a bad order."""


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


@dataclass(frozen=True)
class RegionSets:
    """The four incomparability regions relative to a pair (a, b).

    ``inc_a``          elements incomparable to a
    ``comp_a``         elements comparable to a (includes a itself)
    ``inc_a_comp_b``   incomparable to a but comparable to b
    ``inc_both``       incomparable to both a and b
    """

    inc_a: tuple[ElementId, ...]
    comp_a: tuple[ElementId, ...]
    inc_a_comp_b: tuple[ElementId, ...]
    inc_both: tuple[ElementId, ...]


@dataclass(frozen=True, eq=False)
class BoundedLattice:
    """A finite bounded lattice. Use :func:`build_lattice` to construct one."""

    names: tuple[str, ...]
    up: tuple[int, ...]    # up[i] bit j <=> i <= j
    down: tuple[int, ...]  # down[i] bit j <=> j <= i
    bottom: ElementId
    top: ElementId
    join_table: tuple[tuple[ElementId, ...], ...]
    meet_table: tuple[tuple[ElementId, ...], ...]
    _index: dict = field(repr=False, default_factory=dict)

    def __post_init__(self):
        self._index.update({name: i for i, name in enumerate(self.names)})

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
            raise KeyError(f"unknown element name {name!r}") from None

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
        return self.join_table[a][b]

    def meet(self, a: ElementId, b: ElementId) -> ElementId:
        return self.meet_table[a][b]

    # -- subsets ----------------------------------------------------------

    def interval_mask(
        self,
        lo: ElementId,
        hi: ElementId,
        *,
        lower_open: bool = False,
        upper_open: bool = False,
    ) -> int:
        mask = self.up[lo] & self.down[hi]
        if lower_open:
            mask &= ~(1 << lo)
        if upper_open:
            mask &= ~(1 << hi)
        return mask

    def interval(
        self,
        lo: ElementId,
        hi: ElementId,
        *,
        lower_open: bool = False,
        upper_open: bool = False,
    ) -> tuple[ElementId, ...]:
        """Elements x with lo <= x <= hi (empty when lo, hi incomparable)."""
        return tuple(
            _bits(self.interval_mask(lo, hi, lower_open=lower_open, upper_open=upper_open))
        )

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

    def upper_covers(self) -> tuple[int, ...]:
        """Mask of the upper covers of each element."""
        # a linear extension, bottom first: anything above x comes after x
        rank = sorted(range(self.n), key=lambda x: self.down[x].bit_count())
        covers = [0] * self.n
        for r, v in enumerate(rank):
            rest = self.up[v] & ~(1 << v)
            for w in rank[r + 1:]:
                if not rest:
                    break
                if rest >> w & 1:  # nothing left lies below w: a cover
                    covers[v] |= 1 << w
                    rest &= ~self.up[w]
        return tuple(covers)

    def incomparables_mask(self, a: ElementId) -> int:
        return self.all_mask & ~(self.up[a] | self.down[a])

    def region_sets(self, a: ElementId, b: ElementId) -> RegionSets:
        inc_a = self.incomparables_mask(a)
        comp_a = self.all_mask & ~inc_a
        comp_b = self.all_mask & ~self.incomparables_mask(b)
        return RegionSets(
            inc_a=tuple(_bits(inc_a)),
            comp_a=tuple(_bits(comp_a)),
            inc_a_comp_b=tuple(_bits(inc_a & comp_b)),
            inc_both=tuple(_bits(inc_a & ~comp_b)),
        )

    def dual(self) -> "BoundedLattice":
        """Same carrier with the order reversed; an involution."""
        return BoundedLattice(
            names=self.names,
            up=self.down,
            down=self.up,
            bottom=self.top,
            top=self.bottom,
            join_table=self.meet_table,
            meet_table=self.join_table,
        )


@dataclass(frozen=True)
class CaseRegions:
    """The six-block partition of the carrier induced by neutral <= threshold.

    Blocks (as masks): ``low`` = [bottom, neutral]; ``mid`` = (neutral,
    threshold]; ``side_inner`` = incomparable to neutral, comparable to
    threshold (always inside [bottom, threshold]); ``side_outer`` =
    comparable to neutral, incomparable to threshold; ``isolated`` =
    incomparable to both; ``high`` = (threshold, top].
    """

    low: int
    mid: int
    side_inner: int
    side_outer: int
    isolated: int
    high: int

    def blocks(self) -> tuple[int, ...]:
        return (self.low, self.mid, self.side_inner, self.side_outer, self.isolated, self.high)


def case_regions(lat: BoundedLattice, neutral: ElementId, threshold: ElementId) -> CaseRegions:
    """Partition the carrier for the threshold constructions.

    Requires neutral <= threshold.  The six blocks are pairwise disjoint
    and cover the carrier; this is asserted because every construction
    case split relies on it.
    """
    if not lat.leq(neutral, threshold):
        raise LatticeError(
            f"neutral {lat.name(neutral)!r} is not below threshold {lat.name(threshold)!r}"
        )
    inc_n = lat.incomparables_mask(neutral)
    inc_t = lat.incomparables_mask(threshold)
    regions = CaseRegions(
        low=lat.interval_mask(lat.bottom, neutral),
        mid=lat.interval_mask(neutral, threshold, lower_open=True),
        side_inner=inc_n & ~inc_t,
        side_outer=~inc_n & inc_t & lat.all_mask,
        isolated=inc_n & inc_t,
        high=lat.interval_mask(threshold, lat.top, lower_open=True),
    )
    union = 0
    for block in regions.blocks():
        assert union & block == 0, "case regions overlap"
        union |= block
    assert union == lat.all_mask, "case regions do not cover the carrier"
    return regions


def _closure(up: list[int], n: int) -> None:
    # Warshall over bit rows: one pass per intermediate element.
    for k in range(n):
        row_k = up[k]
        for i in range(n):
            if up[i] >> k & 1:
                up[i] |= row_k


def build_lattice(names, order_pairs) -> BoundedLattice:
    """Build and fully validate a bounded lattice.

    ``order_pairs`` lists (lower, upper) name pairs: the cover edges, or
    any other subset of the order that generates it.  The
    reflexive-transitive closure is taken, then every invariant is
    checked: antisymmetry, global bounds, and existence of a unique join
    and meet for each pair.  More than :data:`MAX_ELEMENTS` elements raise
    ``ValueError``.

    In a lattice the common upper bounds of a and b are exactly the
    elements above a join b, so ``up[a] & up[b]`` is the up-mask of the
    join: each join is one dict lookup from up-mask to element, and each
    meet the same lookup over ``down``.  A pair whose common bounds are no
    element's mask has several minimal bounds and raises
    :class:`NotALattice`, naming the first such pair in id order (the join
    before the meet), in O(n^2) for the whole table.
    """
    names = tuple(names)
    if not names:
        raise NotAPoset("empty carrier")
    if len(names) > MAX_ELEMENTS:
        raise ValueError(f"{len(names)} elements exceed the limit of {MAX_ELEMENTS}")
    seen = set()
    for name in names:
        if not name:
            raise BadElementName("empty element name")
        if name in seen:
            raise BadElementName(f"duplicate element name {name!r}")
        seen.add(name)
    index = {name: i for i, name in enumerate(names)}
    n = len(names)

    up = [1 << i for i in range(n)]
    for lo, hi in order_pairs:
        if lo not in index or hi not in index:
            bad = lo if lo not in index else hi
            raise NotAPoset(f"order pair references unknown name {bad!r}")
        up[index[lo]] |= 1 << index[hi]
    _closure(up, n)

    down = [0] * n
    for i in range(n):
        for j in _bits(up[i]):
            down[j] |= 1 << i

    for i in range(n):
        cycle = up[i] & down[i] & ~(1 << i)
        if cycle:
            j = next(_bits(cycle))
            raise NotAPoset(f"antisymmetry violated: {names[i]!r} <= {names[j]!r} <= {names[i]!r}")

    all_mask = (1 << n) - 1
    bottoms = [i for i in range(n) if up[i] == all_mask]
    tops = [i for i in range(n) if down[i] == all_mask]
    if not bottoms:
        minimal = [i for i in range(n) if down[i] == 1 << i]
        raise NotBounded(f"no bottom element; minimal elements include {names[minimal[0]]!r}")
    if not tops:
        maximal = [i for i in range(n) if up[i] == 1 << i]
        raise NotBounded(f"no top element; maximal elements include {names[maximal[0]]!r}")

    element_up = {mask: c for c, mask in enumerate(up)}
    element_down = {mask: c for c, mask in enumerate(down)}
    join_table = []
    meet_table = []
    for a in range(n):
        joins = [element_up.get(up[a] & mask) for mask in up]
        meets = [element_down.get(down[a] & mask) for mask in down]
        if None in joins or None in meets:
            # pairs (b, a) with b < a passed on row b, so the first miss is
            # past a; at one b the join is checked before the meet
            b = min(row.index(None) for row in (joins, meets) if None in row)
            raise NotALattice("join" if joins[b] is None else "meet", names[a], names[b])
        join_table.append(tuple(joins))
        meet_table.append(tuple(meets))

    return BoundedLattice(
        names=names,
        up=tuple(up),
        down=tuple(down),
        bottom=bottoms[0],
        top=tops[0],
        join_table=tuple(join_table),
        meet_table=tuple(meet_table),
    )


def mask_of(ids) -> int:
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


def ids_of(mask: int) -> tuple[ElementId, ...]:
    return tuple(_bits(mask))
