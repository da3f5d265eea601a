"""Known-answer input files for the ``verify-large`` workload.

Lattices are built in closed form here, not with latnorm: a chain (meet is
min), a Boolean lattice 2^k on bit masks (meet is AND) and an r x c grid
(componentwise min).  Element ids follow the order the files list them, so
"late in scan order" means a high id, and the top element is always the
last id.

Per lattice the files are:

* ``<name>.meet.table.json``: the meet table, a t-norm, so ``verify --e
  top`` exits 0;
* ``<name>.join.table.json``: the join table, a t-conorm, so ``verify --e
  bottom`` exits 0;
* ``<name>.planted<j>-<kind>.table.json``: the meet table with one planted
  violation among the last eighth of the ids, so ``verify --e top`` exits
  1.  A ``sym`` plant sets U(x,y) = U(y,x) = top, which breaks monotonicity at
  (x, top, y); an ``asym`` plant sets only U(x,y) = top, which breaks
  commutativity at (x, y).  Either witness is checkable by hand.

``construct --verify`` specs (join form) are searched on the Boolean
lattices and the grids with a direct reading of th31/th33: the standing
hypotheses hold, so the paper's prediction (the parallel condition) fixes
the exit code, one spec per lattice predicting a uninorm and one not.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Lattice:
    name: str
    kind: str      # "chain", "boolean" or "grid"
    shape: tuple   # (n,), (k,) or (rows, cols)
    plants: tuple  # planted-violation kinds, "sym" and/or "asym"

    @property
    def n(self) -> int:
        if self.kind == "chain":
            return self.shape[0]
        if self.kind == "boolean":
            return 2 ** self.shape[0]
        return self.shape[0] * self.shape[1]

    def names(self) -> list[str]:
        if self.kind == "chain":
            return [f"c{i}" for i in range(self.n)]
        if self.kind == "boolean":
            return [format(i, f"0{self.shape[0]}b") for i in range(self.n)]
        rows, cols = self.shape
        return [f"g{i}_{j}" for i in range(rows) for j in range(cols)]

    def covers(self) -> list[tuple[int, int]]:
        if self.kind == "chain":
            return [(i, i + 1) for i in range(self.n - 1)]
        if self.kind == "boolean":
            k = self.shape[0]
            return [(i, i | 1 << b) for i in range(self.n) for b in range(k) if not i >> b & 1]
        rows, cols = self.shape
        out = []
        for i in range(rows):
            for j in range(cols):
                if i + 1 < rows:
                    out.append((i * cols + j, (i + 1) * cols + j))
                if j + 1 < cols:
                    out.append((i * cols + j, i * cols + j + 1))
        return out

    def leq(self, a: int, b: int) -> bool:
        if self.kind == "chain":
            return a <= b
        if self.kind == "boolean":
            return a & ~b == 0
        cols = self.shape[1]
        return a // cols <= b // cols and a % cols <= b % cols

    def meet(self, a: int, b: int) -> int:
        if self.kind == "chain":
            return min(a, b)
        if self.kind == "boolean":
            return a & b
        cols = self.shape[1]
        return min(a // cols, b // cols) * cols + min(a % cols, b % cols)

    def join(self, a: int, b: int) -> int:
        if self.kind == "chain":
            return max(a, b)
        if self.kind == "boolean":
            return a | b
        cols = self.shape[1]
        return max(a // cols, b // cols) * cols + max(a % cols, b % cols)

    @property
    def bottom(self) -> int:
        return 0

    @property
    def top(self) -> int:
        return self.n - 1


# The mix is shaped so that the latency percentiles, taken over whole
# cycles, sit inside a block of similar samples, not on a gap between input
# classes, where one slow call would move them by a whole class.  chain64
# carries two plants: its tables are the slowest inputs, and with four of
# them in a cycle of 37 calls the 90th percentile falls at the bottom of
# their block.  Both are "sym" so that the four cost about the same.  bool16
# carries two plants as well, so a cycle has an odd number of calls and the
# median is the 19th fastest call itself, not the mean of two calls on
# either side of a gap; the 4 x 8 grid puts that call inside the run of
# n = 32 calls (8-11 ms), whose order around it the construct specs of the
# seed can shift by one.
LATTICES = (
    Lattice("chain16", "chain", (16,), ("sym",)),
    Lattice("bool16", "boolean", (4,), ("asym", "sym")),
    Lattice("chain32", "chain", (32,), ("asym",)),
    Lattice("bool32", "boolean", (5,), ("sym",)),
    Lattice("grid32", "grid", (4, 8), ("sym",)),
    Lattice("chain64", "chain", (64,), ("sym", "sym")),
    Lattice("bool64", "boolean", (6,), ("asym",)),
    Lattice("grid64", "grid", (8, 8), ("sym",)),
)

# Construct specs need elements beside the neutral and the threshold, which a
# chain does not have.
SPEC_LATTICES = ("bool16", "bool32", "grid32", "bool64", "grid64")

# Keep [bottom, rho] small so the inner table stays small; the constructed
# table always covers the whole lattice.
MAX_INNER = 12


def table(lat: Lattice, op) -> list[list[int]]:
    return [[op(a, b) for b in range(lat.n)] for a in range(lat.n)]


def planted(lat: Lattice, kind: str, rng: random.Random) -> list[list[int]]:
    """Meet table with one planted violation at a late cell (x, y), x != y.

    Both ids lie in the last eighth (the last three below top when n is
    small), so the first witness comes late in every axiom scan and the cost
    of the call barely depends on the seed.
    """
    late = list(range(min(7 * lat.n // 8, lat.n - 4), lat.top))
    x, y = rng.sample(late, 2)
    rows = table(lat, lat.meet)
    rows[x][y] = lat.top
    if kind == "sym":
        rows[y][x] = lat.top
    return rows


def meet_core_inner(lat: Lattice, rho: int, e: int) -> tuple[list[int], list[list[int]]]:
    """Uninorm on [bottom, rho] with neutral e: meet on [bottom, e], the
    projection onto the argument outside [bottom, e] on mixed pairs, and rho
    on pairs outside [bottom, e]."""
    carrier = [x for x in range(lat.n) if lat.leq(x, rho)]

    def cell(x, y):
        x_low, y_low = lat.leq(x, e), lat.leq(y, e)
        if x_low and y_low:
            return lat.meet(x, y)
        if y_low:
            return x
        if x_low:
            return y
        return rho

    return carrier, [[cell(x, y) for y in carrier] for x in carrier]


def lattice_json(lat: Lattice) -> str:
    names = lat.names()
    return json.dumps(
        {
            "name": lat.name,
            "elements": names,
            "covers": [[names[a], names[b]] for a, b in lat.covers()],
        }
    )


def table_json(lat: Lattice, carrier, rows, lattice_name: str) -> str:
    names = lat.names()
    return json.dumps(
        {
            "lattice": lattice_name,
            "carrier": [names[a] for a in carrier],
            "rows": [[names[v] for v in row] for row in rows],
        }
    )


@dataclass(frozen=True)
class Case:
    """One CLI call with its known answer."""

    label: str
    size: int
    argv: tuple[str, ...]
    exit_code: int
    stdout_has: str = ""


def join_form_prediction(lat: Lattice, comparable, join, rho: int, e: int, q: int):
    """(theorem, prediction) for the join-form spec (rho, e, anchor q) when
    the standing hypotheses of th31 or th33 hold, else None.

    A direct reading of the theorems on the closed-form order (``comparable``
    and ``join`` are its n x n tables), independent of latnorm.  The inner
    table of :func:`meet_core_inner` is in class U_b, so only the anchor
    class and the join clauses can fail.
    """
    elems = range(lat.n)
    inc_e = [not comparable[x][e] for x in elems]
    inc_rho = [not comparable[x][rho] for x in elems]
    side_inner = [x for x in elems if inc_e[x] and not inc_rho[x]]
    isolated = [x for x in elems if inc_e[x] and inc_rho[x]]
    if q != lat.bottom and q != e and lat.leq(q, e):
        theorem = "th31"        # anchor strictly under the neutral
    elif inc_e[q] and not inc_rho[q]:
        theorem = "th31"        # beside the neutral
    elif not inc_e[q] and inc_rho[q]:
        theorem = "th33"        # beside the threshold
    else:
        return None
    if theorem == "th31" and any(
        join[a][b] != lat.top for i, a in enumerate(isolated) for b in isolated[i + 1:]
    ):
        return None
    if any(join[a][q] != lat.top for a in isolated if not comparable[a][q]):
        return None
    parallel = not any(
        comparable[a][b] for a in isolated if comparable[a][q] for b in side_inner
    )
    return theorem, parallel


def find_spec(lat: Lattice, rng: random.Random, want: bool) -> tuple[int, int, int]:
    """First (rho, e, anchor) in seeded order whose standing hypotheses
    hold and whose prediction equals ``want``."""
    elems = range(lat.n)
    comparable = [[lat.leq(a, b) or lat.leq(b, a) for b in elems] for a in elems]
    join = table(lat, lat.join)
    below = [[y for y in elems if lat.leq(y, x)] for x in elems]
    interior = [x for x in range(1, lat.top) if len(below[x]) <= MAX_INNER]
    for _ in range(100_000):
        rho = rng.choice(interior)
        e = rng.choice(below[rho])
        anchor = rng.randrange(lat.n)
        found = join_form_prediction(lat, comparable, join, rho, e, anchor)
        if found is not None and found[1] == want:
            return rho, e, anchor
    raise RuntimeError(f"no spec with prediction {want} found on {lat.name}")


def write_verify_large(directory: Path, seed: int) -> list[Case]:
    """Write every input file under ``directory``; return the calls."""
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    cases = []
    for lat in LATTICES:
        names = lat.names()
        (directory / f"{lat.name}.lattice.json").write_text(lattice_json(lat))
        everything = list(range(lat.n))
        # a meet is a t-norm with neutral top, a join a t-conorm with neutral bottom
        tables = [("meet", table(lat, lat.meet), lat.top, 0), ("join", table(lat, lat.join), lat.bottom, 0)]
        for j, kind in enumerate(lat.plants, 1):
            tables.append((f"planted{j}-{kind}", planted(lat, kind, rng), lat.top, 1))
        for label, rows, e, code in tables:
            path = directory / f"{lat.name}.{label}.table.json"
            path.write_text(table_json(lat, everything, rows, lat.name))
            cases.append(
                Case(
                    label=f"verify {lat.name} {label}",
                    size=lat.n,
                    argv=("verify", str(path), "--e", names[e]),
                    exit_code=code,
                    stdout_has="uninorm: all axioms pass" if code == 0 else "",
                )
            )
    by_name = {lat.name: lat for lat in LATTICES}
    for lat_name in SPEC_LATTICES:
        lat = by_name[lat_name]
        names = lat.names()
        for want in (True, False):
            rho, e, anchor = find_spec(lat, rng, want)
            carrier, rows = meet_core_inner(lat, rho, e)
            stem = f"{lat.name}.spec-{'pass' if want else 'fail'}"
            ustar = directory / f"{stem}.Ustar.table.json"
            ustar.write_text(table_json(lat, carrier, rows, lat.name))
            cases.append(
                Case(
                    label=f"construct {stem}",
                    size=lat.n,
                    argv=(
                        "construct", str(directory / f"{lat.name}.lattice.json"), str(ustar),
                        "--eq", "1", "--rho", names[rho], "--e", names[e],
                        "--anchor", names[anchor], "--verify",
                    ),
                    exit_code=0 if want else 1,
                )
            )
    cases.append(
        Case(
            label="corpus --replay",
            size=0,
            argv=("corpus", "--replay"),
            exit_code=0,
            stdout_has="5/5 entries reproduce",
        )
    )
    return cases
