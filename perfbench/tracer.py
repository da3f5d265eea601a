"""In-memory span tracer that wraps latnorm's public functions from outside.

:class:`Tracer` replaces every public module-level function of the traced
latnorm modules with a timing wrapper, at *every* binding that holds it: the
defining module, each module that imported it by name (``from .optable
import is_uninorm`` makes ``construct.is_uninorm`` a separate binding) and
module-level dicts of functions such as ``gen._CLASS_CHECKS``.  Patching one
binding only would miss the calls that go through the others.

Generator functions (``gen.gen_spec_candidates``) get one span per
``next()``, so the consumer's work between items is not charged to them.

A span is (name, start, end, parent, op, raised), kept in flat arrays so a
long run stays small; :meth:`Tracer.dump` writes them out after the run and
:meth:`Tracer.summary` folds them into per-name totals with self time
(duration minus the time covered by child spans).  :meth:`Tracer.uninstall`
puts every original function back.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter

TRACED_MODULES = ("lattice", "gen", "construct", "optable", "verify", "corpus", "fileio", "cli")

_ORIGINAL = "__perfbench_original__"


def public_functions(module) -> list:
    """Public functions defined (not just imported) in ``module``."""
    return [
        value
        for name, value in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(value)
        and value.__module__ == module.__name__
    ]


def latnorm_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "latnorm" or name.startswith("latnorm."))
    ]


def _bindings():
    """(container, key, value, label) for every global of every loaded
    latnorm module and every entry of a module-level dict."""
    for module in latnorm_modules():
        namespace = vars(module)
        for key, value in list(namespace.items()):
            if key.startswith("__"):
                continue
            yield namespace, key, value, f"{module.__name__}.{key}"
            if isinstance(value, dict):
                for dkey, item in list(value.items()):
                    yield value, dkey, item, f"{module.__name__}.{key}[{dkey!r}]"


def wrapped_bindings() -> list[str]:
    """Bindings in loaded latnorm modules that still hold a tracer wrapper."""
    return [label for _, _, value, label in _bindings() if hasattr(value, _ORIGINAL)]


@dataclass(slots=True)
class SpanTotals:
    """Per-name aggregate of a run's spans."""

    calls: int = 0
    raised: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Span recorder; install it, run ops under :meth:`op`, then uninstall."""

    def __init__(self):
        self.counters: dict[str, int] = {}
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.raised = array("b")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._op = -1
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op_id.append(self._op)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int, raised: bool) -> None:
        self.end[idx] = perf_counter()
        if raised:
            self.raised[idx] = 1
        self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextlib.contextmanager
    def op(self, op_index: int):
        """Root span of one benchmark op; spans opened inside carry its id."""
        self._op = op_index
        idx = self._open(self._intern("bench.op"))
        try:
            yield
        except BaseException:
            self._close(idx, True)
            raise
        else:
            self._close(idx, False)
        finally:
            self._op = -1

    def _count_uninorm(self, args, kwargs, report) -> None:
        """Cells of the checked table (n squared) and failed verdicts of ``is_uninorm``."""
        table = args[0] if args else kwargs["t"]
        self.count("optable.is_uninorm.cells", len(table.carrier) ** 2)
        if not report.ok:
            self.count("optable.is_uninorm.failed")

    def _wrap(self, fn, name: str):
        nid = self._intern(name)
        is_uninorm = name == "optable.is_uninorm"

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        idx = self._open(nid)
                        try:
                            item = next(inner)
                        except StopIteration:
                            self._close(idx, False)
                            return
                        except BaseException:
                            self._close(idx, True)
                            raise
                        self._close(idx, False)
                        self.count(name + ".yielded")
                        yield item
                finally:
                    inner.close()
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = self._open(nid)
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    self._close(idx, True)
                    raise
                self._close(idx, False)
                if is_uninorm:
                    self._count_uninorm(args, kwargs, result)
                return result

        setattr(wrapper, _ORIGINAL, fn)
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self, modules) -> None:
        """Wrap the public functions of ``modules`` at every latnorm binding."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for module in modules:
            short = module.__name__.rpartition(".")[2]
            for fn in public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(fn, f"{short}.{fn.__name__}"))
        for container, key, value, _ in _bindings():
            original, wrapper = wrappers.get(id(value), (None, None))
            if original is value:
                self._patches.append((container, key, value))
                container[key] = wrapper

    def uninstall(self) -> None:
        while self._patches:
            container, key, original = self._patches.pop()
            container[key] = original

    # -- results -----------------------------------------------------------

    def summary(self) -> dict[str, SpanTotals]:
        n = len(self.name_id)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals: dict[str, SpanTotals] = {}
        for i in range(n):
            name = self.names[self.name_id[i]]
            agg = totals.get(name)
            if agg is None:
                agg = totals[name] = SpanTotals()
            dur = self.end[i] - self.start[i]
            agg.calls += 1
            agg.raised += self.raised[i]
            agg.total_s += dur
            agg.self_s += dur - child[i]
        return totals

    def count_descendants(self, child: str, ancestor: str) -> int:
        """Spans named ``child`` with some enclosing span named ``ancestor``."""
        cid = self._name_ids.get(child)
        aid = self._name_ids.get(ancestor)
        if cid is None or aid is None:
            return 0
        hits = 0
        for i in range(len(self.name_id)):
            if self.name_id[i] != cid:
                continue
            p = self.parent[i]
            while p >= 0 and self.name_id[p] != aid:
                p = self.parent[p]
            hits += p >= 0
        return hits

    def dump(self, path) -> None:
        """Write every span as a gzipped tab-separated line, times in ns from the first span."""
        t0 = self.start[0] if len(self.start) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\top\traised\n")
            for i in range(len(self.name_id)):
                fh.write(
                    f"{i}\t{self.names[self.name_id[i]]}\t"
                    f"{round((self.start[i] - t0) * 1e9)}\t{round((self.end[i] - t0) * 1e9)}\t"
                    f"{self.parent[i]}\t{self.op_id[i]}\t{self.raised[i]}\n"
                )

