"""Span tracing of splinesel's public functions, from outside the package.

`Tracer.install` replaces every public function of the package modules at
each name a caller resolves it by (for example `simlab.select`,
`criteria.loss`, `oracle.selection_window`, `geometry.replicate_normals`)
with a wrapper that records one span per call: name, start, end and the
enclosing span.  Spans live in flat arrays while the process runs and are
written out once, at the end, as one .npz per process.  `uninstall` puts
the original functions back.

`load_spans` and `aggregate` turn the span files of a traced run into
per-function call counts, inclusive and self times, where a span's self
time is its duration minus its direct children's.
"""

from array import array
from dataclasses import dataclass
import importlib
import inspect
import time
import types

import numpy as np

# The modules whose public functions are traced, by module name inside the
# package; "_rng" reports as "rng".
MODULES = ("cli", "spectrum", "criteria", "oracle", "specfun", "geometry",
           "simlab", "_rng")

IMPORT_SPAN = "cli.import"


def layer_of(span_name: str) -> str:
    """Layer (module) label of a span name such as 'criteria.select'."""
    return span_name.split(".", 1)[0].lstrip("_")


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.flag = array("b")  # 1 when the result carries a boundary flag
        self._stack = [-1]
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.flag.append(0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int, result=None) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()
        if getattr(result, "at_boundary", "none") != "none":
            self.flag[sid] = 1

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished top-level span timed by the caller."""
        self.name.append(self._name_id(name))
        self.parent.append(-1)
        self.flag.append(0)
        self.start.append(start)
        self.end.append(end)

    def wrap(self, span_name: str, fn):
        name_id = self._name_id(span_name)
        if inspect.isgeneratorfunction(fn):
            # One span per resumption, so the caller that drains the
            # generator is the parent of the work each item costs.
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    sid = self._open(name_id)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(sid)
                    yield item
            wrapper = traced_gen
        else:
            def traced(*args, **kwargs):
                sid = self._open(name_id)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    self._close(sid, result)
            wrapper = traced
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self, package: str = "splinesel") -> int:
        """Wrap each public package function at every module name bound to it.

        Returns the number of names replaced.
        """
        modules = [importlib.import_module(f"{package}.{m}") for m in MODULES]
        wrappers: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if (not isinstance(obj, types.FunctionType)
                        or attr.startswith("_") or obj.__name__.startswith("_")
                        or not obj.__module__.startswith(package + ".")):
                    continue
                if id(obj) not in wrappers:
                    where = obj.__module__[len(package) + 1:]
                    wrappers[id(obj)] = self.wrap(f"{where}.{obj.__name__}", obj)
                setattr(mod, attr, wrappers[id(obj)])
                self._saved.append((mod, attr, obj))
        return len(self._saved)

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()

    def dump(self, path, workload: str, run_id: str) -> None:
        np.savez(path, workload=workload, run_id=run_id,
                 names=np.array(self.names, dtype=str),
                 name=np.frombuffer(self.name, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 flag=np.frombuffer(self.flag, dtype=np.int8))


@dataclass
class SpanTable:
    """Spans of one process: column arrays indexed by span id."""

    names: list[str]
    name: np.ndarray
    parent: np.ndarray
    dur: np.ndarray
    self_time: np.ndarray
    flag: np.ndarray

    def ids(self, span_name: str) -> np.ndarray:
        if span_name not in self.names:
            return np.zeros(0, dtype=np.int64)
        return np.flatnonzero(self.name == self.names.index(span_name))


def load_spans(path) -> SpanTable:
    with np.load(path) as data:
        names = [str(s) for s in data["names"]]
        name = data["name"].astype(np.int64)
        parent = data["parent"].astype(np.int64)
        dur = data["end"] - data["start"]
        flag = data["flag"].astype(np.int64)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent],
                             minlength=len(dur))
    return SpanTable(names=names, name=name, parent=parent, dur=dur,
                     self_time=dur - child_time, flag=flag)


@dataclass
class FunctionStats:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    flagged: int = 0


def aggregate(tables: list[SpanTable]) -> dict[str, FunctionStats]:
    """Per span name: calls, summed inclusive and self time, flagged results."""
    stats: dict[str, FunctionStats] = {}
    for t in tables:
        for i, span_name in enumerate(t.names):
            mask = t.name == i
            s = stats.setdefault(span_name, FunctionStats())
            s.calls += int(mask.sum())
            s.incl_s += float(t.dur[mask].sum())
            s.self_s += float(t.self_time[mask].sum())
            s.flagged += int(t.flag[mask].sum())
    return stats


def ids_under(t: SpanTable, span_name: str, *ancestors: str) -> np.ndarray:
    """Ids of `span_name` spans whose chain of parents starts with `ancestors`."""
    ids = cur = t.ids(span_name)
    for anc in ancestors:
        if anc not in t.names:
            return ids[:0]
        par = t.parent[cur]
        keep = par >= 0
        keep[keep] = t.name[par[keep]] == t.names.index(anc)
        ids, cur = ids[keep], par[keep]
    return ids


def durations(tables: list[SpanTable], span_name: str) -> np.ndarray:
    return np.concatenate([t.dur[t.ids(span_name)] for t in tables] or [np.zeros(0)])
