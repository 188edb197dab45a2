"""Span tracer for the tilefold modules, installed from outside the program.

`Tracer.install` replaces every public function of the traced modules, and
the public methods of the classes they define, by a wrapper that records one
span (name, start, end, parent) per call.  The replacement is made under
every name the function is reachable by: each tilefold module that did
`from .polyhedra import lp_in_cone` holds its own reference, and the `Cone`
constructors are staticmethods on the class.  A function behind
`functools.lru_cache` is wrapped outside the cache, so a cache hit is a
short span of its own and the work is billed to the function that does it,
not to whichever caller asked first.

Spans live in flat arrays while the program runs and are written once, at
the end, as a JSON header plus the raw arrays.  `self_times` derives calls
and self time per function from them: a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

MODULES = ("exactlat", "polyhedra", "quotientfan", "tilegroup", "divcalc", "conelab", "cli")

# Called hundreds of thousands of times each with sub-microsecond bodies;
# wrapping them would make the trace measure the tracer.
NOT_WRAPPED = frozenset({"exactlat.dot", "exactlat.primitive_vector"})

# Work counters read from return values at the span boundary.
RESULT_COUNTERS = {"polyhedra.face_lattice_raysets": ("faces", len)}

_ARRAYS = (("name", "i"), ("parent", "i"), ("start", "d"), ("end", "d"))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, int] = {}
        self._stack = [-1]

    # -- wrapping ----------------------------------------------------------

    def wrap(self, qualname: str, fn):
        nid = self.name_ids.setdefault(qualname, len(self.names))
        if nid == len(self.names):
            self.names.append(qualname)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter
        counter = RESULT_COUNTERS.get(qualname)
        counters = self.counters

        def traced(*args, **kwargs):
            sid = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if counter is not None:
                key = f"{qualname}.{counter[0]}"
                counters[key] = counters.get(key, 0) + counter[1](result)
            return result

        traced.__name__ = getattr(fn, "__name__", qualname)
        traced.__qualname__ = getattr(fn, "__qualname__", qualname)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, package) -> list[str]:
        """Wrap the public callables of MODULES; returns the wrapped names."""
        modules = {m: sys.modules[f"{package.__name__}.{m}"] for m in MODULES}
        replaced: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(short, obj)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    qual = f"{short}.{attr}"
                    if qual in NOT_WRAPPED or inspect.isgeneratorfunction(obj):
                        continue
                    replaced[id(obj)] = (obj, self.wrap(qual, obj))
        # Rebind every module-level name that refers to a wrapped function,
        # including the copies made by `from .x import f`.
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package.__name__ or mod_name.startswith(package.__name__ + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        return list(self.names)

    def _wrap_methods(self, short: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qual = f"{short}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(qual, raw.__func__)))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                setattr(cls, attr, self.wrap(qual, raw))

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as one JSON header line followed by the raw arrays."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": [[key, code] for key, code in _ARRAYS],
            "counters": self.counters,
            "open": len(self._stack) - 1,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for key, _ in _ARRAYS:
                getattr(self, key).tofile(fh)


def span_cost(calls: int = 100_000) -> float:
    """Seconds one traced call adds to an untraced one, timed on a no-op.

    The tracing overhead of a run is about spans x span_cost(); measuring it
    this way saves a second, untraced run of a long job.
    """
    def noop():
        return None

    traced = Tracer().wrap("noop", noop)
    clock = time.perf_counter
    best = float("inf")
    for _ in range(3):
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            traced()
        t2 = clock()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return best


def read_spans(path: str) -> dict:
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        for key, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(fh, n)
            header[key] = arr
    return header


def self_times(spans: dict) -> dict[str, dict]:
    """{function: {"calls": n, "self_s": t}} from a span dump.

    Raises ValueError on a span that lies outside its parent.
    """
    names, name, parent = spans["names"], spans["name"], spans["parent"]
    start, end = spans["start"], spans["end"]
    n = len(start)
    self_s = [end[i] - start[i] for i in range(n)]
    for i in range(n):
        p = parent[i]
        if p >= 0:
            if not (start[p] <= start[i] and end[i] <= end[p]):
                raise ValueError(f"span {i} is not inside its parent {p}")
            self_s[p] -= end[i] - start[i]
    stats = {nm: {"calls": 0, "self_s": 0.0} for nm in names}
    for i in range(n):
        s = stats[names[name[i]]]
        s["calls"] += 1
        s["self_s"] += self_s[i]
    return stats
