"""Pipeline stages: `@stage` keeps a no-argument function's result until `clear`.

A hit is one dict lookup and reads no clock; an exception is never kept.  Each
run adds its time, less that of the stage runs nested in it, to `self_times`.
"""

import time
from functools import wraps

self_times: dict[str, float] = {}
_results: dict[str, object] = {}
_MISSING = object()
_running: list[str] = []  # the stages running now, outermost first


def timed(name: str, fn, *args):
    """fn(*args) as the stage `name`, not kept; an exception's `stage_path` lists the stages it left."""
    _running.append(name)
    start = time.perf_counter()
    try:
        return fn(*args)
    except BaseException as exc:
        if not hasattr(exc, "stage_path"):  # raised here, not in a nested stage
            exc.stage_path = tuple(_running)
        raise
    finally:
        elapsed = time.perf_counter() - start
        _running.pop()
        self_times[name] = self_times.get(name, 0.0) + elapsed
        if _running:  # the enclosing stage's self time leaves this run out
            self_times[_running[-1]] = self_times.get(_running[-1], 0.0) - elapsed


def stage(fn):
    """The no-argument `fn` as the stage `module.function`, its result kept."""
    name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"

    @wraps(fn)
    def cached():
        result = _results.get(name, _MISSING)
        if result is _MISSING:
            result = _results[name] = timed(name, fn)
        return result

    cached.stage = name
    return cached


def clear(*stages) -> None:
    """Forget the kept results of the given stages, or of every stage."""
    for name in [s.stage for s in stages] or list(_results):
        _results.pop(name, None)
