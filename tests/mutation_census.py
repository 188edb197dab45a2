"""Mutation census of the report: which check, or which raise, answers each one-site mutant.

Run with `PYTHONPATH=src python tests/mutation_census.py` (about two
minutes on two cores).  The file name keeps pytest from collecting it.

Each mutant changes one site and nothing else:
- a data mutant adds or subtracts 1 at one integer entry, or swaps one label
  for the next label of its kind (A2 for A1, C12 for C03, ...), in one input
  table of `divcalc`, `quotientfan` or `conelab`; the table is replaced on its
  module for the run and put back after it;
- a code mutant edits one line of a copy of the package, run in a fresh
  interpreter.

No mutant touches a check's own expression or expected value, so neither
the `EXPECTED_*` tables nor `QUOTIENT_RAYS` are mutated, nor `FLAG_L1`, which
only the import-time tuples `FLAG_N1_EXTRA` and `FLAG_N1P_EXTRA` read.

For each mutant, every stage is cleared and `report all` is built with 100
samples and seed 0.  One line per mutant, sorted, gives the checks that read
False, or the stage path and message of the raise, or "survived" when every
check still reads True.
"""

from __future__ import annotations

import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from types import ModuleType
from typing import NamedTuple

import tilefold
from tilefold import cli, conelab, divcalc, quotientfan, stages
from tilefold.tilegroup import LABELS

TIMEOUT_S = 60  # per mutant; a slower run is recorded as a TimeoutError


class DataMutant(NamedTuple):
    name: str
    module: ModuleType
    table: str
    value: object  # the whole mutated table


class CodeMutant(NamedTuple):
    name: str
    file: str  # in the package
    old: str  # found exactly once in it
    new: str


CODE_MUTANTS = (
    # Dantzig's rule after degenerate pivots too: no Bland fallback
    CodeMutant("polyhedra.lp_in_cone, Dantzig only", "polyhedra.py",
               "        if degenerate:\n            enter = next(",
               "        if False:\n            enter = next("),
    CodeMutant("quotientfan.git_subfans, no dimension clause", "quotientfan.py",
               "all(projected[s].dim == len(s) for s in fs) and ", ""),
    CodeMutant("polyhedra.Cone.contains, facet test flipped", "polyhedra.py",
               "dot(n, point) >= 0 for n in self.facets", "dot(n, point) <= 0 for n in self.facets"),
    # the ray is not scaled by the Gram solve's denominator before the
    # lineality part is taken off
    CodeMutant("polyhedra._canonical_rays, no denominator scaling", "polyhedra.py",
               "d * v - dot(x, col)", "v - dot(x, col)"),
)


# ---------------------------------------------------------------------------
# one-site edits of nested tables


def _leaves(value, keys: bool, path=()):
    """(path, leaf) for each int or str in the table; dict keys too if `keys`."""
    if isinstance(value, dict):
        for k, v in value.items():
            if keys:
                yield from _leaves(k, False, path + (("key", k),))
            yield from _leaves(v, False, path + (("value", k),))
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield from _leaves(v, False, path + (i,))
    elif isinstance(value, (set, frozenset)):
        for i, v in enumerate(sorted(value)):
            yield from _leaves(v, False, path + (("member", i),))
    else:
        yield path, value


def _put(value, path, leaf):
    """A copy of the table with the leaf at `path` replaced; None if that merges two entries."""
    if not path:
        return leaf
    step, rest = path[0], path[1:]
    if isinstance(value, dict):
        kind, key = step
        out = {}
        for k, v in value.items():
            if k != key:
                out[k] = v
            elif kind == "value":
                out[k] = _put(v, rest, leaf)
            else:
                out[_put(k, rest, leaf)] = v
        return out if len(out) == len(value) and None not in out and None not in out.values() else None
    if isinstance(value, (set, frozenset)):
        members = sorted(value)
        members[step[1]] = _put(members[step[1]], rest, leaf)
        out = type(value)(members)
        return out if len(out) == len(value) else None
    inner = _put(value[step], rest, leaf)
    if inner is None:
        return None
    out = list(value)
    out[step] = inner
    return type(value)(out)


def _site(path) -> str:
    return "".join(f"[{s!r}]" if not isinstance(s, tuple) else f"[{s[1]!r}]" if s[0] == "value"
                   else f".key({s[1]!r})" if s[0] == "key" else f".member({s[1]})" for s in path)


def _next_label(lab: str) -> str:
    kind = [x for x in LABELS if x[0] == lab[0]]
    return kind[(kind.index(lab) + 1) % len(kind)]


def _mutants_of(module: ModuleType, table: str, keys=False, lo=None, hi=None) -> list[DataMutant]:
    """±1 at each integer (kept in [lo, hi]) and the next label at each label of one table."""
    value = getattr(module, table)
    out = []
    for path, leaf in _leaves(value, keys):
        if isinstance(leaf, int):
            new = [leaf - 1, leaf + 1]
            new = [x for x in new if (lo is None or x >= lo) and (hi is None or x <= hi)]
        elif leaf in LABELS:
            new = [_next_label(leaf)]
        else:
            continue
        for x in new:
            mutated = _put(value, path, x)
            if mutated is not None:
                name = f"{module.__name__.rpartition('.')[2]}.{table}{_site(path)} {leaf}->{x}"
                out.append(DataMutant(name, module, table, mutated))
    return out


def data_mutants() -> list[DataMutant]:
    out = []
    for table in ("RULE_TOP_SELF", "RULE_C_BASE", "RULE_D_BASE"):
        out += _mutants_of(divcalc, table, keys=table != "RULE_TOP_SELF")
    for table in ("PLANE_ROWS", "QUADRIC_ROW"):
        out += _mutants_of(divcalc, table)
    for table in ("WEIGHT_MATRIX", "COKERNEL_MATRIX"):
        out += _mutants_of(quotientfan, table)
    out += _mutants_of(quotientfan, "CHART_DIVISOR_RAY", lo=0, hi=len(quotientfan.QUOTIENT_RAYS) - 1)
    out += _mutants_of(quotientfan, "SUBFAN_EXCLUSIONS", lo=0, hi=len(quotientfan.CHART_COORDS) - 1)
    for table in (
        "FLAG_M1_GENERATORS", "FLAG_M1P_GENERATORS", "FLAG_N1_EXTRA", "FLAG_N1P_EXTRA",
        "FLAG_L2", "FLAG_L2P", "FLAG_X13_RAY", "H_CLASS_EXPRESSIONS", "S_PLUS", "S_MINUS",
        "CURVE_FAMILY_GAMMA1", "CURVE_FAMILY_GAMMA2_PLUS", "CURVE_FAMILY_GAMMA2_MINUS",
    ):
        out += _mutants_of(conelab, table)
    return out


# ---------------------------------------------------------------------------
# outcomes


def outcome(command: str = "report all") -> str:
    """The checks reading False in a cold report, or the raise that stopped it."""
    stages.clear()
    try:
        report = cli.build_report(command, 100, 0)
    except Exception as exc:
        path = " > ".join(getattr(exc, "stage_path", ()))
        message = str(exc).splitlines()[0][:160] if str(exc) else ""
        return f"raised in {path or '<no stage>'}: {type(exc).__name__}: {message}"
    failing = sorted(
        f"{key}/{c['name']}" for key, section in report["sections"].items()
        for c in section["checks"] if not c["pass"]
    )
    return "False: " + ", ".join(failing) if failing else "survived"


def run(mutant: DataMutant, command: str = "report all") -> str:
    """The outcome of `command` with the mutant's table in place; every stage is cleared after."""
    original = getattr(mutant.module, mutant.table)
    setattr(mutant.module, mutant.table, mutant.value)
    try:
        return outcome(command)
    finally:
        setattr(mutant.module, mutant.table, original)
        stages.clear()


def run_code(mutant: CodeMutant) -> str:
    """The outcome of `report all` on a copy of the package with one line edited."""
    with tempfile.TemporaryDirectory() as tmp:
        package = Path(tmp) / "tilefold"
        shutil.copytree(Path(tilefold.__file__).parent, package,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = package / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise RuntimeError(f"{mutant.name}: the mutated text is not found exactly once")
        path.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=tmp, PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run([sys.executable, __file__, "--unmutated"], env=env,
                              capture_output=True, text=True, timeout=4 * TIMEOUT_S)
        if done.returncode:
            return f"raised in <interpreter>: exit {done.returncode}: {done.stderr.strip()[-160:]}"
        return done.stdout.strip()


def _timed_out(signum, frame):
    raise TimeoutError(f"no outcome within {TIMEOUT_S} s")


def census() -> dict[str, str]:
    """Each mutant's name with its outcome; the code mutants run first, so a stale site fails fast."""
    signal.signal(signal.SIGALRM, _timed_out)

    def bounded(fn, *args):
        signal.alarm(TIMEOUT_S)
        try:
            return fn(*args)
        finally:
            signal.alarm(0)

    base = bounded(outcome)
    if base != "survived":
        raise SystemExit(f"the unmutated report does not pass: {base}")
    outcomes = {m.name: run_code(m) for m in CODE_MUTANTS}
    outcomes.update((m.name, bounded(run, m)) for m in data_mutants())
    return outcomes


def main() -> None:
    if sys.argv[1:] == ["--unmutated"]:  # one cold report of the package on PYTHONPATH
        signal.signal(signal.SIGALRM, _timed_out)
        signal.alarm(TIMEOUT_S)
        print(outcome())
        return
    outcomes = census()
    for name, result in sorted(outcomes.items()):
        print(f"{name}: {result}")
    kinds = [result.split(" ")[0] for result in outcomes.values()]
    print(f"{len(kinds)} mutants: {kinds.count('raised')} raised, "
          f"{kinds.count('False:')} read a check False, {kinds.count('survived')} survived")


if __name__ == "__main__":
    main()
