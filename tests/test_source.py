import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import tilefold

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_no_assert_in_package():
    # invariants must raise real exceptions, which `python -O` keeps
    found = []
    for path in sorted(Path(tilefold.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, "assert statements in the package: " + ", ".join(found)


def test_one_memo_mechanism():
    # shared results are kept by `stages.stage` alone, which `stages.clear`
    # forgets and `timings` reports; no decorator from functools memoizes
    found = []
    for path in sorted(Path(tilefold.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
                names = [node.attr]
            else:
                continue
            found += [f"{path.name}:{node.lineno} functools.{n}" for n in names if "cache" in n]
    assert not found, "memoized outside stages: " + ", ".join(found)


def _names(tree) -> Counter:
    """Each name the tree reads, as a bare name or as an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def test_every_definition_is_used():
    # every top-level function, class and method is named somewhere in the
    # package outside its own definition; dunder methods are called by
    # Python itself.
    # Limit: names are counted, not bindings, so a definition that shares
    # its name with anything the package reads (another method, or a local
    # variable, as `divcalc.orbit` does a loop variable `orbit` in
    # `conelab`) is never reported; `test_every_definition_runs` closes that
    # gap with a census of calls at run time
    trees = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(Path(tilefold.__file__).parent.glob("*.py"))
    }
    used = sum((_names(tree) for tree in trees.values()), Counter())
    unused = []
    for fname, tree in trees.items():
        defs = [node for node in tree.body if isinstance(node, DEFINITIONS)]
        defs += [
            sub for node in defs if isinstance(node, ast.ClassDef)
            for sub in node.body if isinstance(sub, DEFINITIONS)
        ]
        for node in defs:
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if used[name] == _names(node)[name]:
                unused.append(f"{fname}:{node.lineno} {name}")
    assert not unused, "definitions nothing in the package names: " + ", ".join(unused)


def _readers(tree, name: str) -> list[str]:
    """The dotted name of the definition around each read of `name` in the tree."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Name, ast.Attribute)) and name in (
                getattr(child, "id", None),
                getattr(child, "attr", None),
            ):
                found.append(".".join(scope))
            visit(child, scope + (child.name,) if isinstance(child, DEFINITIONS) else scope)

    visit(tree, ())
    return found


def _uses(name: str) -> tuple[list[str], list[str]]:
    """The readers of `name` in the package, as `_readers` names them, and its definitions."""
    readers, definitions = [], []
    for path in sorted(Path(tilefold.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        readers += [f"{path.name}:{scope}" for scope in _readers(tree, name)]
        definitions += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, DEFINITIONS) and node.name == name
        ]
    return readers, definitions


def test_fans_are_checked_in_one_place():
    # a Fan runs check_fan when it is made, so no route makes a fan that
    # skips the axioms, and none checks a fan twice
    readers, definitions = _uses("check_fan")
    assert readers == ["polyhedra.py:Fan.__post_init__"]
    assert len(definitions) == 1 and definitions[0].startswith("polyhedra.py:")


def test_fan_covers_are_proved_in_one_place():
    # one wall-count certificate proves that a cone is a union of fan
    # cones: the whole space for completeness, each projected cone for the
    # quotient fan, whose masks the relevance analysis then reads
    readers, definitions = _uses("uncovered_cone")
    assert readers == ["polyhedra.py:is_complete_fan", "quotientfan.py:_chamber_fan"]
    assert len(definitions) == 1 and definitions[0].startswith("polyhedra.py:")


def test_projected_cones_make_one_fan():
    # the quotient fan is the one Fan made from projected cones: the GIT
    # subfans' fan axioms are read off its ray masks, with no second Fan
    readers, definitions = _uses("_fan_of")
    assert readers == ["quotientfan.py:_chamber_fan"]
    assert len(definitions) == 1 and definitions[0].startswith("quotientfan.py:")


def test_petersen_claim_is_judged_in_one_place():
    # the solver proves the adjacency unique; only the report's
    # `adjacency_is_petersen` check judges that it is the Petersen graph
    readers, definitions = _uses("_graph_is_petersen")
    assert readers == ["cli.py:section_intersection"]
    assert len(definitions) == 1 and definitions[0].startswith("divcalc.py:")


def test_no_cone_meets_or_face_tests_in_the_package():
    # the fan axioms decide each pair of cones by a separating functional
    # that dot products check, and the quotient fan's analyses read meets
    # off ray masks: no DD meet or face test is left, and the tests keep
    # both as their reference
    for name in ("intersect_cones", "is_face"):
        assert _uses(name) == ([], []), name


def test_polytopes_are_their_homogenising_cones():
    # the ample polytope and the permutohedron are returned as homogenising
    # cones and judged through Cone and face_lattice_fvector: no polytope
    # class, polytope constructor or fan report dict is left
    for name in (
        "Polytope", "convex_hull", "polytope_from_inequalities", "divisor_polytope", "verify_quotient_fan", "is_trivial"
    ):
        assert _uses(name) == ([], []), name
    tree = ast.parse((Path(tilefold.__file__).parent / "polyhedra.py").read_text())
    assert [node.name for node in tree.body if isinstance(node, ast.ClassDef)] == ["Cone", "Fan"]


def test_generator_maps_are_plain_functions():
    # the four generators are functions of x0..x3 in tilegroup.GENERATOR_MAPS,
    # called directly on ints: no polynomial encoding, evaluator or map class
    for name in ("RationalMap", "poly_eval", "_linear_poly", "generator_map"):
        assert _uses(name) == ([], []), name


def test_no_module_imports_fractions():
    # integers end to end: no module imports fractions, and the one solve
    # over Q, which projects a ray off a cone's lineality, returns integers
    # over a common denominator to polyhedra's _canonical_rays, its one reader
    importers = []
    for path in sorted(Path(tilefold.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.module == "fractions" or (
                isinstance(node, ast.Import) and any(a.name == "fractions" for a in node.names)
            ):
                importers.append(path.name)
    assert importers == []
    readers, definitions = _uses("solve_rational")
    assert readers == ["polyhedra.py:_canonical_rays"]
    assert len(definitions) == 1 and definitions[0].startswith("exactlat.py:")


def test_cli_import_loads_no_rational_number_modules():
    # `import tilefold.cli` loads none of the modules behind Fraction
    code = "import sys, tilefold.cli; print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))"
    package = Path(tilefold.__file__).parent
    pythonpath = os.pathsep.join(filter(None, [str(package.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_one_path_from_rows_to_cone():
    # the DD hands its distinct rows, each with its tight-ray mask, to facet
    # selection, so no per-input solve or remap is left; every field of a
    # Cone is canonical, so the dataclass's own equality and hash are the
    # cone's identity
    for name in ("_solve_hrep", "_prepare_inequalities"):
        assert _uses(name) == ([], []), name
    tree = ast.parse((Path(tilefold.__file__).parent / "polyhedra.py").read_text())
    cone = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "Cone")
    methods = {node.name for node in cone.body if isinstance(node, DEFINITIONS)}
    assert not methods & {"key", "__eq__", "__hash__"}


def test_integer_chart_points_are_not_skipped():
    # every integer chart point is generic, so the derivation raises on a
    # vanishing minor or logarithm entry instead of skipping the sample, the
    # sampler redraws base-point hits alone, and no check compares the
    # requested sample count with itself
    assert _uses("DegenerateSampleError") == ([], [])
    package = Path(tilefold.__file__).parent
    tree = ast.parse((package / "tilegroup.py").read_text())
    sampler = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_sample_until")
    assert [a.arg for a in sampler.args.args] == ["samples", "draw"]
    assert sampler.args.vararg is sampler.args.kwarg is None and not sampler.args.kwonlyargs
    strings = [
        node.value for node in ast.walk(ast.parse((package / "cli.py").read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    ]
    assert not [text for text in strings if "derivation_samples_" in text]


def test_no_stage_is_released_in_the_package():
    # a kept result lives until a test clears it; one that a single section
    # reads comes from a plain function run under `stages.timed`, so it dies
    # with the section and no list of stages to release is kept by hand
    readers = []
    for path in sorted(Path(tilefold.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        readers += [f"{path.name}:{scope}" for scope in _readers(tree, "clear")]
    # the one read is `stages.self_times.clear()`, which starts each report's timings
    assert readers == ["cli.py:build_report"]


# Runs in a fresh interpreter: the profile hook is set before tilefold is
# imported, so calls made at import time count too.
CENSUS = """
import json, os, sys
codes = set()
def record(frame, event, arg, add=codes.add):
    if event == "call":
        add(frame.f_code)
sys.setprofile(record)
from tilefold import cli
golden, out = sys.argv[1:3]
for argv in (
    ["report", "all", "--golden", golden],
    ["fan", "quotient", "--export", os.path.join(out, "fan.txt")],
    ["intersection", "table", "--csv", os.path.join(out, "table.csv")],
    ["cones", "mori", "--csv", os.path.join(out, "mori.csv")],
):
    rc = cli.run(argv + ["--out", os.path.join(out, "report.json")])
    if rc:
        sys.exit(f"{argv} exited {rc}")
sys.setprofile(None)
package = os.path.dirname(cli.__file__)
print(json.dumps(sorted(
    f"{os.path.basename(c.co_filename)}:{c.co_firstlineno}"
    for c in codes if os.path.dirname(c.co_filename) == package
)))
"""


def test_every_definition_runs(tmp_path):
    # a census of calls: every top-level function and method is entered by
    # `report all`, `fan quotient --export`, `intersection table --csv` and
    # `cones mori --csv`, except dunder methods, which Python calls, `main`,
    # the entry point, and `stages.clear`, which no single run needs
    allowed = {"cli.py:main", "stages.py:clear"}
    package = Path(tilefold.__file__).parent
    golden = package.parents[1] / "goldens" / "report_all.json"
    pythonpath = os.pathsep.join(filter(None, [str(package.parent), os.environ.get("PYTHONPATH")]))
    # under -O, so the golden run also shows that no check rests on an
    # assert, which -O strips; CENSUS itself has no assert to lose
    done = subprocess.run(
        [sys.executable, "-O", "-c", CENSUS, str(golden), str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=pythonpath),
    )
    assert done.returncode == 0, done.stderr
    entered = set(json.loads(done.stdout))
    missed = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defs = [(node.name, node) for node in tree.body if isinstance(node, DEFINITIONS[:2])]
        defs += [
            (f"{node.name}.{sub.name}", sub) for node in tree.body if isinstance(node, ast.ClassDef)
            for sub in node.body if isinstance(sub, DEFINITIONS[:2])
        ]
        for name, node in defs:
            last = name.rpartition(".")[2]
            if f"{path.name}:{name}" in allowed or (last.startswith("__") and last.endswith("__")):
                continue
            # a code object's first line is that of its first decorator
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            if f"{path.name}:{first}" not in entered:
                missed.append(f"{path.name}:{name}")
    assert not missed, "definitions no run entered: " + ", ".join(missed)
