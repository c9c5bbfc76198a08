"""The command line surface: grammar, exit codes, determinism."""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thetapairs
from thetapairs.cli import main
from thetapairs.fibers import CentralizerTorusError
from thetapairs.pairs import FULL_CATALOG, CatalogError
from thetapairs.slices import ConjugationOutsideField


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_text(capsys):
    code, out, _ = run_cli(capsys, "report", "splitA:n=1")
    assert code == 0
    assert "weyl groups" in out
    assert "theta-split Borels" in out


def test_report_e6_table_values(capsys):
    code, out, _ = run_cli(capsys, "report", "e6qs")
    assert code == 0
    assert "51840" in out and "1152" in out and "384" in out
    assert "45" in out


def test_report_json_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "report", "glgl:n=1", "--json", "--no-timing")
    code2, out2, _ = run_cli(capsys, "report", "glgl:n=1", "--json", "--no-timing")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical without the timing section
    doc = json.loads(out1)
    assert doc["schema_version"] == 1
    assert doc["pair_id"] == "glgl:n=1"
    assert doc["borel_census"]["torsor"] is True


def test_report_seed_changes_no_verdicts(capsys):
    _, out1, _ = run_cli(capsys, "report", "splitA:n=1", "--json", "--no-timing")
    _, out2, _ = run_cli(capsys, "report", "splitA:n=1", "--json", "--no-timing",
                         "--seed", "99")
    d1, d2 = json.loads(out1), json.loads(out2)
    assert d1 == d2  # every reported field is exact, not sampled


def test_bad_pair_spec_exit_2(capsys):
    code, _, err = run_cli(capsys, "report", "splitB:n=2")
    assert code == 2
    assert "usage" in err or "error" in err


def test_unknown_suite_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "everything")
    assert code == 2
    assert "unknown suite" in err


def test_verify_empty_catalog_filter_vacuous_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "borels", "--pairs", "")
    assert code == 0
    assert "0/0 checks passed" in out


def test_verify_rejects_pair_outside_catalog(capsys):
    code, out, err = run_cli(capsys, "verify", "fibers", "--pairs",
                             "splitA:n=1,splitA:n=4")
    assert code == 2
    assert "splitA:n=4" in err
    assert "checks passed" not in out


def test_report_timing_in_fractional_ms(capsys):
    code, out, _ = run_cli(capsys, "report", "splitA:n=1", "--json")
    assert code == 0
    timing = json.loads(out)["timing_ms"]
    assert timing and all(type(v) is float and v >= 0 for v in timing.values())


def test_verify_filtered_to_one_pair(capsys):
    code, out, _ = run_cli(capsys, "verify", "borels", "--pairs", "splitA:n=1")
    assert code == 0
    assert "splitA:n=1" in out and "glgl" not in out


def test_verify_weyl_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "weyl")
    assert code == 0
    assert "E6: [W:W^theta] = 45: PASS" in out
    assert "FAIL" not in out


def test_verify_counts_a_raising_check_as_failure(capsys, monkeypatch):
    from thetapairs import cli

    def boom(pair, seed):
        raise CatalogError("boom")

    table = tuple(c._replace(section=boom) if c.id == "g2.index_W_theta_over_W0" else c
                  for c in cli.CHECKS)
    monkeypatch.setattr(cli, "CHECKS", table)
    code, out, err = run_cli(capsys, "verify", "weyl", "--pairs", "g2split")
    assert code == 1
    assert out.splitlines() == ["g2split: g2.index_W_theta_over_W0: FAIL",
                                "0/1 checks passed"]
    assert "g2split: g2.index_W_theta_over_W0: CatalogError: boom" in err


def test_diag_report_has_isomorphism_audit(capsys):
    code, out, _ = run_cli(capsys, "report", "diag:sl2", "--json", "--no-timing")
    assert code == 0
    doc = json.loads(out)
    assert doc["diagonal_isomorphism"]["passes"] is True
    assert doc["diagonal_isomorphism"]["round_trips"] == 20


GOLDEN_REPORTS = Path(__file__).resolve().parent / "data" / "reports"
RANK_SCALING_REPORTS = Path(__file__).resolve().parent / "data" / "rank_scaling"

# runs `report <spec> --json --no-timing` for each spec in argv in one process
# and writes {spec: [exit code, stdout]} as JSON
_REPORT_ALL = """
import contextlib, io, json, sys
from thetapairs.cli import main
out = {}
for spec in sys.argv[1:]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["report", spec, "--json", "--no-timing"])
    out[spec] = [code, buf.getvalue()]
json.dump(out, sys.stdout)
"""


def _golden_name(spec: str) -> str:
    return spec.replace(":", "_").replace("=", "_") + ".json"


def test_catalog_reports_under_python_O_match_golden():
    # the golden files are the `report <spec> --json --no-timing` stdout of
    # every catalog pair, and of splitA:n=4 and glgl:n=3 for rank scaling;
    # mathematical checks are explicit raises, so -O must change nothing
    rank_scaling = ["splitA:n=4", "glgl:n=3"]
    src = str(Path(thetapairs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-O", "-c", _REPORT_ALL, *FULL_CATALOG, *rank_scaling],
                         env=env, capture_output=True, text=True, check=True)
    got = json.loads(run.stdout)
    golden = {spec: GOLDEN_REPORTS / _golden_name(spec) for spec in FULL_CATALOG}
    assert sorted(p.name for p in GOLDEN_REPORTS.iterdir()) == sorted(
        p.name for p in golden.values())
    golden.update((spec, RANK_SCALING_REPORTS / _golden_name(spec)) for spec in rank_scaling)
    assert sorted(p.name for p in RANK_SCALING_REPORTS.iterdir()) == sorted(
        _golden_name(spec) for spec in rank_scaling)
    for spec, path in golden.items():
        code, out = got[spec]
        assert code == 0, spec
        assert out.encode() == path.read_bytes(), spec


REPORT_SCHEMA = Path(__file__).resolve().parents[1] / "report.schema.json"


def _report_validator():
    from jsonschema import Draft202012Validator

    schema = json.loads(REPORT_SCHEMA.read_text())
    Draft202012Validator.check_schema(schema)
    return Draft202012Validator(schema)


def test_reports_match_the_json_schema():
    from thetapairs.report import build_report

    validator = _report_validator()
    paths = sorted(GOLDEN_REPORTS.iterdir()) + sorted(RANK_SCALING_REPORTS.iterdir())
    assert len(paths) == len(FULL_CATALOG) + 2
    for path in paths:
        validator.validate(json.loads(path.read_text()))
    timed = build_report("splitA:n=1")
    assert "timing_ms" in timed
    # validated as the CLI prints it
    validator.validate(json.loads(json.dumps(timed)))


def test_json_schema_rejects_a_renamed_key():
    validator = _report_validator()
    doc = json.loads((GOLDEN_REPORTS / "diag_sl2.json").read_text())
    top = dict(doc)
    top["fiber_report"] = top.pop("fiber_reports")
    nested = json.loads(json.dumps(doc))
    nested["kw_audit"]["round_trip"] = nested["kw_audit"].pop("round_trips")
    for bad in (top, nested):
        assert not validator.is_valid(bad)


def test_report_stage_error_names_pair_and_stage(capsys, monkeypatch):
    from thetapairs import report

    def boom(pair, seed):
        raise CatalogError("kernel filtration step has the wrong dimension")

    monkeypatch.setattr(report, "fiber_section", boom)
    code, out, err = run_cli(capsys, "report", "splitA:n=1", "--json", "--no-timing")
    assert code == 1
    assert out == ""
    assert err.splitlines() == [
        "error: splitA:n=1: fibers: CatalogError: "
        "kernel filtration step has the wrong dimension"]


def _wrong_rank(vectors):
    return -1


def _dividing_by_zero(vectors):
    raise ZeroDivisionError("Fraction(1, 0)")


@pytest.mark.parametrize("span_rank, message", [
    # the check "a has dimension r1" fails
    (_wrong_rank, "CatalogError: splitA:n=1: a has wrong dimension"),
    # a check raises outside its own error type
    (_dividing_by_zero, "ZeroDivisionError: Fraction(1, 0)"),
])
def test_failed_realize_check_names_the_realize_stage(capsys, monkeypatch,
                                                      span_rank, message):
    from thetapairs import pairs

    monkeypatch.setattr(pairs, "span_rank", span_rank)
    pairs._realize_cached.cache_clear()
    code, out, err = run_cli(capsys, "report", "splitA:n=1", "--json", "--no-timing")
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: splitA:n=1: realize: {message}"]


def _raises_assertion_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_package_has_no_bare_asserts():
    # an assert vanishes under -O; mathematical checks must be explicit raises,
    # and a failed internal check raises CatalogError, not AssertionError
    package = Path(thetapairs.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)
             or isinstance(node, ast.Raise) and node.exc is not None
             and _raises_assertion_error(node)]
    assert found == []


def test_package_has_no_unused_imports():
    # a module-level import that no name in its module reads is dead code
    package = Path(thetapairs.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name not in read]
    assert found == []


def test_package_imports_each_sibling_module_at_one_level():
    # a function-level `from .X import` is there to break an import cycle
    # (jordan's import of pairs); from a module the file already imports at
    # module level, it can sit at the top with the others
    package = Path(thetapairs.__file__).resolve().parent
    found = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        top = {node.module for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level}
        found |= {f"{path.name}:{node.lineno}: .{node.module}"
                  for func in ast.walk(tree)
                  if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                  for node in ast.walk(func)
                  if isinstance(node, ast.ImportFrom) and node.level and node.module in top}
    assert sorted(found) == []


def test_package_has_no_unused_locals():
    # a name bound inside a function by a single-name assignment and never
    # read there is dead code; a call kept for its raise needs no binding
    package = Path(thetapairs.__file__).resolve().parent
    found = set()
    for path in sorted(package.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            read = {node.id for node in ast.walk(func)
                    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
            found |= {f"{path.name}:{node.lineno}: {node.targets[0].id}"
                      for node in ast.walk(func)
                      if isinstance(node, ast.Assign) and len(node.targets) == 1
                      and isinstance(node.targets[0], ast.Name)
                      and node.targets[0].id not in read}
    assert sorted(found) == []


def test_private_functions_read_every_parameter():
    # a private function's parameter that its body never reads is dead
    # weight at every call; a function the package passes around as a value
    # (a `checks` section, a sort key) keeps the signature its callers share
    package = Path(thetapairs.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    callees = {id(node.func) for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.Call)}
    as_value = {node.id if isinstance(node, ast.Name) else node.attr
                for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in callees}
    found = []
    for name, tree in trees.items():
        for func in ast.walk(tree):
            if (not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or not func.name.startswith("_") or func.name.endswith("__")
                    or func.name in as_value):
                continue
            args = func.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                arg for arg in (args.vararg, args.kwarg) if arg is not None]
            read = {node.id for node in ast.walk(func)
                    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
            found += [f"{name}:{func.lineno}: {func.name} {arg.arg}" for arg in params
                      if arg.arg not in read]
    assert found == []


def test_package_has_no_dense_theta():
    # theta is the pair's sign vector (+1 on g0, -1 on g1 coordinates); a
    # dense dim g x dim g form of it is an oracle of the tests only
    package = Path(thetapairs.__file__).resolve().parent
    found = [f"{path.name}:{lineno}" for path in sorted(package.glob("*.py"))
             for lineno, line in enumerate(path.read_text().splitlines(), 1)
             if "theta_coords" in line]
    assert found == []


def test_package_has_no_dense_lifts():
    # Ad(g) is conjugation of N x N matrices (`LinearAlgebraFrame.adjoint`);
    # a dim g x dim g exponential exp(ad x) is an oracle of the tests only
    package = Path(thetapairs.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "exp_nilpotent"
             and isinstance(node.value, ast.Call)
             and isinstance(node.value.func, ast.Attribute) and node.value.func.attr == "ad"]
    assert found == []


def _perfbench_tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_package_has_no_test_only_definitions():
    # every module-level function and class, and every method that is not a
    # dunder, is read by the package or the demos (or wrapped by perfbench's
    # tracer); a definition that only tests read belongs in the tests.  A
    # name is read where it is loaded or imported, a method only where an
    # attribute of its name is loaded, so that a local variable or an
    # assignment of the same name does not count
    root = Path(__file__).resolve().parents[1]
    package = Path(thetapairs.__file__).resolve().parent
    traced = {part for _, qualname in _perfbench_tracer().TARGETS for part in qualname.split(".")}
    names, attributes = set(traced), set(traced)
    defined = []
    for path in sorted(package.glob("*.py")) + sorted((root / "demos").glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        if path.parent != package:
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((path.name, node.lineno, node.name, False))
            if isinstance(node, ast.ClassDef):
                defined += [(path.name, method.lineno, method.name, True) for method in node.body
                            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not (method.name.startswith("__") and method.name.endswith("__"))]
    assert [f"{name}:{lineno}: {defn}" for name, lineno, defn, method in defined
            if defn not in attributes and (method or defn not in names)] == []


def _qualnames(tree):
    # the co_qualname of every function defined in a module, from its source
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append(prefix + child.name)
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return found


def test_catalog_reports_enter_every_fiber_layer_function():
    # building the seven matrix reports from a cold cache, and one slice
    # query per pair (chi1 of the regular semisimple sample, solved back onto
    # the section), enters every function of these modules; one that neither
    # reaches is unused API.  g0_weyl_lifts and its helper are held by
    # perfbench's tracer
    from thetapairs import pairs
    from thetapairs.fibers import regular_ss_element
    from thetapairs.pairs import MATRIX_CATALOG, realize
    from thetapairs.report import build_report
    from thetapairs.slices import build_kw_section, chi1, kw_solve

    exempt = {"g0_weyl_lifts", "_scale_real_root_vector"}
    modules = [importlib.import_module(f"thetapairs.{name}")
               for name in ("slices", "fibers", "diagonal", "involutions")]
    files = {module.__file__ for module in modules}
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in files:
            entered.add((frame.f_code.co_filename, frame.f_code.co_qualname))

    pairs._realize_cached.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for spec in MATRIX_CATALOG:
            build_report(spec, with_timing=False)
            pair = realize(spec)
            kw_solve(build_kw_section(pair), chi1(pair, regular_ss_element(pair)))
    finally:
        sys.setprofile(previous)
    missed = [f"{Path(module.__file__).name}: {name}" for module in modules
              for name in _qualnames(ast.parse(Path(module.__file__).read_text()))
              if (module.__file__, name) not in entered and name not in exempt]
    assert missed == []


def test_perfbench_trace_targets_resolve():
    # perfbench/run.py --trace 1 wraps these names from outside the package:
    # each resolves to a callable, and a method is defined on its class
    # itself, not inherited, since the tracer replaces it there
    tracer = _perfbench_tracer()
    assert tracer.TARGETS
    for module_name, qualname in tracer.TARGETS:
        owner = importlib.import_module(f"thetapairs.{module_name}")
        *owners, name = qualname.split(".")
        for part in owners:
            owner = getattr(owner, part)
        assert name in vars(owner), (module_name, qualname)
        assert callable(getattr(owner, name)), (module_name, qualname)


@pytest.mark.parametrize("name, error", [
    ("conjugate_ss_into_a", ConjugationOutsideField),
    ("fiber_component_dimensions", CentralizerTorusError),
])
def test_a_stage_that_leaves_the_exact_domain_exits_3(capsys, monkeypatch, name, error):
    from thetapairs import report

    def outside(*args):
        raise error("needs sqrt(2) outside Q(i)")

    monkeypatch.setattr(report, name, outside)
    code, out, err = run_cli(capsys, "report", "splitA:n=1", "--json", "--no-timing")
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "domain error (exact field too small): splitA:n=1: dimension_audit: "
        f"{error.__name__}: needs sqrt(2) outside Q(i)"]
