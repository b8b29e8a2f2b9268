"""The package holds what a command runs.

All eight commands (``evolve`` twice: from the ground state and from a
field CSV) run in-process on small configs under
``sys.setprofile``; every function defined in ``src/nlslab`` must be
called by one of them, except the entry point.
Functions are matched by (file, name), not by line, because decorators
move ``co_firstlineno``.
"""

import ast
import importlib
import os
import pkgutil
import sys
from pathlib import Path

import nlslab
from nlslab.cli import cli_dispatch

PACKAGE = Path(nlslab.__file__).resolve().parent

# cli.main is the console entry point
NEVER_CALLED = {("cli.py", "main")}

# names this package once exported: gone, or kept only for tests
REMOVED = {"integrate", "laplacian_apply", "norms", "Norms", "closed_form_1d",
           "closed_form_W", "assemble_critical", "phi_quadratic_form", "step",
           "variance", "variance_rate", "default_config", "DimensionError",
           "LambdaPoly", "SpecialRunSpec", "NoBracketError", "PHASE_MAX_ITER",
           "PHASE_TOL", "ALIGNED_WINDOW", "OrderedMap", "imap", "WINDOW", "CHUNK",
           "sha256_bytes", "pmap", "META_TIMES", "_phi_cutoff", "_phi_cutoff_prime",
           "_scatters"}


def _defined():
    out = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.add((path.name, node.name))
    return out


def _run_commands(tmp: Path) -> list:
    cfg = tmp / "small.cfg"
    cfg.write_text("check.identity_n = 2000\n")
    grid = ["--N", "3", "--p", "3", "--rmax", "20", "--n", "1000",
            "--config", str(cfg)]
    # out directory -> argv; evolve runs once from ground, once from a field CSV
    runs = {"ground": ["ground"], "spectrum": ["spectrum"], "construct": ["construct"],
            "evolve": ["evolve", "--initial", "ground", "--t-end", "0.05"],
            "evolve_csv": ["evolve", "--initial", str(tmp / "ground" / "Q.csv"),
                           "--t-end", "0.05"],
            "special": ["special", "--dt", "1e-3"],
            "classify": ["classify", "--t-end", "0.05"],
            "modulate": ["modulate", "--snapshots", str(tmp / "evolve" / "snapshots")],
            "check": ["check"]}
    return [cli_dispatch([argv[0], *grid, *argv[1:], "--out", str(tmp / out)])
            for out, argv in runs.items()]


def test_every_function_is_reached_by_a_command(tmp_path):
    called = set()
    prefix = str(PACKAGE) + os.sep

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            called.add((Path(frame.f_code.co_filename).name, frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        codes = _run_commands(tmp_path)
    finally:
        sys.setprofile(None)
    assert all(rc in (0, 1) for rc in codes), codes
    assert _defined() - called == NEVER_CALLED


def test_every_command_records_its_shots(tmp_path):
    # every command solves the same ground state: all report one pair of
    # solver iteration counts, and check's identity grid its own
    assert all(rc in (0, 1) for rc in _run_commands(tmp_path))
    counts = set()
    for manifest in sorted(tmp_path.glob("*/manifest.txt")):
        lines = manifest.read_text().split("--- config ---")[0].splitlines()
        entries = dict(line.split(" = ", 1) for line in lines)
        counts.add((entries["solver.petviashvili_iters"], entries["solver.newton_iters"]))
    assert len(list(tmp_path.glob("*/manifest.txt"))) == 9
    assert len(counts) == 1
    assert all(int(c) > 0 for c in counts.pop())
    check = (tmp_path / "check" / "manifest.txt").read_text()
    assert "solver.petviashvili_iters_n2000 = " in check
    assert "solver.newton_iters_n2000 = " in check


def test_exports_resolve():
    modules = [nlslab] + [importlib.import_module(f"nlslab.{m.name}")
                          for m in pkgutil.iter_modules(nlslab.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
        assert not REMOVED & set(vars(module)), module.__name__


def _calls_record_check(node) -> bool:
    return isinstance(node, ast.Call) and "record_check" in (
        getattr(node.func, "attr", None), getattr(node.func, "id", None))


def test_every_check_is_recorded_by_a_pipeline_method():
    """The check ledger has one writer: every ``record_check(...)`` call in
    the package sits in a method of ``cli.Pipeline``, and none holds a
    float literal, so every bound is a ``Pipeline.BOUNDS`` entry or a
    named ``Pipeline`` constant."""
    calls, in_pipeline = [], []
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and node.name == "Pipeline":
                in_pipeline += [(path.name, call.lineno) for method in node.body
                                if isinstance(method, ast.FunctionDef)
                                for call in ast.walk(method) if _calls_record_check(call)]
            if _calls_record_check(node):
                calls.append((path.name, node.lineno))
                assert not [c for arg in node.args for c in ast.walk(arg)
                            if isinstance(c, ast.Constant) and isinstance(c.value, float)], \
                    f"{path.name}:{node.lineno} holds a literal bound"
    assert calls and sorted(calls) == sorted(in_pipeline)
