import ast
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import mimosg
from mimosg import _kernels, analytic, cli, montecarlo

# the public API, sorted: a change to it is a change to this list
PUBLIC_API = [
    "ConfigError", "CoverageCurve", "DomainError", "EstimationError",
    "McConfig", "MimosgError", "NetworkRealization", "NumericalError",
    "RateResult", "RealizationError", "SystemParams", "ValidationReport",
    "__version__", "build_network", "c_m", "coverage",
    "coverage_fullpc_async", "coverage_infinite_m", "coverage_no_pc",
    "default_gamma_shape", "default_params", "density_from_exclusion",
    "draw_phases", "ergodic_rate", "eta_shape", "q2", "run_coverage_mc",
    "run_rate_mc", "sample_hppp", "v_m", "validate",
]


class TestImportSurface:
    def test_all_names_resolve_once(self):
        assert len(mimosg.__all__) == len(set(mimosg.__all__))
        missing = [n for n in mimosg.__all__ if not hasattr(mimosg, n)]
        assert missing == []

    def test_public_api_is_pinned(self):
        assert PUBLIC_API == sorted(PUBLIC_API)
        assert sorted(mimosg.__all__) == PUBLIC_API

    @pytest.mark.parametrize("module,name", [
        (montecarlo, "draw_phases"), (montecarlo, "build_network"),
        (montecarlo, "run_trial"), (montecarlo, "_run_trials"),
        (montecarlo, "run_coverage_mc"), (cli, "validate"),
        (cli, "ergodic_rate")])
    def test_mc_and_cli_hook_targets_exist(self, module, name):
        # the benchmark's tracer hooks these where their callers look them
        # up: module attributes of montecarlo and cli, not of the modules
        # that define them
        assert callable(vars(module).get(name)), name

    @pytest.mark.parametrize("name", ["nearest_bs", "pairwise_dist",
                                      "all_deltas", "sinr_batch"])
    def test_engine_kernels_exist(self, name):
        # geometry and montecarlo call these as _kernels.<name>, and the
        # benchmark's tracer hooks them under the same names
        assert callable(getattr(_kernels, name))

    def test_analytic_hook_targets_exist(self):
        # the benchmark's tracer hooks these where the engine looks them
        # up: attributes of the analytic module, and methods defined on
        # _Context itself; it counts context builds through cache_info
        assert callable(analytic._context)
        assert callable(analytic._context.cache_info)
        for name in ("_coverage_values", "log_panel_grid",
                     "gauss_legendre_panels"):
            assert callable(vars(analytic).get(name)), name
        methods = vars(analytic._Context)
        for name in ("_build_e2_table", "e1_exponent", "e2_exponent"):
            assert callable(methods.get(name)), name
        # the tracer counts the rows of e1_exponent's b argument
        assert list(inspect.signature(methods["e1_exponent"]).parameters) \
            == ["self", "b", "c", "x"]


# Module-level functions and classes of the program that no other program
# code uses, each with the reason it stays
UNREFERENCED_ALLOWED = {
    "params.default_params": "the README's library entry point",
}


def _program_modules() -> dict:
    """The parsed modules of the package, by module name, without the
    re-exports of ``__init__``."""
    src = Path(mimosg.__file__).resolve().parent
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(src.glob("*.py")) if path.stem != "__init__"}


def _references(modules: dict) -> set:
    """The "module.name" of every top-level definition that program code
    uses outside the definition itself: as a name of its own module, a
    name imported from its module, or an attribute of its imported
    module."""
    refs = set()
    for mod, tree in modules.items():
        imported, aliases = {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for a in node.names:
                    name = a.asname or a.name
                    if node.module is None:         # from . import _kernels
                        aliases[name] = a.name
                    else:
                        imported[name] = f"{node.module}.{a.name}"
        for top in tree.body:
            own = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and node.id != own:
                    refs.add(imported.get(node.id, f"{mod}.{node.id}"))
                elif (isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and node.value.id in aliases):
                    refs.add(f"{aliases[node.value.id]}.{node.attr}")
    return refs


def test_program_definitions_are_used_by_the_program():
    """Every module-level function and class in ``src/mimosg`` is used by
    other program code, not only by tests or an ``__init__`` re-export;
    the exceptions are UNREFERENCED_ALLOWED, which must stay exact."""
    modules = _program_modules()
    defined = {f"{mod}.{node.name}" for mod, tree in modules.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    unused = defined - _references(modules)
    assert sorted(unused - set(UNREFERENCED_ALLOWED)) == []
    assert sorted(set(UNREFERENCED_ALLOWED) - unused) == []


# Methods and properties of program classes that no program code accesses
# by name, each with the reason it stays
UNACCESSED_MEMBERS_ALLOWED = {
    "params.SystemParams.with_updates": "the README's way to vary one input",
}


def test_program_members_are_used_by_the_program():
    """Every method and property of a class in ``src/mimosg`` is accessed
    by name (``obj.name``) by program code outside its own body; dunder
    methods, which Python calls itself, are exempt. Accesses are matched
    by name alone, whatever the object. The exceptions are
    UNACCESSED_MEMBERS_ALLOWED, which must stay exact."""
    modules = _program_modules()

    def accesses(node) -> Counter:
        return Counter(n.attr for n in ast.walk(node)
                       if isinstance(n, ast.Attribute))

    total = sum((accesses(tree) for tree in modules.values()), Counter())
    unused = set()
    for mod, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if (isinstance(fn, ast.FunctionDef)
                        and not fn.name.startswith("__")
                        and total[fn.name] == accesses(fn)[fn.name]):
                    unused.add(f"{mod}.{cls.name}.{fn.name}")
    assert sorted(unused - set(UNACCESSED_MEMBERS_ALLOWED)) == []
    assert sorted(set(UNACCESSED_MEMBERS_ALLOWED) - unused) == []


# Parameters of program functions and methods that their bodies never read,
# each with the reason it stays
UNREAD_PARAMETERS_ALLOWED = {
    **{f"cli.{cmd}(args)": "the signature every cmd_* handler is dispatched "
       "with" for cmd in ("cmd_coverage_mc", "cmd_rate", "cmd_rate_mc")},
    **{f"analytic._e2_slot({name})": "part of the lru_cache key of the E2 "
       "table" for name in ("pi_lam", "r0", "r_e", "alpha", "eps")},
}


def _functions(node, prefix):
    """(qualified name, node) of every function and method below ``node``,
    nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if isinstance(child, ast.FunctionDef):
                yield name, child
            yield from _functions(child, name)
        else:
            yield from _functions(child, prefix)


def test_program_parameters_are_read():
    """Every parameter of a function or method in ``src/mimosg`` is read
    by its body, nested functions included; the exceptions are
    UNREAD_PARAMETERS_ALLOWED, which must stay exact."""
    unread = set()
    for mod, tree in _program_modules().items():
        for name, fn in _functions(tree, mod):
            a = fn.args
            params = [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs,
                                      a.vararg, a.kwarg) if x is not None]
            read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread.update(f"{name}({p})" for p in params if p not in read)
    assert sorted(unread - set(UNREAD_PARAMETERS_ALLOWED)) == []
    assert sorted(set(UNREAD_PARAMETERS_ALLOWED) - unread) == []


# The power, noise and path-gain parameters: only the terms of the inverse
# SINR read them, and those terms live in ``_kernels``
KERNEL_ONLY_PARAMETERS = {"p_d", "p_u", "sigma2", "omega"}


def test_analytic_reads_sinr_terms_from_the_kernels():
    """The analytic engine takes every coefficient of the inverse SINR
    from ``_kernels`` and only multiplies it by its means, so it reads none
    of the parameters that those coefficients alone need: a second copy of
    a term would have to read them."""
    tree = _program_modules()["analytic"]
    reads = sorted(f"{n.attr} (line {n.lineno})" for n in ast.walk(tree)
                   if isinstance(n, ast.Attribute)
                   and n.attr in KERNEL_ONLY_PARAMETERS)
    assert reads == []


# The kernels that lay a realization's users out and read that layout: the
# Monte Carlo engine reaches them only through ``_kernels.cell_sinr``
LAYOUT_KERNELS = {"pairwise_dist", "all_deltas", "sinr_batch", "_user_cells"}


def test_montecarlo_leaves_the_user_layout_to_the_kernels():
    """``montecarlo`` calls none of the layout kernels itself: the tagged
    cell's SINR is one ``cell_sinr`` call, the entry the oracle parity
    tests run too."""
    calls = sorted(f"{name} (line {node.lineno})"
                   for node in ast.walk(_program_modules()["montecarlo"])
                   if isinstance(node, ast.Call)
                   for name in [getattr(node.func, "attr",
                                        getattr(node.func, "id", None))]
                   if name in LAYOUT_KERNELS)
    assert calls == []


@pytest.mark.parametrize("module", ["_kernels", "montecarlo"])
def test_phase_codes_are_compared_by_name(module):
    """The MC engine compares phase draws with the PHASE_* names of
    ``params``, never with a bare integer: the codes are defined once, by
    the order of PhaseTriple's fields."""
    literals = []
    for node in ast.walk(_program_modules()[module]):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(n, ast.Name) and n.id == "phases"
                   for o in operands for n in ast.walk(o)):
                literals += [f"line {o.lineno}" for o in operands
                             if isinstance(o, ast.Constant)
                             and type(o.value) is int]
    assert literals == []


# Runs the CLI on coverage, rate, sweep and a 3-trial validate, then prints
# the scipy modules the process has loaded.
_GUARD_SCRIPT = """
import json, sys
from mimosg.cli import main
out = sys.argv[1]
common = ["--thresholds-db", "0:10:5", "--output", out, "--format", "json"]
codes = [main(["coverage", "--mode", "async", *common]),
         main(["rate", "--mode", "sync", "--eps", "0.5", "--output", out]),
         main(["sweep", "--param", "np", "--values", "5,10", "--mode", "sync",
               "--output", out]),
         main(["validate", "--mode", "async", "--gate", "0.9", "--trials",
               "3", *common])]
print(json.dumps({"codes": codes, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}))
"""


def test_cli_runs_without_importing_scipy(tmp_path):
    """scipy is a test-only oracle: no command the CLI runs imports it."""
    src = str(Path(mimosg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _GUARD_SCRIPT, str(tmp_path / "out.json")],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["codes"][:3] == [0, 0, 0]
    assert result["codes"][3] in (0, 4)
    assert result["scipy"] == []
