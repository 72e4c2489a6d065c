"""Symbol census: every public name under ``src/repro`` has a product caller.

The knob census's sibling.  A public function, class or method that only
``tests/`` (and its package ``__init__`` re-export) ever mentions is a
feature nobody ships: it costs a reader attention and a refactor care, and
its tests prove only that it agrees with itself.  This scan lists such
names so they are either deleted with their tests or kept *on purpose* —
:data:`ALLOWLIST` holds every kept one with a one-line reason, and the
test fails on a new hit *and* on a stale allowlist entry.

What counts as a reference: a ``Name`` or ``.attribute`` occurrence (methods:
attribute or ``getattr`` string only) in any file under ``src``,
``benchmarks``, ``examples`` or ``tools`` — so import statements,
``__all__`` strings and ``__init__`` re-exports do not count, while a name
reached *through* a re-export (``repro.baselines.BbqArchitecture``) does —
plus the dotted entry-point strings of ``benchmarks/perf/layers.py``
(``Target(...)`` resolves them by name at run time) and the attribute names
in a report's ``SUMMARY`` declaration (``Metrics.summary`` reads them with
``getattr``).  A reference inside
the symbol's own body does not keep it alive, and neither does one inside
another symbol the census has already found dead (iterated to a fixed
point, so a test-only helper of a test-only function is named too).

Pure AST — nothing scanned is imported — and by *name*: a same-named
symbol elsewhere masks a dead one, so this is a floor, not a proof.
Module-level constants and dataclass fields are out of scope (the knob
census covers the configuration ones).
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PRODUCT = ("src", "benchmarks", "examples", "tools")

#: files whose string constants name entry points resolved at run time
STRING_REFERENCES = ("benchmarks/perf/layers.py",)

HOOK = "verification hook: safety code is never a simplicity target"
OBSERVER = "read-only accessor the tests observe product state through"
ORACLE = "exact inverse the tests check a product encoder/clock against"
DEFERRED = (
    "test-only feature, due for deletion with its tests (ROADMAP 6b); kept "
    "only because one PR may remove just a few tests — take it in the next slice"
)

#: test-only public names kept on purpose: ``module::qualname`` -> why
ALLOWLIST = {
    # -- verification hooks -------------------------------------------------
    "src/repro/coding/gf256.py::self_check": HOOK,
    "src/repro/core/push.py::verify_replicas_in_sync": (
        HOOK + " (ROADMAP item 5's model-lockstep invariant in embryo)"
    ),
    # -- what tests look through --------------------------------------------
    "src/repro/analysis/rules.py::all_rules": OBSERVER,
    "src/repro/core/federation.py::FederatedSystem.owner_of": OBSERVER,
    "src/repro/core/prediction.py::PredictionEngine.model_for": OBSERVER,
    "src/repro/energy/duty_cycle.py::DutyCycleConfig.duty_fraction": OBSERVER,
    "src/repro/energy/meter.py::EnergyMeter.category_j": OBSERVER,
    "src/repro/simulation/process.py::PeriodicTask.running": OBSERVER,
    "src/repro/storage/archive.py::ArchiveRecord.aged": OBSERVER,
    "src/repro/storage/archive.py::SensorArchive.n_segments": OBSERVER,
    "src/repro/storage/flash.py::FlashDevice.used_pages": OBSERVER,
    "src/repro/sync/clock.py::DriftingClock.offset_s": OBSERVER,
    "src/repro/sync/clock.py::DriftingClock.skew": OBSERVER,
    "src/repro/sync/protocol.py::TimeSyncProtocol.max_residual_s": OBSERVER,
    "src/repro/timeseries/gaussian.py::MultivariateGaussianModel.marginal": OBSERVER,
    "src/repro/signal/codecs.py::delta_decode": ORACLE,
    "src/repro/signal/codecs.py::dequantize": ORACLE,
    "src/repro/sync/clock.py::DriftingClock.invert": ORACLE,
    "src/repro/timeseries/arima.py::undifference": (
        ORACLE + " (the frozen tests/reference_arima.py forecasts through it)"
    ),
    # -- public API only tests drive today ----------------------------------
    "src/repro/core/federation.py::FederatedSystem.fail_proxy": (
        "pre-run fault API (a death before the first sync); the CLI and "
        "scenarios schedule faults instead"
    ),
    "src/repro/core/federation.py::FederatedSystem.recover_proxy": (
        "fail_proxy's inverse"
    ),
    # -- named for deletion, deferred ---------------------------------------
    "src/repro/coding/gf256.py::gf_div": DEFERRED,
    "src/repro/energy/lifetime.py::LifetimeEstimate": DEFERRED,
    "src/repro/energy/lifetime.py::lifetime_gain": DEFERRED,
    "src/repro/energy/lifetime.py::project_lifetime": DEFERRED,
    "src/repro/index/interval.py::IntervalIndex.lookup_range": DEFERRED,
    "src/repro/index/skipgraph.py::SkipGraph.delete": DEFERRED,
    "src/repro/signal/compress.py::compression_error": DEFERRED,
    "src/repro/signal/denoise.py::denoise": DEFERRED,
    "src/repro/signal/denoise.py::denoised_nonzero_fraction": DEFERRED,
    "src/repro/timeseries/gaussian.py::MultivariateGaussianModel.correlation_matrix": DEFERRED,
    "src/repro/timeseries/markov.py::MarkovChainModel.stationary_distribution": DEFERRED,
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def public_symbols(module: str, tree: ast.Module) -> dict[str, ast.AST]:
    """``module::qualname`` -> node, for public top-level defs and methods."""
    found: dict[str, ast.AST] = {}
    for node in tree.body:
        if not isinstance(node, (*_DEFS, ast.ClassDef)) or node.name.startswith("_"):
            continue
        found[f"{module}::{node.name}"] = node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS) and not item.name.startswith("_"):
                    found[f"{module}::{node.name}.{item.name}"] = item
    return found


def enclosing_class(key: str) -> str | None:
    """The class symbol a method symbol belongs to (``None`` for the rest)."""
    module, qualname = key.split("::")
    return f"{module}::{qualname.split('.')[0]}" if "." in qualname else None


def symbols_only_tests_use(root: Path = ROOT) -> list[str]:
    """Every public symbol of ``src/repro`` no live product code references."""
    trees = {
        path.relative_to(root).as_posix(): ast.parse(path.read_text())
        for directory in PRODUCT
        for path in sorted((root / directory).rglob("*.py"))
    }
    symbols: dict[str, ast.AST] = {}
    for module, tree in trees.items():
        if module.startswith("src/repro/"):
            symbols.update(public_symbols(module, tree))
    # innermost symbol owning each node (methods are registered after, and
    # so overwrite, their class)
    owner = {
        id(inner): key for key, node in symbols.items() for inner in ast.walk(node)
    }
    # name -> owners of its references; "name" for Name nodes, ".name" for
    # attribute-style ones (the only kind that can reach a method)
    references: dict[str, set[str | None]] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            names: list[str] = []
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr, "." + node.attr]
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "hasattr")
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                names = ["." + str(node.args[1].value)]
            elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "SUMMARY"
                for target in node.targets
            ):
                names = [
                    "." + constant.value
                    for constant in ast.walk(node.value)
                    if isinstance(constant, ast.Constant) and isinstance(constant.value, str)
                ]
            elif (
                module in STRING_REFERENCES
                and isinstance(node, ast.Constant)
                and isinstance(node.value, str)
            ):
                parts = node.value.replace(":", ".").split(".")
                names = parts + ["." + part for part in parts]
            for name in names:
                references.setdefault(name, set()).add(owner.get(id(node)))

    def lookup(key: str) -> str:
        short = key.split("::")[1].split(".")[-1]
        return "." + short if enclosing_class(key) else short

    dead: set[str] = set()
    while True:
        still_dead = {
            key
            for key in symbols
            if not any(
                user is None
                or (
                    user != key
                    and user not in dead
                    and enclosing_class(user) not in dead
                    and enclosing_class(user) != key
                )
                for user in references.get(lookup(key), ())
            )
        }
        if still_dead == dead:
            # a dead class speaks for its methods
            return sorted(key for key in dead if enclosing_class(key) not in dead)
        dead = still_dead


def test_every_public_symbol_has_a_product_caller_or_a_reason():
    assert symbols_only_tests_use() == sorted(ALLOWLIST)


def test_census_follows_reexports_dead_callers_and_entry_point_strings(tmp_path):
    """The scan itself works, on a toy package (a summary declaration counts too)."""
    files = {
        "src/repro/pkg/__init__.py": (
            "from repro.pkg.mod import shipped, orphan, Thing\n"
            "__all__ = ['shipped', 'orphan', 'Thing']\n"
        ),
        "src/repro/pkg/mod.py": (
            "def shipped():\n    return _private()\n"
            "def _private():\n    return 1\n"
            "def orphan():\n    return orphan_helper()\n"
            "def orphan_helper():\n    return 2\n"
            "class Thing:\n"
            "    SUMMARY = (('key', 'declared'),)\n"
            "    def declared(self):\n        return 5\n"
            "    def used(self):\n        return 3\n"
            "    def traced(self):\n        return 4\n"
            "    def unused(self):\n        return self.used()\n"
        ),
        "src/repro/app.py": (
            "import repro.pkg\n"
            "def main():\n"
            "    return repro.pkg.shipped(), repro.pkg.Thing().used()\n"
            "if __name__ == '__main__':\n    main()\n"
        ),
        "benchmarks/perf/layers.py": "TARGET = ('repro.pkg.mod', 'Thing.traced')\n",
        "tests/test_mod.py": (
            "from repro.pkg import orphan, Thing\n"
            "def test_it():\n    assert orphan() and Thing().unused()\n"
        ),
    }
    for name, source in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    for directory in PRODUCT:
        (tmp_path / directory).mkdir(exist_ok=True)
    assert symbols_only_tests_use(tmp_path) == [
        "src/repro/pkg/mod.py::Thing.unused",
        "src/repro/pkg/mod.py::orphan",
        "src/repro/pkg/mod.py::orphan_helper",
    ]
