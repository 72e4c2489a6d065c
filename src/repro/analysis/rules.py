"""The determinism rules and their registry.

Each rule is a small AST pass over one file.  Rules report
:class:`~repro.analysis.findings.Finding` records; scoping (which files a
rule runs on at all) lives in :class:`~repro.analysis.policy.LintPolicy`
so the rule bodies stay pure detection logic.

The registry is a plain dict populated by the :func:`register` decorator —
``repro lint --list-rules`` prints it, tests iterate it, and the runner
dispatches from it.
"""

from __future__ import annotations

import ast
from abc import ABC, abstractmethod

from repro.analysis.findings import Finding
from repro.analysis.policy import FileContext


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, ``None`` for anything else."""
    parts: list[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if isinstance(current, ast.Name):
        parts.append(current.id)
        return ".".join(reversed(parts))
    return None


class Rule(ABC):
    """One determinism check: an id, a summary, a scope and a detector."""

    id: str = ""
    summary: str = ""

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether this rule runs on *ctx* at all (scoping, not detection)."""
        return True

    @abstractmethod
    def check(self, ctx: FileContext) -> list[Finding]:
        """All violations of this rule in *ctx*."""

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at *node*."""
        return Finding(
            path=ctx.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.id,
            message=message,
        )


# ---------------------------------------------------------------------------
# no-global-rng


class NoGlobalRng(Rule):
    """Raw RNG construction outside the sanctioned seed-plumbing sites.

    ``np.random.default_rng(...)`` (seeded or not), any legacy
    ``np.random.*`` global-state call, and the stdlib ``random`` module all
    bypass the repository's named-stream discipline: draws then depend on
    call order or process state instead of ``(seed, stream name)``.  Use
    :class:`~repro.simulation.randomness.RandomStreams` for simulation
    components, or :func:`~repro.simulation.randomness.seeded_rng` for an
    explicit, allowlisted seeded fallback.
    """

    id = "no-global-rng"
    summary = (
        "raw np.random/default_rng/stdlib-random use outside "
        "simulation/randomness.py and the CLI entry points"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return not ctx.policy.rng_exempt(ctx.rel)

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        imported_default_rng = False
        for node in ast.walk(ctx.tree):  # type: ignore[arg-type]
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        findings.append(
                            self.finding(
                                ctx,
                                node,
                                "stdlib random imported; use RandomStreams "
                                "or seeded_rng instead",
                            )
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module == "random":
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            "stdlib random imported; use RandomStreams "
                            "or seeded_rng instead",
                        )
                    )
                elif module in ("numpy.random", "np.random"):
                    if any(alias.name == "default_rng" for alias in node.names):
                        imported_default_rng = True
        for node in ast.walk(ctx.tree):  # type: ignore[arg-type]
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if len(parts) >= 2 and parts[-2] == "random" and parts[0] in (
                "np",
                "numpy",
            ):
                what = parts[-1]
                if what == "default_rng":
                    message = (
                        "np.random.default_rng here hides the seed path; "
                        "thread a Generator in, or call seeded_rng for an "
                        "explicit deterministic fallback"
                    )
                else:
                    message = (
                        f"np.random.{what} uses global RNG state; draw from "
                        "a RandomStreams stream instead"
                    )
                findings.append(self.finding(ctx, node, message))
            elif parts[0] == "random" and len(parts) == 2:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"stdlib random.{parts[1]} uses process-global state; "
                        "use RandomStreams or seeded_rng",
                    )
                )
            elif imported_default_rng and name == "default_rng":
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        "default_rng here hides the seed path; thread a "
                        "Generator in, or call seeded_rng",
                    )
                )
        return findings


# ---------------------------------------------------------------------------
# no-wall-clock


#: dotted-name calls that read the host's clock (process-run dependent)
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "time.strftime",
}

#: trailing attribute spellings of datetime/date constructors of "now"
_DATETIME_NOW = {"now", "utcnow", "today"}


class NoWallClock(Rule):
    """Host-clock reads inside simulation paths.

    Virtual time comes from the event kernel (``sim.now``); wall-clock
    values leak host state into results and break byte-identical replay.
    Only the CLI entry points (and the benchmark harnesses outside this
    package) may time things.  ``time.perf_counter`` is deliberately *not*
    flagged: its differences feed only ``wall_clock_s`` measurement fields,
    which the drift gates exclude (and compare under an explicit
    ``--wall-tolerance`` band) rather than byte-match.
    """

    id = "no-wall-clock"
    summary = (
        "time.time()/time.monotonic()/datetime.now() in simulation paths "
        "(perf_counter measurement is exempt)"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return not ctx.policy.wall_clock_allowed(ctx.rel)

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        from_time_imports: set[str] = set()
        for node in ast.walk(ctx.tree):  # type: ignore[arg-type]
            if isinstance(node, ast.ImportFrom) and (node.module or "") == "time":
                for alias in node.names:
                    bare = alias.asname or alias.name
                    if f"time.{alias.name}" in _WALL_CLOCK_CALLS:
                        from_time_imports.add(bare)
        for node in ast.walk(ctx.tree):  # type: ignore[arg-type]
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if name in _WALL_CLOCK_CALLS:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"{name}() reads the host clock; use the kernel's "
                        "virtual time (sim.now)",
                    )
                )
            elif (
                len(parts) >= 2
                and parts[-1] in _DATETIME_NOW
                and parts[-2] in ("datetime", "date")
            ):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"{name}() reads the host clock; simulation "
                        "timestamps must derive from virtual time",
                    )
                )
            elif len(parts) == 1 and parts[0] in from_time_imports:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"{parts[0]}() (imported from time) reads the host "
                        "clock; use the kernel's virtual time",
                    )
                )
        return findings


# ---------------------------------------------------------------------------
# unordered-iteration


#: consumers whose argument order becomes observable output order
_ORDER_SENSITIVE_CALLS = {"list", "tuple", "enumerate", "reversed"}


def _is_set_display(node: ast.AST) -> bool:
    """A literal/comprehension/constructor that yields a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return name in ("set", "frozenset")
    return False


_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _scope_body(root: ast.AST) -> list[ast.AST]:
    """Nodes lexically inside *root*'s scope, nested scopes excluded.

    Nested functions/lambdas/classes are yielded (so callers can recurse)
    but their bodies are not descended into — a name's set-ness never leaks
    across scope boundaries, which is what keeps a parameter called
    ``scenarios`` in one method from inheriting the set-ness of a local
    ``scenarios`` in another.
    """
    nodes: list[ast.AST] = []
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not isinstance(node, _SCOPE_NODES):
            stack.extend(ast.iter_child_nodes(node))
    return nodes


def _infer_set_vars(root: ast.AST, nodes: list[ast.AST]) -> set[str]:
    """Names bound exactly once in this scope, to a set-valued expression.

    Parameters count as pre-existing bindings, so a later ``x = set(...)``
    on a parameter name is a rebinding and stays untrusted.
    """
    assigned: set[str] = set()
    if isinstance(root, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = root.args
        for arg in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + ([args.vararg] if args.vararg else [])
            + ([args.kwarg] if args.kwarg else [])
        ):
            assigned.add(arg.arg)
    set_vars: set[str] = set()
    ordered = sorted(
        (n for n in nodes if isinstance(n, ast.Assign)),
        key=lambda n: (n.lineno, n.col_offset),
    )
    for node in ordered:
        for target in node.targets:
            if not isinstance(target, ast.Name):
                continue
            if target.id in assigned:
                set_vars.discard(target.id)
            else:
                assigned.add(target.id)
                if _is_set_display(node.value):
                    set_vars.add(target.id)
    return set_vars


class UnorderedIteration(Rule):
    """Iteration whose order depends on hash seeds, in critical modules.

    ``set``/``frozenset`` iteration order varies with ``PYTHONHASHSEED``
    (for str/object elements) and with insertion history; any loop,
    comprehension or ``list()``/``tuple()``/``enumerate()`` call over one
    in a determinism-critical module can silently reorder pinned output.
    Wrap the set in ``sorted(...)`` — or keep an ordered structure (dict
    keys are insertion-ordered) in the first place.
    """

    id = "unordered-iteration"
    summary = (
        "iterating a set/frozenset without sorted() in a "
        "determinism-critical module"
    )

    def applies_to(self, ctx: FileContext) -> bool:
        return ctx.policy.is_critical(ctx.rel)

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []

        def flag(node: ast.AST, how: str) -> None:
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"{how} iterates a set in hash order; wrap it in "
                    "sorted(...) to pin the order",
                )
            )

        def check_scope(root: ast.AST) -> None:
            nodes = _scope_body(root)
            set_vars = _infer_set_vars(root, nodes)

            def is_set_expr(node: ast.AST) -> bool:
                if _is_set_display(node):
                    return True
                return isinstance(node, ast.Name) and node.id in set_vars

            for node in nodes:
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    if is_set_expr(node.iter):
                        flag(node.iter, "for loop")
                elif isinstance(
                    node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
                ):
                    for generator in node.generators:
                        # building a set is fine; drawing *from* one is the
                        # hazard — its order feeds whatever is built
                        if is_set_expr(generator.iter):
                            flag(generator.iter, "comprehension")
                elif isinstance(node, ast.Call):
                    name = dotted_name(node.func)
                    if name in _ORDER_SENSITIVE_CALLS and node.args:
                        if is_set_expr(node.args[0]):
                            flag(node, f"{name}()")
                    elif (
                        isinstance(node.func, ast.Attribute)
                        and node.func.attr == "join"
                        and node.args
                        and is_set_expr(node.args[0])
                    ):
                        flag(node, "str.join()")
                elif isinstance(node, ast.Starred) and is_set_expr(node.value):
                    flag(node, "unpacking (*)")
                if isinstance(node, _SCOPE_NODES):
                    check_scope(node)

        check_scope(ctx.tree)  # type: ignore[arg-type]
        return findings


# ---------------------------------------------------------------------------
# mutable-default-arg


_MUTABLE_CALLS = {
    "list",
    "dict",
    "set",
    "collections.defaultdict",
    "defaultdict",
    "collections.OrderedDict",
    "OrderedDict",
    "collections.Counter",
    "Counter",
}


def _is_mutable_value(node: ast.AST) -> bool:
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    if isinstance(node, ast.Call):
        return dotted_name(node.func) in _MUTABLE_CALLS
    return False


class MutableDefaultArg(Rule):
    """A mutable default argument is shared state across every call.

    The classic Python trap, and a determinism hazard on top: two runs
    diverge as soon as call *history* (not arguments) shapes behaviour.
    Default to ``None`` and construct inside the function.
    """

    id = "mutable-default-arg"
    summary = "list/dict/set (or their constructors) as a default argument"

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):  # type: ignore[arg-type]
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if _is_mutable_value(default):
                    where = (
                        f"function {node.name!r}"
                        if not isinstance(node, ast.Lambda)
                        else "lambda"
                    )
                    findings.append(
                        self.finding(
                            ctx,
                            default,
                            f"mutable default argument in {where}; use None "
                            "and construct per call",
                        )
                    )
        return findings


# ---------------------------------------------------------------------------
# worker-shared-state


_MUTATOR_METHODS = {
    "append",
    "add",
    "update",
    "setdefault",
    "extend",
    "insert",
    "remove",
    "discard",
    "pop",
    "popitem",
    "clear",
}


class WorkerSharedState(Rule):
    """Module-level mutable globals written from inside functions.

    Functions that run in process-pool workers see a *copy* of module
    state; writing a module global from a function therefore works
    serially and silently diverges under ``--jobs N``.  The one sanctioned
    pattern is a per-worker registry named ``*_POOL_STATE`` populated only
    by the pool initializer (``*_pool_init``) — each worker fills its own
    copy before tasks run, so serial and parallel rows stay identical
    (``repro.simulation.pool`` holds the one such registry).
    """

    id = "worker-shared-state"
    summary = (
        "writing a module-level mutable global inside a function "
        "(except the *_POOL_STATE initializer pattern)"
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        module = ctx.tree
        assert isinstance(module, ast.Module)
        mutable_globals: set[str] = set()
        for stmt in module.body:
            targets: list[ast.expr] = []
            value: ast.AST | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not _is_mutable_value(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    mutable_globals.add(target.id)
        if not mutable_globals:
            return []

        findings: list[Finding] = []
        policy = ctx.policy
        for node in ast.walk(module):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            sanctioned_init = node.name.endswith(policy.pool_init_suffixes)
            local_names = _local_bindings(node)
            declared_global: set[str] = set()
            for inner in ast.walk(node):
                if isinstance(inner, ast.Global):
                    declared_global.update(inner.names)

            def visible(name: str) -> bool:
                return name in mutable_globals and (
                    name in declared_global or name not in local_names
                )

            def allowed(name: str) -> bool:
                return sanctioned_init and name.endswith(policy.pool_state_suffix)

            for inner in ast.walk(node):
                if isinstance(inner, (ast.Assign, ast.AugAssign)):
                    targets = (
                        inner.targets
                        if isinstance(inner, ast.Assign)
                        else [inner.target]
                    )
                    for target in targets:
                        root = _store_root(target)
                        if root is None or not visible(root) or allowed(root):
                            continue
                        direct = isinstance(target, ast.Name)
                        if direct and root not in declared_global:
                            continue  # plain Name assign without global = local
                        findings.append(
                            self.finding(
                                ctx,
                                inner,
                                f"function {node.name!r} writes module global "
                                f"{root!r}; pool workers mutate a copy — pass "
                                "state explicitly or use the *_POOL_STATE "
                                "initializer pattern",
                            )
                        )
                elif isinstance(inner, ast.Call) and isinstance(
                    inner.func, ast.Attribute
                ):
                    if inner.func.attr not in _MUTATOR_METHODS:
                        continue
                    root = _store_root(inner.func.value)
                    if (
                        root is not None
                        and isinstance(inner.func.value, ast.Name)
                        and visible(root)
                        and not allowed(root)
                    ):
                        findings.append(
                            self.finding(
                                ctx,
                                inner,
                                f"function {node.name!r} mutates module global "
                                f"{root!r} via .{inner.func.attr}(); pool "
                                "workers mutate a copy — pass state explicitly",
                            )
                        )
        return findings


def _store_root(node: ast.AST) -> str | None:
    """Root Name of an assignment target / attribute chain, if any."""
    current = node
    while isinstance(current, (ast.Subscript, ast.Attribute)):
        current = current.value
    if isinstance(current, ast.Name):
        return current.id
    return None


def _local_bindings(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound locally in *func* (params + simple assignment targets)."""
    names: set[str] = set()
    args = func.args
    for arg in (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        names.add(arg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                names.update(_flat_names(target))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            names.update(_flat_names(node.target))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    names.update(_flat_names(item.optional_vars))
        elif isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return names


def _flat_names(target: ast.AST) -> set[str]:
    """Every Name bound by an assignment target (tuples unpacked)."""
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        found: set[str] = set()
        for element in target.elts:
            found.update(_flat_names(element))
        return found
    if isinstance(target, ast.Starred):
        return _flat_names(target.value)
    return set()


# ---------------------------------------------------------------------------
# no-process-global-counter


def _static_statements(body: list[ast.stmt]) -> list[ast.stmt]:
    """Statements executed once per process: *body* plus nested class bodies."""
    found: list[ast.stmt] = []
    for stmt in body:
        found.append(stmt)
        if isinstance(stmt, ast.ClassDef):
            found.extend(_static_statements(stmt.body))
    return found


class NoProcessGlobalCounter(Rule):
    """A counter that lives as long as the interpreter, not the run.

    A module- or class-level ``itertools.count()`` — or its hand-rolled
    twin, a module global that a function rebinds under ``global`` — hands
    out values that depend on everything the process did before: which
    tests ran first, whether a partition executed inline or in a forked
    worker, serial versus ``--jobs``.  Once such a value is stored on an
    object that gets serialized, byte counts (and the joules priced from
    them) inherit that history.  Number things from the object that owns
    them (``self._ids = itertools.count()`` in ``__init__``) instead.
    """

    id = "no-process-global-counter"
    summary = (
        "module/class-level itertools.count(), or a module global rebound "
        "under `global`: ids then depend on process history"
    )

    def check(self, ctx: FileContext) -> list[Finding]:
        module = ctx.tree
        assert isinstance(module, ast.Module)
        counters = {"itertools.count"}
        for node in ast.walk(module):
            if isinstance(node, ast.ImportFrom) and node.module == "itertools":
                counters.update(
                    alias.asname or alias.name
                    for alias in node.names
                    if alias.name == "count"
                )
        findings: list[Finding] = []
        for stmt in _static_statements(module.body):
            value = stmt.value if isinstance(stmt, (ast.Assign, ast.AnnAssign)) else None
            if isinstance(value, ast.Call) and dotted_name(value.func) in counters:
                findings.append(
                    self.finding(
                        ctx,
                        stmt,
                        "process-global counter: its values depend on what "
                        "ran earlier in the interpreter; count from the "
                        "owning object instead",
                    )
                )
        for func in ast.walk(module):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            rebindable = {
                name
                for node in ast.walk(func)
                if isinstance(node, ast.Global)
                for name in node.names
            }
            for node in ast.walk(func):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    if isinstance(target, ast.Name) and target.id in rebindable:
                        findings.append(
                            self.finding(
                                ctx,
                                node,
                                f"function {func.name!r} rebinds module global "
                                f"{target.id!r}; its value then depends on "
                                "call history — keep the state on an object "
                                "the caller owns",
                            )
                        )
        return findings


# ---------------------------------------------------------------------------
# no-pickle-wire

#: the pickle module under both its import names
_PICKLE_MODULES = {"pickle", "_pickle"}

#: the replica wire path: what replica sync ships and what it replicates
_WIRE_PREFIXES = ("coding/", "core/")


class NoPickleWire(Rule):
    """``pickle`` in the replica path.

    What a replica sync ships is an explicit, versioned byte layout
    (``repro.coding.wire``): every field is declared, so payload bytes
    depend on the shipped values alone.  A pickle's bytes depend on
    whatever attributes an object happens to carry and on the Python
    types holding its floats, which is how a stray attribute once moved
    ``coding.payload_bytes``.  The coding layer and the core it
    replicates import no serializer of object graphs at all.
    """

    id = "no-pickle-wire"
    summary = "pickle imported under repro/coding or repro/core (replica wire path)"

    def applies_to(self, ctx: FileContext) -> bool:
        # outside the package (rel None) is strict mode, as for fixtures
        return ctx.rel is None or ctx.rel.startswith(_WIRE_PREFIXES)

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):  # type: ignore[arg-type]
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                if name.split(".")[0] in _PICKLE_MODULES:
                    findings.append(
                        self.finding(
                            ctx,
                            node,
                            f"{name} imported on the replica wire path; ship "
                            "declared state in the repro.coding.wire layout",
                        )
                    )
        return findings


# ---------------------------------------------------------------------------
# no-swallowed-exception

#: handler types broad enough to catch a bug along with the expected failure
_BROAD_EXCEPTIONS = {"Exception", "BaseException", "builtins.Exception",
                     "builtins.BaseException"}


def _raises(body: list[ast.stmt]) -> bool:
    """Whether *body* holds a ``raise`` of its own (nested scopes excluded)."""
    pending: list[ast.AST] = list(body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Raise):
            return True
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda,
                                 ast.ClassDef)):
            pending.extend(ast.iter_child_nodes(node))
    return False


class NoSwallowedException(Rule):
    """A broad ``except`` whose body does not re-raise.

    A bare ``except``, ``except Exception`` or ``except BaseException``
    catches a programming error as readily as the failure it was written
    for; if the handler then carries on, a crashed partition or campaign
    variant turns into a silently different (and still "deterministic")
    result.  Broad handlers are fine when they re-raise — wrapped to name
    the failing unit, as the partition and campaign workers do — and narrow
    handlers (``except ValueError``) are not this rule's business.
    """

    id = "no-swallowed-exception"
    summary = "bare except / except Exception / except BaseException that does not re-raise"

    def check(self, ctx: FileContext) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):  # type: ignore[arg-type]
            if not isinstance(node, ast.ExceptHandler) or _raises(node.body):
                continue
            if node.type is None:
                caught = "bare except"
            else:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                broad = [name for name in map(dotted_name, types) if name in _BROAD_EXCEPTIONS]
                if not broad:
                    continue
                caught = f"except {broad[0]}"
            findings.append(
                self.finding(
                    ctx,
                    node,
                    f"{caught} swallows the error; re-raise it (wrapped to name "
                    "the failing unit) or catch the specific exception expected",
                )
            )
        return findings


# ---------------------------------------------------------------------------
# registry — populated at module level (import time), so pool workers that
# re-import this module rebuild it identically; no function ever writes it

#: rule id -> singleton instance, definition order
RULES: dict[str, Rule] = {
    rule.id: rule
    for rule in (
        NoGlobalRng(),
        NoWallClock(),
        UnorderedIteration(),
        MutableDefaultArg(),
        WorkerSharedState(),
        NoProcessGlobalCounter(),
        NoPickleWire(),
        NoSwallowedException(),
    )
}


def all_rules() -> list[Rule]:
    """Every registered rule, definition order."""
    return list(RULES.values())
