"""The reprolint rule set — the repo's correctness contracts, statically.

Every fast path in this reproduction is gated on **bit-identical
samples and message counters** versus the slower engine it replaces.
That guarantee rests on coding conventions that are easy to break in
review; each rule here pins one of them:

========  ======================  =============================================
Rule      Name                    Invariant
========  ======================  =============================================
R001      rng-discipline          randomness only via seeded instances
                                  (``random.Random``, numpy ``Generator``,
                                  :mod:`repro.common.rng`) — never global
                                  module state, which any import can perturb
R002      kernel-purity           ``repro.kernels`` kernels are pure column
                                  transforms: no RNG, no clocks, no I/O, no
                                  module-global mutation (so a fast path
                                  built on them stays bit-identical)
R003      snapshot-completeness   every ``snapshot_state``/``restore_state``
                                  pair covers every mutable attribute, or
                                  names it in ``_SNAPSHOT_EXCLUDE`` (rollback
                                  parity for the sharded engine)
R004      clock-discipline        wall clocks only in telemetry/driver layers
                                  (``obs/``, ``runtime/``, the CLI, the query
                                  driver) — never where a timestamp could leak
                                  into protocol behavior
R005      metric-name-drift       metric-name literals must be on the golden
                                  stability list in ``tests/test_obs.py``
R006      order-hazards           iterating an unordered ``set`` feeds program
                                  order — require ``sorted(...)`` (or a
                                  documented suppression)
========  ======================  =============================================

All rules are pure AST passes (stdlib only).  Suppress a finding inline
with ``# reprolint: disable=RXXX <why>`` — the justification is
mandatory and audited by the engine.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Set, Tuple

from .engine import Finding, Rule, SourceFile, register_rule

__all__ = [
    "RngDiscipline",
    "KernelPurity",
    "SnapshotCompleteness",
    "ClockDiscipline",
    "MetricNameDrift",
    "OrderHazards",
]


# ---------------------------------------------------------------------------
# shared AST utilities
# ---------------------------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a pure Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class ImportMap:
    """Local-name resolution for imported modules and symbols."""

    def __init__(self, tree: ast.AST) -> None:
        #: local alias -> full module path ("np" -> "numpy").
        self.modules: Dict[str, str] = {}
        #: local name -> (module, original) for ``from m import x as y``.
        self.symbols: Dict[str, Tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
                    if alias.asname is None and "." in alias.name:
                        # ``import numpy.random`` binds ``numpy``.
                        self.modules[alias.name.split(".")[0]] = alias.name.split(
                            "."
                        )[0]
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.symbols[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )
                    # ``from numpy import random`` binds a module too.
                    self.modules.setdefault(
                        alias.asname or alias.name,
                        f"{node.module}.{alias.name}",
                    )

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Fully-qualified dotted path with the leading alias expanded,
        or ``None`` when the chain does not start at an import."""
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        if head in self.modules:
            base = self.modules[head]
            return f"{base}.{rest}" if rest else base
        if head in self.symbols:
            module, original = self.symbols[head]
            full = f"{module}.{original}"
            return f"{full}.{rest}" if rest else full
        return None


def _under(rel: str, *prefixes: str) -> bool:
    return any(rel == p or rel.startswith(p.rstrip("/") + "/") for p in prefixes)


# ---------------------------------------------------------------------------
# R001 rng-discipline
# ---------------------------------------------------------------------------

#: ``random`` module attributes that do NOT touch the hidden global
#: generator: instantiable classes only.
_RANDOM_ALLOWED = {"Random", "SystemRandom"}

#: ``numpy.random`` attributes that are explicit-instance constructors
#: (the modern Generator API) rather than legacy global-state functions.
_NP_RANDOM_ALLOWED = {
    "Generator",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "Philox",
    "SFC64",
    "SeedSequence",
    "RandomState",
    "default_rng",
}


@register_rule
class RngDiscipline(Rule):
    """R001: no global-state randomness, anywhere.

    Bit-identical replay across engines and workers requires
    every variate to come from an owned, seeded stream.  Every actor an
    engine runs holds exactly one numpy ``Generator`` (PCG64, from
    ``RandomSource.generator``) and draws its scalars and its columns
    from it, so a site snapshot that captures the generator's state
    rewinds every draw path at once (R003 checks that restore covers
    it); scalar-only baselines hold one seeded ``random.Random``.
    ``random.random()`` and friends draw from interpreter-global state
    that any library import or unrelated code path can silently
    advance; ``np.random.seed`` + module-level draws have the same
    failure mode plus cross-thread sharing.  ``default_rng()``
    *without* a seed is flagged too — it is nondeterministic by
    construction.
    """

    id = "R001"
    name = "rng-discipline"
    summary = "global random.* / np.random.* state is forbidden; use seeded instances"

    def applies_to(self, rel: str) -> bool:
        return rel.endswith(".py")

    def check(self, src: SourceFile) -> Iterator[Finding]:
        imports = ImportMap(src.tree)
        assert src.tree is not None
        for node in ast.walk(src.tree):
            if isinstance(node, ast.ImportFrom) and not node.level:
                if node.module == "random":
                    for alias in node.names:
                        if alias.name not in _RANDOM_ALLOWED:
                            yield src.finding(
                                self.id,
                                node,
                                f"'from random import {alias.name}' pulls a "
                                "global-state function; use a seeded "
                                "random.Random instance",
                            )
                elif node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name not in _NP_RANDOM_ALLOWED:
                            yield src.finding(
                                self.id,
                                node,
                                f"'from numpy.random import {alias.name}' pulls "
                                "a legacy global-state function; use "
                                "numpy.random.Generator",
                            )
            elif isinstance(node, ast.Attribute):
                full = imports.resolve(node)
                if full is None:
                    continue
                if full.startswith("random."):
                    attr = full.split(".", 1)[1]
                    if "." not in attr and attr not in _RANDOM_ALLOWED:
                        yield src.finding(
                            self.id,
                            node,
                            f"random.{attr} draws from the interpreter-global "
                            "RNG; use a seeded random.Random instance",
                        )
                elif full.startswith("numpy.random."):
                    attr = full.split("numpy.random.", 1)[1]
                    if "." not in attr and attr not in _NP_RANDOM_ALLOWED:
                        yield src.finding(
                            self.id,
                            node,
                            f"numpy.random.{attr} uses numpy's global RNG "
                            "state; use numpy.random.Generator(PCG64(seed))",
                        )
            elif isinstance(node, ast.Call):
                full = (
                    imports.resolve(node.func)
                    if isinstance(node.func, (ast.Attribute, ast.Name))
                    else None
                )
                if (
                    full == "numpy.random.default_rng"
                    and not node.args
                    and not node.keywords
                ):
                    yield src.finding(
                        self.id,
                        node,
                        "default_rng() without a seed is nondeterministic; "
                        "pass an explicit seed",
                    )


# ---------------------------------------------------------------------------
# clock detection (shared by R002 and R004)
# ---------------------------------------------------------------------------

_CLOCK_FUNCS = {
    "time",
    "time_ns",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
    "thread_time",
    "thread_time_ns",
}

_CLOCK_DOTTED = (
    {f"time.{f}" for f in _CLOCK_FUNCS}
    | {
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


def _iter_clock_findings(
    rule: Rule, src: SourceFile, imports: ImportMap
) -> Iterator[Finding]:
    assert src.tree is not None
    for node in ast.walk(src.tree):
        if isinstance(node, ast.ImportFrom) and not node.level:
            if node.module == "time":
                for alias in node.names:
                    if alias.name in _CLOCK_FUNCS:
                        yield src.finding(
                            rule.id,
                            node,
                            f"'from time import {alias.name}' imports a wall "
                            "clock into protocol code",
                        )
        elif isinstance(node, ast.Attribute):
            full = imports.resolve(node)
            if full in _CLOCK_DOTTED:
                yield src.finding(
                    rule.id,
                    node,
                    f"{full} reads a clock; timestamps must never influence "
                    "protocol behavior (keep timing in obs/ or runtime/)",
                )


# ---------------------------------------------------------------------------
# R002 kernel-purity
# ---------------------------------------------------------------------------

_IO_BUILTINS = {"open", "print", "input"}
_IO_ATTRS = {"write_text", "write_bytes", "read_text", "read_bytes"}
_IO_MODULES = {"subprocess", "socket"}


@register_rule
class KernelPurity(Rule):
    """R002: kernels are pure column transforms.

    A kernel computes its outputs from its input columns alone, so the
    fast paths built on it give the same samples and counters in every
    process, run and worker.  Anything ambient — RNG, clocks, I/O,
    mutable module globals — is a channel through which two runs (or
    two workers) could diverge, so none of it is allowed in
    ``src/repro/kernels/``.
    """

    id = "R002"
    name = "kernel-purity"
    summary = "src/repro/kernels/ must not draw RNG, read clocks, do I/O, or mutate globals"

    def applies_to(self, rel: str) -> bool:
        return _under(rel, "src/repro/kernels")

    def check(self, src: SourceFile) -> Iterator[Finding]:
        imports = ImportMap(src.tree)
        assert src.tree is not None
        yield from _iter_clock_findings(self, src, imports)
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root == "random":
                        yield src.finding(
                            self.id, node, "kernels must not import random"
                        )
                    elif root in _IO_MODULES:
                        yield src.finding(
                            self.id, node, f"kernels must not import {root}"
                        )
            elif isinstance(node, ast.ImportFrom) and not node.level:
                root = (node.module or "").split(".")[0]
                if root == "random":
                    yield src.finding(
                        self.id, node, "kernels must not import from random"
                    )
                elif root in _IO_MODULES:
                    yield src.finding(
                        self.id, node, f"kernels must not import from {root}"
                    )
            elif isinstance(node, ast.Attribute):
                full = imports.resolve(node)
                if full is not None and full.startswith("numpy.random"):
                    yield src.finding(
                        self.id,
                        node,
                        "kernels must not touch numpy.random — all variates "
                        "are drawn by the protocol layer and passed in as "
                        "columns",
                    )
                elif node.attr in _IO_ATTRS:
                    yield src.finding(
                        self.id, node, f".{node.attr}() is file I/O; kernels are pure"
                    )
            elif isinstance(node, ast.Call):
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in _IO_BUILTINS
                ):
                    yield src.finding(
                        self.id,
                        node,
                        f"{node.func.id}() is I/O; kernels are pure column "
                        "transforms",
                    )
            elif isinstance(node, ast.Global):
                yield src.finding(
                    self.id,
                    node,
                    f"mutating module globals ({', '.join(node.names)}) from a "
                    "kernel makes its behavior order-dependent",
                )


# ---------------------------------------------------------------------------
# R003 snapshot-completeness
# ---------------------------------------------------------------------------

#: Method names whose self-attribute stores do NOT count as protocol
#: mutations (they define or rewind the state rather than evolving it).
_SNAPSHOT_EXEMPT_METHODS = {
    "__init__",
    "__getstate__",
    "__setstate__",
    "snapshot_state",
    "restore_state",
    "snapshot",
    "restore",
}

#: Container-method names treated as mutations of ``self.<attr>`` when
#: called as ``self.<attr>.<mutator>(...)``.
_MUTATOR_METHODS = {
    "append",
    "appendleft",
    "add",
    "clear",
    "discard",
    "extend",
    "insert",
    "pop",
    "popitem",
    "popleft",
    "remove",
    "reverse",
    "setdefault",
    "sort",
    "update",
}


#: Generator / ``random.Random`` draw-method names: a call
#: ``self.<attr>...<draw>(...)`` advances the generator held in
#: ``self.<attr>``, so it counts as a mutation of that attribute.
_DRAW_METHODS = {
    "binomial",
    "choice",
    "exponential",
    "getrandbits",
    "integers",
    "normal",
    "permutation",
    "random",
    "random_raw",
    "shuffle",
    "standard_exponential",
    "standard_normal",
    "uniform",
}


def _root_self_attr(node: ast.AST, self_name: str) -> Optional[str]:
    """The ``self`` attribute an attribute chain starts at
    (``self.gen.bit_generator`` -> ``gen``), else ``None``."""
    while isinstance(node, ast.Attribute):
        attr = _self_attr(node, self_name)
        if attr is not None:
            return attr
        node = node.value
    return None


def _self_attr(node: ast.AST, self_name: str) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == self_name
    ):
        return node.attr
    return None


def _method_self_name(fn: ast.FunctionDef) -> Optional[str]:
    """The receiver name of an instance method, or ``None`` for
    static/class methods (whose first argument is not the instance)."""
    for decorator in fn.decorator_list:
        if isinstance(decorator, ast.Name) and decorator.id in (
            "staticmethod",
            "classmethod",
        ):
            return None
    args = fn.args.posonlyargs + fn.args.args
    return args[0].arg if args else None


def _returns_only_none(fn: ast.FunctionDef) -> bool:
    """True when every ``return`` returns ``None`` — the base-class
    "snapshots unsupported" default, which the rule must not treat as a
    real implementation."""
    returns = [n for n in ast.walk(fn) if isinstance(n, ast.Return)]
    return all(
        r.value is None
        or (isinstance(r.value, ast.Constant) and r.value.value is None)
        for r in returns
    )


def _exclude_names(cls: ast.ClassDef) -> Set[str]:
    """String constants of a class-level ``_SNAPSHOT_EXCLUDE``."""
    out: Set[str] = set()
    for stmt in cls.body:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if not any(
            isinstance(t, ast.Name) and t.id == "_SNAPSHOT_EXCLUDE"
            for t in targets
        ):
            continue
        if isinstance(value, ast.Call) and value.args:
            value = value.args[0]
        if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            for element in value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    out.add(element.value)
    return out


@register_rule
class SnapshotCompleteness(Rule):
    """R003: snapshot/restore pairs must cover every mutable attribute.

    The sharded engine's rollbacks, speculation misses and run-start
    checkpoint assume ``restore_state(snapshot_state())`` followed by the
    same inputs reproduces the same outputs **bit for bit**.  An attribute that protocol methods mutate but the pair does
    not restore silently survives a rollback — parity then breaks only
    on the rare replay paths, the worst kind of bug to chase.  Derived
    caches that rebuild themselves must be listed in a class-level
    ``_SNAPSHOT_EXCLUDE = ("attr", ...)`` so the exemption is explicit
    and reviewed.
    """

    id = "R003"
    name = "snapshot-completeness"
    summary = "snapshot_state/restore_state must cover every mutable attribute"

    def applies_to(self, rel: str) -> bool:
        return _under(rel, "src/repro")

    def check(self, src: SourceFile) -> Iterator[Finding]:
        assert src.tree is not None
        for cls in ast.walk(src.tree):
            if isinstance(cls, ast.ClassDef):
                yield from self._check_class(src, cls)

    def _check_class(
        self, src: SourceFile, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        methods = {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, ast.FunctionDef)
        }
        if "snapshot_state" in methods:
            snap_name, rest_name = "snapshot_state", "restore_state"
        elif "snapshot" in methods and "restore" in methods:
            snap_name, rest_name = "snapshot", "restore"
        else:
            return
        snap = methods[snap_name]
        if _returns_only_none(snap):
            return  # the "unsupported" base-class default
        rest = methods.get(rest_name)
        if rest is None:
            yield src.finding(
                self.id,
                snap,
                f"class {cls.name} defines {snap_name}() without "
                f"{rest_name}() — snapshots must be restorable",
            )
            return
        excluded = _exclude_names(cls)
        mutated = self._mutated_attrs(methods)
        snap_mentions = self._mentioned_attrs(snap)
        rest_mentions = self._mentioned_attrs(rest)
        flagged: Set[str] = set()
        for attr in sorted(mutated - excluded):
            if attr not in rest_mentions:
                flagged.add(attr)
                yield src.finding(
                    self.id,
                    snap,
                    f"{cls.name}.{attr} is mutated by protocol methods but "
                    f"never restored by {rest_name}() — capture it, or list "
                    "it in _SNAPSHOT_EXCLUDE with a justifying comment",
                )
        for attr in sorted(snap_mentions - rest_mentions - excluded - flagged):
            yield src.finding(
                self.id,
                snap,
                f"{cls.name}.{attr} is captured by {snap_name}() but never "
                f"touched by {rest_name}() — restore it (or stop capturing "
                "it)",
            )

    @staticmethod
    def _mutated_attrs(methods: Dict[str, ast.FunctionDef]) -> Set[str]:
        mutated: Set[str] = set()
        for name, fn in methods.items():
            if name in _SNAPSHOT_EXEMPT_METHODS:
                continue
            self_name = _method_self_name(fn)
            if self_name is None:
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        mutated.update(
                            SnapshotCompleteness._store_targets(
                                target, self_name
                            )
                        )
                elif isinstance(node, ast.Delete):
                    for target in node.targets:
                        mutated.update(
                            SnapshotCompleteness._store_targets(
                                target, self_name
                            )
                        )
                elif isinstance(node, ast.Call) and isinstance(
                    node.func, ast.Attribute
                ):
                    attr = None
                    if node.func.attr in _MUTATOR_METHODS:
                        attr = _self_attr(node.func.value, self_name)
                    elif node.func.attr in _DRAW_METHODS:
                        attr = _root_self_attr(node.func.value, self_name)
                    if attr is not None:
                        mutated.add(attr)
        return mutated

    @staticmethod
    def _store_targets(target: ast.expr, self_name: str) -> Set[str]:
        """Attribute names written by one assignment/delete target."""
        out: Set[str] = set()
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                out.update(
                    SnapshotCompleteness._store_targets(element, self_name)
                )
            return out
        if isinstance(target, ast.Starred):
            return SnapshotCompleteness._store_targets(target.value, self_name)
        if isinstance(target, ast.Subscript):
            target = target.value
        attr = _self_attr(target, self_name)
        if attr is not None:
            out.add(attr)
        return out

    @staticmethod
    def _mentioned_attrs(fn: ast.FunctionDef) -> Set[str]:
        self_name = _method_self_name(fn)
        if self_name is None:
            return set()
        out: Set[str] = set()
        for node in ast.walk(fn):
            attr = _self_attr(node, self_name)
            if attr is not None:
                out.add(attr)
        return out


# ---------------------------------------------------------------------------
# R004 clock-discipline
# ---------------------------------------------------------------------------

#: Layers where wall clocks are legitimate: telemetry, engine drivers
#: (run timing for last_run_stats / spans), the CLI, and the query
#: driver's per-query fold timings.  ``kernels/`` is policed by the
#: stricter R002 instead.
_CLOCK_ALLOWED_PREFIXES = (
    "src/repro/obs",
    "src/repro/runtime",
    "src/repro/kernels",
)
_CLOCK_ALLOWED_FILES = {
    "src/repro/cli.py",
    "src/repro/__main__.py",
    "src/repro/query/driver.py",
}


@register_rule
class ClockDiscipline(Rule):
    """R004: wall clocks stay out of protocol code.

    A ``time.time()``/``perf_counter()`` result that reaches a sampling
    decision, a message payload, or an estimator breaks replay: two
    runs of the same seed would diverge, and the bit-parity gates that
    certify every fast path would chase phantom diffs.  Timing is
    telemetry, and telemetry lives in ``obs/``, the engine layer
    (``runtime/``), the CLI, and the query driver's fold timers — never
    in ``core/``, ``net/``, ``stream/``, the estimators, or protocol
    extensions.
    """

    id = "R004"
    name = "clock-discipline"
    summary = "wall clocks only in obs/, runtime/, the CLI, and the query driver"

    def applies_to(self, rel: str) -> bool:
        if not _under(rel, "src/repro"):
            return False
        if rel in _CLOCK_ALLOWED_FILES:
            return False
        return not _under(rel, *_CLOCK_ALLOWED_PREFIXES)

    def check(self, src: SourceFile) -> Iterator[Finding]:
        yield from _iter_clock_findings(self, src, ImportMap(src.tree))


# ---------------------------------------------------------------------------
# R005 metric-name-drift
# ---------------------------------------------------------------------------

_METRIC_METHODS = {"counter", "gauge", "histogram"}


def _load_golden_names(root: Path) -> Optional[Set[str]]:
    """``GOLDEN_METRIC_NAMES`` from ``tests/test_obs.py`` (the single
    source of truth dashboards and the CI artifact diff rely on)."""
    golden_path = root / "tests" / "test_obs.py"
    try:
        tree = ast.parse(golden_path.read_text(encoding="utf-8"))
    except (OSError, SyntaxError):
        return None
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(
                isinstance(t, ast.Name) and t.id == "GOLDEN_METRIC_NAMES"
                for t in node.targets
            )
            and isinstance(node.value, (ast.List, ast.Tuple, ast.Set))
        ):
            return {
                e.value
                for e in node.value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            }
    return None


@register_rule
class MetricNameDrift(Rule):
    """R005: metric names must be on the golden stability list.

    ``tests/test_obs.py`` pins the complete family-name surface
    (``GOLDEN_METRIC_NAMES``); dashboards and the nightly artifact diff
    key on those strings.  Registering a counter/gauge/histogram under a
    name that is not on the list is a silent breaking change.  The fix is to add the name to the golden list (and the
    README table) in the same commit, which forces the rename through
    review.
    """

    id = "R005"
    name = "metric-name-drift"
    summary = "metric-name literals must appear in tests/test_obs.py GOLDEN_METRIC_NAMES"

    def __init__(self) -> None:
        self._golden_cache: Dict[Path, Optional[Set[str]]] = {}

    def applies_to(self, rel: str) -> bool:
        return _under(rel, "src/repro")

    def _golden(self, root: Path) -> Optional[Set[str]]:
        if root not in self._golden_cache:
            self._golden_cache[root] = _load_golden_names(root)
        return self._golden_cache[root]

    def check(self, src: SourceFile) -> Iterator[Finding]:
        assert src.tree is not None
        golden: Optional[Set[str]] = None
        golden_loaded = False
        for node in ast.walk(src.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _METRIC_METHODS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                continue
            metric = node.args[0].value
            if not metric.startswith("repro_"):
                yield src.finding(
                    self.id,
                    node,
                    f"metric name {metric!r} lacks the repro_ namespace prefix",
                )
                continue
            if not golden_loaded:
                golden = self._golden(src.root)
                golden_loaded = True
                if golden is None:
                    yield src.finding(
                        self.id,
                        node,
                        "cannot check metric names: GOLDEN_METRIC_NAMES not "
                        "found in tests/test_obs.py under the analysis root",
                    )
                    return
            assert golden is not None
            if metric not in golden:
                yield src.finding(
                    self.id,
                    node,
                    f"metric {metric!r} is not on the golden stability list in "
                    "tests/test_obs.py — add it there (and to the README "
                    "table) in the same commit",
                )


# ---------------------------------------------------------------------------
# R006 order-hazards
# ---------------------------------------------------------------------------

_SET_METHODS = {"union", "intersection", "difference", "symmetric_difference"}
_ORDER_SENSITIVE_WRAPPERS = {"list", "tuple", "enumerate"}

#: Builtins whose result does not depend on argument order — a
#: comprehension feeding one of these directly is not a hazard.
_ORDER_INSENSITIVE_CONSUMERS = {
    "sorted",
    "set",
    "frozenset",
    "sum",
    "max",
    "min",
    "any",
    "all",
    "len",
    "Counter",
    "dict",
}


def _is_set_construct(node: ast.AST) -> bool:
    """Whether an expression is *syntactically* an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in {"set", "frozenset"}:
            return True
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _SET_METHODS
            and _is_set_construct(func.value)
        ):
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_construct(node.left) or _is_set_construct(node.right)
    return False


@register_rule
class OrderHazards(Rule):
    """R006: iterating an unordered set feeds program order.

    Sample merges, message emission, and pack construction are all
    order-sensitive: the engines' bit-parity contract fixes a single
    canonical order, and folding survivors in ``set`` iteration order
    would make runs hash-seed dependent.  Any ``for``/comprehension
    over a set expression — or materializing one via
    ``list``/``tuple``/``enumerate``/``join`` — must go through
    ``sorted(...)``; where insertion order is genuinely irrelevant,
    document it with a suppression.
    """

    id = "R006"
    name = "order-hazards"
    summary = "iteration over set()/set literals must go through sorted(...)"

    def applies_to(self, rel: str) -> bool:
        return _under(rel, "src/repro")

    def check(self, src: SourceFile) -> Iterator[Finding]:
        assert src.tree is not None
        # Comprehensions passed straight into an order-insensitive
        # consumer (sorted(... for x in set(...)) etc.) are exempt.
        exempt: Set[int] = set()
        for node in ast.walk(src.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in _ORDER_INSENSITIVE_CONSUMERS
            ):
                for arg in node.args:
                    if isinstance(
                        arg,
                        (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp),
                    ):
                        exempt.add(id(arg))
        for node in ast.walk(src.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_set_construct(node.iter):
                    yield self._finding(src, node.iter, "for loop")
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
            ):
                if id(node) in exempt:
                    continue
                for gen in node.generators:
                    if _is_set_construct(gen.iter):
                        yield self._finding(src, gen.iter, "comprehension")
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in _ORDER_SENSITIVE_WRAPPERS
                    and node.args
                    and _is_set_construct(node.args[0])
                ):
                    yield self._finding(src, node.args[0], f"{func.id}()")
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr == "join"
                    and node.args
                    and _is_set_construct(node.args[0])
                ):
                    yield self._finding(src, node.args[0], "str.join()")

    def _finding(self, src: SourceFile, node: ast.AST, context: str) -> Finding:
        return src.finding(
            self.id,
            node,
            f"{context} iterates an unordered set — wrap it in sorted(...) "
            "so downstream order (sample merges, message emission, packs) "
            "is deterministic",
        )
