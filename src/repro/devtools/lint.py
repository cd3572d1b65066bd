"""AST-based determinism linter for the simulator tree.

The engine's core promise is bit-deterministic replay: two runs with the
same seed must produce identical epoch bandwidth series.  Whole classes of
bugs silently break that promise — builtin ``hash()`` feeding seeds,
ambient ``random`` state, wall-clock reads inside the timed layers, float
cycle arithmetic, and iteration order leaking out of ``set``s.  This
module catches them mechanically.

Rules (each can be suppressed per line with ``# repro: noqa[CODE]`` or,
for every rule at once, ``# repro: noqa``):

========  ==============================================================
DET001    no builtin ``hash()``/``id()`` — their values vary per process
          (``PYTHONHASHSEED``, allocator layout) and must never feed
          simulation state.
DET002    no ambient randomness inside ``src/repro``: the stdlib
          ``random`` module, ``np.random.seed``, legacy
          ``np.random.RandomState``/global-state helpers, and unseeded
          ``np.random.default_rng()`` are all banned.  Randomness flows
          through ``Engine.rng(name)``.
DET003    no wall-clock reads (``time.time``, ``perf_counter``,
          ``datetime.now``, ...) inside the timed layers (``sim/``,
          ``core/``, ``dram/``, ``cache/``, ``cpu/``, ``qos/``).
DET004    no true division on timestamp-like operands (``when``,
          ``now``, ``deadline``, ``*_at``, ``*_until``); cycle
          arithmetic must use ``//`` so it stays integral.
DET005    no iteration over bare ``set`` literals/comprehensions —
          element order can leak into scheduling decisions.
SIM001    ``Engine.schedule``/``schedule_at`` callsites must pass an
          int-typed delay expression (no float literals, ``float()``
          casts, or ``/`` in the delay argument).
PERF001   ``numpy`` and ``networkx`` may not be imported anywhere in the
          package.  Seeded streams come from :mod:`repro.sim.rng`, a
          bit-exact pure-Python port of numpy's PCG64, and hop distances
          on the full mesh are Manhattan distances filled into dense
          integer latency tables at build time.  Either import costs
          every process start-up time (numpy also ~15 MB resident) for
          work the package does not need.  (Tests may still use both as
          oracles.)  For the same reason digests come from
          :mod:`repro._sha256`, CPython's built-in SHA-256: ``hashlib``
          maps OpenSSL (~3.6 MB resident) into every run.
PERF002   ``heapq``, and the wheel layout constants (``_WHEEL_*``)
          of ``repro.sim.engine``, may only be imported by
          ``sim/engine.py``.  The timing-wheel scheduler keeps a heap
          solely for beyond-horizon overflow entries; a separate
          priority queue anywhere else in the package either duplicates
          event ordering outside the engine's ``(when, seq)`` guarantee
          or reintroduces per-event heap traffic the wheel exists to
          avoid.  Code that needs the wheel's layout is code that writes
          into its buckets; model code posts through the engine's
          scheduling methods instead.
PERF003   serialization modules (``pickle``, ``marshal``, ``shelve``,
          ``dill``) are banned from the package.  Everything the
          package persists (result cache, analysis cache, arena
          documents) is JSON: a pickle on disk is neither
          diffable nor safe to load, and pickling simulator state drags
          serialization overhead and restore hazards into simulation
          code.
PERF004   process-parallelism modules (``multiprocessing``,
          ``concurrent.futures``) may only be imported under
          ``runner/`` (the sweep pool).  Worker processes are an
          orchestration concern; a pool inside simulation code would
          put nondeterministic scheduling next to the event loop the
          whole design keeps bit-deterministic.
PERF005   native-code loading modules (``ctypes``, ``cffi``,
          ``importlib.machinery``) may only be imported under
          ``accel/``.  The compiled backend owns the extension build,
          the ABI handshake, and the pure-Python fallback; a stray
          ``.so`` load elsewhere bypasses backend selection and the
          byte-identity contract the accel package enforces.
========  ==============================================================

Beyond the per-file rules above, ``main`` also runs the whole-program
pass (:mod:`repro.devtools.analysis`) whenever a lint path contains the
``repro`` package: determinism taint (DET1xx), native-mirror integrity
(HOT006), and observability providers (OBS).  ``--list-rules`` shows
both registries.

Usage::

    python -m repro.devtools.lint [--list-rules] [--format=text|json|sarif]
                                  [--output FILE] [--jobs N] [paths ...]
    repro lint [paths ...]

Exit status is non-zero when any diagnostic survives ``# repro: noqa``
suppression; 2 on usage errors (nonexistent or non-Python paths).
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath
from typing import ClassVar, Iterable, Iterator

__all__ = [
    "Diagnostic",
    "LintUsageError",
    "RULES",
    "lint_file",
    "lint_paths",
    "lint_source",
    "main",
]

#: Subpackages of ``repro`` whose code runs inside simulated time.
TIMED_LAYERS = ("sim", "core", "dram", "cache", "cpu", "qos")

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Za-z0-9_,\s]+)\])?", re.IGNORECASE
)


class LintUsageError(Exception):
    """A path argument the linter cannot act on (exit status 2)."""


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule violated at a file/line/column.

    ``end_line`` is the last line of the offending construct (0 when
    unknown); suppression honours a ``# repro: noqa`` on any line of a
    multi-line statement's span, not just the first.
    """

    path: str
    line: int
    col: int
    code: str
    message: str
    end_line: int = field(default=0, compare=False)

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass(frozen=True)
class FileContext:
    """Where a source buffer sits relative to the ``repro`` package."""

    path: str
    lines: tuple[str, ...]

    @property
    def repro_parts(self) -> tuple[str, ...] | None:
        """Path components below the ``repro`` package dir, or None."""
        parts = PurePosixPath(self.path.replace("\\", "/")).parts
        for index, part in enumerate(parts[:-1]):
            if part == "repro":
                return parts[index + 1 :]
        return None

    @property
    def in_repro_package(self) -> bool:
        return self.repro_parts is not None

    @property
    def in_timed_layer(self) -> bool:
        parts = self.repro_parts
        return parts is not None and len(parts) > 1 and parts[0] in TIMED_LAYERS


class Rule(ast.NodeVisitor):
    """Base class for lint rules: an AST visitor with a code and scope.

    Subclasses set ``code``/``summary``, optionally narrow ``applies``,
    and call :meth:`report` from their ``visit_*`` methods.  Register
    with :func:`register` so the CLI and test harness discover them.
    """

    code: ClassVar[str]
    summary: ClassVar[str]

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.diagnostics: list[Diagnostic] = []

    @classmethod
    def applies(cls, ctx: FileContext) -> bool:
        """Whether this rule runs on the file at all (path scoping)."""
        return True

    def report(self, node: ast.AST, message: str) -> None:
        self.diagnostics.append(
            Diagnostic(
                path=self.ctx.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                code=self.code,
                message=message,
                end_line=getattr(node, "end_lineno", 0) or 0,
            )
        )


RULES: dict[str, type[Rule]] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Add a rule class to the registry (decorator)."""
    if rule_cls.code in RULES:
        raise ValueError(f"duplicate rule code {rule_cls.code!r}")
    RULES[rule_cls.code] = rule_cls
    return rule_cls


# ----------------------------------------------------------------------
# expression helpers shared by several rules
# ----------------------------------------------------------------------
def _terminal_name(node: ast.expr) -> str | None:
    """The rightmost identifier of a Name or attribute chain."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _base_chain(node: ast.expr) -> list[str]:
    """Identifier chain of nested attributes, e.g. ``np.random.seed``."""
    chain: list[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        chain.append(node.id)
    chain.reverse()
    return chain


_TIMESTAMP_EXACT = {"when", "now", "deadline", "_now"}
_TIMESTAMP_SUFFIXES = ("_at", "_deadline", "_until")


def _is_timestamp_name(name: str | None) -> bool:
    if name is None:
        return False
    if name in _TIMESTAMP_EXACT:
        return True
    return name.endswith(_TIMESTAMP_SUFFIXES)


def _definitely_float(node: ast.expr) -> bool:
    """True when the expression statically cannot be an int."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, float):
            return True
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div):
            return True
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Name)
            and sub.func.id == "float"
        ):
            return True
    return False


# ----------------------------------------------------------------------
# rules
# ----------------------------------------------------------------------
@register
class NoBuiltinHash(Rule):
    code = "DET001"
    summary = "builtin hash()/id() values vary per process"

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id in ("hash", "id"):
            self.report(
                node,
                f"builtin {node.func.id}() is process-dependent "
                "(PYTHONHASHSEED / allocator layout); derive stable values "
                "from a digest such as repro._sha256.sha256 instead",
            )
        self.generic_visit(node)


@register
class NoAmbientRandomness(Rule):
    code = "DET002"
    summary = "randomness must flow through Engine.rng"

    @classmethod
    def applies(cls, ctx: FileContext) -> bool:
        return ctx.in_repro_package

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self.report(
                    node,
                    "stdlib random module carries ambient global state; "
                    "use Engine.rng(name)",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            self.report(
                node,
                "stdlib random module carries ambient global state; "
                "use Engine.rng(name)",
            )
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        chain = _base_chain(node.func)
        if len(chain) >= 3 and chain[0] in ("np", "numpy") and chain[1] == "random":
            fn = chain[2]
            if fn == "seed":
                self.report(node, "np.random.seed mutates hidden global state")
            elif fn == "RandomState":
                self.report(
                    node, "legacy np.random.RandomState; use Engine.rng(name)"
                )
            elif fn == "default_rng" and not node.args and not node.keywords:
                self.report(
                    node,
                    "unseeded np.random.default_rng() draws OS entropy; "
                    "seed it explicitly or use Engine.rng(name)",
                )
            elif fn[:1].islower() and fn not in ("default_rng",):
                self.report(
                    node,
                    f"np.random.{fn} uses the hidden global generator; "
                    "use Engine.rng(name)",
                )
        self.generic_visit(node)


_WALLCLOCK_TIME_FUNCS = {
    "time",
    "time_ns",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
    "process_time",
    "process_time_ns",
    "clock_gettime",
}
_WALLCLOCK_DATETIME_FUNCS = {"now", "utcnow", "today"}


@register
class NoWallClock(Rule):
    code = "DET003"
    summary = "no wall-clock reads inside the timed layers"

    @classmethod
    def applies(cls, ctx: FileContext) -> bool:
        return ctx.in_timed_layer

    def _flag(self, node: ast.AST, what: str) -> None:
        self.report(
            node,
            f"{what} reads the wall clock inside a timed layer; simulated "
            "components must only observe engine.now",
        )

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "time":
            for alias in node.names:
                if alias.name in _WALLCLOCK_TIME_FUNCS:
                    self._flag(node, f"time.{alias.name}")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        chain = _base_chain(node.func)
        if len(chain) >= 2:
            base, fn = chain[-2], chain[-1]
            if base == "time" and fn in _WALLCLOCK_TIME_FUNCS:
                self._flag(node, f"time.{fn}")
            elif base in ("datetime", "date") and fn in _WALLCLOCK_DATETIME_FUNCS:
                self._flag(node, f"{base}.{fn}")
        self.generic_visit(node)


@register
class NoFloatCycleArithmetic(Rule):
    code = "DET004"
    summary = "cycle/timestamp arithmetic must stay integral (use //)"

    @classmethod
    def _timestamp_in(cls, expr: ast.AST) -> str | None:
        """Timestamp-named value inside ``expr``, skipping call results.

        A function *of* a timestamp (``stats.ipc(0, engine.now)``) returns
        some other quantity, so calls are not descended into.
        """
        if isinstance(expr, ast.Call):
            return None
        name = _terminal_name(expr)  # type: ignore[arg-type]
        if _is_timestamp_name(name):
            return name
        for child in ast.iter_child_nodes(expr):
            found = cls._timestamp_in(child)
            if found is not None:
                return found
        return None

    def visit_BinOp(self, node: ast.BinOp) -> None:
        # Only the numerator matters: dividing a timestamp produces float
        # cycles, while dividing *by* one (``bytes / engine.now``) produces
        # a rate, which is legitimately float.
        if isinstance(node.op, ast.Div):
            name = self._timestamp_in(node.left)
            if name is not None:
                self.report(
                    node,
                    f"true division of timestamp operand {name!r} "
                    "produces float cycles; use floor division (//)",
                )
        self.generic_visit(node)


@register
class NoBareSetIteration(Rule):
    code = "DET005"
    summary = "iteration order of a bare set can leak into scheduling"

    def _check_iter(self, iterable: ast.expr) -> None:
        if isinstance(iterable, (ast.Set, ast.SetComp)):
            kind = "set literal" if isinstance(iterable, ast.Set) else "set comprehension"
            self.report(
                iterable,
                f"iterating a bare {kind}; wrap it in sorted(...) or use a "
                "tuple/list so the order is deterministic",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _check_comprehensions(self, node: ast.AST) -> None:
        for gen in getattr(node, "generators", ()):
            self._check_iter(gen.iter)
        self.generic_visit(node)

    visit_ListComp = _check_comprehensions
    visit_SetComp = _check_comprehensions
    visit_DictComp = _check_comprehensions
    visit_GeneratorExp = _check_comprehensions


@register
class IntegerScheduleDelay(Rule):
    code = "SIM001"
    summary = "Engine.schedule/schedule_at need int-typed delay expressions"

    def visit_Call(self, node: ast.Call) -> None:
        attr = node.func.attr if isinstance(node.func, ast.Attribute) else None
        if attr in ("schedule", "schedule_at"):
            delay: ast.expr | None = node.args[0] if node.args else None
            if delay is None:
                for kw in node.keywords:
                    if kw.arg in ("delay", "when"):
                        delay = kw.value
                        break
            if delay is not None and _definitely_float(delay):
                self.report(
                    delay,
                    f"{attr}() delay expression is float-typed (float "
                    "literal, float() cast, or true division); cycle "
                    "delays must be ints",
                )
        self.generic_visit(node)


#: Packages PERF001 keeps out of ``src/repro``, with the replacement to use.
_BANNED_PACKAGES = {
    "networkx": "mesh hop distances have a closed form (consume the dense "
    "tables on MeshTopology)",
    "numpy": "seeded streams come from repro.sim.rng (bit-exact with "
    "numpy's PCG64)",
}


@register
class NoNumpyOrNetworkx(Rule):
    code = "PERF001"
    summary = "numpy and networkx are never imported by the package"

    @classmethod
    def applies(cls, ctx: FileContext) -> bool:
        return ctx.in_repro_package

    def _check(self, node: ast.AST, module: str) -> None:
        package = module.partition(".")[0]
        hint = _BANNED_PACKAGES.get(package)
        if hint is not None:
            self.report(
                node,
                f"{package} import in the package; {hint}, and the import "
                "alone costs every process start-up time",
            )

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._check(node, alias.name)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if not node.level:
            self._check(node, node.module or "")
        self.generic_visit(node)


@register
class HeapqOnlyInEngine(Rule):
    code = "PERF002"
    summary = "heapq and the wheel layout are confined to sim/engine.py"

    #: The one module allowed to import heapq: the engine keeps a heap
    #: only for timing-wheel overflow entries beyond the horizon.
    _ALLOWED = ("sim", "engine.py")

    @classmethod
    def applies(cls, ctx: FileContext) -> bool:
        parts = ctx.repro_parts
        return parts is not None and parts != cls._ALLOWED

    def _flag(self, node: ast.AST) -> None:
        self.report(
            node,
            "heapq import outside sim/engine.py; event ordering belongs "
            "to the engine's timing wheel (schedule/post/post_chain_at), "
            "and a separate priority queue in simulation code sidesteps "
            "the (when, seq) dispatch-order guarantee or reintroduces "
            "the per-event heap traffic the wheel removes",
        )

    def _absolute(self, node: ast.ImportFrom) -> str:
        """The imported module's dotted name, relative imports resolved."""
        if not node.level:
            return node.module or ""
        package = ["repro", *self.ctx.repro_parts[:-1]]
        if node.level > len(package):
            return ""
        base = package[: len(package) - node.level + 1]
        return ".".join([*base, node.module] if node.module else base)

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "heapq" or alias.name.startswith("heapq."):
                self._flag(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if module == "heapq" or module.startswith("heapq."):
            self._flag(node)
        elif self._absolute(node) == "repro.sim.engine":
            for alias in node.names:
                if alias.name.startswith("_WHEEL_"):
                    self.report(
                        node,
                        f"{alias.name} imported from repro.sim.engine outside "
                        "sim/engine.py; the wheel's bucket layout is the "
                        "engine's own state, so post through "
                        "engine.post/post_at/post_chain_at/post_late_at "
                        "instead of writing into its buckets",
                    )
        self.generic_visit(node)


@register
class NoSerializationImports(Rule):
    code = "PERF003"
    summary = "no pickle/marshal/shelve/dill imports in the package"

    #: Serialization modules covered by the rule.  json is exempt — it
    #: cannot encode object graphs, and it is what the package persists.
    _BANNED = ("pickle", "cPickle", "marshal", "shelve", "dill")

    @classmethod
    def applies(cls, ctx: FileContext) -> bool:
        return ctx.in_repro_package

    def _flag(self, node: ast.AST, module: str) -> None:
        self.report(
            node,
            f"{module} import in the repro package; persist plain data "
            "as JSON (as the result and analysis caches do) instead of "
            "pickling objects",
        )

    def _match(self, name: str) -> str | None:
        for banned in self._BANNED:
            if name == banned or name.startswith(banned + "."):
                return banned
        return None

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            banned = self._match(alias.name)
            if banned is not None:
                self._flag(node, banned)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        banned = self._match(node.module or "")
        if banned is not None:
            self._flag(node, banned)
        self.generic_visit(node)


@register
class ProcessParallelismOnlyInRunner(Rule):
    code = "PERF004"
    summary = (
        "multiprocessing/concurrent.futures imports are confined to runner/"
    )

    #: Directory whose modules may spawn worker processes: the sweep
    #: pool lives here.
    _ALLOWED_DIR = "runner"

    _BANNED = ("multiprocessing", "concurrent.futures")

    @classmethod
    def applies(cls, ctx: FileContext) -> bool:
        parts = ctx.repro_parts
        if parts is None:
            return False
        return not (len(parts) > 1 and parts[0] == cls._ALLOWED_DIR)

    def _flag(self, node: ast.AST, module: str) -> None:
        self.report(
            node,
            f"{module} import outside runner/; worker processes are an "
            "orchestration concern — route parallelism through "
            "repro.runner (the sweep pool) so nondeterministic OS "
            "scheduling never sits next to the bit-deterministic event loop",
        )

    def _match(self, name: str) -> str | None:
        for banned in self._BANNED:
            if name == banned or name.startswith(banned + "."):
                return banned
        return None

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            banned = self._match(alias.name)
            if banned is not None:
                self._flag(node, banned)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        banned = self._match(module)
        if banned is None and module == "concurrent":
            # `from concurrent import futures` reaches the same pool API
            if any(alias.name == "futures" for alias in node.names):
                banned = "concurrent.futures"
        if banned is not None:
            self._flag(node, banned)
        self.generic_visit(node)


@register
class NativeCodeOnlyInAccel(Rule):
    code = "PERF005"
    summary = (
        "native-code loading (ctypes/cffi/importlib.machinery) is "
        "confined to accel/"
    )

    #: The compiled-backend package: the one place that may compile,
    #: load, or talk to a native extension.
    _ALLOWED_DIR = "accel"

    _BANNED = ("ctypes", "cffi", "importlib.machinery")

    @classmethod
    def applies(cls, ctx: FileContext) -> bool:
        parts = ctx.repro_parts
        if parts is None:
            return False
        return not (len(parts) > 1 and parts[0] == cls._ALLOWED_DIR)

    def _flag(self, node: ast.AST, module: str) -> None:
        self.report(
            node,
            f"{module} import outside accel/; native-code loading is the "
            "compiled backend's concern — repro.accel owns the build, "
            "the ABI handshake, and the pure-Python fallback, so a "
            "stray .so load elsewhere bypasses backend selection and "
            "the byte-identity contract",
        )

    def _match(self, name: str) -> str | None:
        for banned in self._BANNED:
            if name == banned or name.startswith(banned + "."):
                return banned
        return None

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            banned = self._match(alias.name)
            if banned is not None:
                self._flag(node, banned)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        banned = self._match(module)
        if banned is None and module == "importlib":
            # `from importlib import machinery` reaches the same loaders
            if any(alias.name == "machinery" for alias in node.names):
                banned = "importlib.machinery"
        if banned is not None:
            self._flag(node, banned)
        self.generic_visit(node)


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def _suppressed_codes(line: str) -> set[str] | None:
    """Codes silenced on this line; empty set means 'all'; None means none."""
    match = _NOQA_RE.search(line)
    if match is None:
        return None
    codes = match.group("codes")
    if codes is None:
        return set()
    return {code.strip().upper() for code in codes.split(",") if code.strip()}


#: Statements with no nested statement list: a noqa anywhere in their
#: multi-line span suppresses findings anywhere in the same span.
_SIMPLE_STMTS = (
    ast.Assign, ast.AnnAssign, ast.AugAssign, ast.Return, ast.Expr,
    ast.Raise, ast.Assert, ast.Delete, ast.Import, ast.ImportFrom,
)


def _noqa_scopes(
    tree: ast.Module,
) -> tuple[tuple[tuple[int, int, int], ...], tuple[tuple[int, int], ...]]:
    """Suppression scopes: function bodies and simple-statement spans.

    A ``# repro: noqa`` on a ``def`` line suppresses findings anywhere in
    that function's body — decorated defs included (the decorator lines
    are outside the span, the ``def`` line anchors it).  A noqa on any
    line of a multi-line *simple* statement covers the whole statement,
    so the comment can trail the closing parenthesis.
    """
    scopes: list[tuple[int, int, int]] = []
    spans: list[tuple[int, int]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scopes.append((node.lineno, node.end_lineno or node.lineno, node.lineno))
        elif isinstance(node, _SIMPLE_STMTS):
            end = node.end_lineno or node.lineno
            if end > node.lineno:
                spans.append((node.lineno, end))
    return tuple(scopes), tuple(spans)


def _apply_noqa(
    diagnostics: Iterable[Diagnostic],
    lines: tuple[str, ...],
    scopes: tuple[tuple[int, int, int], ...] = (),
    spans: tuple[tuple[int, int], ...] = (),
) -> list[Diagnostic]:
    def suppressed_at(lineno: int, code: str) -> bool:
        line = lines[lineno - 1] if 0 < lineno <= len(lines) else ""
        codes = _suppressed_codes(line)
        return codes is not None and (not codes or code in codes)

    kept: list[Diagnostic] = []
    for diag in diagnostics:
        span_end = max(diag.line, diag.end_line)
        candidates = list(range(diag.line, span_end + 1))
        for start, end in spans:
            if start <= diag.line <= end:
                candidates.extend(range(start, end + 1))
        for start, end, def_line in scopes:
            if start <= diag.line <= end:
                candidates.append(def_line)
        if any(suppressed_at(lineno, diag.code) for lineno in candidates):
            continue
        kept.append(diag)
    return kept


def lint_source(source: str, path: str = "<string>") -> list[Diagnostic]:
    """Lint one source buffer; ``path`` drives the path-scoped rules."""
    ctx = FileContext(path=path, lines=tuple(source.splitlines()))
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            Diagnostic(
                path=path,
                line=exc.lineno or 1,
                col=exc.offset or 0,
                code="E999",
                message=f"syntax error: {exc.msg}",
            )
        ]
    diagnostics: list[Diagnostic] = []
    for rule_cls in RULES.values():
        if not rule_cls.applies(ctx):
            continue
        rule = rule_cls(ctx)
        rule.visit(tree)
        diagnostics.extend(rule.diagnostics)
    diagnostics.sort(key=lambda d: (d.line, d.col, d.code))
    scopes, spans = _noqa_scopes(tree)
    return _apply_noqa(diagnostics, ctx.lines, scopes, spans)


def apply_noqa_to_source(
    diagnostics: Iterable[Diagnostic], source: str
) -> list[Diagnostic]:
    """Noqa-filter externally produced diagnostics against one buffer.

    Used by the whole-program pass, whose diagnostics are created outside
    :func:`lint_source` but must honour the same suppression comments.
    """
    lines = tuple(source.splitlines())
    try:
        scopes, spans = _noqa_scopes(ast.parse(source))
    except SyntaxError:
        scopes, spans = (), ()
    return _apply_noqa(diagnostics, lines, scopes, spans)


def lint_file(path: Path | str) -> list[Diagnostic]:
    path = Path(path)
    return lint_source(path.read_text(encoding="utf-8"), str(path))


def _iter_python_files(paths: Iterable[Path | str]) -> Iterator[Path]:
    """Expand path arguments to ``*.py`` files, validating as we go.

    Raises :class:`LintUsageError` for nonexistent paths and for
    explicit file arguments that are not Python source.  The same file
    reached twice via overlapping arguments (``src src/repro``) is
    yielded once.
    """
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if not path.exists():
            raise LintUsageError(f"no such file or directory: {path}")
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix != ".py":
            raise LintUsageError(
                f"not a Python file: {path} (only *.py files can be linted)"
            )
        else:
            candidates = [path]
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            yield candidate


def lint_paths(
    paths: Iterable[Path | str], jobs: int = 1
) -> list[Diagnostic]:
    """Lint every ``*.py`` file under the given files/directories.

    With ``jobs > 1`` files are analyzed in parallel worker processes
    (each file is independent); output order stays deterministic.
    """
    files = list(_iter_python_files(paths))
    if jobs > 1 and len(files) > 1:
        # The linter may parallelize over files; it is tooling, not
        # simulation code, so it exempts itself from its own rule.
        from concurrent.futures import ProcessPoolExecutor  # repro: noqa[PERF004]

        try:
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                per_file = list(pool.map(lint_file, files, chunksize=8))
        except (OSError, ValueError):  # no process support: degrade serially
            per_file = [lint_file(path) for path in files]
    else:
        per_file = [lint_file(path) for path in files]
    diagnostics: list[Diagnostic] = []
    for file_diags in per_file:
        diagnostics.extend(file_diags)
    return diagnostics


_FAMILIES = {
    "DET": "determinism",
    "SIM": "simulation",
    "PERF": "performance",
    "HOT": "hot-path",
    "OBS": "observability",
}


def _family_of(code: str) -> str:
    prefix = code.rstrip("0123456789")
    return _FAMILIES.get(prefix, "general")


def _list_rules() -> str:
    from repro.devtools.analysis import WHOLE_PROGRAM_RULES

    rows = [
        (code, _family_of(code), "per-file", RULES[code].summary)
        for code in sorted(RULES)
    ]
    for code in sorted(WHOLE_PROGRAM_RULES):
        summary, family = WHOLE_PROGRAM_RULES[code]
        rows.append((code, family, "whole-program", summary))
    headers = ("CODE", "FAMILY", "SCOPE", "SUMMARY")
    widths = [max(len(row[i]) for row in (headers, *rows)) for i in range(3)]
    rule = tuple("-" * width for width in widths) + ("-" * 7,)
    return "\n".join(
        "  ".join(row[i].ljust(widths[i]) for i in range(3)) + "  " + row[3]
        for row in (headers, rule, *rows)
    )


def _find_package_roots(paths: Iterable[Path | str]) -> list[Path]:
    """``repro`` package directories reachable from the lint paths."""
    roots: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        candidates = []
        if path.is_dir():
            if path.name == "repro" and (path / "__init__.py").exists():
                candidates.append(path)
            candidates.extend(
                parent for parent in sorted(path.glob("**/repro"))
                if (parent / "__init__.py").exists()
            )
        else:
            for parent in path.parents:
                if parent.name == "repro" and (parent / "__init__.py").exists():
                    candidates.append(parent)
                    break
        for candidate in candidates:
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                roots.append(candidate)
    return roots


def _whole_program_diagnostics(
    roots: Iterable[Path],
    cache_dir: str | None,
    use_cache: bool,
    timings: list[str],
) -> list[Diagnostic]:
    from repro.devtools.analysis import analyze_project

    diagnostics: list[Diagnostic] = []
    for root in roots:
        found, info = analyze_project(root, cache_dir=cache_dir, use_cache=use_cache)
        timings.append(
            f"whole-program {root}: {info['elapsed_s'] * 1000.0:.0f} ms "
            f"({'warm, cache hit' if info['cache_hit'] else 'cold'}; "
            f"fingerprint {info['fingerprint']})"
        )
        # honour inline noqa suppressions in the analyzed sources
        by_path: dict[str, list[Diagnostic]] = {}
        for diag in found:
            by_path.setdefault(diag.path, []).append(diag)
        for path, diags in by_path.items():
            try:
                source = Path(path).read_text(encoding="utf-8")
            except OSError:
                diagnostics.extend(diags)
                continue
            diagnostics.extend(apply_noqa_to_source(diags, source))
    return diagnostics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.devtools.lint",
        description="Determinism linter for the PABST simulator tree.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table (family, scope) and exit",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="diagnostic output format (default: text)",
    )
    parser.add_argument(
        "--output", default=None,
        help="write formatted diagnostics to this file instead of stdout",
    )
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="lint files in N parallel processes (default: 1)",
    )
    parser.add_argument(
        "--no-whole-program", action="store_true",
        help="skip the whole-program analysis pass (DET1xx/HOT006/OBS)",
    )
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="analysis cache directory (default: .repro-cache/analysis)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the fingerprint-keyed analysis cache",
    )
    parser.add_argument(
        "--timings", action="store_true",
        help="print analyzer timing lines to stderr",
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        print(_list_rules())
        return 0

    timings: list[str] = []
    try:
        diagnostics = lint_paths(args.paths, jobs=args.jobs)
    except LintUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if not args.no_whole_program:
        roots = _find_package_roots(args.paths)
        if roots:
            from repro.devtools.analysis.cache import DEFAULT_CACHE_DIR

            cache_dir = args.cache_dir or DEFAULT_CACHE_DIR
            diagnostics.extend(
                _whole_program_diagnostics(
                    roots, cache_dir, not args.no_cache, timings
                )
            )
    diagnostics.sort(key=lambda d: (d.path, d.line, d.col, d.code))

    from repro.devtools.formats import render

    rendered = render(diagnostics, args.format)
    if args.output:
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
    elif rendered:
        print(rendered)
    for line in timings if args.timings else ():
        print(line, file=sys.stderr)
    if diagnostics:
        print(f"{len(diagnostics)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
