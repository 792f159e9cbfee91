"""The built-in rule set.

Determinism rules (D1–D8) encode the simulator's own invariants — the
properties whose violations historically cost a runtime hunt (CHANGES.md
PRs 1 and 3) — and two generic hygiene rules (G1, G2) cover the Python
footguns that keep producing heisenbugs in event-driven code.

Every rule is intentionally *syntactic*: no type inference, no imports
resolved.  That keeps the pass fast and predictable; where a judgement
call is needed the rules err toward the codebase's established idioms
(e.g. the ``hub is not None`` guard shapes in D8) and accept a
suppression comment as the escape hatch.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.staticcheck.context import FileContext, dotted_name, terminal_name
from repro.staticcheck.registry import Rule, register

#: Methods that insert events into the simulation's timeline.
SCHEDULE_METHODS = frozenset({"schedule", "schedule_at", "schedule_after"})

#: Known set-returning APIs of the codebase (syntactic type knowledge).
SET_RETURNING_METHODS = frozenset({"resident_keys"})

#: Pending-table protocol callbacks that must thread the entry's serial
#: (the PR 3 incarnation-aliasing bug, enforced statically by D4).
PROTOCOL_CALLBACK_RE = re.compile(r"(_timed_out|_retry_walk|_remote_probe)$")

#: Variable names that hold integer cycle counts (D5).
CYCLE_NAME_RE = re.compile(r"(^|_)(cycle|cycles|delay|deadline|arrival|when)$")

#: Telemetry-hub methods that must sit behind the no-hub fast path (D8).
HUB_METHODS = frozenset(
    {"record_latency", "record_app_latency", "maybe_sample", "capture_epoch"}
)

#: ``numpy.random`` attributes that are seeded constructors, not calls on
#: the hidden global generator.
NUMPY_SEEDED = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64", "Philox"}
)


def _is_set_typed(node: ast.expr) -> bool:
    """Syntactically set-valued: literals, ``set()``/``frozenset()``
    calls, known set-returning methods, and set algebra over those."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return True
        if isinstance(func, ast.Attribute) and func.attr in SET_RETURNING_METHODS:
            return True
        return False
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
    ):
        return _is_set_typed(node.left) or _is_set_typed(node.right)
    return False


def _calls_in(nodes: Iterable[ast.stmt], names: frozenset[str]) -> bool:
    """Does any statement in ``nodes`` call a method named in ``names``?"""
    for stmt in nodes:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Call):
                called = terminal_name(sub.func)
                if called in names:
                    return True
    return False


def _contains_bare_div(node: ast.expr) -> bool:
    """A true division not wrapped in an int-producing call.

    ``total / count`` is flagged; ``round(x / y)`` and ``int(x / y)``
    are fine — the quotient never escapes as a float.
    """
    if isinstance(node, ast.Call):
        func_name = terminal_name(node.func)
        if func_name in ("round", "int", "floor", "ceil"):
            return False
        children: Iterable[ast.expr] = [*node.args, *(kw.value for kw in node.keywords)]
        return any(_contains_bare_div(child) for child in children)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return True
    return any(
        _contains_bare_div(child)
        for child in ast.iter_child_nodes(node)
        if isinstance(child, ast.expr)
    )


def _is_schedule_call(node: ast.Call) -> str | None:
    """The schedule-family method name a call invokes, or ``None``."""
    name = terminal_name(node.func)
    return name if name in SCHEDULE_METHODS else None


@register
class UnorderedIterationRule(Rule):
    """D1: unordered iteration feeding simulation state.

    Set iteration order depends on hashing; iterating one to schedule
    events, emit statistics, or build ordered output makes the run
    irreproducible (or leaves it deterministic only by accident).  Dict
    iteration is insertion-ordered, so it is flagged only when the loop
    body schedules events — there the *construction* order of the dict
    silently becomes the event order.
    """

    id = "D1"
    name = "unordered-iteration"
    description = (
        "iteration over a set/frozenset (or a dict feeding event "
        "scheduling) without a sorted() guard"
    )

    def interests(self) -> Iterable[type[ast.AST]]:
        return (ast.For, ast.comprehension)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        if isinstance(node, ast.For):
            self._check_iter(node.iter, node.body, node, ctx)
        elif isinstance(node, ast.comprehension):
            parent = ctx.parents.get(node)
            # A set comprehension over a set stays unordered; only
            # order-preserving consumers make the order observable.
            if isinstance(parent, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                self._check_iter(node.iter, (), node.iter, ctx)

    def _check_iter(
        self,
        iter_expr: ast.expr,
        body: Iterable[ast.stmt],
        where: ast.AST,
        ctx: FileContext,
    ) -> None:
        if _is_set_typed(iter_expr):
            ctx.report(
                self,
                where,
                "iterating an unordered set; wrap the iterable in sorted() "
                "so downstream state is reproducible",
            )
            return
        if (
            isinstance(iter_expr, ast.Call)
            and isinstance(iter_expr.func, ast.Attribute)
            and iter_expr.func.attr in ("keys", "values", "items")
            and _calls_in(body, SCHEDULE_METHODS)
        ):
            ctx.report(
                self,
                where,
                "dict iteration order becomes event order inside this loop; "
                "iterate sorted(...) so scheduling does not depend on "
                "insertion history",
            )


@register
class WallClockRule(Rule):
    """D2: wall-clock or unseeded randomness inside the simulator.

    Simulated time is ``queue.now``; host time and the process-global
    RNGs (``random.*``, ``numpy.random.*``) make runs unreproducible.
    Seeded generators (``random.Random(seed)``,
    ``np.random.default_rng(seed)``) are the sanctioned sources.
    """

    id = "D2"
    name = "wall-clock-or-unseeded-random"
    description = (
        "time.time()/datetime.now()/random.*/np.random.* calls that break "
        "run reproducibility"
    )

    _WALL_CLOCK = frozenset({"time.time", "time.time_ns"})
    _DATE_METHODS = frozenset({"now", "utcnow", "today"})

    def interests(self) -> Iterable[type[ast.AST]]:
        return (ast.Call,)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.Call)
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        parts = dotted.split(".")
        if dotted in self._WALL_CLOCK:
            ctx.report(
                self,
                node,
                f"{dotted}() reads the host clock; simulated time is "
                "queue.now (use time.perf_counter only for host-side "
                "reporting outside the simulation)",
            )
        elif parts[-1] in self._DATE_METHODS and any(
            p in ("datetime", "date") for p in parts[:-1]
        ):
            ctx.report(
                self,
                node,
                f"{dotted}() reads the wall clock; derive timestamps from "
                "the seed/config or stamp results outside the simulation",
            )
        elif parts[0] == "random" and len(parts) == 2 and parts[1].islower():
            ctx.report(
                self,
                node,
                f"{dotted}() uses the process-global RNG; construct a "
                "seeded random.Random(seed) instead",
            )
        elif (
            len(parts) >= 3
            and parts[0] in ("np", "numpy")
            and parts[1] == "random"
            and parts[2] not in NUMPY_SEEDED
        ):
            ctx.report(
                self,
                node,
                f"{dotted}() uses numpy's global generator; use "
                "np.random.default_rng(seed) / SeedSequence instead",
            )


@register
class ScheduleInPastRule(Rule):
    """D3: scheduling an event at a negative cycle or before ``now``.

    The event queue raises at runtime; this catches the two statically
    decidable shapes — a negative literal, and ``now - x`` arithmetic —
    before a workload ever has to trip the runtime guard.
    """

    id = "D3"
    name = "schedule-in-past"
    description = (
        "schedule()/schedule_after() whose cycle argument is negative or "
        "behind now"
    )

    def interests(self) -> Iterable[type[ast.AST]]:
        return (ast.Call,)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.Call)
        method = _is_schedule_call(node)
        if method is None or not node.args:
            return
        when = node.args[0]
        if (
            isinstance(when, ast.UnaryOp)
            and isinstance(when.op, ast.USub)
            and isinstance(when.operand, ast.Constant)
        ):
            ctx.report(
                self,
                node,
                f"{method}() with a negative cycle argument always raises "
                "SimulationError at runtime",
            )
            return
        if method in ("schedule", "schedule_at") and self._subtracts_from_now(when):
            ctx.report(
                self,
                node,
                f"{method}() at `now - ...` targets a cycle in the past; "
                "absolute schedule times must be >= now",
            )

    @staticmethod
    def _subtracts_from_now(expr: ast.expr) -> bool:
        if not (isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.Sub)):
            return False
        left = expr.left
        name = terminal_name(left)
        return name == "now"


@register
class PendingSerialRule(Rule):
    """D4: pending-table callbacks must thread the entry's serial.

    Generation counters restart when a key's pending entry is reaped and
    re-created, so a timeout armed against a dead incarnation can alias
    its successor and cancel a live walk (the bug PR 3's tracing found).
    Every scheduled protocol callback therefore carries the table-unique
    ``serial`` and re-validates it on entry; this rule rejects
    registrations that drop it.
    """

    id = "D4"
    name = "pending-serial-not-threaded"
    description = (
        "pending-table timeout/retry/probe callback scheduled without the "
        "entry's table-unique serial"
    )

    def interests(self) -> Iterable[type[ast.AST]]:
        return (ast.Call,)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.Call)
        if _is_schedule_call(node) is None or len(node.args) < 2:
            return
        callback = node.args[1]
        cb_name = terminal_name(callback)
        if cb_name is None or PROTOCOL_CALLBACK_RE.search(cb_name) is None:
            return
        extras = node.args[2:]
        if any(self._is_serial(arg) for arg in extras):
            return
        ctx.report(
            self,
            node,
            f"{cb_name} is a pending-table protocol callback but no "
            "`serial` is threaded through the schedule call; a reaped and "
            "re-created entry would alias this registration (pass "
            "pending.serial and re-validate it in the callback)",
        )

    @staticmethod
    def _is_serial(arg: ast.expr) -> bool:
        if isinstance(arg, ast.Attribute) and arg.attr == "serial":
            return True
        return isinstance(arg, ast.Name) and arg.id == "serial"


@register
class FloatCycleRule(Rule):
    """D5: float arithmetic leaking into integer cycle domains.

    The event queue orders events by exact integer cycles; a float that
    sneaks into a schedule argument (or a cycle-named variable) makes
    tie-breaking depend on floating-point rounding.  Use ``//``,
    ``round()``, or ``int()`` at the boundary.
    """

    id = "D5"
    name = "float-cycle-arithmetic"
    description = (
        "true division feeding a schedule call or a cycle/delay variable "
        "(use // or round())"
    )

    def interests(self) -> Iterable[type[ast.AST]]:
        return (ast.Call, ast.Assign, ast.AugAssign)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        if isinstance(node, ast.Call):
            method = _is_schedule_call(node)
            if method is not None and node.args and _contains_bare_div(node.args[0]):
                ctx.report(
                    self,
                    node,
                    f"true division in {method}()'s cycle argument produces "
                    "a float event time; use // or round()",
                )
        elif isinstance(node, ast.Assign):
            if len(node.targets) == 1 and _contains_bare_div(node.value):
                name = terminal_name(node.targets[0])
                if name is not None and CYCLE_NAME_RE.search(name):
                    ctx.report(
                        self,
                        node,
                        f"`{name}` holds integer cycles but is assigned a "
                        "true-division result; use // or round()",
                    )
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
            name = terminal_name(node.target)
            if name is not None and CYCLE_NAME_RE.search(name):
                ctx.report(
                    self,
                    node,
                    f"`{name} /= ...` turns an integer cycle count into a "
                    "float; use //=",
                )


@register
class ConfigMutationRule(Rule):
    """D6: mutating a shared config/preset object.

    ``SystemConfig`` and friends are frozen dataclasses shared across
    runs (and across worker processes by the bench runner); attribute
    assignment either raises at runtime or — via tricks — silently
    changes *every* simulation sharing the object.  Derive a new config
    with ``config.derive(...)`` / ``dataclasses.replace`` instead.
    """

    id = "D6"
    name = "config-mutation"
    description = (
        "assignment to an attribute of a config object (configs are "
        "frozen; use .derive())"
    )

    def interests(self) -> Iterable[type[ast.AST]]:
        return (ast.Assign, ast.AugAssign)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if not isinstance(target, ast.Attribute):
                continue
            owner = terminal_name(target.value)
            if owner is not None and (owner == "config" or owner.endswith("_config")):
                ctx.report(
                    self,
                    node,
                    f"mutates `{dotted_name(target.value)}.{target.attr}`; "
                    "configs are frozen shared objects — build a new one "
                    "with .derive()/dataclasses.replace",
                )


@register
class StatsOwnershipRule(Rule):
    """D7: counters incremented outside the owning component.

    Per-component accounting stays trustworthy only if each component's
    counters are written by that component (or its policy delegate, for
    the IOMMU).  Foreign writes go through the sanctioned accessors
    (``system.stats_for(pid)``) which hand back the right counter set.
    """

    id = "D7"
    name = "stats-ownership"
    description = (
        "a stats counter written through a foreign component chain "
        "(use the owner or system.stats_for)"
    )

    _ALLOWED = frozenset({"self.stats", "self.iommu.stats"})

    def interests(self) -> Iterable[type[ast.AST]]:
        return (ast.Call, ast.Assign, ast.AugAssign)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        if isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "inc"
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "stats"
            ):
                dotted = dotted_name(func.value)
                if dotted is None or dotted not in self._ALLOWED:
                    shown = dotted or "<computed receiver>"
                    ctx.report(
                        self,
                        node,
                        f"`{shown}.inc(...)` increments another component's "
                        "counters; only the owner (self.stats), the policy "
                        "delegate (self.iommu.stats), or a counter set "
                        "obtained via system.stats_for(pid) may be written",
                    )
            return
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        for target in targets:
            if (
                isinstance(target, ast.Subscript)
                and isinstance(target.value, ast.Attribute)
                and target.value.attr == "stats"
            ):
                dotted = dotted_name(target.value)
                if dotted != "self.stats":
                    shown = dotted or "<computed receiver>"
                    ctx.report(
                        self,
                        node,
                        f"subscript-assigns `{shown}[...]` from outside the "
                        "owning component; counters are written by their "
                        "owner only",
                    )


@register
class TelemetryGuardRule(Rule):
    """D8: telemetry hub access without the no-hub fast path.

    The zero-perturbation guarantee rests on ``system.telemetry`` being
    ``None`` by default and every component checking before recording.
    An unguarded record call either crashes the default configuration or
    quietly adds work to it.  Files inside ``repro/telemetry/`` (the hub
    implementation itself) are exempt.
    """

    id = "D8"
    name = "unguarded-telemetry"
    description = (
        "telemetry hub record call not protected by an `is not None` "
        "guard (zero-perturbation fast path)"
    )

    def interests(self) -> Iterable[type[ast.AST]]:
        return (ast.Call,)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.Call)
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in HUB_METHODS:
            return
        if "/telemetry/" in ctx.path.replace("\\", "/"):
            return
        receiver = func.value
        root = dotted_name(receiver)
        terminal = terminal_name(receiver)
        if root is None:
            ctx.report(
                self,
                node,
                f"hub method .{func.attr}() called on a computed receiver; "
                "bind the hub to a name and guard it with `is not None`",
            )
            return
        if terminal not in ("hub", "telemetry") and not root.endswith(".telemetry"):
            return
        if not ctx.guarded_not_none(node, root):
            ctx.report(
                self,
                node,
                f"`{root}.{func.attr}(...)` is not behind an "
                f"`if {root} is not None` guard; the no-hub fast path is "
                "what keeps disabled telemetry zero-perturbation",
            )


@register
class UnseededRNGRule(Rule):
    """D9: unseeded RNG construction, and foreign RNGs in backend code.

    D2 catches draws from the process-global generators; this rule
    catches the quieter failure of *constructing* a generator without a
    seed (``random.Random()``, ``np.random.default_rng()``,
    ``SeedSequence()``) — every such object is seeded from the OS and
    makes the run irreproducible, which in a replay backend also means
    silent divergence from the event engine.

    Inside backend code (``repro/sim/backends/``) the rule is stricter:
    *any* ``numpy.random`` construction is flagged, seeded or not.
    Bit-identical replay requires backends to draw randomness through
    the seeded structures they share with the event engine (the
    tracker's ``Random(seed)`` chain), never through a generator of
    their own — a numpy generator seeded with the same integer still
    produces a different draw sequence than CPython's Mersenne Twister.
    """

    id = "D9"
    name = "unseeded-rng"
    description = (
        "RNG constructed without a seed (or any numpy generator in "
        "backend code) — replay fidelity requires config-seeded RNGs"
    )

    _CONSTRUCTORS = frozenset(
        {"Random", "default_rng", "SeedSequence", "PCG64", "Philox"}
    )
    _BACKEND_PATHS = ("/sim/backends/",)

    def interests(self) -> Iterable[type[ast.AST]]:
        return (ast.Call,)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.Call)
        name = terminal_name(node.func)
        if name not in self._CONSTRUCTORS:
            return
        dotted = dotted_name(node.func) or name
        path = ctx.path.replace("\\", "/")
        in_backend = any(marker in path for marker in self._BACKEND_PATHS)
        if in_backend and "random" in dotted.split(".") and name != "Random":
            # np.random.default_rng(seed) et al.: seeded, but a foreign
            # draw sequence — backends must share the engine's RNGs.
            ctx.report(
                self,
                node,
                f"{dotted}() constructs a numpy generator inside backend "
                "code; bit-identical replay must draw through the seeded "
                "structures shared with the event engine",
            )
            return
        if self._is_seeded(node):
            return
        ctx.report(
            self,
            node,
            f"{dotted}() without a seed draws entropy from the OS and "
            "makes the run irreproducible; pass the config seed",
        )

    @staticmethod
    def _is_seeded(node: ast.Call) -> bool:
        if node.args:
            first = node.args[0]
            return not (isinstance(first, ast.Constant) and first.value is None)
        for kw in node.keywords:
            if kw.arg is None:  # **kwargs: assume the seed is in there
                return True
            if kw.arg in ("seed", "entropy"):
                value = kw.value
                return not (
                    isinstance(value, ast.Constant) and value.value is None
                )
        return False


@register
class BareExceptRule(Rule):
    """G1: ``except:`` with no exception type.

    A bare except swallows ``KeyboardInterrupt`` and masks
    ``SimulationError``/``InvariantViolation`` — the exact signals the
    watchdog and invariant checker exist to surface.
    """

    id = "G1"
    name = "bare-except"
    description = "bare `except:` handler (catch a specific exception)"

    def interests(self) -> Iterable[type[ast.AST]]:
        return (ast.ExceptHandler,)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, ast.ExceptHandler)
        if node.type is None:
            ctx.report(
                self,
                node,
                "bare `except:` swallows KeyboardInterrupt and masks "
                "simulator invariant violations; name the exception(s)",
            )


@register
class MutableDefaultRule(Rule):
    """G2: mutable default argument values.

    A shared default list/dict/set is cross-run state in disguise — the
    exact thing a reproducible simulator cannot have.
    """

    id = "G2"
    name = "mutable-default-argument"
    description = "list/dict/set default argument shared across calls"

    _MUTABLE_CALLS = frozenset({"list", "dict", "set", "defaultdict", "Counter"})

    def interests(self) -> Iterable[type[ast.AST]]:
        return (ast.FunctionDef, ast.AsyncFunctionDef)

    def visit(self, node: ast.AST, ctx: FileContext) -> None:
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        defaults: list[ast.expr] = [
            *node.args.defaults,
            *[d for d in node.args.kw_defaults if d is not None],
        ]
        for default in defaults:
            if self._is_mutable(default):
                ctx.report(
                    self,
                    default,
                    f"mutable default argument in {node.name}(); default to "
                    "None and construct inside the function",
                )

    def _is_mutable(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = terminal_name(node.func)
            return name in self._MUTABLE_CALLS
        return False
