"""The replint rule pack: repo-specific determinism and safety checks.

One combined :class:`ast.NodeVisitor` walks each file once and emits
findings for every rule; the :data:`RULES` catalog carries the metadata
(``--list-rules``, docs, tests).  Rule rationale lives in
``docs/correctness.md``; in one line each:

=======  ==============================================================
RPL001   No wall-clock reads in simulator code — timelines must depend
         only on the event engine's clock, never on host time.
RPL002   No unseeded module-level ``random`` — a trace built from the
         global RNG differs run to run; use ``random.Random(seed)``.
RPL003   No iteration over sets (or list()/tuple() of a set) — set order
         is hash-seed dependent and would feed event ordering.
RPL004   No ``id()`` as a key or sort key — CPython addresses vary run
         to run; use a stable identity such as ``OpState.key``.
RPL005   No ``==``/``!=`` on simulated timestamps — accumulated float
         round-off makes exact equality timing-dependent; use the
         engine's tolerance helpers (``times_close``) or ``math.isnan``.
RPL006   No ``object.__setattr__`` outside ``__init__``/``__post_init__``
         /``__new__`` — mutating frozen specs breaks the serialization
         and caching contracts built on their immutability.
RPL007   No mutable default arguments — the shared default leaks state
         across calls (and across simulations).
RPL008   No comparison against a float literal below 1e-12 in magnitude
         — an absolute epsilon that small is below the round-off of the
         quantities it guards; make the tolerance relative.
RPL009   No builtin ``sum()`` in simulator code — its float rounding
         changed in Python 3.12, so a total could differ in its last bit
         between interpreters; use ``repro.numeric.ordered_sum``.
=======  ==============================================================
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .engine import Finding, Rule

RULES: dict[str, Rule] = {
    rule.code: rule
    for rule in (
        Rule(
            code="RPL001",
            name="wall-clock-in-sim",
            summary="wall-clock read in simulator code",
            hint=(
                "simulator code must read time from the EventQueue clock "
                "(engine.now); wall-clock belongs outside sim/cluster/"
                "collectives (e.g. report wall_time in repro.api)"
            ),
            sim_only=True,
        ),
        Rule(
            code="RPL002",
            name="unseeded-random",
            summary="module-level (unseeded) random in simulator code",
            hint=(
                "use an explicit random.Random(seed) instance so traces are "
                "reproducible (see repro.cluster.jobs.poisson_trace)"
            ),
            sim_only=True,
        ),
        Rule(
            code="RPL003",
            name="set-iteration-order",
            summary="iteration over a set (hash-order dependent)",
            hint=(
                "wrap in sorted(...) or keep an insertion-ordered dict/list; "
                "set order depends on the hash seed and would make event "
                "ordering irreproducible"
            ),
            sim_only=True,
        ),
        Rule(
            code="RPL004",
            name="id-as-key",
            summary="id() used as a key (address-dependent identity)",
            hint=(
                "object addresses differ run to run; key on a stable "
                "identity instead (e.g. OpState.key, request_id, name)"
            ),
            sim_only=True,
        ),
        Rule(
            code="RPL005",
            name="float-time-equality",
            summary="==/!= on simulated timestamps",
            hint=(
                "exact float equality on times breaks under accumulated "
                "round-off; use repro.sim.times_close(a, b), ordered "
                "comparisons, or math.isnan for NaN sentinels"
            ),
            sim_only=True,
        ),
        Rule(
            code="RPL006",
            name="frozen-spec-mutation",
            summary="object.__setattr__ outside __init__/__post_init__",
            hint=(
                "frozen dataclasses may self-initialize in __post_init__ "
                "only; elsewhere build a new instance with dataclasses."
                "replace(...) instead of mutating"
            ),
            sim_only=False,
        ),
        Rule(
            code="RPL007",
            name="mutable-default-arg",
            summary="mutable default argument",
            hint=(
                "default to None and create the list/dict/set inside the "
                "function; the shared default object leaks state across "
                "calls"
            ),
            sim_only=False,
        ),
        Rule(
            code="RPL008",
            name="tiny-absolute-epsilon",
            summary="comparison against a float literal below 1e-12",
            hint=(
                "an absolute epsilon below 1e-12 is smaller than the float "
                "round-off of a simulated time or byte total; compare against "
                "a tolerance scaled by the quantity (rtol * total, or "
                "repro.sim.times_close)"
            ),
            sim_only=True,
        ),
        Rule(
            code="RPL009",
            name="builtin-sum",
            summary="builtin sum() in simulator code",
            hint=(
                "builtin sum() compensates float round-off since Python 3.12, "
                "so a total can differ between interpreters; use "
                "repro.numeric.ordered_sum, which adds left to right"
            ),
            sim_only=True,
        ),
    )
}

#: ``time`` module functions that read the host clock.
_WALL_CLOCK_TIME_ATTRS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
    }
)
#: ``datetime``/``date`` constructors that read the host clock.
_WALL_CLOCK_DATE_ATTRS = frozenset({"now", "utcnow", "today"})
_DATEY_NAMES = frozenset({"datetime", "date"})

#: Module-level ``random.X`` calls that draw from the unseeded global RNG.
_GLOBAL_RANDOM_ATTRS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "uniform",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "gauss",
        "normalvariate",
        "expovariate",
        "betavariate",
        "paretovariate",
        "lognormvariate",
        "vonmisesvariate",
        "weibullvariate",
        "triangular",
        "getrandbits",
        "randbytes",
        "seed",
    }
)

#: Attribute/variable names treated as simulated timestamps by RPL005.
_TIME_NAME_EXACT = frozenset({"now", "time"})
_TIME_NAME_SUFFIXES = ("_time", "_since", "_at", "_deadline")

#: Float literals smaller than this in magnitude (and nonzero) are absolute
#: epsilons RPL008 rejects in comparisons.
_TINY_EPSILON = 1e-12

#: Constructors whose zero-argument call builds a mutable container.
_MUTABLE_FACTORIES = frozenset({"list", "dict", "set"})


def _terminal_name(node: ast.expr) -> str | None:
    """The identifier a Name/Attribute expression ends in, if any."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _is_time_like(node: ast.expr) -> bool:
    """Whether an expression reads like a simulated timestamp (RPL005)."""
    name = _terminal_name(node)
    if name is None:
        return False
    return name in _TIME_NAME_EXACT or name.endswith(_TIME_NAME_SUFFIXES)


def _is_tiny_float(node: ast.expr) -> bool:
    """Whether ``node`` is a (signed) nonzero float literal below
    ``_TINY_EPSILON`` in magnitude (RPL008)."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < abs(node.value) < _TINY_EPSILON
    )


def _is_set_expr(node: ast.expr) -> bool:
    """Set display, set comprehension, or ``set(...)``/``frozenset(...)``."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(
        node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    ):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_FACTORIES
    )


#: Methods in which frozen dataclasses may legitimately self-initialize.
_SETATTR_OK_SCOPES = frozenset({"__init__", "__post_init__", "__new__", "__setstate__"})


class _Checker(ast.NodeVisitor):
    """Single-pass visitor emitting findings for every enabled rule."""

    def __init__(self, path: str, sim_scope: bool) -> None:
        self.path = path
        self.sim_scope = sim_scope
        self.findings: list[Finding] = []
        self._function_stack: list[str] = []

    # --- emission -----------------------------------------------------------
    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        rule = RULES[code]
        if rule.sim_only and not self.sim_scope:
            return
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 0),
                col=getattr(node, "col_offset", 0),
                code=code,
                message=message,
                hint=rule.hint,
            )
        )

    # --- function scope tracking (RPL006 exemptions, RPL007) ----------------
    def _visit_function(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        args = node.args
        defaults = list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]
        for default in defaults:
            if _is_mutable_default(default):
                self._emit(
                    default,
                    "RPL007",
                    f"function {node.name!r} has a mutable default argument",
                )
        self._function_stack.append(node.name)
        self.generic_visit(node)
        self._function_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        for default in list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]:
            if _is_mutable_default(default):
                self._emit(default, "RPL007", "lambda has a mutable default argument")
        self.generic_visit(node)

    # --- calls (RPL001, RPL002, RPL004, RPL006) -----------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            self._check_attribute_call(node, func)
        elif isinstance(func, ast.Name):
            self._check_name_call(node, func)
        # ``key=id`` hands the address-identity function straight to a sort.
        for keyword in node.keywords:
            if (
                keyword.arg == "key"
                and isinstance(keyword.value, ast.Name)
                and keyword.value.id == "id"
            ):
                self._emit(
                    keyword.value, "RPL004", "id used as a sort/group key"
                )
        self.generic_visit(node)

    def _check_attribute_call(self, node: ast.Call, func: ast.Attribute) -> None:
        base = func.value
        base_name = _terminal_name(base)
        if base_name == "time" and func.attr in _WALL_CLOCK_TIME_ATTRS:
            self._emit(node, "RPL001", f"wall-clock read time.{func.attr}()")
        elif base_name in _DATEY_NAMES and func.attr in _WALL_CLOCK_DATE_ATTRS:
            self._emit(
                node, "RPL001", f"wall-clock read {base_name}.{func.attr}()"
            )
        elif (
            isinstance(base, ast.Name)
            and base.id == "random"
            and func.attr in _GLOBAL_RANDOM_ATTRS
        ):
            self._emit(
                node,
                "RPL002",
                f"global-RNG call random.{func.attr}() (unseeded, "
                "process-wide state)",
            )
        elif (
            isinstance(base, ast.Name)
            and base.id == "random"
            and func.attr == "Random"
            and not node.args
            and not node.keywords
        ):
            self._emit(
                node, "RPL002", "random.Random() constructed without a seed"
            )
        elif (
            isinstance(base, ast.Name)
            and base.id == "object"
            and func.attr == "__setattr__"
            and not (
                self._function_stack
                and self._function_stack[-1] in _SETATTR_OK_SCOPES
            )
        ):
            scope = (
                self._function_stack[-1] if self._function_stack else "<module>"
            )
            self._emit(
                node,
                "RPL006",
                f"object.__setattr__ in {scope!r} mutates a frozen instance",
            )

    def _check_name_call(self, node: ast.Call, func: ast.Name) -> None:
        if func.id == "sum":
            self._emit(node, "RPL009", "builtin sum() rounds by Python version")
        elif func.id == "Random" and not node.args and not node.keywords:
            self._emit(
                node, "RPL002", "Random() constructed without a seed"
            )
        elif func.id in ("list", "tuple", "sorted") and node.args:
            arg = node.args[0]
            if _is_set_expr(arg) and func.id != "sorted":
                self._emit(
                    arg,
                    "RPL003",
                    f"{func.id}() materializes a set in hash order",
                )

    # --- iteration (RPL003) -------------------------------------------------
    def _check_iter(self, iterable: ast.expr) -> None:
        if _is_set_expr(iterable):
            self._emit(iterable, "RPL003", "iteration over a set")
        elif (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id in ("enumerate", "reversed", "list", "tuple", "iter")
            and iterable.args
            and _is_set_expr(iterable.args[0])
        ):
            self._emit(
                iterable.args[0],
                "RPL003",
                f"iteration over a set via {iterable.func.id}()",
            )

    def visit_For(self, node: ast.For) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_iter(node.iter)
        self.generic_visit(node)

    def _visit_comprehension_node(
        self,
        node: ast.ListComp | ast.SetComp | ast.DictComp | ast.GeneratorExp,
    ) -> None:
        for generator in node.generators:
            self._check_iter(generator.iter)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension_node(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comprehension_node(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension_node(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension_node(node)

    # --- subscripts (RPL004) ------------------------------------------------
    def visit_Subscript(self, node: ast.Subscript) -> None:
        index = node.slice
        if (
            isinstance(index, ast.Call)
            and isinstance(index.func, ast.Name)
            and index.func.id == "id"
        ):
            self._emit(index, "RPL004", "id() used as a subscript key")
        self.generic_visit(node)

    # --- comparisons (RPL004 membership, RPL005, RPL008) ----------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left, *node.comparators]
        for operand in operands:
            if _is_tiny_float(operand):
                self._emit(
                    node,
                    "RPL008",
                    f"comparison against absolute epsilon {ast.unparse(operand)}",
                )
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)):
                if _is_time_like(left) or _is_time_like(right):
                    symbol = "==" if isinstance(op, ast.Eq) else "!="
                    self._emit(
                        node,
                        "RPL005",
                        f"{symbol} on simulated timestamps "
                        f"({ast.unparse(left)} {symbol} {ast.unparse(right)})",
                    )
            if isinstance(op, (ast.In, ast.NotIn)):
                if (
                    isinstance(left, ast.Call)
                    and isinstance(left.func, ast.Name)
                    and left.func.id == "id"
                ):
                    self._emit(
                        left, "RPL004", "id() used as a membership key"
                    )
        self.generic_visit(node)


def run_rules(tree: ast.AST, path: str, *, sim_scope: bool) -> Iterator[Finding]:
    """Run every rule over one parsed module; yields findings unsorted."""
    checker = _Checker(path, sim_scope)
    checker.visit(tree)
    yield from checker.findings
