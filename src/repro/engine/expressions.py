"""Compilation of expression ASTs into Python evaluators.

An expression is compiled against a :class:`Scope` -- the ordered list of
columns visible at that point of the plan -- into a closure
``fn(env) -> value`` where ``env`` is a tuple of row tuples: ``env[0]`` is
the current row and ``env[k]`` is the row of the ``k``-th enclosing query
(used by correlated subqueries).

Subqueries (EXISTS / IN) are compiled through a ``SubqueryPlanner``
callback supplied by the planner, which keeps this module free of a
circular import.  Each compiled subquery records which *outer* slots it
captures, enabling a memo cache keyed on just those values -- our stand-in
for the RDBMS evaluating a correlated subquery efficiently (PostgreSQL
would use an index; the cache gives the rewriting baseline comparable
asymptotics so the benchmark comparison is fair rather than rigged).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

from repro.engine import functions
from repro.engine.types import (
    SQLValue,
    compare_values,
    is_true,
    logic_and,
    logic_not,
    logic_or,
)
from repro.errors import ExecutionError, PlanError, TypeError_
from repro.sql import ast

Env = tuple
Evaluator = Callable[[Env], SQLValue]


@dataclass
class Scope:
    """Columns visible to an expression: ``(binding, column)`` pairs.

    ``binding`` is the table alias (lower-cased) the column is reachable
    through, or ``None`` for columns that are only addressable unqualified
    (e.g. computed aggregate slots).  ``parent`` chains to the enclosing
    query's scope for correlated references.  ``level`` is the absolute
    nesting depth (root query = 0); the planner uses it to translate
    scope-relative reference depths into absolute positions when keying
    correlated-subquery caches.
    """

    entries: list[tuple[Optional[str], str]] = field(default_factory=list)
    parent: Optional["Scope"] = None
    level: int = 0

    def add(self, binding: Optional[str], column: str) -> None:
        """Append a visible column (order defines slot indexes)."""
        self.entries.append(
            (binding.lower() if binding else None, column.lower())
        )

    def resolve(self, table: Optional[str], name: str) -> tuple[int, int]:
        """Resolve a column reference to ``(depth, index)``.

        ``depth`` 0 is this scope; each parent adds 1.

        Raises:
            PlanError: if the reference is unknown or ambiguous.
        """
        table_key = table.lower() if table else None
        name_key = name.lower()
        depth = 0
        scope: Optional[Scope] = self
        while scope is not None:
            matches = [
                index
                for index, (binding, column) in enumerate(scope.entries)
                if column == name_key and (table_key is None or binding == table_key)
            ]
            if len(matches) == 1:
                return depth, matches[0]
            if len(matches) > 1:
                raise PlanError(
                    f"ambiguous column reference: {ast.ColumnRef(table, name)}"
                )
            scope = scope.parent
            depth += 1
        raise PlanError(f"unknown column: {ast.ColumnRef(table, name)}")

    def width(self) -> int:
        """Number of slots in this scope."""
        return len(self.entries)


class CompiledSubquery(Protocol):
    """What the planner returns when asked to compile a nested query."""

    def first_column_values(self, env: Env) -> list[SQLValue]:
        """Evaluate the subquery, returning its first output column."""

    def has_rows(self, env: Env) -> bool:
        """Evaluate the subquery, returning whether any row exists."""


SubqueryPlanner = Callable[[ast.Query, Scope], CompiledSubquery]


def like_to_regex(pattern: str) -> "re.Pattern[str]":
    """Translate a SQL LIKE pattern (``%``, ``_``) to an anchored regex."""
    out = []
    for char in pattern:
        if char == "%":
            out.append(".*")
        elif char == "_":
            out.append(".")
        else:
            out.append(re.escape(char))
    return re.compile("^" + "".join(out) + "$", re.DOTALL)


_ARITHMETIC = {"+", "-", "*", "/", "%"}
_COMPARISONS = {"=", "<>", "<", "<=", ">", ">="}


def _require_number(value: SQLValue, op: str) -> float | int:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError_(f"operator {op} expects numeric operands, got {value!r}")
    return value


def _apply_arithmetic(op: str, left: SQLValue, right: SQLValue) -> SQLValue:
    if left is None or right is None:
        return None
    lhs = _require_number(left, op)
    rhs = _require_number(right, op)
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    if op == "/":
        if rhs == 0:
            raise ExecutionError("division by zero")
        # SQL integer division truncates toward zero; mixed types promote.
        if isinstance(lhs, int) and isinstance(rhs, int):
            quotient = abs(lhs) // abs(rhs)
            return quotient if (lhs >= 0) == (rhs >= 0) else -quotient
        return lhs / rhs
    if op == "%":
        if rhs == 0:
            raise ExecutionError("modulo by zero")
        if isinstance(lhs, int) and isinstance(rhs, int):
            remainder = abs(lhs) % abs(rhs)
            return remainder if lhs >= 0 else -remainder
        raise TypeError_("% expects INTEGER operands")
    raise AssertionError(op)


def _apply_comparison(op: str, left: SQLValue, right: SQLValue) -> Optional[bool]:
    cmp = compare_values(left, right)
    if cmp is None:
        return None
    if op == "=":
        return cmp == 0
    if op == "<>":
        return cmp != 0
    if op == "<":
        return cmp < 0
    if op == "<=":
        return cmp <= 0
    if op == ">":
        return cmp > 0
    if op == ">=":
        return cmp >= 0
    raise AssertionError(op)


class ExpressionCompiler:
    """Compiles :mod:`repro.sql.ast` expressions into evaluators.

    Attributes:
        scope: the scope expressions are resolved against.
        subquery_planner: callback for EXISTS / IN subqueries (optional;
            compiling a subquery without one raises :class:`PlanError`).
        outer_captures: ``(depth, index)`` pairs, relative to this
            compiler's scope, of every reference that escaped to an
            enclosing scope.  The planner uses this to key subquery caches.
    """

    def __init__(
        self,
        scope: Scope,
        subquery_planner: Optional[SubqueryPlanner] = None,
        capture_hook: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        self.scope = scope
        self.subquery_planner = subquery_planner
        self.capture_hook = capture_hook
        self.outer_captures: set[tuple[int, int]] = set()

    # ------------------------------------------------------------- dispatch

    def compile(self, expr: ast.Expression) -> Evaluator:
        """Compile ``expr`` to a closure ``fn(env) -> value``."""
        method = getattr(self, "_compile_" + type(expr).__name__, None)
        if method is None:
            raise PlanError(f"cannot compile expression node {type(expr).__name__}")
        return method(expr)

    def compile_predicate(self, expr: ast.Expression) -> Callable[[Env], bool]:
        """Compile a condition; the result maps 3-valued output to bool."""
        evaluator = self.compile(expr)

        def predicate(env: Env) -> bool:
            return is_true(evaluator(env))

        return predicate

    # ----------------------------------------------------------- leaf nodes

    def _compile_Literal(self, expr: ast.Literal) -> Evaluator:
        value = expr.value
        return lambda env: value

    def _compile_ColumnRef(self, expr: ast.ColumnRef) -> Evaluator:
        depth, index = self.scope.resolve(expr.table, expr.name)
        if depth > 0:
            self.outer_captures.add((depth, index))
            if self.capture_hook is not None:
                self.capture_hook(depth, index)

            def outer_ref(env: Env) -> SQLValue:
                return env[depth][index]

            return outer_ref

        def local_ref(env: Env) -> SQLValue:
            return env[0][index]

        return local_ref

    # ------------------------------------------------------------ operators

    def _compile_BinaryOp(self, expr: ast.BinaryOp) -> Evaluator:
        op = expr.op
        left = self.compile(expr.left)
        right = self.compile(expr.right)
        if op == "AND":
            return lambda env: logic_and(_as_bool(left(env)), _as_bool(right(env)))
        if op == "OR":
            return lambda env: logic_or(_as_bool(left(env)), _as_bool(right(env)))
        if op in _COMPARISONS:
            return lambda env: _apply_comparison(op, left(env), right(env))
        if op in _ARITHMETIC:
            return lambda env: _apply_arithmetic(op, left(env), right(env))
        if op == "||":

            def concat(env: Env) -> SQLValue:
                lhs, rhs = left(env), right(env)
                if lhs is None or rhs is None:
                    return None
                if not isinstance(lhs, str) or not isinstance(rhs, str):
                    raise TypeError_("|| expects TEXT operands")
                return lhs + rhs

            return concat
        raise PlanError(f"unknown binary operator {op!r}")

    def _compile_UnaryOp(self, expr: ast.UnaryOp) -> Evaluator:
        operand = self.compile(expr.operand)
        if expr.op == "NOT":
            return lambda env: logic_not(_as_bool(operand(env)))
        if expr.op == "-":

            def negate(env: Env) -> SQLValue:
                value = operand(env)
                return None if value is None else -_require_number(value, "-")

            return negate
        if expr.op == "+":
            return operand
        raise PlanError(f"unknown unary operator {expr.op!r}")

    def _compile_IsNull(self, expr: ast.IsNull) -> Evaluator:
        operand = self.compile(expr.operand)
        if expr.negated:
            return lambda env: operand(env) is not None
        return lambda env: operand(env) is None

    def _compile_InList(self, expr: ast.InList) -> Evaluator:
        operand = self.compile(expr.operand)
        items = [self.compile(item) for item in expr.items]
        negated = expr.negated

        def contains(env: Env) -> Optional[bool]:
            needle = operand(env)
            if needle is None:
                return None
            saw_null = False
            for item in items:
                value = item(env)
                if value is None:
                    saw_null = True
                    continue
                if compare_values(needle, value) == 0:
                    return logic_not(True) if negated else True
            if saw_null:
                return None
            return logic_not(False) if negated else False

        return contains

    def _compile_Between(self, expr: ast.Between) -> Evaluator:
        operand = self.compile(expr.operand)
        low = self.compile(expr.low)
        high = self.compile(expr.high)
        negated = expr.negated

        def between(env: Env) -> Optional[bool]:
            value = operand(env)
            result = logic_and(
                _apply_comparison(">=", value, low(env)),
                _apply_comparison("<=", value, high(env)),
            )
            return logic_not(result) if negated else result

        return between

    def _compile_Like(self, expr: ast.Like) -> Evaluator:
        operand = self.compile(expr.operand)
        pattern = self.compile(expr.pattern)
        negated = expr.negated
        cache: dict[str, re.Pattern[str]] = {}

        def like(env: Env) -> Optional[bool]:
            value = operand(env)
            pat = pattern(env)
            if value is None or pat is None:
                return None
            if not isinstance(value, str) or not isinstance(pat, str):
                raise TypeError_("LIKE expects TEXT operands")
            regex = cache.get(pat)
            if regex is None:
                regex = like_to_regex(pat)
                cache[pat] = regex
            matched = regex.match(value) is not None
            return (not matched) if negated else matched

        return like

    def _compile_Case(self, expr: ast.Case) -> Evaluator:
        operand = self.compile(expr.operand) if expr.operand is not None else None
        whens = [
            (self.compile(cond), self.compile(result))
            for cond, result in expr.whens
        ]
        else_ = self.compile(expr.else_) if expr.else_ is not None else None

        def case(env: Env) -> SQLValue:
            if operand is not None:
                subject = operand(env)
                for condition, result in whens:
                    if (
                        subject is not None
                        and compare_values(subject, condition(env)) == 0
                    ):
                        return result(env)
            else:
                for condition, result in whens:
                    if is_true(_as_bool(condition(env))):
                        return result(env)
            return else_(env) if else_ is not None else None

        return case

    def _compile_FunctionCall(self, expr: ast.FunctionCall) -> Evaluator:
        if functions.is_aggregate_function(expr.name):
            raise PlanError(
                f"aggregate function {expr.name} is not allowed here"
                " (only in SELECT list / HAVING of a grouped query)"
            )
        args = [self.compile(arg) for arg in expr.args]
        name = expr.name

        def call(env: Env) -> SQLValue:
            return functions.call_scalar(name, [arg(env) for arg in args])

        return call

    # ------------------------------------------------------------ subqueries

    def _subquery(self, query: ast.Query) -> tuple[CompiledSubquery, Evaluator]:
        if self.subquery_planner is None:
            raise PlanError("subqueries are not allowed in this context")
        subcompiler_scope = self.scope  # the subquery sees us as its parent
        compiled = self.subquery_planner(query, subcompiler_scope)
        return compiled, lambda env: None

    def _compile_Exists(self, expr: ast.Exists) -> Evaluator:
        compiled, _ = self._subquery(expr.query)
        negated = expr.negated

        def exists(env: Env) -> bool:
            found = compiled.has_rows(env)
            return (not found) if negated else found

        return exists

    def _compile_InSubquery(self, expr: ast.InSubquery) -> Evaluator:
        compiled, _ = self._subquery(expr.query)
        operand = self.compile(expr.operand)
        negated = expr.negated

        def in_subquery(env: Env) -> Optional[bool]:
            needle = operand(env)
            if needle is None:
                return None
            saw_null = False
            for value in compiled.first_column_values(env):
                if value is None:
                    saw_null = True
                    continue
                if compare_values(needle, value) == 0:
                    return False if negated else True
            if saw_null:
                return None
            return True if negated else False

        return in_subquery


def _as_bool(value: SQLValue) -> Optional[bool]:
    """Coerce an evaluated value into the 3-valued boolean domain."""
    if value is None or isinstance(value, bool):
        return value
    raise TypeError_(f"expected a boolean condition, got {value!r}")
