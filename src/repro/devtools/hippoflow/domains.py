"""Abstract domains for the hippoflow dataflow engine.

Three families of analyses run over per-function CFGs:

* :class:`ReachingDefinitions` -- which assignments may reach a point
  (the textbook may-analysis; also the template for adding domains).
* :class:`ResourceDomain` -- a resource/ownership state machine: sites
  acquired by configurable calls must reach ``close()``, a ``with``
  block, or an ownership escape (returned, passed on, stored) on every
  path, including exception edges (rule HL013).
* :class:`LockDomain` -- a must-held lock counter for
  ``with self._manifest_lock():`` scopes, tracking lock context
  objects laundered through local variables (rule HL014).
* :class:`TaintDomain` -- may-taint over local string variables built
  by f-string/%/``+``/``.format()`` interpolation (rule HL015).

All domains are intraprocedural and flow-insensitive about the heap
except for ``self.<attr>`` stores in ``__init__``, which
:class:`ResourceDomain` keeps tracking: a constructor that acquires
into an attribute owns the resource until the object is fully built,
so an exception escaping ``__init__`` must not strand it.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

from repro.devtools.hippoflow.cfg import (
    CFG,
    Element,
    FuncDef,
    WithEnter,
    WithExit,
)
from repro.devtools.hippoflow.dataflow import Domain

# --------------------------------------------------------------- AST helpers


def terminal_name(node: ast.expr) -> str:
    """The final attribute/name of an expression (``close``, ``open``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def access_path(node: ast.expr) -> Optional[str]:
    """A dotted access path (``self._consumer``), or None if not one."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = access_path(node.value)
        return f"{base}.{node.attr}" if base is not None else None
    return None


def executed_nodes(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node`` skipping bodies that only run later (defs/lambdas)."""
    yield node
    if isinstance(
        node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
    ):
        return
    for child in ast.iter_child_nodes(node):
        yield from executed_nodes(child)


def evaluated_nodes(element: Element) -> Iterator[ast.AST]:
    """Nodes evaluated *at* one CFG element.

    Compound statements appear in CFGs as header/binding markers only
    (a ``For`` node stands for "bind the loop target", an
    ``ExceptHandler`` for "bind the caught exception") -- their bodies
    are separate elements, so scanning one element must not descend
    into them or every body node would be seen twice.
    """
    if isinstance(element, (WithEnter, WithExit)):
        return
    roots: list[ast.AST]
    if isinstance(element, (ast.For, ast.AsyncFor)):
        roots = [element.target]
    elif isinstance(element, ast.ExceptHandler):
        roots = [element.type] if element.type is not None else []
    else:
        roots = [element]
    for root in roots:
        yield from executed_nodes(root)


def _target_names(target: ast.expr) -> list[str]:
    """Plain names bound by an assignment target (nested tuples too)."""
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: list[str] = []
        for element in target.elts:
            names.extend(_target_names(element))
        return names
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return []


# ----------------------------------------------------- reaching definitions


class ReachingDefinitions(Domain):
    """Which ``(name, lineno)`` definitions may reach each point.

    State: ``frozenset[tuple[str, int]]``.  A definition is any binding
    statement -- assignment, loop target, ``with ... as``, ``except
    ... as``, ``import``, ``def``/``class``.
    """

    def initial(self) -> frozenset[tuple[str, int]]:
        return frozenset()

    def join(
        self,
        left: frozenset[tuple[str, int]],
        right: frozenset[tuple[str, int]],
    ) -> frozenset[tuple[str, int]]:
        return left | right

    def transfer(
        self, element: Element, state: frozenset[tuple[str, int]]
    ) -> frozenset[tuple[str, int]]:
        bound = self._bound_names(element)
        if not bound:
            return state
        lineno = getattr(element, "lineno", 0)
        kept = frozenset(d for d in state if d[0] not in bound)
        return kept | frozenset((name, lineno) for name in bound)

    def _bound_names(self, element: Element) -> set[str]:
        names: set[str] = set()
        if isinstance(element, ast.Assign):
            for target in element.targets:
                names.update(_target_names(target))
        elif isinstance(element, (ast.AnnAssign, ast.AugAssign)):
            names.update(_target_names(element.target))
        elif isinstance(element, (ast.For, ast.AsyncFor)):
            names.update(_target_names(element.target))
        elif isinstance(element, ast.ExceptHandler):
            if element.name:
                names.add(element.name)
        elif isinstance(element, WithEnter):
            if element.item.optional_vars is not None:
                names.update(_target_names(element.item.optional_vars))
        elif isinstance(element, (ast.Import, ast.ImportFrom)):
            for alias in element.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(
            element, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            names.add(element.name)
        return names

    @staticmethod
    def definitions_of(
        state: frozenset[tuple[str, int]], name: str
    ) -> set[int]:
        """The line numbers of ``name``'s reaching definitions."""
        return {lineno for bound, lineno in state if bound == name}


# ------------------------------------------------------------ resource leaks

#: Lattice ranks: a joined site keeps the worst (leakiest) status.
_RANK = {"closed": 0, "escaped": 1, "open": 2}


@dataclass(frozen=True)
class Resource:
    """One acquisition site."""

    lineno: int
    col: int
    what: str


@dataclass(frozen=True)
class AcquisitionSpec:
    """What counts as acquiring a resource.

    ``calls`` maps terminal call names (``open``, ``connect``) to a
    human description; ``methods`` maps ``(receiver terminal, method)``
    pairs (``("_writers", "pop")``) for ownership-transferring method
    calls.
    """

    calls: dict[str, str] = field(default_factory=dict)
    methods: dict[tuple[str, str], str] = field(default_factory=dict)

    def describe(self, call: ast.Call) -> Optional[str]:
        """The acquired-resource description, or None if not acquiring."""
        name = terminal_name(call.func)
        if name in self.calls:
            return self.calls[name]
        if isinstance(call.func, ast.Attribute):
            receiver = terminal_name(call.func.value)
            key = (receiver, name)
            if key in self.methods:
                return self.methods[key]
        return None


@dataclass
class ResourceState:
    """Sites with their status plus name -> possible-sites bindings."""

    sites: dict[Resource, str] = field(default_factory=dict)
    bindings: dict[str, frozenset[Resource]] = field(default_factory=dict)

    def copy(self) -> "ResourceState":
        return ResourceState(dict(self.sites), dict(self.bindings))


class ResourceDomain(Domain):
    """The HL013 resource/ownership state machine (may-leak analysis).

    A site is *open* after acquisition, *closed* once ``close()`` is
    called on a binding (or the site is managed by ``with``), and
    *escaped* when ownership demonstrably leaves the function: the
    resource is returned, passed as a call argument, stored into an
    attribute/container, or its binding is overwritten.  ``self.<attr>
    = <resource>`` in ``__init__`` stays tracked under the attribute
    path -- constructors own their acquisitions until they finish.

    The exceptional transfer applies releases and escapes but not
    acquisitions or rebindings: a call that raised never returned its
    resource, while a ``close()`` that raised has still consumed it.
    """

    CLOSE_METHODS = ("close",)

    def __init__(self, spec: AcquisitionSpec, func: FuncDef) -> None:
        self.spec = spec
        self.track_self_attrs = func.name == "__init__"

    # ------------------------------------------------------------- lattice

    def initial(self) -> ResourceState:
        return ResourceState()

    def join(self, left: ResourceState, right: ResourceState) -> ResourceState:
        sites: dict[Resource, str] = dict(left.sites)
        for site, status in right.sites.items():
            if site in sites and _RANK[sites[site]] >= _RANK[status]:
                continue
            sites[site] = status
        bindings: dict[str, frozenset[Resource]] = dict(left.bindings)
        for name, targets in right.bindings.items():
            bindings[name] = bindings.get(name, frozenset()) | targets
        return ResourceState(sites, bindings)

    # ----------------------------------------------------------- transfers

    def transfer(self, element: Element, state: ResourceState) -> ResourceState:
        state = self._apply_uses(state.copy(), element)
        if isinstance(element, WithEnter):
            return self._with_enter(element, state)
        if isinstance(element, WithExit):
            return state
        if isinstance(element, ast.Assign):
            return self._assign(element.targets, element.value, state)
        if isinstance(element, (ast.AnnAssign, ast.AugAssign)):
            if getattr(element, "value", None) is not None:
                return self._assign([element.target], element.value, state)
            return state
        if isinstance(element, (ast.For, ast.AsyncFor)):
            for name in _target_names(element.target):
                self._kill(state, name)
            return state
        if isinstance(element, ast.ExceptHandler):
            if element.name:
                self._kill(state, element.name)
            return state
        if isinstance(element, ast.Delete):
            for target in element.targets:
                for name in _target_names(target):
                    self._kill(state, name)
            return state
        if isinstance(element, ast.expr):
            self._acquire_unbound(element, state)
            return state
        if isinstance(element, ast.Expr):
            self._acquire_unbound(element.value, state)
            return state
        return state

    def transfer_exception(
        self, element: Element, state: ResourceState
    ) -> ResourceState:
        # Releases and escapes happened before the raise took over;
        # acquisitions and rebindings did not.
        return self._apply_uses(state.copy(), element)

    # ----------------------------------------------------------- mechanics

    def _with_enter(
        self, element: WithEnter, state: ResourceState
    ) -> ResourceState:
        expr = element.item.context_expr
        if isinstance(expr, ast.Call) and self.spec.describe(expr) is not None:
            # `with open(...) as f:` -- the context manager owns it.
            site = Resource(
                expr.lineno, expr.col_offset, self.spec.describe(expr) or ""
            )
            state.sites[site] = "closed"
        else:
            path = access_path(expr)
            if path is not None and path in state.bindings:
                # `with conn:` -- lifetime handed to the manager.
                for site in state.bindings[path]:
                    state.sites[site] = "closed"
        return state

    def _assign(
        self,
        targets: list[ast.expr],
        value: ast.expr,
        state: ResourceState,
    ) -> ResourceState:
        acquired = (
            self.spec.describe(value) if isinstance(value, ast.Call) else None
        )
        if acquired is not None:
            site = Resource(value.lineno, value.col_offset, acquired)
            state.sites[site] = "open"
            self._bind_site(targets, site, state)
            return state
        source = access_path(value)
        if source is not None and source in state.bindings:
            self._alias(targets, state.bindings[source], state)
            return state
        # Nested acquisitions inside a non-acquiring value leak unbound.
        self._acquire_unbound(value, state)
        for target in targets:
            for name in _target_names(target):
                self._kill(state, name)
        return state

    def _bind_site(
        self, targets: list[ast.expr], site: Resource, state: ResourceState
    ) -> None:
        for target in targets:
            key = self._binding_key(target)
            if key is not None:
                self._kill(state, key)
                state.bindings[key] = frozenset((site,))
            else:
                state.sites[site] = "escaped"

    def _alias(
        self,
        targets: list[ast.expr],
        sites: frozenset[Resource],
        state: ResourceState,
    ) -> None:
        for target in targets:
            key = self._binding_key(target)
            if key is not None:
                self._kill(state, key)
                state.bindings[key] = sites
            else:
                for site in sites:
                    if state.sites.get(site) == "open":
                        state.sites[site] = "escaped"

    def _binding_key(self, target: ast.expr) -> Optional[str]:
        """The tracking key a store binds, or None when it escapes."""
        if isinstance(target, ast.Name):
            return target.id
        if (
            self.track_self_attrs
            and isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return f"self.{target.attr}"
        return None

    def _kill(self, state: ResourceState, name: str) -> None:
        """Drop a binding; orphaned open sites become escaped."""
        dropped = state.bindings.pop(name, None)
        if not dropped:
            return
        still_bound: set[Resource] = set()
        for sites in state.bindings.values():
            still_bound.update(sites)
        for site in dropped:
            if site not in still_bound and state.sites.get(site) == "open":
                state.sites[site] = "escaped"

    def _acquire_unbound(self, expr: ast.AST, state: ResourceState) -> None:
        """Track acquisitions whose result is immediately discarded."""
        for node in executed_nodes(expr):
            if isinstance(node, ast.Call):
                what = self.spec.describe(node)
                if what is not None:
                    site = Resource(node.lineno, node.col_offset, what)
                    state.sites.setdefault(site, "open")

    def _apply_uses(
        self, state: ResourceState, element: Element
    ) -> ResourceState:
        """Apply close/escape effects of the calls inside ``element``."""
        for node in evaluated_nodes(element):
            if isinstance(node, ast.Call):
                self._apply_call(node, state)
            elif isinstance(node, ast.Return) and node.value is not None:
                self._escape_direct(node.value, state)
                if isinstance(node.value, (ast.Tuple, ast.List)):
                    for item in node.value.elts:
                        self._escape_direct(item, state)
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                value = getattr(node, "value", None)
                if value is not None:
                    self._escape_direct(value, state)
        return state

    def _apply_call(self, call: ast.Call, state: ResourceState) -> None:
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in self.CLOSE_METHODS
        ):
            receiver = access_path(call.func.value)
            if receiver is not None and receiver in state.bindings:
                for site in state.bindings[receiver]:
                    state.sites[site] = "closed"
                return
        for argument in list(call.args) + [k.value for k in call.keywords]:
            if isinstance(argument, ast.Starred):
                argument = argument.value
            self._escape_direct(argument, state)

    def _escape_direct(self, expr: ast.expr, state: ResourceState) -> None:
        """Escape bindings named *directly* by ``expr`` (or a prefix of
        it: passing ``self._consumer.close`` escapes ``self._consumer``)."""
        path = access_path(expr)
        while path:
            if path in state.bindings:
                for site in state.bindings[path]:
                    if state.sites.get(site) == "open":
                        state.sites[site] = "escaped"
                return
            path, _, _ = path.rpartition(".")

    # ------------------------------------------------------------- results

    def leaks(
        self, cfg: CFG, in_states: dict[int, ResourceState]
    ) -> list[tuple[Resource, str]]:
        """``(site, path-kind)`` pairs that may leak; kind is
        ``"exception"`` or ``"normal"`` (exception paths win)."""
        found: dict[Resource, str] = {}
        raise_state = in_states.get(cfg.raise_exit.id)
        if raise_state is not None:
            for site, status in raise_state.sites.items():
                if status == "open":
                    found[site] = "exception"
        exit_state = in_states.get(cfg.exit.id)
        if exit_state is not None:
            self_attr_sites = self._self_attr_sites(exit_state)
            for site, status in exit_state.sites.items():
                if status == "open" and site not in found:
                    # A constructor may leave self-attribute resources
                    # open on *normal* completion: the instance owns
                    # them now.
                    if site in self_attr_sites:
                        continue
                    found[site] = "normal"
        return sorted(
            found.items(), key=lambda pair: (pair[0].lineno, pair[0].col)
        )

    @staticmethod
    def _self_attr_sites(state: ResourceState) -> set[Resource]:
        sites: set[Resource] = set()
        for name, bound in state.bindings.items():
            if name.startswith("self."):
                sites.update(bound)
        return sites


# ---------------------------------------------------------------- lock state


@dataclass(frozen=True)
class LockState:
    """Must-held lock depth plus known-lock context variables."""

    depth: int = 0
    contexts: frozenset[str] = frozenset()


class LockDomain(Domain):
    """Must-analysis of ``with self._manifest_lock():`` scopes (HL014).

    ``depth`` counts definitely-held acquisitions along *every* path
    into a point (join takes the minimum).  A lock context laundered
    through a variable (``lock = self._manifest_lock()`` ...
    ``with lock:``) still counts, which a lexical check cannot see.
    """

    def __init__(self, lock_call: str = "_manifest_lock") -> None:
        self.lock_call = lock_call

    def initial(self) -> LockState:
        return LockState()

    def join(self, left: LockState, right: LockState) -> LockState:
        return LockState(
            min(left.depth, right.depth), left.contexts & right.contexts
        )

    def transfer(self, element: Element, state: LockState) -> LockState:
        if isinstance(element, WithEnter):
            if self._is_lock(element.item.context_expr, state):
                return LockState(state.depth + 1, state.contexts)
            return state
        if isinstance(element, WithExit):
            if self._is_lock(element.item.context_expr, state):
                return LockState(max(0, state.depth - 1), state.contexts)
            return state
        if isinstance(element, ast.Assign):
            contexts = set(state.contexts)
            names: set[str] = set()
            for target in element.targets:
                names.update(_target_names(target))
            if (
                isinstance(element.value, ast.Call)
                and terminal_name(element.value.func) == self.lock_call
            ):
                contexts.update(names)
            else:
                contexts.difference_update(names)
            return LockState(state.depth, frozenset(contexts))
        bound = _target_names(getattr(element, "target", ast.Constant(None)))
        if bound and isinstance(element, (ast.For, ast.AsyncFor, ast.AugAssign)):
            return LockState(state.depth, state.contexts - set(bound))
        return state

    def _is_lock(self, expr: ast.expr, state: LockState) -> bool:
        if isinstance(expr, ast.Call):
            return terminal_name(expr.func) == self.lock_call
        return isinstance(expr, ast.Name) and expr.id in state.contexts

    @staticmethod
    def held(state: LockState) -> bool:
        """Whether the lock is definitely held in ``state``."""
        return state.depth > 0


# --------------------------------------------------------------- SQL taint


class TaintDomain(Domain):
    """May-taint over local names holding interpolated strings (HL015).

    A name becomes tainted when assigned from an f-string with
    substitutions, ``%``-formatting, ``.format()`` on string text, or
    ``+`` concatenation that mixes string text with non-constant parts;
    taint propagates through copies and augmented concatenation and
    dies on reassignment from clean values.
    """

    def initial(self) -> frozenset[str]:
        return frozenset()

    def join(self, left: frozenset[str], right: frozenset[str]) -> frozenset[str]:
        return left | right

    def transfer(self, element: Element, state: frozenset[str]) -> frozenset[str]:
        if isinstance(element, ast.Assign):
            names: set[str] = set()
            for target in element.targets:
                names.update(_target_names(target))
            if self.taints(element.value, state):
                return state | names
            return state - names
        if isinstance(element, ast.AugAssign):
            names = set(_target_names(element.target))
            if not names:
                return state
            already = bool(names & state)
            if already or self.taints(element.value, state):
                return state | names
            return state
        if isinstance(element, ast.AnnAssign) and element.value is not None:
            names = set(_target_names(element.target))
            if self.taints(element.value, state):
                return state | names
            return state - names
        if isinstance(element, (ast.For, ast.AsyncFor)):
            return state - set(_target_names(element.target))
        if isinstance(element, ast.ExceptHandler) and element.name:
            return state - {element.name}
        return state

    def taints(self, expr: ast.expr, state: frozenset[str]) -> bool:
        """Whether evaluating ``expr`` yields interpolated string text."""
        if isinstance(expr, ast.Name):
            return expr.id in state
        if isinstance(expr, ast.JoinedStr):
            return any(
                isinstance(part, ast.FormattedValue) for part in expr.values
            )
        if isinstance(expr, ast.IfExp):
            return self.taints(expr.body, state) or self.taints(
                expr.orelse, state
            )
        if isinstance(expr, ast.BinOp):
            if isinstance(expr.op, ast.Mod):
                return self._stringish(expr.left) or self.taints(
                    expr.left, state
                )
            if isinstance(expr.op, ast.Add):
                if self.taints(expr.left, state) or self.taints(
                    expr.right, state
                ):
                    return True
                both_const = self._const_str(expr.left) and self._const_str(
                    expr.right
                )
                return not both_const and (
                    self._stringish(expr.left) or self._stringish(expr.right)
                )
            return False
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr == "format"
        ):
            return self._stringish(expr.func.value) or self.taints(
                expr.func.value, state
            )
        return False

    def _stringish(self, node: ast.expr) -> bool:
        if self._const_str(node):
            return True
        if isinstance(node, ast.JoinedStr):
            return True
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
            return self._stringish(node.left) or self._stringish(node.right)
        return False

    @staticmethod
    def _const_str(node: ast.expr) -> bool:
        return isinstance(node, ast.Constant) and isinstance(node.value, str)
