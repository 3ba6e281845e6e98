"""Flow-sensitive hippolint rules (HL013-HL016) built on hippoflow.

The lexical rules in :mod:`repro.devtools.rules` check what a line
*says*; the rules here check what a function *does* across branches,
early returns and exception edges, by running abstract domains from
:mod:`repro.devtools.hippoflow.domains` over per-function CFGs.

Each rule pre-filters lexically (no CFG is built for a function that
cannot possibly produce a finding), which keeps a full-tree run well
inside the analyzer time budget asserted in
``benchmarks/bench_hippolint.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, Optional

from repro.devtools.framework import Finding, Rule, SourceModule, register
from repro.devtools.hippoflow.cfg import FuncDef, build_cfg
from repro.devtools.hippoflow.dataflow import analyze, replay
from repro.devtools.hippoflow.domains import (
    AcquisitionSpec,
    LockDomain,
    ResourceDomain,
    TaintDomain,
    evaluated_nodes,
    executed_nodes,
    terminal_name,
)
from repro.devtools.rules import _functions


def _executed_calls(func: FuncDef) -> Iterator[ast.Call]:
    """Calls in ``func``'s own body (nested defs analyze separately)."""
    for statement in func.body:
        for node in executed_nodes(statement):
            if isinstance(node, ast.Call):
                yield node


@register
class ResourceLeakRule(Rule):
    """HL013: acquired resources reach close() on every path.

    File handles, backend connections and feed consumers acquired in a
    function must be closed, transferred to a ``with`` block, or
    escape ownership (returned, stored, passed on) on *all* paths --
    including the exception edges the lexical rules cannot see.  The
    classic bug shape: ``writer = self._writers.pop(name)`` followed by
    a ``flush()``/``fsync()`` that raises before ``close()`` runs.
    """

    id = "HL013"
    name = "resource-leak"
    summary = (
        "acquired file handles / connections / feed consumers must be"
        " closed or escape ownership on every path, including exception"
        " edges"
    )
    rationale = (
        "PR 9 flow analysis; dynamic twin: tests/engine/test_feed_leaks.py"
        " pins the error-path cleanup this rule proves structurally"
    )

    SPEC = AcquisitionSpec(
        calls={
            "open": "file handle from open()",
            "connect": "connection from connect()",
            "consumer": "feed consumer from consumer()",
        },
        methods={
            ("_writers", "pop"): "segment writer popped from self._writers",
        },
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for func in _functions(module.tree):
            if not self._acquires_anything(func):
                continue
            cfg = build_cfg(func)
            domain = ResourceDomain(self.SPEC, func)
            in_states = analyze(cfg, domain)
            for site, kind in domain.leaks(cfg, in_states):
                where = (
                    "an exception path"
                    if kind == "exception"
                    else "a fall-through path"
                )
                yield (
                    site.lineno,
                    site.col,
                    f"{site.what} may never be closed on {where} out of"
                    f" {func.name}(); close it in try/finally or hand"
                    " ownership off before anything can raise",
                )

    def _acquires_anything(self, func: FuncDef) -> bool:
        return any(
            self.SPEC.describe(call) is not None
            for call in _executed_calls(func)
        )


@register
class LockStateRule(Rule):
    """HL014: manifest mutations see the lock *held*, not just nearby.

    A must-held analysis over the CFG, not a lexical check for an
    enclosing ``with self._manifest_lock():``: a lock context laundered
    through a variable still counts, and a path that reaches the
    mutation with the lock released (early return, conditional
    acquisition, exception edge past the ``with``) is caught.
    """

    id = "HL014"
    name = "lock-state"
    summary = (
        "manifest-state helpers must execute with self._manifest_lock()"
        " definitely held on every CFG path, not merely lexically nearby"
    )
    rationale = (
        "PR 9 flow analysis; dynamic twin: tests/engine/test_feed.py"
        " multi-writer crash-recovery suite"
    )

    GUARDED = ("_merge_disk_retention", "_sweep_orphans")

    def applies_to(self, module: SourceModule) -> bool:
        return module.is_module("engine/feed.py")

    def check(self, module: SourceModule) -> Iterator[Finding]:
        for func in _functions(module.tree):
            if not any(
                self._guarded_reason(call) is not None
                for call in _executed_calls(func)
            ):
                continue
            cfg = build_cfg(func)
            domain = LockDomain()
            in_states = analyze(cfg, domain)
            for element, state in replay(cfg, domain, in_states):
                if LockDomain.held(state):
                    continue
                if isinstance(element, ast.AST):
                    for node in evaluated_nodes(element):
                        if not isinstance(node, ast.Call):
                            continue
                        reason = self._guarded_reason(node)
                        if reason is not None:
                            yield (
                                node.lineno,
                                node.col_offset,
                                f"{reason} can execute with"
                                " self._manifest_lock() not held on some"
                                " path into this call",
                            )

    def _guarded_reason(self, call: ast.Call) -> Optional[str]:
        target = terminal_name(call.func)
        if target in self.GUARDED:
            return f"{target}() mutates manifest/segment state and"
        if target == "_atomic_json" and any(
            "MANIFEST" in ast.unparse(argument) for argument in call.args
        ):
            return "the manifest write via _atomic_json()"
        return None


@register
class TaintedSQLRule(Rule):
    """HL015: SQL handed to an executor is never built by interpolation.

    The backend layer's lowering contract (``ra/to_sql.py``) renders
    every literal as a bound parameter and every identifier through the
    quoting helpers; f-string / ``%`` / ``+`` / ``.format()`` text
    bypasses both, reintroducing injection and type-fidelity bugs the
    differential oracle suite exists to rule out.  Taint is tracked
    through local variables, so ``conn.execute(f"...")`` and
    ``query = f"..."; ...; conn.execute(query)`` are both caught.
    ``ra/to_sql.py`` itself is the one sanctioned assembly point.
    """

    id = "HL015"
    name = "sql-taint"
    summary = (
        "strings built by f-string/%/+/.format() interpolation must not"
        " reach execute/executemany/query sinks, directly or through"
        " variables; render through ra/to_sql.py instead"
    )
    rationale = (
        "backend pushdown lowering contract; dynamic twin: the"
        " differential oracle suite in tests/backends/"
    )

    EXECUTORS = (
        "execute",
        "executemany",
        "executescript",
        "execute_script",
        "query",
    )
    EXEMPT_MODULES = ("ra/to_sql.py",)

    def applies_to(self, module: SourceModule) -> bool:
        return module.in_package() and not module.is_module(
            *self.EXEMPT_MODULES
        )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        domain = TaintDomain()
        for func in _functions(module.tree):
            if not any(
                self._sink(call) and self._may_taint(domain, call.args[0])
                for call in _executed_calls(func)
            ):
                continue
            cfg = build_cfg(func)
            in_states = analyze(cfg, domain)
            for element, state in replay(cfg, domain, in_states):
                if not isinstance(element, ast.AST):
                    continue
                for node in evaluated_nodes(element):
                    if (
                        isinstance(node, ast.Call)
                        and self._sink(node)
                        and domain.taints(node.args[0], state)
                    ):
                        sql = node.args[0]
                        what = (
                            f"variable '{sql.id}' holds interpolated SQL and"
                            if isinstance(sql, ast.Name)
                            else "SQL built by interpolation"
                        )
                        yield (
                            node.lineno,
                            node.col_offset,
                            f"{what} reaches an execute sink; render"
                            " through ra/to_sql.py parameterization instead",
                        )

    def _sink(self, call: ast.Call) -> bool:
        return bool(call.args) and terminal_name(call.func) in self.EXECUTORS

    @staticmethod
    def _may_taint(domain: TaintDomain, arg: ast.expr) -> bool:
        """Whether ``arg`` is tainted in *some* state: with every name
        it mentions tainted (taint is monotone in the state)."""
        names = frozenset(
            node.id for node in ast.walk(arg) if isinstance(node, ast.Name)
        )
        return domain.taints(arg, names)


@register
class LayeringRule(Rule):
    """HL016: module-level imports respect the LAYERS contract.

    The allowed dependency set for every top-level package under
    ``repro`` is pinned in
    :data:`repro.devtools.hippoflow.layering.LAYERS`; an import that
    crosses layers the wrong way (``engine`` -> ``conflicts``, runtime
    code -> ``devtools``, ...) fails here, per file, before CI's
    whole-tree cycle check even runs.
    """

    id = "HL016"
    name = "layering"
    summary = (
        "module-level imports must respect the layer contract in"
        " repro.devtools.hippoflow.layering.LAYERS"
    )
    rationale = (
        "PR 9 import-graph analysis; whole-tree twin:"
        " `python -m repro.devtools.hippoflow.layering src/repro` in CI"
    )

    def check(self, module: SourceModule) -> Iterator[Finding]:
        # Imported lazily: layering doubles as a ``python -m`` CLI, and
        # a module-level import here (reached from devtools.__init__)
        # would make runpy warn about the double import on every run.
        from repro.devtools.hippoflow.layering import check_module

        package_path = module.package_path
        parts = Path(package_path).with_suffix("").parts
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        name = ".".join(("repro", *parts)) if parts else "repro"
        is_package = Path(package_path).name == "__init__.py"
        for lineno, col, message in check_module(name, module.tree, is_package):
            yield lineno, col, message
