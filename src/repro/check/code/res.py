"""RES0xx — resource and exception-hygiene lints.

* **RES001** — an ``except Exception:`` / bare ``except:`` handler that
  swallows the failure: it neither re-raises, nor routes through
  :func:`repro.resilience.note_suppressed` (the PR 4 convention that
  makes every deliberate suppression visible on metrics), nor even
  reads the bound exception. Such handlers turn real faults into
  silent wrong results.
* **RES002** — an ``open()`` / ``*.connect()`` result that is not
  closed on all paths: not used as a ``with`` context manager, never
  ``.close()``-d in its function, and not handed off (returned,
  yielded, stored on ``self``/a module global, or passed — by name or
  as the opener itself — to a call whose name says it takes ownership:
  ``enter_context`` on an ``ExitStack``, ``closing``, ``append`` onto a
  pool, ``register``). Any other call only reads the handle, so
  ``json.load(open(path))`` leaks as surely as ``open(path).read()``.
"""

from __future__ import annotations

import ast

from ..findings import Findings
from .walker import SourceModule

__all__ = ["check_resources"]


def _call_name(call: ast.Call) -> str:
    func = call.func
    return (func.id if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else "")


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    """Catches Exception/BaseException (alone or in a tuple), or bare."""
    def broad(expr: ast.expr) -> bool:
        return isinstance(expr, ast.Name) and \
            expr.id in ("Exception", "BaseException")

    if handler.type is None:
        return True
    if broad(handler.type):
        return True
    if isinstance(handler.type, ast.Tuple):
        return any(broad(e) for e in handler.type.elts)
    return False


def _handler_routes_failure(handler: ast.ExceptHandler) -> bool:
    """Re-raises, calls note_suppressed, or reads the bound exception."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call) and \
                _call_name(node) == "note_suppressed":
            return True
        if handler.name is not None and isinstance(node, ast.Name) and \
                node.id == handler.name and isinstance(node.ctx, ast.Load):
            return True
    return False


def _check_handlers(module: SourceModule, findings: Findings) -> None:
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if not _is_broad_handler(node):
            continue
        if _handler_routes_failure(node):
            continue
        what = "bare except:" if node.type is None else "except Exception:"
        findings.add(
            "RES001",
            f"{what} swallows the failure — re-raise, or route it "
            f"through note_suppressed() so the suppression is counted",
            module.location(node))


# ----------------------------------------------------------------------
# RES002
# ----------------------------------------------------------------------
#: Calls that take ownership of a handle passed to them.
_OWNERS = frozenset({"enter_context", "closing", "append", "register"})


def _is_opener(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        return True
    return isinstance(func, ast.Attribute) and func.attr == "connect"


def _opener_label(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return f"{func.id}()"
    assert isinstance(func, ast.Attribute)
    value = func.value
    prefix = value.id if isinstance(value, ast.Name) else "..."
    return f"{prefix}.{func.attr}()"


def _in_with_items(module: SourceModule, call: ast.Call) -> bool:
    """Is the call a ``with`` context expression (possibly wrapped in
    ``contextlib.closing(...)``)?"""
    node: ast.AST = call
    parent = module.parent(call)
    if isinstance(parent, ast.Call):
        if _call_name(parent) == "closing" and call in parent.args:
            node, parent = parent, module.parent(parent)
    if isinstance(parent, ast.withitem) and parent.context_expr is node:
        return True
    return False


def _enclosing_function(
        module: SourceModule,
        node: ast.AST) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return ancestor
    return None


def _escapes_or_closes(module: SourceModule, call: ast.Call,
                       name: str) -> bool:
    """Is the variable ``name`` closed or handed off in its function?"""
    scope: ast.AST | None = _enclosing_function(module, call)
    if scope is None:
        scope = module.tree  # module-level handle: scan the whole module
    for node in ast.walk(scope):
        if isinstance(node, ast.Call):
            func = node.func
            # x.close() (or x.anything-with-close, e.g. x.aclose())
            if isinstance(func, ast.Attribute) and "close" in func.attr and \
                    isinstance(func.value, ast.Name) and \
                    func.value.id == name:
                return True
            # handed to an owner: append(x), closing(x), register(x)…
            if _call_name(node) in _OWNERS:
                for arg in list(node.args) + [k.value
                                              for k in node.keywords]:
                    if isinstance(arg, ast.Name) and arg.id == name:
                        return True
        elif isinstance(node, ast.Return) and \
                isinstance(node.value, ast.Name) and node.value.id == name:
            return True
        elif isinstance(node, (ast.Yield, ast.YieldFrom)) and \
                isinstance(node.value, ast.Name) and node.value.id == name:
            return True
        elif isinstance(node, ast.Assign):
            # re-homed onto an attribute or container: ownership moves
            for target in node.targets:
                if isinstance(target, (ast.Attribute, ast.Subscript)) and \
                        isinstance(node.value, ast.Name) and \
                        node.value.id == name:
                    return True
    return False


def _check_openers(module: SourceModule, findings: Findings) -> None:
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.Call) and _is_opener(node)):
            continue
        if _in_with_items(module, node):
            continue
        parent = module.parent(node)
        if isinstance(parent, ast.Assign) and len(parent.targets) == 1:
            target = parent.targets[0]
            if isinstance(target, ast.Name):
                if _escapes_or_closes(module, node, target.id):
                    continue
                findings.add(
                    "RES002",
                    f"{_opener_label(node)} result {target.id!r} is "
                    f"never closed on this path — use `with`, or "
                    f"close()/hand it off on every path",
                    module.location(node))
                continue
            if isinstance(target, (ast.Attribute, ast.Subscript)):
                continue  # escapes into an object/container
        if isinstance(parent, ast.Return):
            continue  # ownership transferred to the caller
        if isinstance(parent, ast.Call) and parent.func is not node and \
                _call_name(parent) in _OWNERS:
            continue  # handed to an owner: enter_context(open(...)), …
        findings.add(
            "RES002",
            f"{_opener_label(node)} result is consumed inline and never "
            f"closed — bind it in a `with` block",
            module.location(node))


def check_resources(module: SourceModule) -> Findings:
    findings = Findings()
    _check_handlers(module, findings)
    _check_openers(module, findings)
    return findings
