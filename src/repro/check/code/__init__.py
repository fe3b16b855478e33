"""Static analysis over the repro *source code* itself.

PR 2's ``repro.check`` lints the artifacts the system produces (SQL,
mappings, plans); this package points the same Findings engine at the
code that produces them. Three pass families, three code families:

* :mod:`det` — **DET0xx** determinism (unseeded RNG, wall clock,
  unordered set/directory iteration),
* :mod:`conc` — **CONC0xx** concurrency (unlocked shared writes on
  thread-pool paths, cross-thread sqlite3 connections, lock-order
  cycles),
* :mod:`res` — **RES0xx** resources (swallowed broad excepts,
  unclosed handles).

:func:`lint_source_tree` is the driver: it loads every module under a
root (the installed ``repro`` package by default), runs all passes,
honors inline ``# lint: allow(CODE)`` pragmas (the one way to waive a
finding), deduplicates and sorts. The ``repro check --code`` CLI and
the CI ``code-lint`` gate are thin wrappers around it. See
docs/static-analysis.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from ..findings import Findings
from .callgraph import LockOrderGraph, ModuleCallGraph
from .conc import build_lock_order, check_concurrency, check_lock_order
from .det import check_determinism
from .res import check_resources
from .walker import SourceModule, load_module, load_source_tree

__all__ = [
    "CodeReport",
    "LockOrderGraph",
    "ModuleCallGraph",
    "SourceModule",
    "build_lock_order",
    "check_concurrency",
    "check_determinism",
    "check_lock_order",
    "check_resources",
    "default_source_root",
    "lint_source_tree",
    "load_module",
    "load_source_tree",
]


def default_source_root() -> Path:
    """The installed ``repro`` package — the tree that lints itself."""
    return Path(__file__).resolve().parents[2]


@dataclass
class CodeReport:
    """Outcome of one source-tree lint."""

    findings: Findings = field(default_factory=Findings)
    modules_checked: int = 0
    inline_suppressed: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings.errors

    def summary(self) -> str:
        errors = len(self.findings.errors)
        warnings = len(self.findings.warnings)
        status = "OK" if self.ok else "FAILED"
        line = (f"{status}: {self.modules_checked} module(s) linted, "
                f"{errors} error(s), {warnings} warning(s)")
        if self.inline_suppressed:
            line += f" ({self.inline_suppressed} inline-suppressed)"
        return line


def _sort_key(finding) -> tuple[str, int, str]:
    location = finding.location
    path, _, line = location.rpartition(":")
    try:
        lineno = int(line)
    except ValueError:
        path, lineno = location, 0
    return (path, lineno, finding.code)


def lint_source_tree(root: str | Path | None = None) -> CodeReport:
    """Run every code pass over the tree rooted at ``root``."""
    modules = load_source_tree(root if root is not None
                               else default_source_root())
    report = CodeReport(modules_checked=len(modules))
    collected = Findings()
    for module in modules:
        for pass_findings in (check_determinism(module),
                              check_concurrency(module),
                              check_resources(module)):
            for finding in pass_findings:
                lineno = int(finding.location.rsplit(":", 1)[-1])
                if finding.code in module.suppressions.get(lineno, set()) \
                        or finding.code in module.suppressions.get(
                            lineno - 1, set()):
                    report.inline_suppressed += 1
                else:
                    collected.items.append(finding)
    collected.extend(check_lock_order(modules))
    report.findings = collected.dedupe()
    report.findings.items.sort(key=_sort_key)
    return report
