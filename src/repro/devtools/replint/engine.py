"""The replint engine: findings, rule metadata, suppressions, file walking.

The engine is deliberately small: rules are AST visitors (one combined
visitor in :mod:`.rules` emits findings for every enabled rule in a single
walk), and this module owns everything around them — the :class:`Finding`
record, the :class:`Rule` catalog entries, ``# replint: ignore[RPLxxx]``
suppression parsing, path collection, and rendering.

Scope model
-----------
Rules declare whether they apply everywhere (``sim_only=False``) or only to
*simulator code* (``sim_only=True``): files under the packages whose event
ordering must be deterministic (``repro/sim``, ``repro/cluster``,
``repro/collectives``, ``repro/core``, ``repro/training``).  A wall-clock
read in ``repro/api`` (wall-time measurement of a finished run) is fine;
the same call inside an event callback would silently couple simulated
timelines to host load.

Suppressions
------------
A finding on line N is suppressed by a trailing (or same-line) comment::

    t = time.time()  # replint: ignore[RPL001]

Several codes may be listed (``ignore[RPL001,RPL005]``); a bare
``ignore`` with no bracket suppresses every rule on that line, and a
``skip-file`` directive comment anywhere in the file skips it entirely.
Suppressions are counted and reported so they cannot accumulate unseen.
"""

from __future__ import annotations

import ast
import json
import re
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

#: Path fragments marking *simulator* code, where the determinism rules
#: apply.  Matching is substring-based on the posix form of the path, so it
#: works for ``src/repro/sim/engine.py`` and ``repro/cluster/jobs.py`` alike.
SIM_PATH_MARKERS: tuple[str, ...] = (
    "repro/sim",
    "repro/cluster",
    "repro/collectives",
    "repro/core",
    "repro/training",
    "repro/topology",
    "repro/workloads",
)

_IGNORE_RE = re.compile(
    r"#\s*replint:\s*ignore(?:\[(?P<codes>[A-Z0-9,\s]+)\])?"
)
_SKIP_FILE_RE = re.compile(r"#\s*replint:\s*skip-file")


@dataclass(frozen=True)
class Rule:
    """Catalog entry for one lint rule (used by ``--list-rules`` and docs)."""

    code: str
    name: str
    summary: str
    hint: str
    #: When True the rule fires only in simulator code (see module docstring).
    sim_only: bool = True


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    code: str
    message: str
    hint: str

    def render(self, show_hint: bool = True) -> str:
        text = f"{self.path}:{self.line}:{self.col + 1}: {self.code} {self.message}"
        if show_hint and self.hint:
            text += f"\n    hint: {self.hint}"
        return text

    def to_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass
class LintResult:
    """Everything one lint run produced, for reporting and tests."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    files_skipped: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return 1 if self.findings or self.errors else 0

    def extend(self, other: "LintResult") -> None:
        self.findings.extend(other.findings)
        self.suppressed.extend(other.suppressed)
        self.files_checked += other.files_checked
        self.files_skipped += other.files_skipped
        self.errors.extend(other.errors)

    def to_json(self) -> str:
        return json.dumps(
            {
                "findings": [f.to_dict() for f in self.findings],
                "suppressed": [f.to_dict() for f in self.suppressed],
                "files_checked": self.files_checked,
                "files_skipped": self.files_skipped,
                "errors": self.errors,
            },
            indent=2,
        )


def is_sim_path(path: str) -> bool:
    """Whether ``path`` belongs to the determinism-scoped simulator code."""
    posix = path.replace("\\", "/")
    return any(marker in posix for marker in SIM_PATH_MARKERS)


def parse_suppressions(source: str) -> tuple[dict[int, set[str] | None], bool]:
    """Per-line suppression map and the file-level skip flag.

    The map sends line numbers to the suppressed code set, or ``None`` for
    a bare ``ignore`` (suppress everything on that line).
    """
    per_line: dict[int, set[str] | None] = {}
    skip_file = False
    for lineno, line in enumerate(source.splitlines(), start=1):
        if _SKIP_FILE_RE.search(line):
            skip_file = True
        match = _IGNORE_RE.search(line)
        if match is None:
            continue
        raw = match.group("codes")
        if raw is None:
            per_line[lineno] = None
        else:
            codes = {part.strip() for part in raw.split(",") if part.strip()}
            existing = per_line.get(lineno)
            if existing is None and lineno in per_line:
                continue  # bare ignore already covers the line
            per_line[lineno] = (existing or set()) | codes
    return per_line, skip_file


def lint_source(
    source: str,
    path: str = "<string>",
    *,
    sim_scope: bool | None = None,
    select: Iterable[str] | None = None,
) -> LintResult:
    """Lint one source text; the unit the file walker and the tests share.

    ``sim_scope`` forces the simulator-code scope on or off; ``None``
    derives it from ``path`` (see :func:`is_sim_path`).  ``select``
    restricts checking to the given rule codes.
    """
    from .rules import run_rules

    result = LintResult(files_checked=1)
    suppress_map, skip_file = parse_suppressions(source)
    if skip_file:
        return LintResult(files_checked=0, files_skipped=1)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        result.errors.append(f"{path}: syntax error: {error.msg} (line {error.lineno})")
        return result
    scope = is_sim_path(path) if sim_scope is None else sim_scope
    selected = set(select) if select is not None else None
    for finding in run_rules(tree, path, sim_scope=scope):
        if selected is not None and finding.code not in selected:
            continue
        if finding.line in suppress_map:
            codes = suppress_map[finding.line]
            if codes is None or finding.code in codes:
                result.suppressed.append(finding)
                continue
        result.findings.append(finding)
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return result


def iter_python_files(paths: Iterable[str]) -> Iterator[Path]:
    """Expand files/directories into the sorted set of ``.py`` files."""
    seen: list[Path] = []
    for raw in paths:
        root = Path(raw)
        if root.is_dir():
            seen.extend(p for p in root.rglob("*.py"))
        elif root.suffix == ".py":
            seen.append(root)
    return iter(sorted(set(seen)))


def lint_paths(
    paths: Iterable[str],
    *,
    select: Iterable[str] | None = None,
) -> LintResult:
    """Lint every Python file under ``paths`` and merge the results."""
    total = LintResult()
    found_any = False
    for file_path in iter_python_files(paths):
        found_any = True
        try:
            source = file_path.read_text(encoding="utf-8")
        except OSError as error:
            total.errors.append(f"{file_path}: {error}")
            continue
        total.extend(lint_source(source, str(file_path), select=select))
    if not found_any:
        total.errors.append(
            "no Python files found under: " + ", ".join(str(p) for p in paths)
        )
    total.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return total
