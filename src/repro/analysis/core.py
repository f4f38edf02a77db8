"""The ``repro-lint`` framework: rules, pragmas, config, and the driver.

This is the machinery half of DESIGN.md §16.  A :class:`Rule` inspects
one parsed file (:class:`FileContext`) and yields :class:`Violation`\\ s;
the :class:`Linter` walks paths, applies per-line pragma suppressions,
and renders human or JSON output.  Everything here is standard library
only — the linter must run on a bare checkout before any scientific
dependency is installed, and it must never import the code it analyses
(all facts come from the AST).

Repo-invariant by construction: rules read their path scopes, layering
seams, and wall-clock zones from :class:`LintConfig`, whose defaults
encode *this* repository; another project overrides them in a
``.repro-lint.toml`` at its root.  The rule IDs are stable public API
(pragmas and baselines reference them).

Suppression contract (mirrors ``pragma: no cover``'s reason rule):

* ``# repro-lint: ok D101 - <why>`` on the offending line (or alone on
  the line directly above) allowlists those rule IDs for that line.
* ``# repro-lint: skip-file`` anywhere skips the whole file (reserved
  for generated code and deliberate fixture files).
"""

from __future__ import annotations

import ast
import fnmatch
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

__all__ = [
    "FileContext",
    "LintConfig",
    "Linter",
    "Rule",
    "Violation",
    "all_rules",
    "get_rule",
    "load_config",
    "register_rule",
]

PRAGMA_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<verb>ok|skip-file)"
    r"(?:\s+(?P<rules>[A-Z]\d+(?:\s*,\s*[A-Z]\d+)*))?"
    r"(?:\s*-\s*(?P<reason>.*))?"
)

#: Directory names never descended into.
SKIP_DIRS = {"__pycache__", ".git", "build", ".hypothesis", ".pytest_cache"}


@dataclass(frozen=True)
class Violation:
    """One rule hit, anchored to a file position."""

    rule: str
    path: str  # repo-relative posix path
    line: int
    col: int
    message: str

    def fingerprint(self) -> str:
        """Line-number-free identity used by baseline files."""
        return f"{self.rule}:{self.path}:{self.message}"

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def as_json(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }


@dataclass
class LintConfig:
    """Repo-specific facts the repo-invariant rules consume.

    Defaults describe this repository; a ``.repro-lint.toml`` at the
    lint root overrides any field (section ``[repro-lint]``, same key
    names).  Paths are repo-relative posix strings; a trailing ``/``
    means "the whole subtree".
    """

    #: Where wall-clock reads are legitimate: observation and failure
    #: detection layers (telemetry, leases, backend drivers,
    #: fault injection, experiment timing) — never simulation state.
    #: The lint root (set by the Linter; rules resolve repo files
    #: like the flags registry against it).
    root: Path | None = None
    wall_clock_zones: list[str] = field(default_factory=lambda: [
        "src/repro/telemetry/",
        "src/repro/campaigns/resilience.py",
        "src/repro/campaigns/faults.py",
        "src/repro/campaigns/backends/",
        "src/repro/experiments/timing.py",
    ])
    #: The one module allowed to touch ``os.environ`` for REPRO_* flags.
    flags_module: str = "src/repro/utils/flags.py"
    #: The blessed JSONL append seam (defines ensure_line_boundary).
    jsonl_module: str = "src/repro/utils/jsonl.py"
    #: campaigns -> manet imports must stay on these seams (L501).
    campaign_manet_seams: list[str] = field(default_factory=lambda: [
        "repro.manet.aedb",
        "repro.manet.config",
        "repro.manet.metrics",
        "repro.manet.runtime",
        "repro.manet.scenarios",
        "repro.manet.simulator",
    ])
    #: Layer order (L502): a module under key may not import prefixes
    #: in its value list.
    upward_imports: dict[str, list[str]] = field(default_factory=lambda: {
        "repro.utils": ["repro."],
        "repro.telemetry": [
            "repro.manet", "repro.campaigns", "repro.tuning",
            "repro.experiments", "repro.moo", "repro.stats",
            "repro.core", "repro.sensitivity", "repro.cli",
            "repro.analysis",
        ],
        "repro.manet": [
            "repro.campaigns", "repro.tuning", "repro.experiments",
            "repro.moo", "repro.stats", "repro.core",
            "repro.sensitivity", "repro.cli", "repro.analysis",
        ],
        "repro.analysis": [
            "repro.manet", "repro.campaigns", "repro.tuning",
            "repro.experiments", "repro.moo", "repro.stats",
            "repro.core", "repro.sensitivity", "repro.cli",
            "repro.telemetry", "repro.utils",
        ],
    })
    #: Exceptions to ``upward_imports`` (exact prefix allowances).
    upward_allowed: dict[str, list[str]] = field(default_factory=lambda: {
        "repro.utils": ["repro.utils"],
        "repro.analysis": [],
    })

    def in_wall_clock_zone(self, rel: str) -> bool:
        return _path_in(rel, self.wall_clock_zones)


def _path_in(rel: str, entries: Iterable[str]) -> bool:
    for entry in entries:
        if entry.endswith("/"):
            if rel.startswith(entry):
                return True
        elif rel == entry or fnmatch.fnmatch(rel, entry):
            return True
    return False


def load_config(root: Path) -> LintConfig:
    """The root's ``.repro-lint.toml`` merged over the defaults."""
    config = LintConfig()
    path = root / ".repro-lint.toml"
    if not path.is_file():
        return config
    import tomllib

    data = tomllib.loads(path.read_text(encoding="utf-8"))
    section = data.get("repro-lint", data)
    for key, value in section.items():
        attr = key.replace("-", "_")
        if hasattr(config, attr):
            setattr(config, attr, value)
    return config


# --------------------------------------------------------------------- #
class FileContext:
    """One parsed source file plus the derived facts rules share."""

    def __init__(self, path: Path, rel: str, source: str):
        self.path = path
        self.rel = rel
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=rel)
        self.module = self._module_name(rel)
        self._scan_pragmas()
        self._scan_constants()
        self._parents: dict[ast.AST, ast.AST] | None = None

    @staticmethod
    def _module_name(rel: str) -> str:
        """Dotted module guess (``src/repro/a/b.py`` -> ``repro.a.b``)."""
        parts = Path(rel).with_suffix("").parts
        if "src" in parts:
            parts = parts[parts.index("src") + 1:]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    def _scan_pragmas(self) -> None:
        self.skip_file = False
        #: line number -> allowed rule-id set ("*" = all)
        self._allow: dict[int, set[str]] = {}
        for lineno, text in enumerate(self.lines, start=1):
            match = PRAGMA_RE.search(text)
            if not match:
                continue
            if match.group("verb") == "skip-file":
                self.skip_file = True
                continue
            rules = match.group("rules")
            ids = (
                {r.strip() for r in rules.split(",")} if rules else {"*"}
            )
            target = lineno
            # A comment-only pragma line covers the following line.
            if text.lstrip().startswith("#"):
                target = lineno + 1
            self._allow.setdefault(target, set()).update(ids)

    def _scan_constants(self) -> None:
        """Module-level ``NAME = "literal"`` string constants."""
        self.str_constants: dict[str, str] = {}
        for node in self.tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)
            ):
                self.str_constants[node.targets[0].id] = node.value.value

    def allowed(self, line: int, rule: str) -> bool:
        ids = self._allow.get(line)
        return bool(ids) and ("*" in ids or rule in ids)

    def parent(self, node: ast.AST) -> ast.AST | None:
        if self._parents is None:
            self._parents = {}
            for outer in ast.walk(self.tree):
                for child in ast.iter_child_nodes(outer):
                    self._parents[child] = outer
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parent(node)
        while current is not None:
            yield current
            current = self.parent(current)

    def enclosing_function(self, node: ast.AST) -> ast.AST | None:
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    def resolve_str(self, node: ast.AST) -> str | None:
        """A literal string, through module-level constant names."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return self.str_constants.get(node.id)
        return None


# --------------------------------------------------------------------- #
class Rule:
    """One invariant: an ID, a scope predicate, and a checker.

    Subclasses set the class attributes and implement :meth:`check`.
    ``fixable`` rules additionally implement :meth:`fix`, returning the
    corrected source (or ``None`` when nothing mechanical applies).
    """

    id: str = ""
    title: str = ""
    rationale: str = ""
    fixable: bool = False

    def applies(self, ctx: FileContext, config: LintConfig) -> bool:
        """Default scope: everything under ``src/``."""
        return ctx.rel.startswith("src/")

    def check(
        self, ctx: FileContext, config: LintConfig
    ) -> Iterator[Violation]:
        raise NotImplementedError

    def fix(self, ctx: FileContext, config: LintConfig) -> str | None:
        return None

    def violation(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            rule=self.id,
            path=ctx.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


_RULES: dict[str, Rule] = {}


def register_rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator adding one instance to the global registry."""
    rule = cls()
    if not rule.id:
        raise ValueError(f"{cls.__name__} has no rule id")
    if rule.id in _RULES:
        raise ValueError(f"duplicate rule id {rule.id}")
    _RULES[rule.id] = rule
    return cls


def all_rules() -> list[Rule]:
    _load_rule_packs()
    return [_RULES[key] for key in sorted(_RULES)]


def get_rule(rule_id: str) -> Rule:
    _load_rule_packs()
    return _RULES[rule_id]


def _load_rule_packs() -> None:
    """Import the rule modules (idempotent; registration is on import)."""
    from repro.analysis import (  # noqa: F401  (imported for registration)
        rules_determinism,
        rules_flags,
        rules_jsonl,
        rules_layering,
        rules_style,
        rules_telemetry,
    )


# --------------------------------------------------------------------- #
@dataclass
class LintResult:
    violations: list[Violation]
    files_checked: int
    errors: list[str]
    fixed: list[str] = field(default_factory=list)


class Linter:
    """Walks paths, runs the registry, applies pragmas and baselines."""

    def __init__(
        self,
        root: Path,
        config: LintConfig | None = None,
        select: Iterable[str] | None = None,
    ):
        self.root = root.resolve()
        self.config = config if config is not None else load_config(root)
        self.config.root = self.root
        rules = all_rules()
        if select:
            wanted = set(select)
            unknown = wanted - {r.id for r in rules}
            if unknown:
                raise KeyError(
                    f"unknown rule id(s): {', '.join(sorted(unknown))}"
                )
            rules = [r for r in rules if r.id in wanted]
        self.rules = rules

    def iter_files(self, paths: Iterable[Path]) -> Iterator[Path]:
        for path in paths:
            path = Path(path)
            if not path.is_absolute():
                path = self.root / path
            if path.is_file():
                if path.suffix == ".py":
                    yield path
                continue
            for sub in sorted(path.rglob("*.py")):
                if not SKIP_DIRS.intersection(sub.parts):
                    yield sub

    def relpath(self, path: Path) -> str:
        try:
            return path.resolve().relative_to(self.root).as_posix()
        except ValueError:
            return path.as_posix()

    def run(
        self,
        paths: Iterable[Path],
        fix: bool = False,
        baseline: set[str] | None = None,
    ) -> LintResult:
        violations: list[Violation] = []
        errors: list[str] = []
        fixed: list[str] = []
        n_files = 0
        for path in self.iter_files(paths):
            rel = self.relpath(path)
            n_files += 1
            try:
                source = path.read_text(encoding="utf-8")
                ctx = FileContext(path, rel, source)
            except (OSError, SyntaxError, ValueError) as exc:
                errors.append(f"{rel}: {exc}")
                continue
            if ctx.skip_file:
                continue
            if fix:
                source, changed = self._fix_file(ctx)
                if changed:
                    path.write_text(source, encoding="utf-8")
                    fixed.append(rel)
                    ctx = FileContext(path, rel, source)
            violations.extend(self.check_file(ctx))
        if baseline:
            violations = [
                v for v in violations if v.fingerprint() not in baseline
            ]
        violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
        return LintResult(violations, n_files, errors, fixed)

    def check_file(self, ctx: FileContext) -> list[Violation]:
        out = []
        for rule in self.rules:
            if not rule.applies(ctx, self.config):
                continue
            for violation in rule.check(ctx, self.config):
                if not ctx.allowed(violation.line, rule.id):
                    out.append(violation)
        return out

    def _fix_file(self, ctx: FileContext) -> tuple[str, bool]:
        """Apply every fixable rule until the file stops changing."""
        source = ctx.source
        changed = False
        for _ in range(10):  # converges in 1-2 passes; bound hard
            progressed = False
            for rule in self.rules:
                if not rule.fixable or not rule.applies(ctx, self.config):
                    continue
                new = rule.fix(ctx, self.config)
                if new is not None and new != source:
                    source = new
                    ctx = FileContext(ctx.path, ctx.rel, source)
                    progressed = changed = True
            if not progressed:
                break
        return source, changed


# --------------------------------------------------------------------- #
def render_human(result: LintResult) -> str:
    lines = [v.render() for v in result.violations]
    lines.extend(f"error: {e}" for e in result.errors)
    for rel in result.fixed:
        lines.append(f"fixed: {rel}")
    n = len(result.violations)
    lines.append(
        f"{result.files_checked} files checked, "
        f"{n} violation{'s' if n != 1 else ''}"
        + (f", {len(result.errors)} errors" if result.errors else "")
    )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    return json.dumps(
        {
            "version": 1,
            "files_checked": result.files_checked,
            "violations": [v.as_json() for v in result.violations],
            "errors": result.errors,
            "fixed": result.fixed,
        },
        indent=2,
        sort_keys=True,
    )


def load_baseline(path: Path) -> set[str]:
    data = json.loads(path.read_text(encoding="utf-8"))
    return set(data.get("fingerprints", []))


def write_baseline(path: Path, result: LintResult) -> None:
    data = {
        "version": 1,
        "fingerprints": sorted(v.fingerprint() for v in result.violations),
    }
    path.write_text(json.dumps(data, indent=2) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    """CLI driver (``python tools/repro_lint.py ...``)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Static analysis enforcing the repo's determinism, JSONL, "
            "env-flag, telemetry, and layering contracts (DESIGN.md §16)."
        ),
    )
    parser.add_argument("paths", nargs="*", default=["src", "tests"],
                        help="files or directories (default: src tests)")
    parser.add_argument("--root", default=".",
                        help="repo root for zone/seam resolution")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="machine-readable output")
    parser.add_argument("--fix", action="store_true",
                        help="apply mechanical fixes (fixable rules only)")
    parser.add_argument("--select", default=None,
                        help="comma-separated rule ids to run")
    parser.add_argument("--baseline", default=None,
                        help="JSON baseline of accepted violations")
    parser.add_argument("--write-baseline", default=None, metavar="PATH",
                        help="write current violations as the baseline")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            flag = " [fixable]" if rule.fixable else ""
            print(f"{rule.id}{flag}  {rule.title}")
            print(f"       {rule.rationale}")
        return 0

    select = args.select.split(",") if args.select else None
    try:
        linter = Linter(Path(args.root), select=select)
    except KeyError as exc:
        print(f"repro-lint: {exc.args[0]}", file=sys.stderr)
        return 2
    baseline = (
        load_baseline(Path(args.baseline)) if args.baseline else None
    )
    result = linter.run(
        [Path(p) for p in args.paths], fix=args.fix, baseline=baseline
    )
    if args.write_baseline:
        write_baseline(Path(args.write_baseline), result)
        print(f"baseline written: {args.write_baseline}")
        return 0
    print(render_json(result) if args.as_json else render_human(result))
    if result.errors:
        return 2
    return 1 if result.violations else 0
