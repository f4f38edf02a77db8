"""S-series: mechanical hygiene rules (the ``--fix`` pack).

S601 (unused imports) is the one rule with a mechanical fix: the
binding is provably unreferenced, so deleting it cannot change
behaviour.  S602 keeps coverage exemptions honest — every
``pragma: no cover`` must say *why*, mirroring the repro-lint pragma
contract, so the periodic audit can tell a protocol stub from a path
someone simply never tested.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.core import (
    FileContext,
    LintConfig,
    Rule,
    Violation,
    register_rule,
)

NO_COVER_RE = re.compile(r"pragma:\s*no\s*cover(?P<tail>[^\n]*)")


def _binding_name(alias: ast.alias, node: ast.stmt) -> str:
    if alias.asname:
        return alias.asname
    if isinstance(node, ast.Import):
        return alias.name.split(".")[0]
    return alias.name


def _used_names(ctx: FileContext) -> set[str]:
    """Every identifier that could reference an imported binding."""
    used: set[str] = set()
    all_names: set[str] = set()
    in_type_checking_strings: list[str] = []
    # Docstrings (and any other bare string statement) are prose: a
    # word in them must not keep an import alive.
    prose = {
        id(node.value)
        for node in ast.walk(ctx.tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
    }
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            # handled via the base Name; nothing extra to record
            continue
        elif isinstance(node, ast.Assign):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name) and tgt.id == "__all__":
                    if isinstance(node.value, (ast.List, ast.Tuple)):
                        for elt in node.value.elts:
                            if isinstance(elt, ast.Constant) and isinstance(
                                elt.value, str
                            ):
                                all_names.add(elt.value)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in prose
        ):
            in_type_checking_strings.append(node.value)
    used |= all_names
    # Quoted forward references ("Frame", "np.ndarray", dict[str,
    # "Lease"]) reference names through string constants; count any
    # identifier token inside string constants as a (weak) use so
    # TYPE_CHECKING-only imports used in annotations survive.  ruff's
    # F401 re-checks this precisely in CI.
    ident_re = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
    for text in in_type_checking_strings:
        if len(text) <= 200:  # annotations, not prose
            used.update(ident_re.findall(text))
    return used


@register_rule
class UnusedImportRule(Rule):
    """S601: imports that bind names nothing references."""

    id = "S601"
    title = "unused import"
    fixable = True
    rationale = (
        "Dead imports hide real dependencies and slow cold start; "
        "removal is mechanical (--fix) because the binding is "
        "unreferenced by construction.  __all__ re-exports and names "
        "quoted in annotations count as uses."
    )

    def applies(self, ctx: FileContext, config: LintConfig) -> bool:
        return ctx.rel.startswith(("src/", "tools/"))

    def _unused(self, ctx: FileContext):
        """(node, alias) pairs for unreferenced import bindings."""
        used = _used_names(ctx)
        is_package_init = ctx.rel.endswith("__init__.py")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom):
                if node.module == "__future__":
                    continue
                if any(alias.name == "*" for alias in node.names):
                    continue
                # ``from x import y as y`` is the PEP 484 explicit
                # re-export idiom; package __init__ re-exports without
                # __all__ coverage are skipped too (they're API).
                if is_package_init:
                    continue
            for alias in node.names:
                name = _binding_name(alias, node)
                if alias.asname == alias.name:
                    continue
                if name not in used:
                    yield node, alias, name

    def check(
        self, ctx: FileContext, config: LintConfig
    ) -> Iterator[Violation]:
        for node, alias, name in self._unused(ctx):
            yield self.violation(ctx, node, f"unused import: {name}")

    def fix(self, ctx: FileContext, config: LintConfig) -> str | None:
        hits = [
            (node, alias, name)
            for node, alias, name in self._unused(ctx)
            if not ctx.allowed(node.lineno, self.id)
        ]
        if not hits:
            return None
        lines = ctx.source.splitlines(keepends=True)
        # Group per statement; rebuild or drop each one.
        by_node: dict[ast.stmt, list[ast.alias]] = {}
        for node, alias, _ in hits:
            by_node.setdefault(node, []).append(alias)
        for node, dead in by_node.items():
            keep = [a for a in node.names if a not in dead]
            start, end = node.lineno - 1, node.end_lineno
            if not keep:
                replacement: list[str] = []
            else:
                names = ", ".join(
                    a.name + (f" as {a.asname}" if a.asname else "")
                    for a in keep
                )
                indent = re.match(
                    r"\s*", lines[start]
                ).group(0)
                if isinstance(node, ast.ImportFrom):
                    stmt = (
                        f"{indent}from {'.' * node.level}"
                        f"{node.module or ''} import {names}\n"
                    )
                else:
                    stmt = f"{indent}import {names}\n"
                replacement = [stmt]
            lines[start:end] = replacement + [None] * (
                (end - start) - len(replacement)
            )
        return "".join(line for line in lines if line is not None)


@register_rule
class NoCoverReasonRule(Rule):
    """S602: every ``pragma: no cover`` carries a reason."""

    id = "S602"
    title = "coverage exemption without a reason"
    rationale = (
        "A bare 'pragma: no cover' is indistinguishable from a path "
        "someone forgot to test; the audit contract (DESIGN.md §16) "
        "requires 'pragma: no cover - <why>' so exemptions stay "
        "reviewable."
    )

    def check(
        self, ctx: FileContext, config: LintConfig
    ) -> Iterator[Violation]:
        for lineno, text in enumerate(ctx.lines, start=1):
            match = NO_COVER_RE.search(text)
            if not match:
                continue
            if "#" not in text[: match.start()]:
                continue  # prose/regex mention, not a real pragma comment
            tail = match.group("tail").strip()
            if not tail.startswith("-") or len(tail.lstrip("- ")) < 3:
                yield Violation(
                    rule=self.id,
                    path=ctx.rel,
                    line=lineno,
                    col=match.start() + 1,
                    message=(
                        "pragma: no cover without a reason; write "
                        "'pragma: no cover - <why>'"
                    ),
                )
