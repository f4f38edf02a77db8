"""E-series: the ``REPRO_*`` environment-flag registry (DESIGN.md §16).

Flags cross process boundaries as plain environment strings
(fork/spawn pool and population workers), so a typo'd name fails silently
as ``None``.  The registry in
``repro/utils/flags.py`` is the single source of truth; these rules
force every read through it (E301), every referenced name into it
(E302), and keep direct environment *writes* out of the code
(E303): tests set flags through ``monkeypatch``.

The registered-name set is recovered by parsing the registry module's
AST — the linter never imports the code it checks.
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

FLAG_NAME_RE = re.compile(r"^REPRO_[A-Z0-9_]+$")

#: Call attributes that take a flag name as their first argument.
_FLAG_READERS = frozenset({
    "read_raw", "read_choice", "get_flag", "is_registered",
})
_MONKEYPATCH_FNS = frozenset({"setenv", "delenv"})

_registry_cache: dict[str, frozenset[str]] = {}


def registered_flags(ctx_root_rel: str, config: LintConfig,
                     root) -> frozenset[str] | None:
    """Names registered in the flags module (AST parse, cached).

    Returns ``None`` when the module does not exist under the lint
    root — E302 then degrades to skipped (another repo without the
    registry convention).
    """
    path = root / config.flags_module
    key = str(path)
    if key in _registry_cache:
        return _registry_cache[key]
    if not path.is_file():
        return None
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=key)
    names = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and (
                (isinstance(node.func, ast.Name)
                 and node.func.id == "register")
                or (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "register")
            )
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            names.add(node.args[0].value)
    result = frozenset(names)
    _registry_cache[key] = result
    return result


def _is_os_environ(node: ast.AST) -> bool:
    """``os.environ`` as an attribute chain."""
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "environ"
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def _environ_read_key(node: ast.Call | ast.Subscript, ctx: FileContext):
    """The flag-name string read by an os.environ access, if literal."""
    if isinstance(node, ast.Subscript) and _is_os_environ(node.value):
        return ctx.resolve_str(node.slice)
    if isinstance(node, ast.Call):
        func = node.func
        # os.environ.get(KEY) / os.environ.setdefault / .pop
        if (
            isinstance(func, ast.Attribute)
            and _is_os_environ(func.value)
            and func.attr in ("get", "pop", "setdefault")
            and node.args
        ):
            return ctx.resolve_str(node.args[0])
        # os.getenv(KEY)
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "getenv"
            and isinstance(func.value, ast.Name)
            and func.value.id == "os"
            and node.args
        ):
            return ctx.resolve_str(node.args[0])
    return None


def _broad_scope(ctx: FileContext) -> bool:
    return ctx.rel.startswith(
        ("src/", "tests/", "tools/", "benchmarks/", "examples/")
    ) or "/" not in ctx.rel  # top-level files like setup.py


@register_rule
class RawFlagReadRule(Rule):
    """E301: REPRO_* reads go through repro.utils.flags."""

    id = "E301"
    title = "raw os.environ read of a REPRO_* flag"
    rationale = (
        "The registry (repro/utils/flags.py) is the one place that "
        "knows a flag's name, values, default, and doc anchor; raw "
        "reads bypass the unknown-name guard and drift from the "
        "documented defaults."
    )

    def applies(self, ctx: FileContext, config: LintConfig) -> bool:
        return _broad_scope(ctx) and ctx.rel != config.flags_module

    def check(
        self, ctx: FileContext, config: LintConfig
    ) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Call, ast.Subscript)):
                continue
            if isinstance(node, ast.Subscript) and not isinstance(
                getattr(node, "ctx", None), ast.Load
            ):
                continue  # writes/deletes are E303's business
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("pop", "setdefault")
                ):
                    continue  # mutation: E303
            key = _environ_read_key(node, ctx)
            if key and FLAG_NAME_RE.match(key):
                yield self.violation(
                    ctx, node,
                    f"raw environment read of {key}; use "
                    "repro.utils.flags.read_raw/read_choice",
                )


@register_rule
class UnregisteredFlagRule(Rule):
    """E302: every referenced REPRO_* name exists in the registry."""

    id = "E302"
    title = "unregistered REPRO_* flag name"
    rationale = (
        "An unregistered name is either a typo (reads silently return "
        "None across every process boundary) or an undocumented flag; "
        "both are bugs.  Register it in repro/utils/flags.py."
    )

    def applies(self, ctx: FileContext, config: LintConfig) -> bool:
        return _broad_scope(ctx) and ctx.rel != config.flags_module

    def check(
        self, ctx: FileContext, config: LintConfig
    ) -> Iterator[Violation]:
        root = config.root
        if root is None:
            root = ctx.path.resolve()
            for _ in ctx.rel.split("/"):
                root = root.parent
        registry = registered_flags(ctx.rel, config, root)
        if registry is None:
            return
        for node, name in self._flag_name_sites(ctx):
            if FLAG_NAME_RE.match(name) and name not in registry:
                yield self.violation(
                    ctx, node,
                    f"{name} is not registered in repro/utils/flags.py",
                )

    @staticmethod
    def _flag_name_sites(ctx: FileContext):
        """(node, candidate-name) pairs from flag-shaped syntax sites."""
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                func = node.func
                attr = func.attr if isinstance(func, ast.Attribute) else (
                    func.id if isinstance(func, ast.Name) else None
                )
                if attr in _FLAG_READERS or attr in _MONKEYPATCH_FNS or (
                    attr in ("get", "pop", "setdefault", "getenv")
                ):
                    if node.args:
                        name = ctx.resolve_str(node.args[0])
                        if name:
                            yield node, name
            elif isinstance(node, ast.Subscript):
                name = ctx.resolve_str(node.slice)
                if name:
                    yield node, name
            elif isinstance(node, ast.Dict):
                for key in node.keys:
                    if key is None:
                        continue
                    name = ctx.resolve_str(key)
                    if name:
                        yield key, name
            elif isinstance(node, ast.Assign):
                # NAME_ENV = "REPRO_X" constants: the constant *is* the
                # reference; registration is checked where it's used.
                continue


@register_rule
class RawFlagWriteRule(Rule):
    """E303: direct environment writes of REPRO_* flags."""

    id = "E303"
    title = "raw os.environ write of a REPRO_* flag"
    rationale = (
        "Mutating flag state in-place belongs to tests, through "
        "monkeypatch (restored after each test); anywhere else it "
        "silently reconfigures every subsequent read in the process."
    )

    def applies(self, ctx: FileContext, config: LintConfig) -> bool:
        # Tests mutate env through monkeypatch (auto-restored); direct
        # writes there are still worth flagging, so tests stay in scope.
        return _broad_scope(ctx) and ctx.rel != config.flags_module

    def check(
        self, ctx: FileContext, config: LintConfig
    ) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            key = None
            target = None
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = (
                    node.targets
                    if isinstance(node, (ast.Assign, ast.Delete))
                    else []
                )
                for tgt in targets:
                    if isinstance(tgt, ast.Subscript) and _is_os_environ(
                        tgt.value
                    ):
                        key = ctx.resolve_str(tgt.slice)
                        target = tgt
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and _is_os_environ(func.value)
                    and func.attr in ("pop", "setdefault", "update")
                    and node.args
                ):
                    key = ctx.resolve_str(node.args[0])
                    target = node
            if key and target is not None and FLAG_NAME_RE.match(key):
                yield self.violation(
                    ctx, target,
                    f"direct environment write of {key}; set flags in "
                    "tests through monkeypatch",
                )
