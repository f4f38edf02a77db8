"""Docs stay true: links resolve, README quickstart actually runs.

Wraps ``tools/check_docs.py`` (the CI docs job) so the tier-1 suite
catches a broken link or a stale quickstart snippet the moment it is
introduced, not at review time.
"""

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


@pytest.mark.parametrize("name", check_docs.DOC_FILES)
def test_internal_links_resolve(name):
    path = REPO_ROOT / name
    assert path.exists(), f"doc file missing: {name}"
    assert check_docs.check_links(path) == []


@pytest.mark.parametrize("name", check_docs.DOCTEST_FILES)
def test_quickstart_snippets_execute(name):
    assert check_docs.run_doctests(REPO_ROOT / name) == []


def test_slug_rules_match_github():
    assert check_docs.github_slug("§9 Shared-memory runtimes & "
                                  "persistent evaluation cache") == (
        "9-shared-memory-runtimes--persistent-evaluation-cache"
    )
    assert check_docs.github_slug("## not a heading") != ""


def test_readme_flag_table_matches_registry():
    # The README "Environment flags" table is generated from the
    # registry; regenerate and require a verbatim match so adding a
    # flag without re-rendering the table fails here.
    from repro.utils import flags

    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    assert flags.registry_table_markdown() in readme


def test_every_repro_flag_in_tree_is_registered():
    # Any REPRO_* name mentioned anywhere under src/ must exist in the
    # registry — a typo'd flag name fails here, not silently at run
    # time.  (repro-lint E302 checks read sites; this sweeps docs,
    # strings, and comments too.)
    import re

    from repro.utils import flags

    registered = {f.name for f in flags.all_flags()}
    # Deliberate non-flags in prose: the registry docstring's typo
    # illustration and the placeholder name in rule commentary.
    registered |= {"REPRO_TELEMTRY", "REPRO_X"}
    pattern = re.compile(r"\bREPRO_[A-Z0-9_]+\b")
    unknown = {}
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        for name in pattern.findall(path.read_text(encoding="utf-8")):
            if name not in registered:
                unknown.setdefault(name, path.name)
    assert unknown == {}


def test_cited_records_and_root_docs_exist():
    # README, DESIGN and the sources may cite a benchmark record
    # (BENCH_*.json) or a root document (an upper-case *.md) only if
    # the file is committed — a citation of a never-written record
    # reads as evidence that does not exist.
    import re

    pattern = re.compile(r"(?<![\w/.-])(BENCH_\w+\.json|[A-Z][A-Z0-9_]*\.md)\b")
    sources = [REPO_ROOT / "README.md", REPO_ROOT / "DESIGN.md"]
    sources += sorted((REPO_ROOT / "src").rglob("*.py"))
    missing = {}
    for path in sources:
        for name in pattern.findall(path.read_text(encoding="utf-8")):
            if not (REPO_ROOT / name).exists():
                missing.setdefault(name, path.relative_to(REPO_ROOT).as_posix())
    assert missing == {}


def test_ci_workflow_paths_exist():
    # Every test, benchmark, perfbench or tools path the CI workflow
    # names must exist — a deletion must not leave a step aimed at a
    # missing file.
    import re

    text = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(
        encoding="utf-8"
    )
    pattern = re.compile(
        r"(?<![\w/.-])((?:tests|benchmarks|perfbench|tools)/[\w/.-]+)"
    )
    paths = {m.rstrip(".") for m in pattern.findall(text)}
    assert paths
    assert sorted(p for p in paths if not (REPO_ROOT / p).exists()) == []


def _readme_commands() -> list[str]:
    """The ``repro-aedb …`` commands of README's command table."""
    import re

    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^\| `(repro-aedb [^`]*)` \|", readme, re.MULTILINE)


def test_readme_command_table_is_found():
    commands = _readme_commands()
    assert len(commands) >= 10
    assert any("--backend" in command for command in commands)


@pytest.mark.parametrize("command", _readme_commands())
def test_readme_command_parses(command):
    # Every command the README advertises must still exist: it parses
    # with the real argument tree (``...`` placeholders dropped), and
    # any --backend it names resolves to a shipped backend.
    import shlex

    from repro.campaigns import resolve_backend
    from repro.cli import build_parser

    argv = [tok for tok in shlex.split(command)[1:] if tok != "..."]
    args = build_parser().parse_args(argv)
    if getattr(args, "backend", None) is not None:
        resolve_backend(args.backend)
