"""Per-rule fixtures: one positive and one negative case per rule.

Positive fixtures seed exactly the violation the rule exists to catch;
negative fixtures are the closest conforming variant, so a rule that
over-matches fails here before it fails on the real tree.
"""

from __future__ import annotations


def rule_ids(result):
    return sorted({v.rule for v in result.violations})


class TestDeterminismRules:
    def test_d101_wall_clock_outside_zone(self, lint_tree):
        result = lint_tree({
            "src/repro/manet/thing.py": (
                "import time\n\n\ndef f():\n    return time.time()\n"
            ),
        }, select=["D101"])
        assert rule_ids(result) == ["D101"]
        assert result.violations[0].line == 5

    def test_d101_from_import_alias_tracked(self, lint_tree):
        result = lint_tree({
            "src/repro/manet/thing.py": (
                "from time import monotonic as now\n\n\ndef f():\n"
                "    return now()\n"
            ),
        }, select=["D101"])
        assert rule_ids(result) == ["D101"]

    def test_d101_silent_inside_wall_clock_zone(self, lint_tree):
        result = lint_tree({
            "src/repro/telemetry/obs.py": (
                "import time\n\n\ndef f():\n    return time.time()\n"
            ),
        }, select=["D101"])
        assert result.violations == []

    def test_d102_stdlib_random_import(self, lint_tree):
        result = lint_tree({
            "src/repro/core/thing.py": "import random\n",
        }, select=["D102"])
        assert rule_ids(result) == ["D102"]

    def test_d102_numpy_random_ok(self, lint_tree):
        result = lint_tree({
            "src/repro/core/thing.py": (
                "from numpy.random import default_rng\n\nRNG ="
                " default_rng(7)\n"
            ),
        }, select=["D102"])
        assert result.violations == []

    def test_d103_entropy_sources(self, lint_tree):
        result = lint_tree({
            "src/repro/core/thing.py": (
                "import os\nimport uuid\n\n\ndef f():\n"
                "    return os.urandom(8), uuid.uuid4()\n"
            ),
        }, select=["D103"])
        assert len(result.violations) == 2
        assert rule_ids(result) == ["D103"]

    def test_d103_deterministic_uuid_ok(self, lint_tree):
        result = lint_tree({
            "src/repro/core/thing.py": (
                "import uuid\n\n\ndef f(ns, name):\n"
                "    return uuid.uuid5(ns, name)\n"
            ),
        }, select=["D103"])
        assert result.violations == []

    def test_d104_set_iteration(self, lint_tree):
        result = lint_tree({
            "src/repro/core/thing.py": (
                "def f():\n    return [x for x in {1, 2, 3}]\n"
            ),
        }, select=["D104"])
        assert rule_ids(result) == ["D104"]

    def test_d104_sorted_set_ok(self, lint_tree):
        result = lint_tree({
            "src/repro/core/thing.py": (
                "def f():\n    return [x for x in sorted({1, 2, 3})]\n"
            ),
        }, select=["D104"])
        assert result.violations == []

    def test_d105_unseeded_default_rng(self, lint_tree):
        result = lint_tree({
            "src/repro/core/thing.py": (
                "from numpy.random import default_rng\n\n\ndef f():\n"
                "    return default_rng()\n"
            ),
        }, select=["D105"])
        assert rule_ids(result) == ["D105"]

    def test_d105_legacy_global_rng(self, lint_tree):
        result = lint_tree({
            "src/repro/core/thing.py": (
                "import numpy as np\n\n\ndef f():\n"
                "    return np.random.rand(3)\n"
            ),
        }, select=["D105"])
        assert rule_ids(result) == ["D105"]

    def test_d105_seeded_rng_ok(self, lint_tree):
        result = lint_tree({
            "src/repro/core/thing.py": (
                "from numpy.random import default_rng\n\n\ndef f(seed):\n"
                "    return default_rng(seed)\n"
            ),
        }, select=["D105"])
        assert result.violations == []


class TestJsonlRules:
    def test_j201_bare_append_open(self, lint_tree):
        result = lint_tree({
            "src/repro/campaigns/sink.py": (
                "def append(path, line):\n"
                "    with open(path, 'a') as fh:\n"
                "        fh.write(line)\n"
            ),
        }, select=["J201"])
        assert rule_ids(result) == ["J201"]

    def test_j201_guarded_append_ok(self, lint_tree):
        result = lint_tree({
            "src/repro/campaigns/sink.py": (
                "from repro.utils.jsonl import ensure_line_boundary\n\n\n"
                "def append(path, line):\n"
                "    ensure_line_boundary(path)\n"
                "    with open(path, 'a') as fh:\n"
                "        fh.write(line)\n"
            ),
        }, select=["J201"])
        assert result.violations == []

    def test_j201_read_mode_ok(self, lint_tree):
        result = lint_tree({
            "src/repro/campaigns/sink.py": (
                "def read(path):\n"
                "    with open(path, 'r') as fh:\n"
                "        return fh.read()\n"
            ),
        }, select=["J201"])
        assert result.violations == []


class TestFlagRules:
    def test_e301_raw_environ_read(self, lint_tree):
        result = lint_tree({
            "src/repro/campaigns/thing.py": (
                "import os\n\nX = os.environ.get('REPRO_FOO')\n"
            ),
        }, select=["E301"])
        assert rule_ids(result) == ["E301"]

    def test_e301_non_repro_name_ok(self, lint_tree):
        result = lint_tree({
            "src/repro/campaigns/thing.py": (
                "import os\n\nX = os.environ.get('HOME')\n"
            ),
        }, select=["E301"])
        assert result.violations == []

    def test_e301_registry_reads_ok(self, lint_tree):
        result = lint_tree({
            "src/repro/campaigns/thing.py": (
                "from repro.utils import flags\n\n"
                "X = flags.read_choice('REPRO_GOOD', ('on',))\n"
            ),
        }, select=["E301"], with_flags=True)
        assert result.violations == []

    def test_e302_unregistered_flag_name(self, lint_tree):
        result = lint_tree({
            "src/repro/campaigns/thing.py": (
                "from repro.utils import flags\n\n"
                "X = flags.read_raw('REPRO_BOGUS')\n"
            ),
        }, select=["E302"], with_flags=True)
        assert rule_ids(result) == ["E302"]
        assert "REPRO_BOGUS" in result.violations[0].message

    def test_e302_registered_flag_ok(self, lint_tree):
        result = lint_tree({
            "src/repro/campaigns/thing.py": (
                "from repro.utils import flags\n\n"
                "X = flags.read_raw('REPRO_GOOD')\n"
            ),
        }, select=["E302"], with_flags=True)
        assert result.violations == []

    def test_e302_degrades_without_registry(self, lint_tree):
        # Another repo without the registry convention: the rule skips
        # rather than flagging every flag name as unregistered.
        result = lint_tree({
            "src/repro/campaigns/thing.py": (
                "from repro.utils import flags\n\n"
                "X = flags.read_raw('REPRO_BOGUS')\n"
            ),
        }, select=["E302"], with_flags=False)
        assert result.violations == []

    def test_e303_raw_environ_write(self, lint_tree):
        result = lint_tree({
            "src/repro/campaigns/thing.py": (
                "import os\n\nos.environ['REPRO_FOO'] = '1'\n"
            ),
        }, select=["E303"])
        assert rule_ids(result) == ["E303"]

    def test_e303_monkeypatch_ok(self, lint_tree):
        result = lint_tree({
            "tests/test_thing.py": (
                "def test_flag(monkeypatch):\n"
                "    monkeypatch.setenv('REPRO_GOOD', '1')\n"
            ),
        }, select=["E303"], with_flags=True)
        assert result.violations == []


class TestTelemetryRules:
    def test_t401_fstring_argument(self, lint_tree):
        result = lint_tree({
            "src/repro/campaigns/thing.py": (
                "def f(rec, n):\n    rec.count(f'cells_{n}', 1)\n"
            ),
        }, select=["T401"])
        assert rule_ids(result) == ["T401"]

    def test_t401_plain_arguments_ok(self, lint_tree):
        result = lint_tree({
            "src/repro/campaigns/thing.py": (
                "def f(rec, n):\n    rec.count('cells', n)\n"
            ),
        }, select=["T401"])
        assert result.violations == []

    def test_t401_percent_format(self, lint_tree):
        result = lint_tree({
            "src/repro/campaigns/thing.py": (
                "def f(recorder, name):\n"
                "    recorder.event('start', detail='cell %s' % name)\n"
            ),
        }, select=["T401"])
        assert rule_ids(result) == ["T401"]

    def test_t402_resolve_inside_loop(self, lint_tree):
        result = lint_tree({
            "src/repro/campaigns/thing.py": (
                "from repro.telemetry import get_recorder\n\n\n"
                "def f(items):\n"
                "    for item in items:\n"
                "        get_recorder().count('item', 1)\n"
            ),
        }, select=["T402"])
        assert rule_ids(result) == ["T402"]

    def test_t402_resolve_before_loop_ok(self, lint_tree):
        result = lint_tree({
            "src/repro/campaigns/thing.py": (
                "from repro.telemetry import get_recorder\n\n\n"
                "def f(items):\n"
                "    rec = get_recorder()\n"
                "    for item in items:\n"
                "        rec.count('item', 1)\n"
            ),
        }, select=["T402"])
        assert result.violations == []

    def test_t403_recorder_verb_in_manet_loop(self, lint_tree):
        result = lint_tree({
            "src/repro/manet/hotpath.py": (
                "def f(rec, events):\n"
                "    for ev in events:\n"
                "        rec.count('events', 1)\n"
            ),
        }, select=["T403"])
        assert rule_ids(result) == ["T403"]

    def test_t403_counter_shipped_once_ok(self, lint_tree):
        result = lint_tree({
            "src/repro/manet/hotpath.py": (
                "def f(rec, events):\n"
                "    n = 0\n"
                "    for ev in events:\n"
                "        n += 1\n"
                "    rec.count('events', n)\n"
            ),
        }, select=["T403"])
        assert result.violations == []


class TestLayeringRules:
    def test_l501_off_seam_manet_import(self, lint_tree):
        result = lint_tree({
            "src/repro/campaigns/thing.py": (
                "from repro.manet.medium import RadioMedium\n"
            ),
        }, select=["L501"])
        assert rule_ids(result) == ["L501"]

    def test_l501_seam_import_ok(self, lint_tree):
        result = lint_tree({
            "src/repro/campaigns/thing.py": (
                "from repro.manet.runtime import get_runtime\n"
                "from repro.manet.scenarios import NetworkScenario\n"
            ),
        }, select=["L501"])
        assert result.violations == []

    def test_l502_utils_importing_upward(self, lint_tree):
        result = lint_tree({
            "src/repro/utils/thing.py": (
                "from repro.manet.config import SimulationConfig\n"
            ),
        }, select=["L502"])
        assert rule_ids(result) == ["L502"]

    def test_l502_utils_sibling_ok(self, lint_tree):
        result = lint_tree({
            "src/repro/utils/thing.py": (
                "from repro.utils.jsonl import ensure_line_boundary\n"
            ),
        }, select=["L502"])
        assert result.violations == []

    def test_l502_telemetry_importing_manet(self, lint_tree):
        result = lint_tree({
            "src/repro/telemetry/thing.py": (
                "import repro.manet.runtime\n"
            ),
        }, select=["L502"])
        assert rule_ids(result) == ["L502"]


class TestStyleRules:
    def test_s601_unused_import(self, lint_tree):
        result = lint_tree({
            "src/repro/core/thing.py": (
                "import json\nimport sys\n\nprint(sys.argv)\n"
            ),
        }, select=["S601"])
        assert rule_ids(result) == ["S601"]
        assert "json" in result.violations[0].message

    def test_s601_docstring_word_is_not_a_use(self, lint_tree):
        result = lint_tree({
            "src/repro/core/thing.py": (
                "from dataclasses import dataclass, field\n\n\n"
                "@dataclass\nclass Thing:\n"
                "    \"\"\"Rejects an unknown field.\"\"\"\n\n"
                "    x: int = 0\n"
            ),
        }, select=["S601"])
        assert rule_ids(result) == ["S601"]
        assert "field" in result.violations[0].message

    def test_s601_quoted_annotation_counts_as_use(self, lint_tree):
        result = lint_tree({
            "src/repro/core/thing.py": (
                "from typing import TYPE_CHECKING\n\n"
                "if TYPE_CHECKING:\n"
                "    from pathlib import Path\n\n\n"
                "def f(p: \"Path\") -> None:\n"
                "    \"\"\"Take a path.\"\"\"\n"
            ),
        }, select=["S601"])
        assert result.violations == []

    def test_s601_all_reexport_counts_as_use(self, lint_tree):
        result = lint_tree({
            "src/repro/core/thing.py": (
                "from repro.utils.jsonl import ensure_line_boundary\n\n"
                "__all__ = ['ensure_line_boundary']\n"
            ),
        }, select=["S601"])
        assert result.violations == []

    def test_s601_package_init_exempt(self, lint_tree):
        result = lint_tree({
            "src/repro/core/__init__.py": (
                "from repro.utils.jsonl import ensure_line_boundary\n"
            ),
        }, select=["S601"])
        assert result.violations == []

    def test_s601_fix_round_trip(self, lint_tree):
        rel = "src/repro/core/thing.py"
        result = lint_tree({
            rel: (
                "import json\nimport sys\nfrom pathlib import Path, "
                "PurePath\n\nprint(sys.argv, Path('.'))\n"
            ),
        }, select=["S601"], fix=True)
        assert result.fixed == [rel]
        assert result.violations == []
        fixed = (lint_tree.root / rel).read_text()
        assert "import json" not in fixed
        assert "PurePath" not in fixed
        assert "import sys" in fixed
        assert "from pathlib import Path\n" in fixed
        # Idempotent: a second --fix pass changes nothing.
        again = lint_tree({}, select=["S601"], fix=True)
        assert again.fixed == []
        assert (lint_tree.root / rel).read_text() == fixed

    def test_s602_bare_no_cover(self, lint_tree):
        result = lint_tree({
            "src/repro/core/thing.py": (
                "def f():  # pragma: no cover\n    pass\n"
            ),
        }, select=["S602"])
        assert rule_ids(result) == ["S602"]

    def test_s602_reasoned_no_cover_ok(self, lint_tree):
        result = lint_tree({
            "src/repro/core/thing.py": (
                "def f():  # pragma: no cover - defensive guard\n"
                "    pass\n"
            ),
        }, select=["S602"])
        assert result.violations == []
