"""reprolint — the AST determinism analyzer that guards this repo's contracts.

Four layers of coverage:

1. **per-rule fixtures** — for each of R001..R006 a known-bad tree that
   must trigger the rule and a known-good twin that must not (the
   analyzer's own regression suite);
2. **engine semantics** — inline/file-wide suppressions (justification
   mandatory, audited as R000), baseline matching (snippet-keyed, so
   line drift survives but edits do not), syntax-error reporting;
3. **CLI** — exit codes, text/JSON output schema, ``--write-baseline``;
4. **the live tree** — a meta-test asserting ``src/repro`` + ``tests``
   are clean under the committed (empty) baseline, which is the same
   invariant the CI lint job enforces.

Plus regression tests for the genuine findings the initial sweep fixed
(checkpoint-set iteration order, inclusion-frequency table order).
"""

from __future__ import annotations

import json
import random
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:  # `tools` lives at the repo root
    sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint.baseline import (  # noqa: E402
    BASELINE_VERSION,
    apply_baseline,
    load_baseline,
    render_baseline,
)
from tools.reprolint.cli import main as reprolint_main  # noqa: E402
from tools.reprolint.engine import (  # noqa: E402
    META_RULE,
    all_rules,
    analyze_paths,
    find_repo_root,
)

# ---------------------------------------------------------------------------
# fixture-tree helpers
# ---------------------------------------------------------------------------

#: Golden metric list for R005 fixtures (mirrors tests/test_obs.py's role).
_FIXTURE_GOLDEN = """\
GOLDEN_METRIC_NAMES = [
    "repro_good_total",
]
"""


def write_tree(root: Path, files: dict) -> Path:
    """Materialize a miniature repo: pyproject.toml anchors
    ``find_repo_root``, then each ``rel -> source`` pair."""
    (root / "pyproject.toml").write_text('[project]\nname = "fixture"\n')
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text), encoding="utf-8")
    return root


def run_lint(root: Path, rule_ids=None):
    return analyze_paths([root], root=root, rule_ids=rule_ids)


def findings_of(root: Path, rule: str):
    return [f for f in run_lint(root).findings if f.rule == rule]


# ---------------------------------------------------------------------------
# R001 rng-discipline
# ---------------------------------------------------------------------------


class TestRngDiscipline:
    def test_global_random_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/core/x.py": """\
                import random

                def draw():
                    return random.random()
                """
            },
        )
        found = findings_of(tmp_path, "R001")
        assert len(found) == 1
        assert "interpreter-global" in found[0].message

    def test_from_random_import_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {"src/repro/core/x.py": "from random import randint\n"},
        )
        assert len(findings_of(tmp_path, "R001")) == 1

    def test_numpy_global_state_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/core/x.py": """\
                import numpy as np

                def bad():
                    np.random.seed(0)
                    return np.random.rand(3)
                """
            },
        )
        assert len(findings_of(tmp_path, "R001")) == 2

    def test_unseeded_default_rng_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/core/x.py": """\
                from numpy.random import default_rng

                gen = default_rng()
                """
            },
        )
        found = findings_of(tmp_path, "R001")
        assert len(found) == 1
        assert "seed" in found[0].message

    def test_seeded_instances_clean(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/core/x.py": """\
                import random

                from numpy.random import PCG64, Generator, default_rng

                rng = random.Random(7)
                gen = Generator(PCG64(7))
                gen2 = default_rng(2019)

                def draw():
                    return rng.random() + gen.random()
                """
            },
        )
        assert findings_of(tmp_path, "R001") == []


# ---------------------------------------------------------------------------
# R002 kernel-purity
# ---------------------------------------------------------------------------


class TestKernelPurity:
    def test_impure_kernel_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/kernels/bad.py": """\
                import time

                _calls = 0

                def fold(xs):
                    global _calls
                    _calls += 1
                    print(time.time())
                    return sum(xs)
                """
            },
        )
        messages = [f.message for f in findings_of(tmp_path, "R002")]
        assert any("clock" in m for m in messages)
        assert any("globals" in m for m in messages)
        assert any("print" in m for m in messages)

    def test_kernel_rng_import_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/kernels/bad.py": """\
                import random

                import numpy as np

                def fold(xs):
                    return xs[np.random.permutation(len(xs))]
                """
            },
        )
        messages = [f.message for f in findings_of(tmp_path, "R002")]
        assert any("import random" in m for m in messages)
        assert any("numpy.random" in m for m in messages)

    def test_pure_kernel_clean(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/kernels/good.py": """\
                import numpy as np

                def fold(keys, threshold):
                    mask = keys > threshold
                    return keys[mask], int(mask.sum())
                """
            },
        )
        assert findings_of(tmp_path, "R002") == []

    def test_purity_scoped_to_kernels_dir(self, tmp_path):
        # The same `print` outside src/repro/kernels/ is not R002's business.
        write_tree(
            tmp_path,
            {"src/repro/cli2.py": "print('hello')\n"},
        )
        assert findings_of(tmp_path, "R002") == []


# ---------------------------------------------------------------------------
# R003 snapshot-completeness
# ---------------------------------------------------------------------------

_SNAPSHOT_BAD = """\
class Sampler:
    def __init__(self):
        self.items = []
        self.count = 0

    def add(self, x):
        self.items.append(x)
        self.count += 1

    def snapshot_state(self):
        return (list(self.items),)

    def restore_state(self, state):
        self.items = list(state[0])
"""

_SNAPSHOT_GOOD = _SNAPSHOT_BAD.replace(
    "return (list(self.items),)",
    "return (list(self.items), self.count)",
).replace(
    "self.items = list(state[0])",
    "self.items = list(state[0])\n        self.count = state[1]",
)


class TestSnapshotCompleteness:
    def test_uncovered_attribute_flagged(self, tmp_path):
        write_tree(tmp_path, {"src/repro/core/s.py": _SNAPSHOT_BAD})
        found = findings_of(tmp_path, "R003")
        assert len(found) == 1
        assert "Sampler.count" in found[0].message

    def test_complete_pair_clean(self, tmp_path):
        write_tree(tmp_path, {"src/repro/core/s.py": _SNAPSHOT_GOOD})
        assert findings_of(tmp_path, "R003") == []

    def test_snapshot_exclude_exempts(self, tmp_path):
        code = _SNAPSHOT_BAD.replace(
            "class Sampler:",
            'class Sampler:\n    _SNAPSHOT_EXCLUDE = ("count",)\n',
        )
        write_tree(tmp_path, {"src/repro/core/s.py": code})
        assert findings_of(tmp_path, "R003") == []

    def test_snapshot_without_restore_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/core/s.py": """\
                class Sampler:
                    def snapshot_state(self):
                        return (1,)
                """
            },
        )
        found = findings_of(tmp_path, "R003")
        assert len(found) == 1
        assert "without" in found[0].message

    def test_none_returning_default_exempt(self, tmp_path):
        # The base-class "snapshots unsupported" stub must not count.
        write_tree(
            tmp_path,
            {
                "src/repro/core/s.py": """\
                class Base:
                    def tick(self):
                        self.t = 1

                    def snapshot_state(self):
                        return None
                """
            },
        )
        assert findings_of(tmp_path, "R003") == []

    def test_captured_but_never_restored_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/core/s.py": """\
                class Sampler:
                    def snapshot_state(self):
                        return (self.extra,)

                    def restore_state(self, state):
                        pass
                """
            },
        )
        found = findings_of(tmp_path, "R003")
        assert len(found) == 1
        assert "captured" in found[0].message

    def test_generator_draw_is_a_mutation(self, tmp_path):
        # A site that draws from its generator but whose restore never
        # rewinds it replays different variates after a rollback.
        code = """\
            class Site:
                def __init__(self, gen):
                    self._gen = gen
                    self.seen = 0

                def on_item(self, item):
                    self.seen += 1
                    return item / self._gen.standard_exponential()

                def on_word(self):
                    return self._gen.bit_generator.random_raw()

                def snapshot_state(self):
                    return (self.seen,)

                def restore_state(self, state):
                    (self.seen,) = state
            """
        write_tree(tmp_path, {"src/repro/core/s.py": code})
        found = findings_of(tmp_path, "R003")
        assert len(found) == 1
        assert "Site._gen" in found[0].message
        fixed = code.replace(
            "return (self.seen,)",
            "return (self._gen.bit_generator.state, self.seen)",
        ).replace(
            "(self.seen,) = state",
            "self._gen.bit_generator.state, self.seen = state",
        )
        write_tree(tmp_path, {"src/repro/core/s.py": fixed})
        assert findings_of(tmp_path, "R003") == []

    def test_staticmethod_stores_ignored(self, tmp_path):
        # A staticmethod's first arg is not the instance; writes through
        # it are not protocol-state mutations.
        write_tree(
            tmp_path,
            {
                "src/repro/core/s.py": """\
                class Box:
                    @staticmethod
                    def tag(message):
                        message.cached = 1
                        return message.cached

                    def snapshot_state(self):
                        return ()

                    def restore_state(self, state):
                        pass
                """
            },
        )
        assert findings_of(tmp_path, "R003") == []


# ---------------------------------------------------------------------------
# R004 clock-discipline
# ---------------------------------------------------------------------------

_CLOCKED = """\
import time

def stamp():
    return time.time()
"""


class TestClockDiscipline:
    def test_clock_in_protocol_code_flagged(self, tmp_path):
        write_tree(tmp_path, {"src/repro/core/x.py": _CLOCKED})
        found = findings_of(tmp_path, "R004")
        assert len(found) == 1
        assert "time.time" in found[0].message

    def test_from_time_import_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {"src/repro/net/x.py": "from time import perf_counter\n"},
        )
        assert len(findings_of(tmp_path, "R004")) == 1

    def test_telemetry_layers_allowed(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/obs/x.py": _CLOCKED,
                "src/repro/runtime/x.py": _CLOCKED,
                "src/repro/cli.py": _CLOCKED,
                "src/repro/query/driver.py": _CLOCKED,
            },
        )
        assert findings_of(tmp_path, "R004") == []


# ---------------------------------------------------------------------------
# R005 metric-name-drift
# ---------------------------------------------------------------------------


class TestMetricNameDrift:
    def test_unlisted_metric_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "tests/test_obs.py": _FIXTURE_GOLDEN,
                "src/repro/obs/x.py": """\
                def register(registry):
                    registry.counter("repro_rogue_total", "undeclared")
                """,
            },
        )
        found = findings_of(tmp_path, "R005")
        assert len(found) == 1
        assert "repro_rogue_total" in found[0].message

    def test_missing_namespace_prefix_flagged(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "tests/test_obs.py": _FIXTURE_GOLDEN,
                "src/repro/obs/x.py": """\
                def register(registry):
                    registry.gauge("items_total", "no prefix")
                """,
            },
        )
        found = findings_of(tmp_path, "R005")
        assert len(found) == 1
        assert "prefix" in found[0].message

    def test_golden_names_clean(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "tests/test_obs.py": _FIXTURE_GOLDEN,
                "src/repro/obs/x.py": """\
                def register(registry):
                    registry.counter("repro_good_total", "on the list")
                """,
            },
        )
        assert findings_of(tmp_path, "R005") == []

    def test_missing_golden_list_is_reported(self, tmp_path):
        # No tests/test_obs.py in the tree: surface that the check
        # cannot run instead of silently passing.
        write_tree(
            tmp_path,
            {
                "src/repro/obs/x.py": """\
                def register(registry):
                    registry.counter("repro_good_total", "x")
                """
            },
        )
        found = findings_of(tmp_path, "R005")
        assert len(found) == 1
        assert "GOLDEN_METRIC_NAMES" in found[0].message


# ---------------------------------------------------------------------------
# R006 order-hazards
# ---------------------------------------------------------------------------


class TestOrderHazards:
    @pytest.mark.parametrize(
        "stmt",
        [
            "for x in {1, 2, 3}:\n    out.append(x)",
            "for x in set(xs):\n    out.append(x)",
            "out = list(set(xs))",
            "out = tuple(set(xs) | {0})",
            "out = [y for y in set(xs)]",
            "out = ','.join({str(x) for x in xs})",
            "for x in set(a) - set(b):\n    out.append(x)",
        ],
    )
    def test_unordered_iteration_flagged(self, tmp_path, stmt):
        write_tree(
            tmp_path,
            {"src/repro/core/x.py": f"def go(xs, a, b, out):\n{textwrap.indent(stmt, '    ')}\n"},
        )
        assert len(findings_of(tmp_path, "R006")) == 1

    @pytest.mark.parametrize(
        "stmt",
        [
            "for x in sorted(set(xs)):\n    out.append(x)",
            "out = sorted(y for y in set(xs))",
            "total = sum(y for y in set(xs))",
            "hit = any(y > 0 for y in set(xs))",
            "n = len(set(xs))",
            "for x in xs:\n    out.append(x)",
        ],
    )
    def test_ordered_or_insensitive_clean(self, tmp_path, stmt):
        write_tree(
            tmp_path,
            {"src/repro/core/x.py": f"def go(xs, out):\n{textwrap.indent(stmt, '    ')}\n"},
        )
        assert findings_of(tmp_path, "R006") == []


# ---------------------------------------------------------------------------
# suppressions and R000
# ---------------------------------------------------------------------------

_VIOLATION = "import random\nx = random.random()"


class TestSuppressions:
    def test_same_line_suppression(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/core/x.py": "import random\n"
                "x = random.random()  # reprolint: disable=R001 fixture exercises the analyzer\n"
            },
        )
        result = run_lint(tmp_path)
        assert result.findings == []
        assert result.suppressed == 1

    def test_line_above_suppression(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/core/x.py": "import random\n"
                "# reprolint: disable=R001 fixture exercises the analyzer\n"
                "x = random.random()\n"
            },
        )
        result = run_lint(tmp_path)
        assert result.findings == []
        assert result.suppressed == 1

    def test_file_wide_suppression(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/core/x.py": "# reprolint: disable-file=R001 fixture file\n"
                "import random\n"
                "x = random.random()\ny = random.random()\n"
            },
        )
        result = run_lint(tmp_path)
        assert result.findings == []
        assert result.suppressed == 2

    def test_suppression_without_reason_is_r000(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/core/x.py": "import random\n"
                "x = random.random()  # reprolint: disable=R001\n"
            },
        )
        rules_hit = {f.rule for f in run_lint(tmp_path).findings}
        # The bare suppression is audited AND does not suppress.
        assert rules_hit == {META_RULE, "R001"}

    def test_malformed_comment_is_r000(self, tmp_path):
        write_tree(
            tmp_path,
            {"src/repro/core/x.py": "# reprolint: disable R001 typo\nx = 1\n"},
        )
        found = run_lint(tmp_path).findings
        assert [f.rule for f in found] == [META_RULE]
        assert "malformed" in found[0].message

    def test_docstring_mention_is_not_a_comment(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/core/x.py": '"""Suppress with '
                "``# reprolint: disable=R001 why``.\"\"\"\n"
            },
        )
        assert run_lint(tmp_path).findings == []

    def test_suppressing_other_rule_does_not_apply(self, tmp_path):
        write_tree(
            tmp_path,
            {
                "src/repro/core/x.py": "import random\n"
                "x = random.random()  # reprolint: disable=R006 wrong rule id\n"
            },
        )
        assert [f.rule for f in run_lint(tmp_path).findings] == ["R001"]

    def test_syntax_error_is_r000(self, tmp_path):
        write_tree(tmp_path, {"src/repro/core/x.py": "def broken(:\n"})
        found = run_lint(tmp_path).findings
        assert [f.rule for f in found] == [META_RULE]
        assert "syntax error" in found[0].message


# ---------------------------------------------------------------------------
# baseline semantics
# ---------------------------------------------------------------------------


class TestBaseline:
    def _one_finding(self, tmp_path):
        write_tree(tmp_path, {"src/repro/core/x.py": _VIOLATION + "\n"})
        found = run_lint(tmp_path).findings
        assert len(found) == 1
        return found

    def test_render_load_round_trip(self, tmp_path):
        found = self._one_finding(tmp_path)
        path = tmp_path / "baseline.json"
        path.write_text(render_baseline(found))
        fresh, matched = apply_baseline(found, load_baseline(path))
        assert fresh == [] and matched == 1

    def test_line_drift_keeps_match(self, tmp_path):
        found = self._one_finding(tmp_path)
        path = tmp_path / "baseline.json"
        path.write_text(render_baseline(found))
        # Push the violation down two lines: same snippet, new lineno.
        (tmp_path / "src/repro/core/x.py").write_text(
            "import random\n\nA = 1\nx = random.random()\n"
        )
        drifted = run_lint(tmp_path).findings
        assert drifted[0].line != found[0].line
        fresh, matched = apply_baseline(drifted, load_baseline(path))
        assert fresh == [] and matched == 1

    def test_edited_line_drops_match(self, tmp_path):
        found = self._one_finding(tmp_path)
        path = tmp_path / "baseline.json"
        path.write_text(render_baseline(found))
        (tmp_path / "src/repro/core/x.py").write_text(
            "import random\nx = random.random() + 1\n"
        )
        edited = run_lint(tmp_path).findings
        fresh, matched = apply_baseline(edited, load_baseline(path))
        assert matched == 0 and len(fresh) == 1

    def test_budget_is_consumed(self, tmp_path):
        found = self._one_finding(tmp_path)
        path = tmp_path / "baseline.json"
        path.write_text(render_baseline(found))
        # A second identical offence on an identical line exceeds budget.
        (tmp_path / "src/repro/core/x.py").write_text(
            "import random\nx = random.random()\nx = random.random()\n"
        )
        doubled = run_lint(tmp_path).findings
        assert len(doubled) == 2
        fresh, matched = apply_baseline(doubled, load_baseline(path))
        assert matched == 1 and len(fresh) == 1

    def test_missing_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "nope.json") == {}

    def test_bad_version_raises(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 99, "entries": []}))
        with pytest.raises(ValueError):
            load_baseline(path)
        path.write_text("not json")
        with pytest.raises(ValueError):
            load_baseline(path)

    def test_version_constant_matches_committed_file(self):
        committed = json.loads(
            (REPO_ROOT / "tools/reprolint/baseline.json").read_text()
        )
        assert committed["version"] == BASELINE_VERSION


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write_tree(tmp_path, {"src/repro/core/x.py": "x = 1\n"})
        assert reprolint_main([str(tmp_path), "--no-baseline"]) == 0

    def test_findings_exit_one(self, tmp_path, capsys):
        write_tree(tmp_path, {"src/repro/core/x.py": _VIOLATION + "\n"})
        assert reprolint_main([str(tmp_path), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "R001" in out and "src/repro/core/x.py" in out

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        write_tree(tmp_path, {"src/repro/core/x.py": "x = 1\n"})
        assert reprolint_main([str(tmp_path), "--rule", "R999"]) == 2

    def test_malformed_baseline_exits_two(self, tmp_path, capsys):
        write_tree(tmp_path, {"src/repro/core/x.py": "x = 1\n"})
        bad = tmp_path / "b.json"
        bad.write_text("{}")
        assert reprolint_main([str(tmp_path), "--baseline", str(bad)]) == 2

    def test_rule_filter_restricts(self, tmp_path, capsys):
        write_tree(
            tmp_path,
            {"src/repro/core/x.py": _VIOLATION + "\nfor v in {1, 2}:\n    pass\n"},
        )
        assert (
            reprolint_main([str(tmp_path), "--rule", "R006", "--no-baseline"]) == 1
        )
        out = capsys.readouterr().out
        assert "R006" in out and "R001" not in out

    def test_json_schema(self, tmp_path, capsys):
        write_tree(tmp_path, {"src/repro/core/x.py": _VIOLATION + "\n"})
        rc = reprolint_main([str(tmp_path), "--format", "json", "--no-baseline"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "root",
            "checked_files",
            "suppressed",
            "baselined",
            "findings",
        }
        (finding,) = payload["findings"]
        assert set(finding) == {"rule", "path", "line", "col", "message", "snippet"}
        assert finding["rule"] == "R001"
        assert finding["path"] == "src/repro/core/x.py"
        assert finding["snippet"] == "x = random.random()"

    def test_write_baseline_then_clean(self, tmp_path, capsys):
        write_tree(tmp_path, {"src/repro/core/x.py": _VIOLATION + "\n"})
        baseline = tmp_path / "b.json"
        assert (
            reprolint_main(
                [str(tmp_path), "--baseline", str(baseline), "--write-baseline"]
            )
            == 0
        )
        assert reprolint_main([str(tmp_path), "--baseline", str(baseline)]) == 0

    def test_list_rules(self, capsys):
        assert reprolint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out


# ---------------------------------------------------------------------------
# the live tree
# ---------------------------------------------------------------------------


class TestLiveTree:
    def test_repo_root_resolution(self):
        assert find_repo_root(Path(__file__)) == REPO_ROOT

    def test_live_tree_is_clean(self, capsys):
        """The committed tree passes its own analyzer with the committed
        (empty) baseline — exactly what the CI lint job runs."""
        rc = reprolint_main(
            [str(REPO_ROOT / "src" / "repro"), str(REPO_ROOT / "tests")]
        )
        assert rc == 0, capsys.readouterr().out

    def test_shipped_baseline_is_empty_for_core_rules(self):
        committed = json.loads(
            (REPO_ROOT / "tools/reprolint/baseline.json").read_text()
        )
        grandfathered = {e["rule"] for e in committed["entries"]}
        assert not grandfathered & {"R001", "R002", "R004"}


# ---------------------------------------------------------------------------
# regressions for the genuine findings the initial sweep fixed
# ---------------------------------------------------------------------------


class TestSweepRegressions:
    def test_inclusion_frequency_order_is_first_appearance(self):
        """empirical_inclusion_frequencies iterates deduped samples in
        first-appearance order (dict.fromkeys), so the returned table's
        key order is input-determined, not hash-seed-determined — and
        duplicates within one trial still count once."""
        from repro.common.stats import empirical_inclusion_frequencies

        freq = empirical_inclusion_frequencies(
            [["b", "a", "b"], ["a", "c"], ["c", "a"]]
        )
        assert list(freq) == ["b", "a", "c"]
        assert freq == {"b": 1 / 3, "a": 1.0, "c": 2 / 3}

    @pytest.mark.parametrize("engine_kwargs", [
        {"engine": "reference"},
        {"engine": "columnar", "batch_size": 128},
    ])
    def test_checkpoint_order_and_duplicates_are_irrelevant(self, engine_kwargs):
        """Engines canonicalize the checkpoint set via sorted(set(...)),
        so a scrambled, duplicated checkpoint list fires the same marks
        in the same order and leaves the sample bit-identical."""
        pytest.importorskip("numpy")
        from repro.core import DistributedWeightedSWOR, SworConfig
        from repro.stream import Item, round_robin

        def fire(checkpoints):
            items = [Item(i, 1.0 + (i % 7)) for i in range(1000)]
            proto = DistributedWeightedSWOR(
                SworConfig(num_sites=4, sample_size=4), seed=2, **engine_kwargs
            )
            seen = []
            proto.run(
                round_robin(items, 4),
                checkpoints=checkpoints,
                on_checkpoint=seen.append,
            )
            return seen, tuple(item.ident for item in proto.sample())

        canonical = fire([1, 100, 300, 999, 1000])
        scrambled = [999, 1, 300, 100, 1000, 300, 1]
        random.Random(0).shuffle(scrambled)
        assert fire(scrambled) == canonical
        assert canonical[0] == [1, 100, 300, 999, 1000]
