"""The benchmark baseline comparator: ``--only`` guard and comparisons."""

from __future__ import annotations

import importlib.util
import json
import os

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_baselines",
    os.path.join(
        os.path.dirname(__file__), "..", "benchmarks", "compare_baselines.py"
    ),
)
compare_baselines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_baselines)


class TestOnlyGuard:
    def test_unknown_only_name_fails_loudly(self, capsys):
        # A typo'd --only must not silently compare nothing and pass.
        code = compare_baselines.main(["--only", "BENCH_typo.json"])
        assert code == 2
        err = capsys.readouterr().err
        assert "BENCH_typo.json" in err
        assert "known:" in err
        assert "BENCH_sharded.json" in err  # the error lists valid names

    def test_known_only_name_restricts_comparison(self, tmp_path, capsys):
        baseline = {
            "items": 1,
            "sites": 1,
            "sample_size": 1,
            "workers": 2,
            "batch_size": 64,
            "speedup": 1.0,
            "sharded_items_per_sec": 100,
        }
        fresh = dict(baseline, speedup=1.2)
        base_dir = tmp_path / "baselines"
        fresh_dir = tmp_path / "fresh"
        base_dir.mkdir()
        fresh_dir.mkdir()
        (base_dir / "BENCH_sharded.json").write_text(json.dumps(baseline))
        (fresh_dir / "BENCH_sharded.json").write_text(json.dumps(fresh))
        code = compare_baselines.main(
            [
                "--baseline-dir",
                str(base_dir),
                "--fresh-dir",
                str(fresh_dir),
                "--only",
                "BENCH_sharded.json",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # Only the selected baseline was compared.
        assert "all 1 benchmark baselines within tolerance" in out

    def test_regression_detected(self, tmp_path, capsys):
        baseline = {
            "items": 1,
            "sites": 1,
            "sample_size": 1,
            "workers": 2,
            "batch_size": 64,
            "speedup": 2.0,
            "sharded_items_per_sec": 100,
        }
        fresh = dict(baseline, speedup=1.0)  # 50% drop > 20% tolerance
        base_dir = tmp_path / "baselines"
        fresh_dir = tmp_path / "fresh"
        base_dir.mkdir()
        fresh_dir.mkdir()
        (base_dir / "BENCH_sharded.json").write_text(json.dumps(baseline))
        (fresh_dir / "BENCH_sharded.json").write_text(json.dumps(fresh))
        code = compare_baselines.main(
            [
                "--baseline-dir",
                str(base_dir),
                "--fresh-dir",
                str(fresh_dir),
                "--only",
                "BENCH_sharded.json",
            ]
        )
        assert code == 1
        assert "regressed" in capsys.readouterr().err

    def test_config_mismatch_fails(self, tmp_path, capsys):
        baseline = {
            "items": 1,
            "sites": 1,
            "sample_size": 1,
            "workers": 2,
            "batch_size": 64,
            "speedup": 1.0,
            "sharded_items_per_sec": 100,
        }
        fresh = dict(baseline, workers=4)
        base_dir = tmp_path / "baselines"
        fresh_dir = tmp_path / "fresh"
        base_dir.mkdir()
        fresh_dir.mkdir()
        (base_dir / "BENCH_sharded.json").write_text(json.dumps(baseline))
        (fresh_dir / "BENCH_sharded.json").write_text(json.dumps(fresh))
        code = compare_baselines.main(
            [
                "--baseline-dir",
                str(base_dir),
                "--fresh-dir",
                str(fresh_dir),
                "--only",
                "BENCH_sharded.json",
            ]
        )
        assert code == 1
        assert "config mismatch" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(compare_baselines.BASELINES))
    def test_committed_baselines_have_all_gated_keys(self, name):
        # Every committed baseline file must carry its config and ratio
        # keys, or the CI comparison would KeyError instead of gate.
        path = os.path.join(
            os.path.dirname(__file__), "..", "benchmarks", "baselines", name
        )
        with open(path) as fh:
            data = json.load(fh)
        spec = compare_baselines.BASELINES[name]
        for key in spec["config"] + spec["ratios"] + spec["absolute"]:
            assert key in data, f"{name} baseline missing {key!r}"


class TestUpdate:
    FRESH = {
        "items": 1,
        "sites": 1,
        "sample_size": 1,
        "workers": 2,
        "batch_size": 64,
        "speedup": 3.4,
        "sharded_items_per_sec": 100,
        "samples_identical": True,
        "counters_identical": True,
        "mode": "sharded",
    }

    def _dirs(self, tmp_path):
        base_dir = tmp_path / "baselines"
        fresh_dir = tmp_path / "fresh"
        base_dir.mkdir()
        fresh_dir.mkdir()
        return base_dir, fresh_dir

    def _run_update(self, base_dir, fresh_dir):
        return compare_baselines.main(
            [
                "--baseline-dir",
                str(base_dir),
                "--fresh-dir",
                str(fresh_dir),
                "--only",
                "BENCH_sharded.json",
                "--update",
            ]
        )

    def test_update_copies_fresh_over_baseline(self, tmp_path, capsys):
        base_dir, fresh_dir = self._dirs(tmp_path)
        # No pre-existing baseline needed: --update also records new ones.
        (fresh_dir / "BENCH_sharded.json").write_text(json.dumps(self.FRESH))
        code = self._run_update(base_dir, fresh_dir)
        assert code == 0
        assert "updated 1 benchmark baselines" in capsys.readouterr().out
        written = json.loads((base_dir / "BENCH_sharded.json").read_text())
        assert written == self.FRESH

    def test_update_refuses_parity_failure(self, tmp_path, capsys):
        base_dir, fresh_dir = self._dirs(tmp_path)
        stale = dict(self.FRESH, speedup=1.0)
        (base_dir / "BENCH_sharded.json").write_text(json.dumps(stale))
        bad = dict(self.FRESH, counters_identical=False)
        (fresh_dir / "BENCH_sharded.json").write_text(json.dumps(bad))
        code = self._run_update(base_dir, fresh_dir)
        assert code == 1
        assert "counters_identical" in capsys.readouterr().err
        # The stale baseline was left untouched.
        kept = json.loads((base_dir / "BENCH_sharded.json").read_text())
        assert kept == stale

    def test_update_refuses_fallback_mode(self, tmp_path, capsys):
        base_dir, fresh_dir = self._dirs(tmp_path)
        bad = dict(self.FRESH, mode="fallback")
        (fresh_dir / "BENCH_sharded.json").write_text(json.dumps(bad))
        code = self._run_update(base_dir, fresh_dir)
        assert code == 1
        assert "fallback" in capsys.readouterr().err
        assert not (base_dir / "BENCH_sharded.json").exists()

    def test_update_over_baseline_missing_a_metric(self, tmp_path, capsys):
        """A metric the outgoing baseline lacks (renamed or new) is shown
        as NEW in the informational print — the update still lands —
        while a plain comparison reports it as a failure."""
        base_dir, fresh_dir = self._dirs(tmp_path)
        stale = dict(self.FRESH)
        del stale["sharded_items_per_sec"]
        (base_dir / "BENCH_sharded.json").write_text(json.dumps(stale))
        (fresh_dir / "BENCH_sharded.json").write_text(json.dumps(self.FRESH))
        args = [
            "--baseline-dir",
            str(base_dir),
            "--fresh-dir",
            str(fresh_dir),
            "--only",
            "BENCH_sharded.json",
            "--absolute",
        ]
        assert compare_baselines.main(args) == 1
        assert "re-record it with --update" in capsys.readouterr().err
        assert self._run_update(base_dir, fresh_dir) == 0
        assert "[NEW]" in capsys.readouterr().out
        written = json.loads((base_dir / "BENCH_sharded.json").read_text())
        assert written == self.FRESH

    def test_update_requires_fresh_file(self, tmp_path, capsys):
        base_dir, fresh_dir = self._dirs(tmp_path)
        code = self._run_update(base_dir, fresh_dir)
        assert code == 1
        assert "missing fresh result" in capsys.readouterr().err


class TestCommittedBaselines:
    @pytest.mark.parametrize("name", sorted(compare_baselines.BASELINES))
    def test_committed_baselines_pass_update_guard(self, name):
        # The committed baselines must themselves satisfy the --update
        # guard: a baseline recorded from a parity-broken or fallback
        # run should never have been committed.
        path = os.path.join(
            os.path.dirname(__file__), "..", "benchmarks", "baselines", name
        )
        with open(path) as fh:
            data = json.load(fh)
        assert compare_baselines.update_guard(name, data) == []
