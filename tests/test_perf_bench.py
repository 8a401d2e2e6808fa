"""Tests for the bench harness: schema, runner, env knobs, compare gate.

The compare tests pin down the CI gate's exact semantics -- tolerance
boundary, new/missing ops, calibration normalization, scale mismatch --
because a perf gate with fuzzy edges either wedges CI or gates nothing.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import BenchDataError
from repro.perf.bench import run_op, run_suite
from repro.perf.compare import (
    STATUS_IMPROVED,
    STATUS_MISSING,
    STATUS_NEW,
    STATUS_OK,
    compare_records,
)
from repro.perf.env import BenchScale, bench_cache_dir
from repro.perf.schema import (
    CALIBRATION_OP,
    SCHEMA,
    BenchRecord,
    OpStats,
    bench_filename,
    host_fingerprint,
)
from repro.perf.suites import BenchOp, suite_names, suite_ops


def make_stats(median=1e-3, **overrides) -> OpStats:
    fields = dict(
        median_s=median,
        p90_s=median * 1.2,
        min_s=median * 0.8,
        mean_s=median * 1.05,
        samples=10,
        inner_iterations=1,
    )
    fields.update(overrides)
    return OpStats(**fields)


def make_record(ops, *, scale=None, calibration=CALIBRATION_OP, suite="quick"):
    full_ops = {CALIBRATION_OP: make_stats(5e-3)} if calibration else {}
    full_ops.update(ops)
    return BenchRecord(
        suite=suite,
        scale=scale if scale is not None else {"k": 5, "max_list_size": 3},
        host={"platform": "test"},
        ops=full_ops,
        created_unix=1_700_000_000.0,
        calibration_op=calibration,
    )


# ----------------------------------------------------------------------
# Schema round-trip and validation
# ----------------------------------------------------------------------
class TestSchema:
    def test_json_round_trip(self):
        record = make_record({"micro.hash_scalar": make_stats(2e-6)})
        restored = BenchRecord.from_json(record.to_json())
        assert restored == record
        assert restored.schema == SCHEMA

    def test_dump_and_load(self, tmp_path):
        record = make_record({"op.a": make_stats()})
        path = record.dump(tmp_path / "BENCH_x.json")
        assert BenchRecord.load(path) == record
        # The file is real, sorted, newline-terminated JSON.
        text = path.read_text()
        assert text.endswith("\n")
        assert json.loads(text)["schema"] == SCHEMA

    def test_rejects_wrong_schema(self):
        data = make_record({"op.a": make_stats()}).to_dict()
        data["schema"] = "repro-bench/999"
        with pytest.raises(BenchDataError, match="unsupported bench schema"):
            BenchRecord.from_dict(data)

    def test_rejects_non_object(self):
        with pytest.raises(BenchDataError):
            BenchRecord.from_dict([1, 2, 3])
        with pytest.raises(BenchDataError, match="not valid JSON"):
            BenchRecord.from_json("{truncated")

    def test_rejects_empty_ops(self):
        data = make_record({"op.a": make_stats()}).to_dict()
        data["ops"] = {}
        with pytest.raises(BenchDataError, match="ops"):
            BenchRecord.from_dict(data)

    @pytest.mark.parametrize(
        "key,value",
        [
            ("median_s", "fast"),
            ("median_s", True),
            ("p90_s", -1.0),
            ("samples", 0),
            ("samples", 2.5),
            ("inner_iterations", False),
        ],
    )
    def test_rejects_bad_stats(self, key, value):
        data = make_record({"op.a": make_stats()}).to_dict()
        data["ops"]["op.a"][key] = value
        with pytest.raises(BenchDataError, match="op 'op.a'"):
            BenchRecord.from_dict(data)

    def test_rejects_non_integer_scale(self):
        data = make_record({"op.a": make_stats()}).to_dict()
        data["scale"]["k"] = "five"
        with pytest.raises(BenchDataError, match="scale knob"):
            BenchRecord.from_dict(data)

    def test_calibration_op_cleared_when_absent_from_ops(self):
        data = make_record({"op.a": make_stats()}).to_dict()
        data["calibration_op"] = "calibration.gone"
        record = BenchRecord.from_dict(data)
        assert record.calibration_op is None

    def test_bench_filename_is_compact_utc(self):
        assert bench_filename(0.0) == "BENCH_19700101T000000Z.json"
        name = bench_filename(1_700_000_000.0)
        assert name.startswith("BENCH_2023") and name.endswith("Z.json")

    def test_host_fingerprint_keys(self):
        host = host_fingerprint()
        for key in ("platform", "python", "numpy", "cpu_count"):
            assert key in host
        assert host["cpu_count"] >= 1


# ----------------------------------------------------------------------
# Environment knobs
# ----------------------------------------------------------------------
class TestEnv:
    def test_scale_defaults(self):
        scale = BenchScale.from_env(env={})
        assert (scale.k, scale.max_l, scale.samples) == (6, 11, 60)
        assert scale.max_list_size == 5

    def test_scale_from_env_mapping(self):
        scale = BenchScale.from_env(
            env={"REPRO_BENCH_K": "4", "REPRO_BENCH_MAX_L": "6"}
        )
        assert scale.k == 4
        assert scale.max_list_size == 2

    def test_max_list_size_clamped_to_k(self):
        # L - k > k: lists deeper than the database cannot exist.
        assert BenchScale(k=3, max_l=12).max_list_size == 3
        # L <= k: never negative.
        assert BenchScale(k=6, max_l=4).max_list_size == 0

    def test_bad_integer_raises(self):
        with pytest.raises(ValueError, match="REPRO_BENCH_K"):
            BenchScale.from_env(env={"REPRO_BENCH_K": "lots"})

    def test_cache_dir_env_wins(self):
        path = bench_cache_dir(
            default="/elsewhere", env={"REPRO_BENCH_CACHE": "/from-env"}
        )
        assert path == Path("/from-env")

    def test_cache_dir_default_then_cwd(self, monkeypatch, tmp_path):
        assert bench_cache_dir(default="/fallback", env={}) == Path("/fallback")
        monkeypatch.chdir(tmp_path)
        assert bench_cache_dir(env={}) == tmp_path / ".bench-cache"

    def test_cache_dir_blank_env_ignored(self):
        path = bench_cache_dir(default="/fallback", env={"REPRO_BENCH_CACHE": "  "})
        assert path == Path("/fallback")


# ----------------------------------------------------------------------
# Runner
# ----------------------------------------------------------------------
class TestRunner:
    def test_run_op_batches_cheap_thunks(self):
        op = BenchOp(
            name="unit.cheap",
            setup=lambda ctx: (lambda: None),
            target_time=0.02,
            min_samples=3,
            max_samples=5,
        )
        stats = run_op(op, ctx=None)
        assert stats.inner_iterations > 1  # sub-5ms thunk gets batched
        assert 3 <= stats.samples <= 5
        assert stats.min_s <= stats.median_s <= stats.p90_s

    def test_run_op_once_skips_batching(self):
        calls = []
        op = BenchOp(
            name="unit.build",
            setup=lambda ctx: (lambda: calls.append(1)),
            min_samples=3,
            once=True,
        )
        stats = run_op(op, ctx=None)
        assert stats.inner_iterations == 1
        assert stats.samples == 3
        assert len(calls) == 4  # warmup + 3 samples

    def test_suite_registry(self):
        assert suite_names() == ["full", "quick"]
        quick = {op.name for op in suite_ops("quick")}
        full = {op.name for op in suite_ops("full")}
        assert CALIBRATION_OP in quick
        assert quick < full  # full is a strict superset
        with pytest.raises(BenchDataError, match="unknown bench suite"):
            suite_ops("nightly")

    def test_committed_baseline_covers_the_quick_suite(self):
        # ``--compare`` only warns on a missing or new op, so a stale
        # baseline would otherwise gate nothing.
        root = Path(__file__).resolve().parents[1]
        path = root / "benchmarks" / "BENCH_baseline.json"
        baseline = BenchRecord.load(path)
        assert baseline.suite == "quick"
        assert set(baseline.ops) == {op.name for op in suite_ops("quick")}

    def test_run_suite_rejects_unknown_select(self):
        with pytest.raises(BenchDataError, match="unknown op"):
            run_suite("quick", select=["micro.typo"])

    def test_run_suite_selected_ops(self, tmp_path):
        record = run_suite(
            "quick",
            scale_env=BenchScale(k=3, max_l=4, samples=5),
            cache_dir=tmp_path / "cache",
            select=["micro.hash_scalar"],
        )
        # Calibration rides along so the record stays normalizable.
        assert set(record.ops) == {CALIBRATION_OP, "micro.hash_scalar"}
        assert record.calibration_op == CALIBRATION_OP
        assert record.suite == "quick"
        assert record.scale["k"] == 3
        # The emitted record passes its own strict validation.
        assert BenchRecord.from_json(record.to_json()) == record


# ----------------------------------------------------------------------
# Compare gate
# ----------------------------------------------------------------------
class TestCompare:
    def test_identical_records_pass(self):
        record = make_record({"op.a": make_stats(1e-3)})
        report = compare_records(record, record)
        assert report.ok
        assert report.normalized
        assert {c.status for c in report.comparisons} == {STATUS_OK}
        assert "PASS" in report.render()

    def test_doubled_median_regresses(self):
        base = make_record({"op.a": make_stats(1e-3)})
        cur = make_record({"op.a": make_stats(2e-3)})
        report = compare_records(cur, base, tolerance_pct=25.0)
        assert not report.ok
        (reg,) = report.regressions
        assert reg.op == "op.a"
        assert reg.gated_ratio == pytest.approx(2.0)
        rendered = report.render()
        assert "SLOW" in rendered and "FAIL" in rendered

    def test_tolerance_boundary_is_exclusive(self):
        base = make_record({"op.a": make_stats(1e-3)})
        exactly = make_record({"op.a": make_stats(1.25e-3)})
        assert compare_records(exactly, base, tolerance_pct=25.0).ok
        just_over = make_record({"op.a": make_stats(1.26e-3)})
        assert not compare_records(just_over, base, tolerance_pct=25.0).ok

    def test_improvement_flagged_not_failed(self):
        base = make_record({"op.a": make_stats(2e-3)})
        cur = make_record({"op.a": make_stats(1e-3)})
        report = compare_records(cur, base)
        assert report.ok
        (comp,) = [c for c in report.comparisons if c.op == "op.a"]
        assert comp.status == STATUS_IMPROVED
        assert "FAST" in report.render()

    def test_new_op_passes(self):
        base = make_record({})
        cur = make_record({"op.fresh": make_stats()})
        report = compare_records(cur, base)
        assert report.ok
        (comp,) = [c for c in report.comparisons if c.op == "op.fresh"]
        assert comp.status == STATUS_NEW
        assert "NEW" in report.render()

    def test_missing_op_warns_but_passes(self):
        base = make_record({"op.retired": make_stats()})
        cur = make_record({})
        report = compare_records(cur, base)
        assert report.ok
        (comp,) = [c for c in report.comparisons if c.op == "op.retired"]
        assert comp.status == STATUS_MISSING
        assert "GONE" in report.render()

    def test_scale_mismatch_fails_outright(self):
        base = make_record({"op.a": make_stats()}, scale={"k": 5})
        cur = make_record({"op.a": make_stats()}, scale={"k": 6})
        report = compare_records(cur, base)
        assert not report.ok
        assert report.scale_mismatch is not None
        assert "k" in report.scale_mismatch
        assert report.render().startswith("FAIL scale mismatch")

    def test_calibration_normalizes_a_slow_host(self):
        # Current host: everything (calibration included) 3x slower.
        base = make_record({"op.a": make_stats(1e-3)})
        cur = BenchRecord(
            suite="quick",
            scale=dict(base.scale),
            host={"platform": "slow"},
            ops={
                CALIBRATION_OP: make_stats(15e-3),
                "op.a": make_stats(3e-3),
            },
            created_unix=1_700_000_100.0,
        )
        report = compare_records(cur, base, tolerance_pct=25.0)
        assert report.normalized
        assert report.ok
        (comp,) = [c for c in report.comparisons if c.op == "op.a"]
        assert comp.ratio == pytest.approx(3.0)
        assert comp.gated_ratio == pytest.approx(1.0)
        # The same records compared raw must fail: that is the entire
        # point of the calibration op.
        assert not compare_records(
            cur, base, tolerance_pct=25.0, normalize=False
        ).ok

    def test_calibration_op_itself_never_gated(self):
        base = make_record({"op.a": make_stats(1e-3)})
        cur = BenchRecord(
            suite="quick",
            scale=dict(base.scale),
            host={"platform": "slow"},
            ops={
                CALIBRATION_OP: make_stats(50e-3),  # 10x slower host
                "op.a": make_stats(10e-3),
            },
            created_unix=1_700_000_100.0,
        )
        report = compare_records(cur, base)
        (calib,) = [c for c in report.comparisons if c.op == CALIBRATION_OP]
        assert calib.status == STATUS_OK
        assert report.ok

    def test_normalize_required_but_unavailable(self):
        base = make_record({"op.a": make_stats()}, calibration=None)
        cur = make_record({"op.a": make_stats()})
        report = compare_records(cur, base, normalize=True)
        assert not report.ok
        assert "calibration" in report.scale_mismatch
        # The default auto-detects and falls back to raw instead.
        auto = compare_records(cur, base)
        assert auto.ok and not auto.normalized


# ----------------------------------------------------------------------
# CLI exit codes
# ----------------------------------------------------------------------
class TestCli:
    def test_bench_list(self, capsys):
        from repro.cli import main

        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert CALIBRATION_OP in out
        assert "search.scan" in out

    def test_bench_compare_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        base = make_record({"op.a": make_stats(1e-3)})
        good = make_record({"op.a": make_stats(1.1e-3)})
        slow = make_record({"op.a": make_stats(9e-3)})
        base_path = str(base.dump(tmp_path / "base.json"))
        good_path = str(good.dump(tmp_path / "good.json"))
        slow_path = str(slow.dump(tmp_path / "slow.json"))

        assert main(["bench", "--input", good_path, "--compare", base_path]) == 0
        assert "PASS" in capsys.readouterr().out
        assert main(["bench", "--input", slow_path, "--compare", base_path]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_bench_rejects_corrupt_input(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["bench", "--input", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err
