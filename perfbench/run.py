"""Request-path benchmark for the synthesis daemon.

Usage, from the repository root::

    python3 perfbench/run.py --workload hit-synth --seed 1 --seconds 10 --trace 0

Each run rebuilds the k=5 database store (L=8 with three lists) from
this checkout's source, starts real ``repro serve`` daemons with their
default serving flags, and drives one over a single TCP connection as a
closed loop.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
prints the per-layer metrics of a traced replay (see ``layers.py``).
Every answer is re-simulated by the benchmark's own oracle.  The last
line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from collections import Counter

from loadgen import (
    ROOT,
    SRC,
    Daemon,
    build_store,
    calibrate_on,
    closed_loop,
    cpu_split,
)
from oracle import check_compile, check_synth, parse_circuit
from percentiles import percentile
from workloads import EXPECTED_SOURCE, K, LISTS, WORKLOADS, load_pools, make_stream

#: Daemon starts per timed run; setup_s is their median.
SETUP_STARTS = 5

#: Calibration loops timed on the daemon's CPU just before and just
#: after each start.
SETUP_LOOPS = 10

#: Median calibration-loop time on the reference host (a 2-core x86
#: VM); every workload's timings are expressed at that interpreter speed
#: (see README.md for the evidence behind calibrating each workload).
CALIBRATION_REFERENCE_S = 180e-6

#: Each line is scaled by the median calibration of the lines within
#: this distance of it: near enough to follow the CPU's swings, wide
#: enough to smooth one loop's jitter.
CALIBRATION_WINDOW = 5

#: Timed lines per run: p98 needs 500, and a margin keeps ten lines'
#: worth of weight beyond it after stolen lines are reweighted.
MIN_LINES = 600

#: Traced-replay length in lines per workload: fixed, so every count
#: repeats exactly across traced runs at one seed.
TRACE_LINES = {
    "hit-synth": 200,
    "scan-synth": 120,
    "compile-dc": 200,
    "hot-batch": 100,
}


def verify(pairs, responses):
    """Check every answer; returns ``(units, failed, sources, gates)``."""
    units = failed = 0
    sources: Counter = Counter()
    gates = []
    for (_, expects), raw in zip(pairs, responses):
        try:
            envelope = json.loads(raw)
        except ValueError:
            envelope = {}
        body = envelope.get("result")
        answers = (
            body["results"]
            if isinstance(body, dict) and "results" in body
            else [envelope]
        )
        for i, expect in enumerate(expects):
            units += 1
            answer = answers[i] if i < len(answers) else {}
            result = answer.get("result") if answer.get("ok") else None
            if not isinstance(result, dict):
                failed += 1
                sources["error"] += 1
                continue
            sources[result.get("source")] += 1
            if expect.op == "synth":
                problem = check_synth(result, expect.word, expect.size)
            else:
                problem = check_compile(
                    result, list(expect.rows), expect.n_inputs, expect.size
                )
            if problem is None and result.get("source") != expect.source:
                problem = f"source {result.get('source')}, expected {expect.source}"
            if problem is not None:
                failed += 1
                print(f"failed: {problem}", file=sys.stderr)
                continue
            gates.append(len(parse_circuit(result["circuit"])))
    return units, failed, sources, gates


def stratum(expects) -> tuple:
    """Lines of one stratum cost about the same: synth lines by optimal
    size, compile lines by regime (optimum above k or not), batch lines
    all alike."""
    if len(expects) > 1:
        return ("batch",)
    expect = expects[0]
    if expect.op == "synth":
        return ("synth", expect.size)
    return ("compile", expect.size > K)


def steal_weights(stolen, expects) -> "list[float]":
    """Sample weights that drop stolen lines without biasing the mix.

    A stolen line's time reflects the neighbours, so it gets weight 0;
    the steal-free lines of its stratum are weighted up to stand in for
    it.  Excluding stolen lines outright would bias the sample toward
    short lines, which steal overlaps less often.  A stratum with no
    steal-free line keeps its lines as measured.
    """
    total: Counter = Counter()
    clean: Counter = Counter()
    for hit, expect in zip(stolen, expects):
        total[stratum(expect)] += 1
        clean[stratum(expect)] += not hit
    weights = []
    for hit, expect in zip(stolen, expects):
        key = stratum(expect)
        if not clean[key]:
            weights.append(1.0)
        else:
            weights.append(0.0 if hit else total[key] / clean[key])
    return weights


def local_scales(calibrations) -> "list[float]":
    """Per-line factor to the reference speed, from nearby calibrations."""
    w = CALIBRATION_WINDOW
    return [
        CALIBRATION_REFERENCE_S
        / statistics.median(calibrations[max(0, i - w): i + w + 1])
        for i in range(len(calibrations))
    ]


def _report_sources(label: str, sources: Counter) -> None:
    total = sum(sources.values()) or 1
    shares = " ".join(
        f"{name}={count / total:.3f}" for name, count in sorted(sources.items())
    )
    print(f"{label} answers by source: {shares}")


def timed_run(args, stream, cache_dir, log) -> dict:
    daemon_cpus, client_cpus = cpu_split()
    os.sched_setaffinity(0, client_cpus)
    setups = []
    for start in range(SETUP_STARTS):
        if start:
            daemon.close()  # the last daemon started serves the run
        # Bracketing calibrations put each start at the reference speed.
        loops = [calibrate_on(daemon_cpus) for _ in range(SETUP_LOOPS)]
        daemon = Daemon(cache_dir, K, LISTS, log, daemon_cpus)
        loops += [calibrate_on(daemon_cpus) for _ in range(SETUP_LOOPS)]
        setups.append((daemon.setup_s, statistics.median(loops)))
    try:
        warm = [daemon.request(line) for line, _ in stream.warmup]
        latencies, stolen, calibrations, responses = closed_loop(
            daemon.request, lambda: calibrate_on(daemon_cpus),
            [line for line, _ in stream.lines],
            args.seconds, MIN_LINES, stream.block,
        )
        rss = daemon.peak_rss_mb()
    finally:
        daemon.close()
    timed = stream.lines[: len(responses)]
    w_units, w_failed, _, _ = verify(stream.warmup, warm)
    units, failed, sources, gates = verify(timed, responses)
    _report_sources("timed", sources)
    weights = steal_weights(stolen, [expects for _, expects in timed])
    raw_ms = [seconds * 1000 for seconds in latencies]
    ms = [t * s for t, s in zip(raw_ms, local_scales(calibrations))]
    try:
        percentile(ms, 98, weights)
    except ValueError:
        print("warning: too few steal-free lines; using all", file=sys.stderr)
        weights = [1.0] * len(ms)
    raw = {
        "lines": len(latencies),
        "stolen_lines": sum(stolen),
        "p50_ms": percentile(raw_ms, 50, weights),
        "p98_ms": percentile(raw_ms, 98, weights),
        "calibration_us": statistics.median(calibrations) * 1e6,
        "setup_s": [seconds for seconds, _ in setups],
        "setup_calibration_us": [loop * 1e6 for _, loop in setups],
    }
    print(f"raw: {json.dumps(raw)}")
    metrics = {
        "latency_p50_ms": (percentile(ms, 50, weights), "ms"),
        "latency_p98_ms": (percentile(ms, 98, weights), "ms"),
        "throughput_rps": (
            units / sum(t * w for t, w in zip(ms, weights)) * 1000, "1/s"),
        "rss_mb": (rss, "MiB"),
        "mean_gates": (statistics.fmean(gates) if gates else 0.0, "count"),
        "setup_s": (
            statistics.median(
                seconds * CALIBRATION_REFERENCE_S / loop
                for seconds, loop in setups
            ),
            "s",
        ),
    }
    return _result(w_units + units, w_failed + failed, metrics)


def traced_run(args, stream, cache_dir, log) -> dict:
    # Part 1: the timed path against a real daemon, for its CPU time.
    daemon_cpus, client_cpus = cpu_split()
    os.sched_setaffinity(0, client_cpus)
    daemon = Daemon(cache_dir, K, LISTS, log, daemon_cpus)
    try:
        warm = [daemon.request(line) for line, _ in stream.warmup]
        ticks = daemon.cpu_ticks()
        _, stolen, calibrations, responses = closed_loop(
            daemon.request, lambda: calibrate_on(daemon_cpus),
            [line for line, _ in stream.lines],
            args.seconds / 2, 0, stream.block,
        )
        ticks = daemon.cpu_ticks() - ticks
    finally:
        daemon.close()
    timed = stream.lines[: len(responses)]
    w_units, w_failed, _, _ = verify(stream.warmup, warm)
    units, failed, sources, _ = verify(timed, responses)
    _report_sources("timed", sources)
    cpu_ms = ticks * 1000 / os.sysconf("SC_CLK_TCK") / max(units, 1)

    # Part 2: paired in-process replay, untraced A against traced B.
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    from layers import LayerShims, layer_metrics, make_service, paired_replay

    services = [make_service(str(SRC), K, LISTS) for _ in range(2)]
    try:
        shims = LayerShims()
        for target in shims.missing:
            print(f"warning: trace target {target} not found", file=sys.stderr)
        pairs = stream.lines[: TRACE_LINES[args.workload]]
        wall_a, wall_b, answers_a, answers_b = paired_replay(
            shims, services,
            [line for line, _ in stream.warmup],
            [line for line, _ in pairs],
        )
    finally:
        for service in services:
            service.shutdown(save_cache=False)
    a_units, a_failed, _, _ = verify(pairs, answers_a)
    b_units, b_failed, b_sources, _ = verify(pairs, answers_b)
    _report_sources("traced", b_sources)
    metrics = layer_metrics(shims, wall_b, b_units)
    total = sum(sources.values()) or 1
    metrics.update({
        "service.cpu_ms_per_req": (cpu_ms, "ms"),
        "trace.overhead_pct": (100 * (wall_b / wall_a - 1), "%"),
        "source.expected_share": (
            sources[EXPECTED_SOURCE[args.workload]] / total, "share"),
        "source.degraded_share": (sources["degraded"] / total, "share"),
        "loadgen.calibration_us": (
            statistics.median(calibrations) * 1e6, "us"),
        "loadgen.stolen_share": (sum(stolen) / len(stolen), "share"),
    })
    return _result(
        w_units + units + a_units + b_units,
        w_failed + failed + a_failed + b_failed,
        metrics,
    )


def _result(attempted, failed, metrics) -> dict:
    # verify() fails every answer from an unexpected source, so a run
    # whose answers drift off the workload's path is not correct.
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    stream = make_stream(args.workload, args.seed, load_pools())
    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        build_store(work / "cache", K, LISTS)
        run = traced_run if args.trace else timed_run
        result = run(args, stream, work / "cache", work / "daemon.log")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
