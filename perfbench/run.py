"""zeps benchmark: fork-per-request CLI workloads ``emit``, ``eval`` and ``verify``.

Usage, from the repository root:

    python3 perfbench/run.py --workload emit --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --steadiness 5 --seconds 30

One client keeps one request in flight (a closed loop).  The parent
imports ``zeps.cli`` once, then forks one child per request; the child
runs ``main(argv)`` and exits, so each request pays what a fresh ``zeps``
process pays apart from the import, which ``setup_s`` reports.  Requests
come in whole passes of the workload (see ``workloads.py``); passes run
until the next one would end after ``--seconds``.  Every output is
checked against ``reference.py``, which does not use zeps.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` the children are traced
(``tracing.py``) and it holds the per-layer metrics instead.  Human-readable
lines come before it.  ``--steadiness K`` runs each workload with seeds
1..K and prints median and quartiles of every metric, plus the tracing
overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import forkrun  # noqa: E402
import readers  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CALIBRATION_REF_S = 0.008  # calibrate() on an unloaded 2-vCPU x86-64 VM
CALIBRATION_WINDOW = 10
REQUEST_TIMEOUT_S = 30.0
HARD_LIMIT_S = 120.0  # stop mid-pass past this, so a run always exits in time
SETUP_REPEATS = 5
SETUP_SNIPPET = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import zeps.cli\n"
    "zeps.cli.build_parser()\n"
    "print(time.perf_counter() - start)\n"
)
END_TO_END = (
    ("throughput_rps", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("complex_digits_p10", "digits"),
)

# (command, domain, dim, variants): real outputs of these fixed requests
# feed the corrupted-output self-check, one per format, point kind and
# step kind.
SELF_CHECK = (("emit", "z", 3, 3), ("emit", "s", 3, 6), ("eval", "z", 3, 2),
              ("eval", "s", 3, 4), ("verify", "-", 3, 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.STRATA))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="K",
                        help="run every workload with seeds 1..K and print the spread")
    args = parser.parse_args(argv)
    # Exit through ``finally`` blocks on SIGTERM, so no child outlives the run.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "zeps" / "cli.py").is_file():
        print(f"perfbench: zeps sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.steadiness:
        chosen = [args.workload] if args.workload else sorted(workloads.STRATA)
        return steadiness(chosen, args.steadiness, args.seconds)
    if not args.workload:
        parser.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


def run(workload: str, seed: int, seconds: float, traced: bool) -> int:
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        return _run(workload, seed, seconds, traced, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _run(workload, seed, seconds, traced, scratch) -> int:
    reference.self_check()
    forkrun.self_check(str(scratch))
    setup_s = measure_setup()
    import zeps.cli

    rng = random.Random(0)
    samples = [
        workloads.build(command, rng, domain, dim, i)
        for command, domain, dim, variants in SELF_CHECK
        for i in range(variants)
    ]
    readers.self_check((request, _run_once(zeps.cli.main, request.argv, scratch))
                       for request in samples)
    print("self-checks passed: reference vs brute force, readers vs corrupted outputs, "
          "request timeout", flush=True)

    rng = random.Random(seed)
    records = []  # (request, ChildResult, output path, calibration before it)
    start = time.perf_counter()
    passes = 0
    while True:
        for request in workloads.make_pass(workload, rng):
            if time.perf_counter() - start > HARD_LIMIT_S:
                break
            path = scratch / f"out-{len(records)}"
            before = calibrate()
            result = forkrun.run_in_child(_body(zeps.cli.main, request.argv, traced),
                                          str(path), REQUEST_TIMEOUT_S)
            records.append((request, result, path, before))
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > seconds or elapsed > HARD_LIMIT_S:
            break
    loop_s = time.perf_counter() - start
    calibrations = [record[3] for record in records]
    calibrations += [calibrate() for _ in range(CALIBRATION_WINDOW // 2)]
    # Each request's time at reference speed: its wall time divided by the
    # machine's slowdown around it, the median of the calibrations taken
    # before the CALIBRATION_WINDOW requests nearest to it.
    walls = []
    for i, (_, result, _, _) in enumerate(records):
        low = max(0, i + 1 - CALIBRATION_WINDOW // 2)
        nearby = calibrations[low:low + CALIBRATION_WINDOW]
        walls.append(result.wall_s * CALIBRATION_REF_S / statistics.median(nearby))

    check_rng = random.Random(f"{seed}/check")
    summary = tracing.Summary() if traced else None
    failed = 0
    complex_digits = []
    for index, (request, result, path, _) in enumerate(records):
        text = path.read_text()
        path.unlink()
        verdict = readers.check(request, result.exit_code, text, check_rng)
        if result.timed_out:
            verdict = readers.Verdict(False, 0.0, "timed out")
        if not verdict.ok:
            failed += 1
            print(f"FAILED {' '.join(request.argv)}: {verdict.reason}", file=sys.stderr)
        if request.point and isinstance(request.point[0], complex):
            complex_digits.append(verdict.digits)
        if summary is not None and result.payload:
            summary.add(index, request, result, walls[index])

    attempted = len(records)
    tail = workloads.tail_percentile(workload)
    print(f"workload {workload}: seed {seed}, {passes} pass(es), {attempted} requests "
          f"in {loop_s:.2f} s, failed_ratio {failed / attempted:.4f} ({failed}/{attempted}); "
          f"machine slowdown (median calibration / reference) "
          f"{statistics.median(calibrations) / CALIBRATION_REF_S:.3f}")
    print(describe_ranks([(r[0], w) for r, w in zip(records, walls)], tail))
    typical_s = stratum_median_total([record[0] for record in records], walls)
    if summary is not None:
        trace_path = OUT / f"trace-{workload}-seed{seed}.jsonl"
        summary.write(trace_path)
        metrics = summary.metrics(typical_s / attempted)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        quantiles = statistics.quantiles(walls, n=100, method="inclusive")
        if complex_digits:
            digits_p10 = statistics.quantiles(complex_digits, n=10, method="inclusive")[0]
            print(f"complex digits over {len(complex_digits)} complex points: "
                  f"min {min(complex_digits):.3f}, p10 {digits_p10:.3f}")
        values = {
            "throughput_rps": attempted / typical_s,
            "latency_p50_ms": quantiles[49] * 1e3,
            "latency_tail_ms": quantiles[tail - 1] * 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": max(record[1].maxrss_kb for record in records) / 1024,
            "complex_digits_p10": digits_p10 if complex_digits else readers.DIGITS_CAP,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        raw = statistics.quantiles([record[1].wall_s for record in records], n=100,
                                   method="inclusive")
        print(f"latency_tail_ms is p{tail} over {attempted} requests "
              f"({attempted - (tail * attempted) // 100} beyond it); uncalibrated: "
              f"p50 {raw[49] * 1e3:.3f} ms, p{tail} {raw[tail - 1] * 1e3:.3f} ms, "
              f"{attempted / loop_s:.3f} requests/s over the loop")
    for name, entry in metrics.items():
        print(f"  {name:34s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def stratum_median_total(requests, walls) -> float:
    """Total request time with each request at its stratum's median latency.

    One request stalled by the host then does not move the throughput.
    """
    strata = {}
    for request, wall in zip(requests, walls):
        strata.setdefault(request.stratum, []).append(wall)
    return sum(len(group) * statistics.median(group) for group in strata.values())


def calibrate() -> float:
    """Seconds to fork a child that does a fixed slice of Fraction and dict work.

    The machine's speed drifts by tens of percent within seconds (shared
    cores), so every time the benchmark reports is scaled by
    ``CALIBRATION_REF_S`` over calibrations taken next to it.  The slice
    runs in a forked child, like a request, so fork and page-fault costs
    drift with it.
    """
    return forkrun.run_in_child(_calibration_work, os.devnull, REQUEST_TIMEOUT_S).wall_s


def _calibration_work(_payload_fd) -> int:
    table = {}
    step = Fraction(1, 3)
    for i in range(1500):
        table[(i, i + 1)] = table.get((i - 1, i), 0) + step * i
    return 0


def measure_setup() -> float:
    """Median time, at reference speed, to import ``zeps.cli`` and build its parser.

    The parent's own import counts once; fresh interpreters repeat it
    ``SETUP_REPEATS`` times, since a module imports only once per process.
    """
    before = calibrate()
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import zeps.cli

    zeps.cli.build_parser()
    elapsed = time.perf_counter() - start
    times = [elapsed * 2 * CALIBRATION_REF_S / (before + calibrate())]
    for _ in range(SETUP_REPEATS):
        before = calibrate()
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=60)
        times.append(float(done.stdout) * 2 * CALIBRATION_REF_S / (before + calibrate()))
    return statistics.median(times)


def _body(cli_main, argv, traced):
    """The child's work: run ``main(argv)``, traced or not, and report."""

    def body(payload_fd):
        recorder = None
        if traced:
            recorder = tracing.Recorder()
            tracing.install(recorder)
        try:
            if recorder is None:
                code = cli_main(list(argv))
            else:
                code = recorder.call(tracing.ROOT, cli_main, (list(argv),), {})
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        sys.stdout.flush()
        if recorder is not None:
            with os.fdopen(payload_fd, "wb") as sink:
                sink.write(recorder.payload())
        return code

    return body


def _run_once(cli_main, argv, scratch) -> str:
    path = scratch / "self-check.out"
    result = forkrun.run_in_child(_body(cli_main, argv, False), str(path), REQUEST_TIMEOUT_S)
    if result.exit_code != 0:
        raise RuntimeError(f"self-check request {argv} exited {result.exit_code}")
    return path.read_text()


def describe_ranks(timed, tail) -> str:
    """Latency of each stratum, and which strata the p50 and tail ranks fall in."""
    ordered = sorted(timed, key=lambda pair: pair[1])
    n = len(ordered)
    lines = []
    by_stratum = {}
    for rank, (request, wall) in enumerate(ordered, 1):
        by_stratum.setdefault(request.stratum, []).append((rank, wall * 1e3))
    for stratum, entries in by_stratum.items():
        ranks = [rank for rank, _ in entries]
        ms = [value for _, value in entries]
        lines.append(f"  {stratum:12s} n={len(entries):3d} ranks {min(ranks):3d}-{max(ranks):3d} "
                     f"ms min {min(ms):9.2f} median {statistics.median(ms):9.2f} max {max(ms):9.2f}")
    for label, pct in (("p50", 50), (f"p{tail}", tail)):
        position = (n - 1) * pct / 100
        strata = {ordered[i][0].stratum for i in (int(position), min(n - 1, int(position) + 1))}
        lines.append(f"{label} at rank {position + 1:.1f} lies in {', '.join(sorted(strata))}")
    return "\n".join(lines)


def steadiness(chosen, k: int, seconds: float) -> int:
    """Run each workload k times (seeds 1..k) plus one traced run; print the spread."""
    bounds = {}
    config = ROOT / "BENCHMARK.json"
    if config.is_file():
        bounds = {m["name"]: m["bound"] for m in json.loads(config.read_text())["end_to_end"]}
    for workload in chosen:
        runs = [_subrun(workload, seed, seconds, 0) for seed in range(1, k + 1)]
        traced = _subrun(workload, 1, seconds, 1)
        print(f"== {workload}: {k} runs, seeds 1..{k}")
        for name, unit in END_TO_END:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if k > 1 else (values[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            verdict = "" if bound is None else f"  bound {bound} ({spread / bound:.0%} of it)"
            print(f"  {name:22s} median {med:12.6g} {unit:7s} q1 {q1:12.6g} q3 {q3:12.6g} "
                  f"spread {spread:.4f}{verdict}")
            print(f"      runs: {' '.join(f'{v:.6g}' for v in values)}")
        print(f"  failed: {[r['failed'] for r in runs]} of {[r['attempted'] for r in runs]}")
        untraced_s = statistics.median(1 / r["metrics"]["throughput_rps"]["value"] for r in runs)
        overhead = traced["metrics"]["trace.wall_per_request_s"]["value"] / untraced_s
        print(f"  tracing overhead (traced seed-1 / median untraced time per request): "
              f"{overhead:.3f}")
        print(f"  trace coverage_min (dim >= 5): "
              f"{traced['metrics']['trace.coverage_min']['value']:.3f}", flush=True)
    return 0


def _subrun(workload, seed, seconds, traced) -> dict:
    done = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(traced)],
        capture_output=True, text=True, timeout=600,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


if __name__ == "__main__":
    sys.exit(main())
