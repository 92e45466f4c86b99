"""A/B driver for perf claims: alternate benchmark runs of two commits.

    python3 tools/ab.py PARENT CHANGE --workload W --seeds A-B [--triples] \\
        [--claim METRIC] [--out BENCH_<n>.json]

PARENT and CHANGE are git revisions of this repository (``git stash
create`` names an uncommitted working tree).  Each is unpacked with ``git
archive`` into a fresh directory, so no tree carries an earlier run's
``__pycache__``, and every run sets ``PYTHONDONTWRITEBYTECODE=1`` to keep
it so.  Each seed in A-B is one pair: pair i runs ``perfbench/run.py
--workload W --seed A+i --trace 0`` in each tree, unchanged, for
``BENCHMARK.json``'s ``run_seconds``: the parent first in even pairs and
the change first in odd ones.  With ``--triples`` a second fresh copy of
the parent runs in each round too, in rotating order, so the spread
between two copies of one commit sits beside the change's gap.

Each run's last stdout line is the benchmark's JSON (``correct``,
``attempted``, ``failed``, ``metrics``); a run that prints none counts as
failed.  The summary of every end-to-end metric in ``BENCHMARK.json``
(median and quartiles per side, pairs where the change reads better,
ties, the paired spread: median and quartiles of change / parent within
each pair, the bound) goes into the ``workloads`` entry of ``--out``, which is
created or updated, or to stdout.  ``--claim METRIC`` adds the verdict on
a claimed gain: better in at least 9 of 10 pairs, with the gap between the
medians above the parent's interquartile range, and no failed run or
request on either side.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "parent2", "change")
CLAIM_TARGET = (
    "change better in at least 9 of 10 pairs, median gap above the parent's "
    "interquartile range, no failed run or request"
)
STATS = (
    "median and quartiles (statistics.quantiles, inclusive) over the runs of each side; "
    "change_better_in_pairs counts pairs where the change reads better, ties for neither, "
    "and a pair with a failed run for neither; paired_ratio is the median and quartiles of "
    "change / parent within each pair with both runs and a nonzero parent; within_bound "
    "compares the change's median with the parent's against BENCHMARK.json's bound"
)


def parse_run(stdout: str) -> dict | None:
    """The benchmark's JSON from a run's stdout (its last line), or None if there is none."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    return result if isinstance(result, dict) and "metrics" in result else None


def spread(values: list[float]) -> dict:
    """Median and quartiles, inclusive; a single value is all three."""
    pairable = values * 2 if len(values) == 1 else values  # quantiles needs two values
    q1, median, q3 = statistics.quantiles(pairable, n=4, method="inclusive")
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def _better(change: float, parent: float, direction: str) -> bool:
    return change > parent if direction == "higher" else change < parent


def summarize(rounds: list[dict], end_to_end: list[dict], claim: str | None = None) -> dict:
    """The workload's entry from its rounds.

    Each round maps a side ("parent", "change", and "parent2" in triples)
    to that run's parsed JSON, or to None for a run that printed none.
    ``end_to_end`` is ``BENCHMARK.json``'s list of metrics.
    """
    sides = [side for side in SIDES if any(side in r for r in rounds)]
    ok = [{side: r[side] for side in sides if r.get(side) is not None} for r in rounds]
    entry = {
        "pairs": len(rounds),
        "failed_runs": {side: sum(side not in r for r in ok) for side in sides},
        "failed": {side: sum(r[side]["failed"] for r in ok if side in r) for side in sides},
        "attempted": {side: sum(r[side]["attempted"] for r in ok if side in r) for side in sides},
    }
    entry["correct"] = all(r[side]["correct"] for r in ok for side in r) and not any(
        entry["failed_runs"].values()
    )
    metrics = {}
    for spec in end_to_end:
        name, direction = spec["name"], spec["better"]
        runs = {
            side: [r[side]["metrics"][name]["value"] for r in ok if side in r] for side in sides
        }
        paired = [
            (r["change"]["metrics"][name]["value"], r["parent"]["metrics"][name]["value"])
            for r in ok
            if "change" in r and "parent" in r
        ]
        if not (runs["parent"] and runs["change"]):
            metrics[name] = {"unit": spec["unit"], **{f"{side}_runs": runs[side] for side in sides}}
            continue
        parent, change = spread(runs["parent"]), spread(runs["change"])
        bound = spec["bound"]
        ratios = [c / p for c, p in paired if p]
        limit = parent["median"] * (1 - bound if direction == "higher" else 1 + bound)
        metric = {
            "unit": spec["unit"],
            "better": direction,
            "bound": bound,
            "parent": parent,
            "change": change,
            "change_better_in_pairs": sum(_better(c, p, direction) for c, p in paired),
            "ties": sum(c == p for c, p in paired),
            "median_change_vs_parent": round(change["median"] / parent["median"], 4),
            "paired_ratio": spread(ratios) if ratios else None,
            "within_bound": not _better(limit, change["median"], direction),
            "parent_runs": runs["parent"],
            "change_runs": runs["change"],
        }
        if "parent2" in sides:
            metric["parent2"] = spread(runs["parent2"])
            metric["parent2_runs"] = runs["parent2"]
            ratio = metric["parent2"]["median"] / parent["median"]
            metric["parent2_vs_parent_median"] = round(ratio, 4)
        metrics[name] = metric
    entry["metrics"] = metrics
    if claim:
        entry["claim"] = verdict(metrics[claim], len(rounds), entry["correct"])
    return entry


def verdict(metric: dict, pairs: int, correct: bool) -> dict:
    """Whether a claimed gain on ``metric`` holds over ``pairs`` pairs."""
    if "parent" not in metric:
        return {"target": CLAIM_TARGET, "pairs": pairs, "met": False}
    parent, change = metric["parent"], metric["change"]
    gap = change["median"] - parent["median"]
    if metric["better"] == "lower":
        gap = -gap
    iqr = parent["q3"] - parent["q1"]
    better = metric["change_better_in_pairs"]
    return {
        "target": CLAIM_TARGET,
        "change_better_in_pairs": better,
        "pairs": pairs,
        "median_gap": round(gap, 4),
        "parent_iqr": round(iqr, 4),
        "met": correct and better >= math.ceil(0.9 * pairs) and gap > iqr,
    }


def unpack(rev: str, where: Path) -> Path:
    """A fresh tree of ``rev`` from ``git archive``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    where.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(where, filter="data")
        else:
            tar.extractall(where)
    return where


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    return parse_run(done.stdout) if done.returncode == 0 else None


def _seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="A-B, one seed a pair")
    parser.add_argument("--triples", action="store_true", help="add a second parent copy")
    parser.add_argument("--claim", choices=[metric["name"] for metric in bench["end_to_end"]],
                        help="the end-to-end metric a gain is claimed on")
    parser.add_argument("--out", type=Path, help="BENCH file to create or update")
    args = parser.parse_args(argv)
    seeds = args.seeds
    seconds = bench["run_seconds"]
    revs = {"parent": args.parent, "change": args.change}
    if args.triples:
        revs["parent2"] = args.parent
    sides = [side for side in SIDES if side in revs]
    rounds = []
    with tempfile.TemporaryDirectory(prefix="zeps-ab-") as work:
        trees = {side: unpack(rev, Path(work) / side) for side, rev in revs.items()}
        for i, seed in enumerate(seeds):
            order = sides[i % len(sides):] + sides[:i % len(sides)]
            results = {}
            for side in order:
                results[side] = run_once(trees[side], args.workload, seed, seconds)
                shown = "no result" if results[side] is None else " ".join(
                    f"{name}={entry['value']:.4g}" for name, entry in
                    results[side]["metrics"].items()
                )
                print(f"pair {i + 1}/{len(seeds)} seed {seed} {side}: {shown}", file=sys.stderr)
            rounds.append(results)
    entry = {"seeds": seeds, **summarize(rounds, bench["end_to_end"], args.claim)}
    entry["order"] = f"rounds rotate {', '.join(sides)}, starting one later each seed"
    document = json.loads(args.out.read_text()) if args.out and args.out.exists() else {}
    document.setdefault("harness", (
        f"tools/ab.py: python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
        "--trace 0, in fresh git archive trees with PYTHONDONTWRITEBYTECODE=1"
    ))
    document.setdefault(
        "machine", f"{os.cpu_count()}-CPU {platform.machine()}, Python {platform.python_version()}"
    )
    document.update(parent=args.parent, change=args.change, stats=STATS)
    document.setdefault("workloads", {})[args.workload] = entry
    text = json.dumps(document, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    met = entry.get("claim", {}).get("met", True)
    return 0 if met else 1


if __name__ == "__main__":
    sys.exit(main())
