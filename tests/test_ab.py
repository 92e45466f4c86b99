"""``tools/ab.py``: the statistics of an A/B run, fed canned benchmark output."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "ab.py"
spec = importlib.util.spec_from_file_location("ab", TOOL)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

END_TO_END = [
    {"name": "throughput_rps", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.2},
]


def run_output(throughput, rss, failed=0):
    """What ``perfbench/run.py`` prints: people's lines, then its JSON."""
    result = {
        "correct": failed == 0,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "throughput_rps": {"value": throughput, "unit": "1/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }
    return f"self-checks passed\nworkload emit: seed 1\n{json.dumps(result)}\n"


CRASHED = "self-checks passed\nTraceback (most recent call last):\nRuntimeError: boom\n"

# four pairs: a throughput tie in pair 2, whose parent run also failed a
# request, and a change run in pair 4 that printed no result
ROUNDS = [
    {"parent": run_output(100, 20), "change": run_output(120, 18)},
    {"parent": run_output(110, 21, failed=1), "change": run_output(110, 17)},
    {"parent": run_output(120, 22), "change": run_output(150, 16)},
    {"parent": run_output(130, 23), "change": CRASHED},
]


def summary(claim=None):
    rounds = [{side: ab.parse_run(out) for side, out in r.items()} for r in ROUNDS]
    return ab.summarize(rounds, END_TO_END, claim)


def test_parse_run_reads_the_last_line_only():
    assert ab.parse_run(run_output(1, 2))["metrics"]["peak_rss_mb"]["value"] == 2
    assert ab.parse_run(CRASHED) is None
    assert ab.parse_run("") is None
    assert ab.parse_run('{"correct": true}\n') is None


def test_counts_runs_requests_and_failures():
    entry = summary()
    assert entry["pairs"] == 4
    assert entry["failed_runs"] == {"parent": 0, "change": 1}
    assert entry["failed"] == {"parent": 1, "change": 0}
    assert entry["attempted"] == {"parent": 400, "change": 300}
    assert entry["correct"] is False


def test_higher_is_better_metric_with_a_tie():
    metric = summary()["metrics"]["throughput_rps"]
    # parent 100, 110, 120, 130; change 120, 110, 150 (pair 4 has no change run)
    assert metric["parent"] == {"median": 115, "q1": 107.5, "q3": 122.5}
    assert metric["change"] == {"median": 120, "q1": 115, "q3": 135}
    assert metric["change_better_in_pairs"] == 2
    assert metric["ties"] == 1
    assert metric["median_change_vs_parent"] == 1.0435  # 120 / 115
    assert metric["within_bound"] is True  # 120 >= 115 * 0.75
    assert metric["parent_runs"] == [100, 110, 120, 130]
    assert metric["change_runs"] == [120, 110, 150]


def test_lower_is_better_metric():
    metric = summary()["metrics"]["peak_rss_mb"]
    assert metric["parent"] == {"median": 21.5, "q1": 20.75, "q3": 22.25}
    assert metric["change"] == {"median": 17, "q1": 16.5, "q3": 17.5}
    assert metric["change_better_in_pairs"] == 3
    assert metric["ties"] == 0
    assert metric["median_change_vs_parent"] == 0.7907  # 17 / 21.5


def test_paired_spread_is_the_change_over_parent_ratio_within_each_pair():
    # throughput: 120/100, the tie 110/110 and 150/120; pair 4's change run
    # failed, so it has no ratio.  Inclusive quartiles of (1.0, 1.2, 1.25):
    # q1 = (1.0 + 1.2) / 2, q3 = (1.2 + 1.25) / 2.  The ratio of the medians
    # is 1.0435, since the sides' medians come from different pairs.
    metrics = summary()["metrics"]
    assert metrics["throughput_rps"]["paired_ratio"] == {"median": 1.2, "q1": 1.1, "q3": 1.225}
    # peak RSS: 18/20 = 0.9, 17/21 = 0.80952, 16/22 = 0.72727
    assert metrics["peak_rss_mb"]["paired_ratio"] == {"median": 0.8095, "q1": 0.7684, "q3": 0.8548}
    # a pair whose parent reads 0 has no ratio, nor does a side with no partner
    rounds = [
        {"parent": ab.parse_run(run_output(0, 20)), "change": ab.parse_run(run_output(5, 20))},
        {"parent": ab.parse_run(run_output(10, 20)), "change": ab.parse_run(run_output(12, 20))},
    ]
    ratio = ab.summarize(rounds, END_TO_END)["metrics"]["throughput_rps"]["paired_ratio"]
    assert ratio == {"median": 1.2, "q1": 1.2, "q3": 1.2}
    rounds = [{"parent": ab.parse_run(run_output(10, 20)), "change": None},
              {"parent": None, "change": ab.parse_run(run_output(12, 20))}]
    assert ab.summarize(rounds, END_TO_END)["metrics"]["throughput_rps"]["paired_ratio"] is None


def test_claim_needs_nine_in_ten_pairs_a_gap_past_the_iqr_and_no_failure():
    # 3 of 4 pairs better, gap 4.5 above the parent's IQR 1.5, but a run failed
    claim = summary("peak_rss_mb")["claim"]
    assert claim["change_better_in_pairs"] == 3
    assert claim["pairs"] == 4
    assert claim["median_gap"] == 4.5
    assert claim["parent_iqr"] == 1.5
    assert claim["met"] is False
    metric = summary()["metrics"]["peak_rss_mb"]
    assert ab.verdict(dict(metric, change_better_in_pairs=9), 10, True)["met"] is True
    assert ab.verdict(dict(metric, change_better_in_pairs=8), 10, True)["met"] is False
    assert ab.verdict(dict(metric, change_better_in_pairs=10), 10, False)["met"] is False
    narrow = dict(metric, change={"median": 20.5, "q1": 20, "q3": 21})  # gap 1.0 < 1.5
    assert ab.verdict(dict(narrow, change_better_in_pairs=10), 10, True)["met"] is False


def test_triples_report_the_second_parent_copy():
    rounds = [
        {"parent": ab.parse_run(run_output(100 + k, 20)),
         "parent2": ab.parse_run(run_output(110 + k, 20)),
         "change": ab.parse_run(run_output(105 + k, 20))}
        for k in (0, 10)
    ]
    metric = ab.summarize(rounds, END_TO_END)["metrics"]["throughput_rps"]
    assert metric["parent2"] == {"median": 115, "q1": 112.5, "q3": 117.5}
    assert metric["parent2_vs_parent_median"] == 1.0952  # 115 / 105
    assert metric["change_better_in_pairs"] == 2


def test_a_parent_median_of_zero_gives_no_ratio_of_medians():
    rounds = [
        {"parent": ab.parse_run(run_output(0, 20)), "parent2": ab.parse_run(run_output(0, 20)),
         "change": ab.parse_run(run_output(5 + k, 20))}
        for k in (0, 1)
    ]
    metric = ab.summarize(rounds, END_TO_END)["metrics"]["throughput_rps"]
    assert metric["parent"] == {"median": 0, "q1": 0, "q3": 0}
    assert metric["median_change_vs_parent"] is None
    assert metric["parent2_vs_parent_median"] is None
    assert metric["paired_ratio"] is None
    assert metric["change_better_in_pairs"] == 2


def test_claim_must_name_an_end_to_end_metric(capsys):
    with pytest.raises(SystemExit) as exc:
        ab.main(["HEAD", "HEAD", "--workload", "emit", "--seeds", "1",
                 "--claim", "no_such_metric"])
    assert exc.value.code == 2
    assert "no_such_metric" in capsys.readouterr().err


def test_seeds_name_one_pair_each():
    assert ab._seeds("21-24") == [21, 22, 23, 24]
    assert ab._seeds("7") == [7]


def test_a_side_with_no_run_gives_its_runs_and_no_verdict():
    rounds = [{"parent": ab.parse_run(run_output(100, 20)), "change": None}]
    entry = ab.summarize(rounds, END_TO_END, "peak_rss_mb")
    assert entry["metrics"]["peak_rss_mb"] == {"unit": "MB", "parent_runs": [20], "change_runs": []}
    assert entry["claim"]["met"] is False
    assert ab.spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}


@pytest.fixture
def two_commits(tmp_path, monkeypatch):
    """A two-commit repository in ``tmp_path`` that ``ab.ROOT`` points at; yields its ``git``."""
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*argv):
        return subprocess.run(
            ["git", "-c", "user.name=ab", "-c", "user.email=ab@example.com", *argv],
            cwd=repo, capture_output=True, check=True, text=True,
        ).stdout.strip()

    git("init", "-q")
    bench = {"run_seconds": 1, "end_to_end": END_TO_END}
    for n in (1, 2):
        (repo / "BENCHMARK.json").write_text(json.dumps({**bench, "edit": n}))
        git("add", "BENCHMARK.json")
        git("commit", "-q", "-m", f"commit {n}")
    monkeypatch.setattr(ab, "ROOT", repo)
    monkeypatch.setattr(ab, "run_once", lambda *args: ab.parse_run(run_output(100, 20)))
    return git


def test_out_records_the_commits_that_the_revisions_name(two_commits, tmp_path):
    # HEAD~1 and HEAD must go into --out as SHAs
    out = tmp_path / "BENCH.json"
    assert ab.main(["HEAD~1", "HEAD", "--workload", "emit", "--seeds", "1",
                    "--out", str(out)]) == 0
    document = json.loads(out.read_text())
    assert document["parent"] == two_commits("rev-parse", "HEAD~1")
    assert document["change"] == two_commits("rev-parse", "HEAD")
    assert len(document["change"]) == 40 and document["change"] != document["parent"]


def test_a_revision_that_names_no_commit_is_a_usage_error(two_commits, capsys):
    with pytest.raises(SystemExit) as exc:
        ab.main(["HEAD", "no-such-revision", "--workload", "emit", "--seeds", "1"])
    assert exc.value.code == 2
    assert "not a commit: no-such-revision" in capsys.readouterr().err
