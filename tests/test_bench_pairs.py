"""The verdicts of tools/bench_pairs.py on synthetic runs; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]


def test_ten_wins_beyond_the_parents_iqr_are_a_gain():
    row = bench_pairs.verdict(PARENT, [p - 1.0 for p in PARENT], "lower")
    assert row["wins"] == 10 and row["pairs"] == 10
    assert row["parent_median"] == pytest.approx(10.05)
    assert row["change_median"] == pytest.approx(9.05)
    assert row["parent_iqr"] == pytest.approx(0.175)
    assert row["gain"]


def test_nine_of_ten_suffice_and_eight_do_not():
    change = [p - 1.0 for p in PARENT]
    change[0] = PARENT[0] + 1.0
    assert bench_pairs.verdict(PARENT, change, "lower")["gain"]
    change[1] = PARENT[1] + 1.0
    row = bench_pairs.verdict(PARENT, change, "lower")
    assert row["wins"] == 8 and not row["gain"]


def test_a_gap_within_the_parents_iqr_is_no_gain():
    row = bench_pairs.verdict(PARENT, [p - 0.1 for p in PARENT], "lower")
    assert row["wins"] == 10 and row["parent_iqr"] > 0.1
    assert not row["gain"]


def test_ties_count_for_neither_side():
    change = [p - 1.0 for p in PARENT]
    change[3] = PARENT[3]
    row = bench_pairs.verdict(PARENT, change, "lower")
    assert row["wins"] == 9 and row["gain"]
    change[4] = PARENT[4]
    assert not bench_pairs.verdict(PARENT, change, "lower")["gain"]


def test_higher_is_better_metrics_win_upwards():
    up = [p + 1.0 for p in PARENT]
    assert bench_pairs.verdict(PARENT, up, "higher")["gain"]
    assert not bench_pairs.verdict(PARENT, up, "lower")["gain"]
    assert bench_pairs.verdict(PARENT, up, "lower")["wins"] == 0


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        bench_pairs.verdict(PARENT, PARENT[:-1], "lower")


def test_a_run_is_read_from_its_identity_line_and_last_line():
    result = {"correct": True, "attempted": 3, "failed": 0,
              "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}}
    out = "\n".join(["# env python=3", "# identity records_sha256=ab solver.evals=7",
                     "wall_s 1.5 s", json.dumps(result)])
    ident, parsed = bench_pairs.parse_run(out)
    assert ident == "records_sha256=ab solver.evals=7"
    assert parsed == result


def test_report_reads_each_metric_in_its_direction():
    def run(wall, auc):
        return {"result": {"metrics": {"wall_s": {"value": wall}, "profile_auc": {"value": auc}}}}

    runs = {"parent": [run(p, 0.5) for p in PARENT],
            "change": [run(p - 1.0, 0.3) for p in PARENT]}
    rows = bench_pairs.report(runs, [{"name": "wall_s", "better": "lower", "bound": 0.25},
                                     {"name": "profile_auc", "better": "higher", "bound": 0.2}])
    assert rows["wall_s"]["gain"] and rows["wall_s"]["better"] == "lower"
    assert rows["wall_s"]["regression"] == "ok"
    assert rows["profile_auc"]["wins"] == 0 and not rows["profile_auc"]["gain"]
    assert rows["profile_auc"]["regression"] == "worse"


def test_a_median_within_the_bound_is_no_regression():
    # 2% slower against a 25% bound, with a parent IQR of 1.7%.
    change = [1.02 * p for p in PARENT]
    assert bench_pairs.no_regression(PARENT, change, "lower", 0.25) == "ok"
    assert bench_pairs.no_regression(PARENT, change, "lower", 0.01) == "worse"


def test_worse_beyond_the_bound_in_either_direction():
    slower = [1.3 * p for p in PARENT]
    assert bench_pairs.no_regression(PARENT, slower, "lower", 0.25) == "worse"
    assert bench_pairs.no_regression(PARENT, slower, "higher", 0.25) == "ok"
    lower = [0.7 * p for p in PARENT]
    assert bench_pairs.no_regression(PARENT, lower, "higher", 0.25) == "worse"
    assert bench_pairs.no_regression(PARENT, lower, "lower", 0.25) == "ok"


def test_a_parent_spread_beyond_the_bound_is_unresolved():
    # The parent's IQR is 7.5 about a median of 10.5: 71% against a 25% bound.
    wide = [5.0, 15.0, 6.0, 14.0, 10.0, 11.0, 5.5, 14.5, 7.0, 13.0]
    assert bench_pairs.no_regression(wide, wide, "lower", 0.25) == "unresolved"
    assert bench_pairs.no_regression(wide, wide, "lower", 0.75) == "ok"
    # Clearly worse stays worse, however wide the parent's runs.
    assert bench_pairs.no_regression(wide, [2.0 * p for p in wide], "lower", 0.25) == "worse"


def test_a_change_that_beats_every_parent_run_is_resolved():
    wide = [5.0, 15.0, 6.0, 14.0, 10.0, 11.0, 5.5, 14.5, 7.0, 13.0]
    assert bench_pairs.no_regression(wide, [4.0] * 10, "lower", 0.25) == "ok"
    assert bench_pairs.no_regression(wide, [4.0] * 9 + [5.0], "lower", 0.25) == "unresolved"
    assert bench_pairs.no_regression(wide, [16.0] * 10, "higher", 0.25) == "ok"


def test_a_zero_parent_median_allows_no_loss():
    zeros = [0.0] * 10
    assert bench_pairs.no_regression(zeros, zeros, "higher", 0.2) == "ok"
    assert bench_pairs.no_regression(zeros, [0.1] * 10, "higher", 0.2) == "ok"
    assert bench_pairs.no_regression(zeros, [0.1] * 10, "lower", 0.2) == "worse"
