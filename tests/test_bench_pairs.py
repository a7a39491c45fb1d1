"""The table ``scripts/bench_pairs.py`` prints, on canned paired results.

Per gated metric: each side's median and quartiles, the pairs the change won
in the metric's better direction (a tie wins for neither), whether the gap
between the medians exceeds the parent's interquartile range, and whether the
change is worse than the metric's bound.
"""

import importlib.util
import subprocess
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "queries_per_s", "better": "higher", "bound": 0.25},
    {"name": "query_p50_ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.05},
]


def runs(parent, change):
    """Canned runs: per pair, each side's metric values."""
    out = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        out.append({"pair": pair, "side": "parent", "metrics": p})
        out.append({"pair": pair, "side": "change", "metrics": c})
    return out


def values(qps, p50, rss):
    return {"queries_per_s": qps, "query_p50_ms": p50, "peak_rss_mb": rss}


def test_quartiles_interpolate_between_order_statistics():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_the_table_counts_wins_in_each_metrics_better_direction():
    parent = [values(50, 20, 290), values(52, 19, 291), values(48, 21, 292), values(51, 20, 293),
              values(49, 20, 294)]
    change = [values(60, 16, 300), values(61, 17, 301), values(47, 21, 302), values(62, 16, 303),
              values(59, 21, 304)]
    rows = {row["metric"]: row for row in bench_pairs.summarize(runs(parent, change), METRICS)}

    qps = rows["queries_per_s"]
    assert qps["parent"] == (49.0, 50.0, 51.0) and qps["change"] == (59.0, 60.0, 61.0)
    assert qps["won"] == 4 and qps["pairs"] == 5
    assert qps["gap"] == 10.0 and qps["relative"] == pytest.approx(0.2)
    assert qps["gap_exceeds_parent_iqr"] and not qps["worse_beyond_bound"]

    # Lower is better; pair 2 ties at 21 ms and wins for neither side.
    p50 = rows["query_p50_ms"]
    assert p50["won"] == 3
    assert p50["gap"] == -3.0 and p50["gap_exceeds_parent_iqr"]

    # 302 against 292 MiB is 3.4% worse: within a 5% bound, but every pair lost.
    rss = rows["peak_rss_mb"]
    assert rss["won"] == 0 and rss["gap"] == 10.0
    assert rss["gap_exceeds_parent_iqr"] and not rss["worse_beyond_bound"]


def test_a_gap_inside_the_parents_spread_is_not_a_gain_and_a_large_loss_is_flagged():
    parent = [values(40, 20, 100), values(60, 20, 100), values(50, 20, 100)]
    change = [values(55, 30, 100), values(56, 30, 100), values(54, 30, 100)]
    rows = {row["metric"]: row for row in bench_pairs.summarize(runs(parent, change), METRICS)}
    assert rows["queries_per_s"]["won"] == 2
    # The medians differ by 5; the parent's quartiles lie 10 apart.
    assert not rows["queries_per_s"]["gap_exceeds_parent_iqr"]
    assert rows["query_p50_ms"]["worse_beyond_bound"]
    assert rows["peak_rss_mb"]["won"] == 0 and rows["peak_rss_mb"]["gap"] == 0.0


def test_a_pair_missing_a_side_is_left_out():
    canned = runs([values(50, 20, 100)] * 2, [values(60, 10, 90)] * 2)
    canned.append({"pair": 2, "side": "parent", "metrics": values(1, 99, 999)})
    rows = bench_pairs.summarize(canned, METRICS)
    assert all(row["pairs"] == 2 for row in rows)
    assert rows[0]["parent"] == (50, 50, 50)


def test_the_printed_table_has_one_line_per_metric():
    rows = bench_pairs.summarize(runs([values(50, 20, 100)] * 3, [values(60, 10, 100)] * 3), METRICS)
    lines = bench_pairs.format_table(rows)
    assert len(lines) == 1 + len(METRICS)
    assert lines[1].split()[0] == "queries_per_s" and "+20.0%" in lines[1] and "3/3" in lines[1]


def test_an_export_holds_the_revisions_files_and_links_the_shared_cache(tmp_path, monkeypatch):
    if subprocess.run(["git", "rev-parse", "--verify", "HEAD"], cwd=SCRIPT.parent,
                      capture_output=True).returncode != 0:
        pytest.skip("not a git checkout")
    cache = tmp_path / "cache"
    cache.mkdir()
    # With extraction filters and, as on older Pythons, without them.
    for name in ("filtered", "plain"):
        if name == "plain":
            monkeypatch.delattr(bench_pairs.tarfile, "data_filter", raising=False)
        tree = tmp_path / name
        bench_pairs.export("HEAD", tree, cache)
        assert (tree / "pyproject.toml").is_file() and (tree / "src" / "bend").is_dir()
        assert (tree / ".bench_cache").resolve() == cache.resolve()
