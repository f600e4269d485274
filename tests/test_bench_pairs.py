"""The summary and pairing of scripts/bench_pairs.py, which writes every
BENCH_*.json a performance claim rests on. Nothing here starts a process or
a benchmark: `alternate` is given a fake run.
"""
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _load()


@pytest.mark.parametrize("better, wins", [("higher", 2), ("lower", 1)])
def test_summary_counts_the_pairs_the_change_won(better, wins):
    # Pair 1 is a tie, which counts for neither side.
    parent, change = [1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 1.0, 5.0]
    assert bench_pairs.summary(parent, change, better)["change_wins"] == wins


def test_summary_takes_medians_and_inclusive_quartiles():
    out = bench_pairs.summary([1.0, 2.0, 3.0, 4.0, 5.0], [4.0, 1.0, 3.0, 2.0], "higher")
    assert out["parent"] == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert out["change"] == [4.0, 1.0, 3.0, 2.0]
    assert out["parent_median"] == 3.0
    assert out["change_median"] == 2.5
    assert out["parent_iqr"] == [2.0, 4.0]
    assert out["change_iqr"] == [1.75, 3.25]


def test_summary_of_one_pair():
    out = bench_pairs.summary([5.0], [4.0], "lower")
    assert out["parent_median"] == 5.0 and out["change_median"] == 4.0
    assert out["parent_iqr"] == [5.0, 5.0]
    assert out["change_iqr"] == [4.0, 4.0]
    assert out["change_wins"] == 1


def test_alternate_runs_the_parent_first_on_even_pairs():
    calls = []

    def run(checkout):
        calls.append(checkout)
        return f"{checkout}#{len(calls)}"

    results = bench_pairs.alternate(Path("parent"), Path("change"), 3, run)
    assert [c.name for c in calls] == ["parent", "change", "change", "parent", "parent", "change"]
    assert [r["parent_first"] for r in results] == [True, False, True]
    assert [(r["parent"], r["change"]) for r in results] == [
        ("parent#1", "change#2"),
        ("parent#4", "change#3"),
        ("parent#5", "change#6"),
    ]
