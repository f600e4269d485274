import pytest

from sdglab import sweep
from sdglab.sweep import euclidean_kinds, max_workers, run_sweep, spec_grid


@pytest.mark.parametrize(
    "requested, tasks, expected",
    [(1000, 16, 2), (1000, 17, 3), (1000, 8, 1), (1000, 1, 1), (1000, 0, 1), (2, 286, 2), (1, 286, 1)],
)
def test_max_workers_capped_at_chunk_count(requested, tasks, expected):
    assert max_workers(requested, tasks) == expected


@pytest.mark.parametrize("requested", [0, -2])
def test_max_workers_rejects_counts_below_one(requested):
    with pytest.raises(ValueError, match=f"^workers must be at least 1, got {requested}$"):
        max_workers(requested, 1000)


def test_max_workers_defaults_to_cpu_count(monkeypatch):
    monkeypatch.setattr(sweep.os, "cpu_count", lambda: 64)
    assert max_workers(None, 40) == 5
    assert max_workers(None, 1000) == 64
    assert max_workers(1000, 16) == 2


def test_run_sweep_runs_one_chunk_serially(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a single chunk of specs must not start a process pool")

    monkeypatch.setattr(sweep, "ProcessPoolExecutor", no_pool)
    specs = spec_grid(7, 4, (5,), euclidean_kinds((2,), (2.0,)))
    assert len(specs) == sweep.CHUNKSIZE
    records = run_sweep(specs, workers=1000)
    assert [r.id for r in records] == sorted({s.id for s in specs})
