import hashlib

import pytest

from sdglab.sweep import (
    InstanceSpec,
    build_instance,
    emit_csv,
    evaluate_instance,
    run_sweep,
    standard_suite,
)

# SHA-256 of the standard-sweep CSV at base seed 1 with one trial (286 rows),
# pinned at the commit that introduced this test. Any change to a row, its
# formatting or its order changes the hash.
GOLDEN_SHA256 = "95392d050732c5818f221fc9800d09f2c814171d841875aa832538b58d7638ad"


def _csv_bytes(tmp_path, workers: int) -> bytes:
    path = tmp_path / f"sweep-w{workers}.csv"
    emit_csv(run_sweep(standard_suite(1, trials=1), "approx", workers=workers), path)
    return path.read_bytes()


def test_standard_sweep_csv_is_golden_and_worker_independent(tmp_path):
    serial = _csv_bytes(tmp_path, 1)
    assert hashlib.sha256(serial).hexdigest() == GOLDEN_SHA256
    assert _csv_bytes(tmp_path, 2) == serial


def test_build_instance_does_not_default_zero_dimension_or_norm():
    # d = 0 and p = 0 are invalid inputs, not requests for the d = 2, p = 2 default.
    for d, p in ((0, 2.0), (2, 0.0)):
        spec = InstanceSpec(id="x", family="euclidean", n=5, seed=1, range_mode="uniform", d=d, p=p)
        with pytest.raises(ValueError):
            build_instance(spec)


@pytest.mark.parametrize("family", ["c3", "line"])
def test_evaluate_instance_refuses_graph_families(family):
    spec = InstanceSpec(id=family, family=family, n=5, seed=0)
    with pytest.raises(ValueError, match="sweeps evaluate metric instances only"):
        evaluate_instance(spec)
