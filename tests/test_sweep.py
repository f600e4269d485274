import hashlib

from sdglab.sweep import emit_csv, run_sweep, standard_suite

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
