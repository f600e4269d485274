"""Malformed instance and certificate files exit 2 with a JSON error.

Exit 1 means a violated bound or a failed verification, so a file that does
not match its schema must never reach it through a traceback, while a
well-formed but wrong certificate must reach it.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest

from sdglab.cli import cli
from sdglab.graph import WeightedGraph, physical_memory
from sdglab.instances import gen_random_euclidean, gen_random_matrix_metric
from sdglab.metric import Metric

DATA = Path(__file__).resolve().parent.parent / "data"
CHAIN = str(DATA / "chain_n5.json")
FORMAT = "InstanceFormatError"
# NaN != NaN, yet this pair is symmetric: the error must name the NaN.
NAN_PAIR = {
    "metric": {"kind": "matrix", "matrix": [[0, math.nan, 1], [math.nan, 0, 1], [1, 1, 0]]},
    "ranges": [1, 1, 1],
}


@pytest.mark.parametrize(
    "data, error_type, message",
    [
        ({"metric": {"kind": "matrix", "matrix": [[0, 1], [1, 0]]}, "ranges": 5}, FORMAT, "'ranges' must be a JSON list"),
        ({"metric": [], "ranges": [1.0]}, FORMAT, "'metric' must be a JSON object"),
        ({"graph": {"n": 2, "edges": 7}, "ranges": [1.0, 1.0]}, FORMAT, "'edges' must be a JSON list"),
        ({"graph": {"n": 2, "edges": []}, "ranges": [1, None]}, FORMAT, "'ranges' must be a number, got None"),
        ({"graph": {"n": None, "edges": []}, "ranges": []}, FORMAT, "graph n must be an integer"),
        ({"graph": {"n": 2, "edges": [[0, 1, None]]}, "ranges": [1.0, 1.0]}, FORMAT, "an edge weight must be a number"),
        ({"metric": {"kind": "euclidean_lp", "p": None, "points": [[0.0]]}, "ranges": [1.0]}, FORMAT, "'p' must be a number"),
        ({"metric": {"kind": "euclidean_lp", "p": 2, "points": [[0.0], {}]}, "ranges": [1.0, 1.0]}, FORMAT, "a point must"),
        ({"graph": {"n": 2, "edges": []}, "ranges": [1.0, 1.0], "seed": "x"}, FORMAT, "'seed' must be an integer, got 'x'"),
        ({"graph": {"n": 2, "edges": []}, "ranges": [1.0, 1.0], "seed": True}, FORMAT, "'seed' must be an integer, got True"),
        ({"graph": {"n": 2, "edges": []}, "ranges": [1.0, 1.0], "family": 7}, FORMAT, "'family' must be a string, got 7"),
        ({"graph": {"n": -1, "edges": []}, "ranges": []}, FORMAT, "graph n must be >= 0, got -1"),
        ({"graph": {"n": 3, "edges": []}, "ranges": [1.0, 1.0]}, FORMAT, "graph n=3 does not match 2 ranges"),
        (NAN_PAIR, "MetricError", "non-finite distance d(0,1)=nan"),
    ],
    ids=[
        "ranges-int", "metric-list", "edges-int", "radius-null", "n-null", "weight-null", "p-null", "point-dict",
        "seed-str", "seed-bool", "family-int", "n-negative", "n-ranges-mismatch", "nan-symmetric",
    ],
)
def test_malformed_instance_exits_2(data, error_type, message, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert cli(["msf", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == error_type and message in err["error"]


def _no_n(payload):
    del payload["certificate"]["n"]


def _ham_vertex_9(payload):
    payload["ham_order"][0] = 9


def _edge_0_99(payload):
    payload["certificate"]["tilde_e"][0] = [0, 99]


def _isolated_minus_1(payload):
    payload["certificate"]["isolated"] = [-1]


def _weight_null(payload):
    payload["ham_weight"] = None


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda payload: {}, "certificate file must be a JSON object with ham_order, ham_weight and certificate"),
        (lambda payload: [], "certificate file must be a JSON object with ham_order, ham_weight and certificate"),
        (_weight_null, "ham_weight must be a number, got None"),
        (_no_n, "certificate must be a JSON object with fields n, isolated"),
        (_ham_vertex_9, "ham_order must be a list of vertices in [0, 5)"),
        (_edge_0_99, "tilde_e must be a list of vertices in [0, 5)"),
        (_isolated_minus_1, "isolated must be a list of vertices in [0, 5)"),
    ],
    ids=["empty-object", "list", "weight-null", "no-n", "ham-vertex-9", "edge-0-99", "isolated-minus-1"],
)
def test_malformed_certificate_exits_2(mutate, message, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert cli(["decompose", CHAIN, "--out", str(cert)]) == 0
    payload = json.loads(cert.read_text())
    changed = mutate(payload)
    cert.write_text(json.dumps(payload if changed is None else changed))
    assert cli(["verify", CHAIN, str(cert)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == "ValueError" and err["error"].startswith(message)


@pytest.mark.parametrize(
    "fixture, field, value, violation",
    [
        ("line_n5_w1000", "ham_order", [0, 1, 2, 3, 4], "path step (1,2) is not an edge of the graph"),
        ("chain_n5", "ham_weight", 3.5, "stored path weight does not match its edge weights"),
    ],
    ids=["path-off-the-graph", "wrong-weight"],
)
def test_wrong_but_well_formed_certificate_exits_1(fixture, field, value, violation, tmp_path):
    instance = str(DATA / f"{fixture}.json")
    cert = tmp_path / "cert.json"
    assert cli(["decompose", instance, "--out", str(cert)]) == 0
    payload = json.loads(cert.read_text())
    payload[field] = value
    cert.write_text(json.dumps(payload))
    report = tmp_path / "verify.json"
    assert cli(["verify", instance, str(cert), "--out", str(report)]) == 1
    assert violation in json.loads(report.read_text())["violations"]


@pytest.mark.parametrize(
    "argv, error_type",
    [
        (["msf", "{dir}"], "IsADirectoryError"),
        (["msf", CHAIN, "--out", "{dir}"], "IsADirectoryError"),
        (["verify", CHAIN, "{dir}"], "IsADirectoryError"),
        (["sweep", "--family", "star", "--n", "5", "--workers", "1", "--out", "{dir}"], "IsADirectoryError"),
        (["msf", "{deep}"], FORMAT),
        (["verify", CHAIN, "{deep}"], FORMAT),
    ],
    ids=["read-dir", "write-dir", "certificate-dir", "sweep-csv-dir", "deep-instance", "deep-certificate"],
)
def test_io_failure_exits_2(argv, error_type, tmp_path, capsys):
    # A directory cannot be read or written as a file, and 200 000 nested
    # lists exceed the JSON decoder's recursion limit.
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    assert cli([arg.format(dir=tmp_path, deep=deep) for arg in argv]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == error_type
    if error_type == FORMAT:
        assert err["error"].startswith(f"malformed JSON in {deep}: maximum recursion depth exceeded")


@pytest.mark.parametrize("flag", ["--out", "--svg"])
@pytest.mark.parametrize(
    "target, error_type, message",
    [("", "IsADirectoryError", "Is a directory"), ("missing/s.out", "FileNotFoundError", "No such file")],
    ids=["directory", "missing-parent"],
)
def test_sweep_rejects_an_unwritable_output_before_evaluating(
    flag, target, error_type, message, tmp_path, capsys, monkeypatch
):
    # The error is the one writing the file would raise, but no spec runs first.
    def run_sweep(*args, **kwargs):
        raise AssertionError("sweep evaluated its specs before checking its output paths")

    monkeypatch.setattr("sdglab.cli.run_sweep", run_sweep)
    path = str(tmp_path / target)
    assert cli(["sweep", "--family", "star", "--n", "5", "--workers", "1", flag, path]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["type"] == error_type and message in err["error"] and path in err["error"]
    assert sorted(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag, value", [("--workers", "0"), ("--workers", "-2"), ("--trials", "0"), ("--trials", "-1")])
def test_sweep_rejects_a_count_below_one_before_evaluating(flag, value, tmp_path, capsys, monkeypatch):
    # `--workers -2` would run serially and `--trials 0` would sweep nothing
    # and exit 0; both are input errors, raised before any spec runs.
    def run_sweep(*args, **kwargs):
        raise AssertionError("sweep evaluated its specs before checking its counts")

    monkeypatch.setattr("sdglab.cli.run_sweep", run_sweep)
    out = tmp_path / "s.csv"
    assert cli(["sweep", "--family", "star", "--n", "5", flag, value, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    err = json.loads(captured.err)
    assert err == {"error": f"{flag} must be at least 1, got {value}", "type": "ValueError"}
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--family", "euclidean", "--n", "200000"],
        ["sweep", "--family", "euclidean", "--n", "200000", "--workers", "1"],
    ],
    ids=["gen", "sweep"],
)
def test_an_input_too_large_for_memory_exits_2(argv, tmp_path, capsys, monkeypatch):
    # The l_p build allocates the n x n matrix first; numpy's error for an array
    # it cannot allocate subclasses MemoryError. The fake raises before any
    # allocation, so no large array is made.
    message = "Unable to allocate 298. GiB for an array with shape (200000, 200000) and data type float64"

    def out_of_memory(points, p):
        raise MemoryError(message)

    monkeypatch.setattr("sdglab.metric._pairwise_lp", out_of_memory)
    out = tmp_path / "out"
    assert cli([*argv, "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": message, "type": "MemoryError"}
    assert not out.exists()


# With physical memory of 2 * 8 * 100^2 bytes, the planned peak of two n x n
# float64 arrays admits n = 100 and refuses n = 101, before any n x n array is
# made; no array here is larger than 101 x 101.
FITS = 100
TOO_LARGE = (
    f"n = {FITS + 1} plans a peak of {16 * (FITS + 1) ** 2} bytes (two n x n float64 arrays), "
    f"more than the {16 * FITS**2} bytes of physical memory"
)


@pytest.fixture
def small_memory(monkeypatch):
    monkeypatch.setattr("sdglab.graph.physical_memory", lambda: 16 * FITS**2)


@pytest.mark.parametrize(
    "build",
    [
        lambda n: gen_random_euclidean(n, 2, 2.0, 1),
        lambda n: gen_random_matrix_metric(n, 1),
        lambda n: Metric.from_matrix(1.0 - np.eye(n)),
        lambda n: WeightedGraph.from_edges(n, ()),
    ],
    ids=["lp", "random-matrix", "from-matrix", "from-edges"],
)
def test_each_n_by_n_allocator_checks_the_planned_peak(build, small_memory, monkeypatch):
    assert build(FITS).n == FITS
    with pytest.raises(ValueError) as refused:
        build(FITS + 1)
    assert str(refused.value) == TOO_LARGE
    monkeypatch.setattr("sdglab.graph.physical_memory", lambda: None)  # unknown: nothing is checked
    assert build(FITS + 1).n == FITS + 1


def test_the_machine_reports_its_memory():
    limit = physical_memory()
    assert limit is None or limit > 0


@pytest.mark.parametrize("kind", ["gen", "sweep", "graph-file"])
def test_an_input_over_the_planned_peak_exits_2(kind, small_memory, tmp_path, capsys):
    argv = {
        "gen": ["gen", "--family", "euclidean", "--n", str(FITS + 1)],
        "sweep": ["sweep", "--family", "euclidean", "--n", str(FITS + 1), "--workers", "1"],
    }.get(kind)
    if argv is None:
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"graph": {"n": FITS + 1, "edges": []}, "ranges": [1.0] * (FITS + 1)}))
        argv = ["msf", str(path)]
    out = tmp_path / "out"
    assert cli([*argv, "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err) == {"error": TOO_LARGE, "type": "ValueError"}
    assert not out.exists()
