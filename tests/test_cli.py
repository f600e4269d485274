"""Golden bytes and exit codes of the command-line front end.

Every SHA-256 below was measured on the commit that introduced this file, so a
refactor of the builders or the driver that changes one output byte fails here.
The `gen` digests of chain and star were re-measured once, when their
`reference` payload shrank to the weight coefficient alone.
"""
import dataclasses
import hashlib
import json
from pathlib import Path

import pytest

from sdglab import assignment, decomposition, sweep
from sdglab.cli import cli
from sdglab.hamiltonian import EXACT_LIMIT, exact_min_ham_path
from sdglab.instances import read_instance

DATA = Path(__file__).resolve().parent.parent / "data"
FIXTURES = ("chain_n5", "star_n5", "c3_w1000", "line_n5_w1000")
METRIC_FIXTURES = ("chain_n5", "star_n5")

FIXTURE_SHA256 = {
    ("chain_n5", "sdg"): "827a272bb963f599d9bee099a1219f1bfbcdac41e4a3ee17c042c2c051006ddd",
    ("chain_n5", "msf"): "45a63d9f5b3e299131ad9d451372ddece0c9a9dc125347bfbbd410b7d337128e",
    ("chain_n5", "decompose"): "e0eea628088345ca753a54289ea2d1caf7ab7bfd8f0e1bc8e45cad6f90d9388e",
    ("star_n5", "sdg"): "c7acd00d5a342da2d9f5278c5ae032c3009abc8867a7c705593031e3b89f8d38",
    ("star_n5", "msf"): "bfebb9df9d5389512df4fa37f0006e6b4b4b6e646d30657db706472736d8a4bc",
    ("star_n5", "decompose"): "c8b5e43d3a50539b311944437557c9c6df547807fe55ff1f5153e438a357e9ae",
    ("c3_w1000", "sdg"): "a1e7b2fdb065abdc4e3bc687fa6e7906316db4f35468dedf9a7186e91d6ac427",
    ("c3_w1000", "msf"): "15d78d14879a785293e1ebd1b81f20276cb0e3256250632e1a360fb8606384f2",
    ("c3_w1000", "decompose"): "493f3992e07bfc49c3b12738ffbd76da04ef4d96f4d83d40ad149368262d92b7",
    ("line_n5_w1000", "sdg"): "abf3b8e19ec3d71c5582fb5d7878ed23306096715bc462918efc38d73382bf97",
    ("line_n5_w1000", "msf"): "b98dd00e84d9b13f09abace4f5c3b3c77265f3e02bd8db7e7d442851e00e3c5a",
    ("line_n5_w1000", "decompose"): "29e2b7da6d3df1720042a72bd3728f6d9b056acc64f9189a745f840cfdef2191",
}

GEN_ARGS = {
    "star": (["--n", "7"], "f49de60af2e6ff6c9b74f9bfab7f7cb84ed9d34f77d7ef2c10b325cd81953855"),
    "chain": (["--n", "6"], "6fd98233eee8de7533e5b935a836abb6c202d781947e8a5eddc31eab1c9c64b7"),
    "c3": (["--w", "50"], "e287914c4154862936e135bd2e403077ec4536abb07f21e9a3632b5a9170ebf6"),
    "line": (["--n", "6"], "5f56d2d542845371fe3c338b90e13dde345bb0658de40d2b4a5211fb9f0f5c37"),
    "euclidean": (
        ["--n", "9", "--dim", "3", "--p", "inf", "--seed", "5", "--ranges", "biased"],
        "e60ab158c61acce4f844120f81099e5c62f7e455307c3c90aaaf0ef4cdf91974",
    ),
    "matrix": (["--n", "8", "--seed", "4"], "675777e7c1274996a51075e3dd94eb3f80dd9261b42ac7aa62476ee41fd29df8"),
}

SWEEP_ARGS = {
    "euclidean": (
        ["--family", "euclidean", "--dim", "1,3", "--p", "1,inf", "--n", "5,9"],
        "842556f748d7ed3ad472e4b0ec358af7f242d8a00f800db6304f51dcbac74752",
    ),
    "matrix": (["--family", "matrix", "--n", "5,9"], "afbecf8b8e960e79a195359950f71d09062da805920c8812f98844e23c2a6d4d"),
    "star": (["--family", "star", "--n", "5,9"], "96e4a76fe7ffa107bc0fbb879ed4e6c1c966d4ae2f40bea961f863e2bfd2a55c"),
    "chain": (["--family", "chain", "--n", "5,9"], "daf1b50ca9cf35737c3970141535d50120fb0b47af2168cca0f916e2551d4d06"),
}
EUCLIDEAN_SVG_SHA256 = "8cbc9f6ed5883eae9a404392525c8df08df845de19948a29c05f448d7a175f1a"
EUCLIDEAN_SUMMARY_SHA256 = "071818c9c1a0363b6e1af310eac0095e1107eea58cfaed08f0233e4f322ce643"


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fixture(name: str) -> str:
    return str(DATA / f"{name}.json")


@pytest.mark.parametrize("fixture,command", sorted(FIXTURE_SHA256))
def test_fixture_output_bytes(fixture, command, tmp_path):
    out = tmp_path / "out.json"
    assert cli([command, _fixture(fixture), "--out", str(out)]) == 0
    assert _sha(out) == FIXTURE_SHA256[fixture, command]


@pytest.mark.parametrize("fixture", FIXTURES)
@pytest.mark.parametrize("command", ["trace", "assign"])
def test_trace_and_assign_need_a_metric(fixture, command, tmp_path, capsys):
    code = cli([command, _fixture(fixture), "--out", str(tmp_path / "out.json")])
    if fixture in METRIC_FIXTURES:
        assert code == 0
    else:
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": f"{command} requires a metric instance", "type": "InstanceFormatError"}


@pytest.mark.parametrize("fixture", FIXTURES)
def test_decompose_verify_round_trip_and_tamper(fixture, tmp_path):
    cert_path = tmp_path / "cert.json"
    assert cli(["decompose", _fixture(fixture), "--out", str(cert_path)]) == 0
    report = tmp_path / "verify.json"
    assert cli(["verify", _fixture(fixture), str(cert_path), "--out", str(report)]) == 0
    assert json.loads(report.read_text()) == {"ok": True, "violations": []}

    payload = json.loads(cert_path.read_text())
    cert = payload["certificate"]
    if cert["tilde_e"]:
        cert["tilde_e"] = cert["tilde_e"][1:]
    else:
        cert["isolated"] = []
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(payload))
    assert cli(["verify", _fixture(fixture), str(tampered), "--out", str(report)]) == 1
    result = json.loads(report.read_text())
    assert result["ok"] is False and result["violations"]


def test_decompose_exact_at_the_limit_round_trips(tmp_path):
    instance, cert = tmp_path / "inst.json", tmp_path / "cert.json"
    gen = ["gen", "--family", "euclidean", "--n", str(EXACT_LIMIT), "--seed", "7", "--ranges", "biased"]
    assert cli([*gen, "--out", str(instance)]) == 0
    assert cli(["decompose", str(instance), "--ham", "exact", "--out", str(cert)]) == 0
    payload = json.loads(cert.read_text())
    h = exact_min_ham_path(read_instance(str(instance)).space)
    assert (tuple(payload["ham_order"]), payload["ham_weight"]) == (h.order, h.weight)
    assert payload["verified"] is True
    report = tmp_path / "verify.json"
    assert cli(["verify", str(instance), str(cert), "--out", str(report)]) == 0
    assert json.loads(report.read_text()) == {"ok": True, "violations": []}


def test_decompose_exact_above_the_limit_exits_2(tmp_path, capsys):
    instance, cert = tmp_path / "inst.json", tmp_path / "cert.json"
    assert cli(["gen", "--family", "euclidean", "--n", "19", "--seed", "7", "--out", str(instance)]) == 0
    assert cli(["decompose", str(instance), "--ham", "exact", "--out", str(cert)]) == 2
    assert not cert.exists()
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "exact solver supports 2 <= n <= 18, got n=19", "type": "ValueError"}


@pytest.mark.parametrize("family", sorted(GEN_ARGS))
def test_gen_bytes(family, tmp_path):
    args, digest = GEN_ARGS[family]
    out = tmp_path / "gen.json"
    assert cli(["gen", "--family", family, *args, "--out", str(out)]) == 0
    assert _sha(out) == digest


@pytest.mark.parametrize("family", sorted(SWEEP_ARGS))
def test_sweep_csv_bytes(family, tmp_path, capsys):
    args, digest = SWEEP_ARGS[family]
    out = tmp_path / "sweep.csv"
    assert cli(["sweep", "--seed", "3", "--workers", "1", *args, "--out", str(out)]) == 0
    assert _sha(out) == digest


def test_sweep_svg_and_summary_bytes(tmp_path, capsys):
    svg = tmp_path / "sweep.svg"
    args, _ = SWEEP_ARGS["euclidean"]
    assert cli(["sweep", "--seed", "3", "--workers", "1", *args, "--svg", str(svg)]) == 0
    assert _sha(svg) == EUCLIDEAN_SVG_SHA256
    summary = capsys.readouterr().out
    assert hashlib.sha256(summary.encode()).hexdigest() == EUCLIDEAN_SUMMARY_SHA256


@pytest.mark.parametrize("flag,value", [("--dim", "0"), ("--p", "0")])
def test_zero_dimension_or_norm_exits_2(flag, value, tmp_path, capsys):
    assert cli(["gen", "--family", "euclidean", "--n", "5", flag, value, "--out", str(tmp_path / "g.json")]) == 2
    sweep = ["sweep", "--family", "euclidean", "--n", "5", "--workers", "1", flag, value]
    assert cli([*sweep, "--out", str(tmp_path / "s.csv")]) == 2
    assert not (tmp_path / "s.csv").exists()
    assert json.loads(capsys.readouterr().err.splitlines()[-1])["type"] == "ValueError"


@pytest.mark.parametrize("flag,value", [("--w", "1"), ("--eps", "0.001"), ("--work", "1")])
def test_sweep_rejects_graph_family_parameters(flag, value, tmp_path, capsys):
    # No sweep family reads --w or --eps; gen keeps them for c3 and line.
    # Sweep flags are never abbreviated, so --w is not taken for --workers.
    out = tmp_path / "s.csv"
    with pytest.raises(SystemExit) as exc:
        cli(["sweep", "--family", "chain", "--n", "5", "--workers", "1", flag, value, "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


# Exit 1: each failure is forced by replacing one bound or check, with the
# rest of the command left to run as it would.


def _sweep_violations(monkeypatch, tmp_path, capsys, target, replacement):
    """Runs the pinned Euclidean sweep (16 rows) with target replaced; returns
    its summary, its CSV rows, the ids over their bound and the ids whose
    certificate failed, after checking its stderr error against them."""
    monkeypatch.setattr(*target, replacement)
    out = tmp_path / "sweep.csv"
    args, _ = SWEEP_ARGS["euclidean"]
    assert cli(["sweep", "--seed", "3", "--workers", "1", *args, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    header, *lines = out.read_text().splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    over = [row["id"] for row in rows if float(row["coefficient"]) > float(row["bound_2log"])]
    failed = [row["id"] for row in rows if row["cert_ok"] != "true"]
    assert len(rows) == 16 and len(over + failed) > 10  # more than the error lists
    assert json.loads(captured.err) == {
        "error": f"{len(over)} bound violations, {len(failed)} failed certificates",
        "bound_violations": over[:10],
        "failed_certificates": failed[:10],
    }
    return captured.out, rows, over, failed


def _listed(summary: str, tag: str) -> list[str]:
    return [line.split()[1] for line in summary.splitlines() if line.startswith(f"  {tag} ")]


def test_sweep_over_its_bound_exits_1(monkeypatch, tmp_path, capsys):
    summary, rows, over, failed = _sweep_violations(
        monkeypatch, tmp_path, capsys, (sweep, "lightness_bound"), lambda n: 0.5
    )
    assert all(row["bound_2log"] == "0.5" and row["cert_ok"] == "true" for row in rows) and not failed
    assert f"bound violations: {len(over)}" in summary and "failed certificates" not in summary
    assert _listed(summary, "VIOLATION") == [f"id={i}" for i in over]


def test_sweep_with_a_failed_certificate_exits_1(monkeypatch, tmp_path, capsys):
    summary, rows, over, failed = _sweep_violations(
        monkeypatch, tmp_path, capsys, (sweep, "verify_certificate"), lambda *args: ["forced"]
    )
    assert all(row["cert_ok"] == "false" for row in rows) and failed == [row["id"] for row in rows]
    # Failed certificates are counted apart from coefficients over their bound.
    assert not over and "bound violations: 0" in summary and not _listed(summary, "VIOLATION")
    assert f"failed certificates: {len(failed)}" in summary
    assert _listed(summary, "FAILED") == [f"id={i}" for i in failed]


@pytest.mark.parametrize("command", ["msf", "trace"])
def test_coefficient_over_its_bound_exits_1_without_output(command, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(decomposition, "lightness_bound", lambda n: 0.5)
    out = tmp_path / "out.json"
    assert cli([command, _fixture("chain_n5"), "--out", str(out)]) == 1
    assert not out.exists()
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "weight coefficient 1.0 exceeds 2*log_(5/4) n = 0.5", "type": "BoundViolationError"}


def test_assignment_over_its_cost_ratio_bound_exits_1(monkeypatch, tmp_path):
    monkeypatch.setattr(assignment, "lightness_bound", lambda n: 0.25)
    out = tmp_path / "assign.json"
    assert cli(["assign", _fixture("chain_n5"), "--out", str(out)]) == 1
    report = json.loads(out.read_text())
    assert report["connected_input"] and report["feasible"]
    assert report["cost_ratio_bound"] == 0.5 < report["cost_ratio"]


def test_decompose_of_a_failing_certificate_exits_1(monkeypatch, tmp_path):
    real = decomposition.decompose
    monkeypatch.setattr(decomposition, "decompose", lambda p, h: dataclasses.replace(real(p, h), isolated=()))
    out = tmp_path / "cert.json"
    assert cli(["decompose", _fixture("chain_n5"), "--out", str(out)]) == 1
    payload = json.loads(out.read_text())
    assert payload["verified"] is False and payload["violations"]
    assert payload["certificate"]["isolated"] == []
