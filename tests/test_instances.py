import json
import math

import numpy as np
import pytest

from sdglab.cli import cli
from sdglab.decomposition import Prepared, weight_coefficient
from sdglab.disk import build_sdg
from sdglab.instances import (
    InstanceFormatError,
    bundle_from_dict,
    gen_chain_metric,
    gen_random_euclidean,
    gen_random_matrix_metric,
    gen_random_ranges,
    gen_star_metric,
    read_instance,
)

import support


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_one_point_euclidean_gets_zero_radius(d, p):
    m = gen_random_euclidean(1, d, p, 17)
    assert m.n == 1 and m.points.shape == (1, d)
    for mode in ("uniform", "biased"):
        assert gen_random_ranges(m, mode, 18).radii == (0.0,)


def test_one_point_matrix_gets_zero_radius():
    m = gen_random_matrix_metric(1, 17)
    assert m.n == 1 and np.array_equal(m.matrix, np.zeros((1, 1)))
    for mode in ("uniform", "biased"):
        assert gen_random_ranges(m, mode, 18).radii == (0.0,)


def test_generators_reject_empty_and_dimensionless():
    with pytest.raises(ValueError):
        gen_random_euclidean(0, 2, 2.0, 1)
    with pytest.raises(ValueError):
        gen_random_euclidean(3, 0, 2.0, 1)
    with pytest.raises(ValueError):
        gen_random_matrix_metric(0, 1)


@pytest.mark.parametrize("family", ["euclidean", "matrix"])
def test_cli_one_point_instance(family, tmp_path, capsys):
    path = tmp_path / "one.json"
    assert cli(["gen", "--family", family, "--n", "1", "--out", str(path)]) == 0
    bundle = read_instance(path)
    assert bundle.n == 1 and bundle.family == family
    assert bundle.ranges.radii == (0.0,)
    capsys.readouterr()
    # The bound and the certificate need two points: input error, not a traceback.
    for command in ("msf", "trace", "decompose", "assign"):
        assert cli([command, str(path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["type"] == "ValueError"
        assert err["error"] == f"{command} needs at least two points, got n=1"
    assert cli(["sweep", "--family", family, "--n", "1", "--workers", "1"]) == 2
    assert json.loads(capsys.readouterr().err)["type"] == "ValueError"


def test_malformed_edge_row_is_named(tmp_path, capsys):
    data = {"graph": {"n": 2, "edges": [[0, 1]]}, "ranges": [1.0, 1.0]}
    with pytest.raises(InstanceFormatError, match=r"graph edge row \[0, 1\] is not \[u, v, weight\]"):
        bundle_from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert cli(["sdg", str(path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "graph edge row [0, 1] is not [u, v, weight]", "type": "InstanceFormatError"}


@pytest.mark.parametrize(
    "data",
    [
        {"metric": {"kind": "euclidean_lp", "p": 2.0, "points": [[0.0], [math.nan]]}, "ranges": [1.0, 1.0]},
        {"metric": {"kind": "euclidean_lp", "p": 2.0, "points": [[0.0, 1.0], [1e308, 1e308]]}, "ranges": [1.0, 1.0]},
        {"graph": {"n": 2, "edges": [[0, 1, math.inf]]}, "ranges": [1.0, 1.0]},
        {"graph": {"n": 2, "edges": [[0, 1, math.nan]]}, "ranges": [1.0, 1.0]},
    ],
)
def test_cli_rejects_non_finite_instances(data, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))  # writes the NaN / Infinity literals
    for command in ("sdg", "msf"):
        assert cli([command, str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["type"] == "ValueError"


def test_chain_and_star_reference_is_the_coefficient():
    for n in range(3, 41):
        chain, star = gen_chain_metric(n), gen_star_metric(n)
        path = build_sdg(chain.space, chain.ranges).edges
        assert {(u, v) for u, v, _ in path} == {(i, i + 1) for i in range(n - 1)}
        for b in (chain, star):
            assert b.reference == {"weight_coefficient": 1.0}
            assert weight_coefficient(Prepared(b.space, b.ranges)).coefficient == b.reference["weight_coefficient"]


def test_matrix_metric_is_closed_as_drawn():
    # Entries in [1, 2] already satisfy d(u,w) <= 2 <= d(u,v) + d(v,w).
    for n in (2, 3, 5, 16, 64):
        for seed in range(200):
            d = gen_random_matrix_metric(n, seed).matrix
            assert np.array_equal(support.shortest_path_closure(d), d)
