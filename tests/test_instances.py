import json
import math

import numpy as np
import pytest

from sdglab.cli import cli
from sdglab.instances import (
    gen_random_euclidean,
    gen_random_matrix_metric,
    gen_random_ranges,
    read_instance,
)


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
