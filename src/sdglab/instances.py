"""Instance families, seeded random generators, and JSON (de)serialization.

Named families:
  * star:  one hub at distance 1 from everyone, all other distances 2;
    with unit radii the disk graph is the hub star of degree n-1.
  * chain: consecutive points at distance 1, all other pairs at distance 2;
    with unit radii the disk graph is the unit path, itself an MST.
  * c3:    a weighted triangle breaking the triangle inequality; its disk
    graph keeps the heavy edge, so the weight coefficient grows with W.
  * line:  collinear points where only the outer vertices see all middles;
    the radius pattern forces the disk graph through the far endpoint,
    making the coefficient grow linearly with n.

Random generators snap coordinates to a dyadic grid for the non-strictly-
convex norms (p = 1, p = inf, and every 1-D case) and draw matrix metrics from
grid entries in [1, 2]. On those grids all distance sums are exact in 64-bit
floats, so the exact comparisons used throughout the package are safe.
Euclidean p = 2 instances in d >= 2 use full-precision uniforms, where exact
ties have probability zero. All generators are pure in (parameters, seed).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .disk import RangeAssignment
from .graph import Space, WeightedGraph, check_planned_peak, row_blocks
from .metric import EUCLIDEAN_LP, EXPLICIT_MATRIX, Metric

GRID_BITS = 26  # coordinate grid: multiples of 2^-26 in [0, 1]
MATRIX_GRID_BITS = 20

FAMILIES = ("star", "chain", "c3", "line", "euclidean", "matrix")


class InstanceFormatError(ValueError):
    """Raised when an instance file does not match the JSON schema."""


@dataclass(frozen=True)
class InstanceBundle:
    """A space (metric or weighted graph), its range assignment, and reference values."""

    family: str
    space: Space
    ranges: RangeAssignment
    reference: dict | None = None
    seed: int | None = None

    def __post_init__(self):
        if len(self.ranges) != self.n:
            raise ValueError(f"range assignment has {len(self.ranges)} radii for {self.n} vertices")

    @property
    def n(self) -> int:
        return self.space.n


def mix_seed(base: int, index: int) -> int:
    """Derive a per-instance seed: splitmix64 over base + index.

    This is the documented mixing function for reproducible sweeps; the same
    (base, index) pair always yields the same instance.
    """
    x = (base + 0x9E3779B97F4A7C15 * (index + 1)) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def _unit_radii(family: str, d: np.ndarray) -> InstanceBundle:
    """The matrix metric d, zeroed on the diagonal, with unit radii; for star
    and chain the disk graph is an MST, so the weight coefficient is 1."""
    np.fill_diagonal(d, 0.0)
    ranges = RangeAssignment.constant(len(d), 1.0)
    return InstanceBundle(family, Metric.from_matrix(d), ranges, reference={"weight_coefficient": 1.0})


def gen_star_metric(n: int) -> InstanceBundle:
    """Hub star metric with unit radii; n >= 3."""
    if n < 3:
        raise ValueError(f"star family needs n >= 3, got {n}")
    d = np.full((n, n), 2.0)
    d[0, :] = d[:, 0] = 1.0
    return _unit_radii("star", d)


def _chain_matrix(n: int) -> np.ndarray:
    """Distance 1 between consecutive points, 2 between all other pairs."""
    return 2.0 - np.eye(n, k=1) - np.eye(n, k=-1)


def gen_chain_metric(n: int) -> InstanceBundle:
    """Chain metric with unit radii; the disk graph is the unit path."""
    if n < 3:
        raise ValueError(f"chain family needs n >= 3, got {n}")
    return _unit_radii("chain", _chain_matrix(n))


def gen_c3(w: float = 1000.0) -> InstanceBundle:
    """Weighted triangle (1, 2, W) with radii (1, W, W).

    For W > 3 the weights break the triangle inequality and the disk graph is
    the spanning tree {ab, bc} of weight W + 1 against an MST of weight 3.
    """
    if not w > 0:
        raise ValueError(f"edge weight W must be positive, got {w}")
    w = float(w)
    graph = WeightedGraph.from_edges(3, ((0, 1, 1.0), (0, 2, 2.0), (1, 2, w)))
    reference = {
        "sdg_weight": w + 1.0,
        "mst_weight": 3.0,
        "weight_coefficient": (w + 1.0) / 3.0,
        "metric": w <= 3.0,
    }
    return InstanceBundle(
        family="c3",
        space=graph,
        ranges=RangeAssignment(radii=(1.0, w, w)),
        reference=reference,
    )


def gen_line_graph(n: int, w: float | None = None, eps: float | None = None) -> InstanceBundle:
    """Collinear bipartite-ish graph whose disk graph routes through the far end.

    Points sit at 0, 1, 1+eps, ..., 1+(n-3)*eps, W+1 on a line; edges join the
    left endpoint to every middle point and every middle point to the right
    endpoint. Radii are 1 at the left endpoint and W elsewhere. Defaults
    W = 1000*n and eps = 1/(1000*n) keep the coefficient within 1% of n-2.

    The graph is bipartite between the two endpoints and the n-2 middle
    points, so it has a Hamiltonian path only for n = 4 and 5; for n >= 6 the
    exact path solver raises and `sdglab decompose` exits 2.
    """
    if n < 4:
        raise ValueError(f"line family needs n >= 4, got {n}")
    w = float(w) if w is not None else 1000.0 * n
    eps = float(eps) if eps is not None else 1.0 / (1000.0 * n)
    if not (w > n and 0 < eps < 1.0 / n):
        raise ValueError(f"line family needs W > n and 0 < eps < 1/n, got W={w}, eps={eps}")
    coords = [0.0] + [1.0 + i * eps for i in range(n - 2)] + [w + 1.0]
    edges = []
    for i in range(1, n - 1):
        edges.append((0, i, coords[i] - coords[0]))
        edges.append((i, n - 1, coords[n - 1] - coords[i]))
    graph = WeightedGraph.from_edges(n, edges)
    radii = (1.0,) + (w,) * (n - 1)
    mst_weight = math.fsum([coords[i] for i in range(1, n - 1)] + [coords[n - 1] - coords[n - 2]])
    sdg_weight = math.fsum([coords[n - 1] - coords[i] for i in range(1, n - 1)] + [coords[1]])
    reference = {
        "coords": coords,
        "w": w,
        "eps": eps,
        "mst_weight": mst_weight,
        "sdg_weight": sdg_weight,
        "weight_coefficient": sdg_weight / mst_weight,
        "coefficient_target": float(n - 2),
    }
    return InstanceBundle(
        family="line", space=graph, ranges=RangeAssignment(radii=radii), reference=reference
    )


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def gen_random_euclidean(n: int, d: int, p: float, seed: int) -> Metric:
    """Uniform points in [0, 1]^d under the l_p norm, deterministic in seed.

    Coordinates are grid-snapped unless p = 2 in d >= 2 (see module notes).
    Any n >= 1 is accepted, so a one-point metric can be drawn; n = 0 or
    d < 1 raises ValueError. Draws for n >= 2 are unaffected by the
    one-point case.
    """
    if n < 1 or d < 1:
        raise ValueError(f"need n >= 1 and d >= 1, got n={n}, d={d}")
    if not (p >= 1.0):
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    rng = _rng(seed)
    scale = float(1 << GRID_BITS)
    if d == 1:
        # Distinct grid values so all distances are positive and exact.
        cells = rng.choice((1 << GRID_BITS) + 1, size=n, replace=False)
        pts = (cells.astype(float) / scale)[:, None]
    elif p == 2.0:
        while True:
            pts = rng.random((n, d))
            if len(set(map(tuple, pts.tolist()))) == n:
                break
    else:
        while True:
            cells = rng.integers(0, (1 << GRID_BITS) + 1, size=(n, d))
            if len(set(map(tuple, cells.tolist()))) == n:
                break
        pts = cells.astype(float) / scale
    return Metric.euclidean(pts, p=p)


def gen_random_matrix_metric(n: int, seed: int) -> Metric:
    """Random matrix metric: symmetric grid entries in [1, 2]. These satisfy
    the triangle inequality as drawn, since d(u,w) <= 2 <= d(u,v) + d(v,w).

    Any n >= 1 is accepted (n = 1 gives the 1x1 zero matrix); n = 0 raises
    ValueError. Draws for n >= 2 are unchanged by the one-point case.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    check_planned_peak(n)
    rng = _rng(seed)
    cells = rng.integers(0, (1 << MATRIX_GRID_BITS) + 1, size=(n, n))
    # The draws become distances in place. With b = MATRIX_GRID_BITS and an
    # integer c in [0, 2^b], the float64 1 + c / 2^b has the bits of 1.0 plus
    # c shifted to the top of the 52-bit mantissa (c = 2^b carries into the
    # exponent, giving 2.0), so an integer shift and add give it exactly, with
    # no float temporary. The lower triangle then mirrors the upper one a row
    # block at a time.
    cells <<= 52 - MATRIX_GRID_BITS
    cells += np.float64(1.0).view(np.int64)
    d = cells.view(float)
    for rows in row_blocks(n):
        d[rows, : rows.start] = d[: rows.start, rows].T
        square = np.triu(d[rows, rows], 1)
        d[rows, rows] = square + square.T
    return Metric.adopt_matrix(d)


def gen_random_ranges(m: Metric, mode: str, seed: int) -> RangeAssignment:
    """Random radii: "uniform" draws in [min distance, diameter]; "biased"
    additionally lifts each radius to the heaviest incident MST edge, which
    forces the disk graph to contain the MST and hence be connected. Both
    bounds come from the row extremes that the metric's constructor stored
    (`Metric.row_extremes`), so uniform radii read no n x n array.

    A one-point metric gets the radius 0.0 in both modes, before any random
    draw: there is no distance to draw between and no MST edge to lift to.
    Draws for n >= 2 are unchanged by this case.
    """
    if mode not in ("uniform", "biased"):
        raise ValueError(f"unknown range mode {mode!r}")
    if m.n == 1:
        return RangeAssignment(radii=(0.0,))
    rng = _rng(seed)
    lo, hi = m.min_distance(), m.diameter()
    radii = rng.uniform(lo, hi, size=m.n)
    if mode == "biased":
        radii = np.maximum(radii, m.mst.heaviest_incident())
    return RangeAssignment(radii=tuple(radii.tolist()))


# ---------------------------------------------------------------------------
# JSON instance schema
# ---------------------------------------------------------------------------

_TOP_KEYS = {"metric", "graph", "ranges", "family", "seed", "reference"}


def bundle_to_dict(bundle: InstanceBundle) -> dict:
    out: dict = {}
    if bundle.space.is_metric:
        m = bundle.space
        if m.kind == EUCLIDEAN_LP:
            out["metric"] = {
                "kind": EUCLIDEAN_LP,
                "p": "inf" if math.isinf(m.p) else m.p,
                "points": [[float(x) for x in row] for row in m.points],
            }
        else:
            out["metric"] = {
                "kind": EXPLICIT_MATRIX,
                "matrix": [[float(x) for x in row] for row in m.matrix],
            }
    else:
        out["graph"] = {
            "n": bundle.space.n,
            "edges": [[u, v, w] for u, v, w in bundle.space.edges],
        }
    out["ranges"] = list(bundle.ranges.radii)
    out["family"] = bundle.family
    if bundle.seed is not None:
        out["seed"] = bundle.seed
    if bundle.reference is not None:
        out["reference"] = bundle.reference
    return out


def _list(values, what: str) -> list:
    if not isinstance(values, list):
        raise InstanceFormatError(f"{what} must be a JSON list, got {values!r}")
    return values


def _float(x, what: str) -> float:
    if type(x) not in (int, float):  # JSON true, false and null are not numbers
        raise InstanceFormatError(f"{what} must be a number, got {x!r}")
    return float(x)


def _floats(values, what: str) -> list[float]:
    return [_float(x, what) for x in _list(values, what)]


def bundle_from_dict(data: dict) -> InstanceBundle:
    """Parse `bundle_to_dict` output; any schema mismatch raises InstanceFormatError."""
    if not isinstance(data, dict):
        raise InstanceFormatError("instance file must hold a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise InstanceFormatError(f"unknown top-level fields: {sorted(unknown)}")
    if ("metric" in data) == ("graph" in data):
        raise InstanceFormatError("instance needs exactly one of 'metric' or 'graph'")
    if "ranges" not in data:
        raise InstanceFormatError("instance is missing 'ranges'")
    if type(data.get("family", "")) is not str:
        raise InstanceFormatError(f"'family' must be a string, got {data['family']!r}")
    if type(data.get("seed", 0)) is not int:  # JSON true, false and null are not seeds
        raise InstanceFormatError(f"'seed' must be an integer, got {data['seed']!r}")
    key = "metric" if "metric" in data else "graph"
    spec = data[key]
    if not isinstance(spec, dict):
        raise InstanceFormatError(f"{key!r} must be a JSON object, got {spec!r}")
    if key == "metric":
        kind = spec.get("kind")
        if kind == EUCLIDEAN_LP:
            if set(spec) != {"kind", "p", "points"}:
                raise InstanceFormatError("euclidean metric needs exactly kind, p, points")
            p = math.inf if spec["p"] == "inf" else _float(spec["p"], "'p'")
            points = [_floats(row, "a point") for row in _list(spec["points"], "'points'")]
            space = Metric.euclidean(np.asarray(points, dtype=float), p=p)
        elif kind == EXPLICIT_MATRIX:
            if set(spec) != {"kind", "matrix"}:
                raise InstanceFormatError("matrix metric needs exactly kind, matrix")
            rows = [_floats(row, "a matrix row") for row in _list(spec["matrix"], "'matrix'")]
            space = Metric.from_matrix(np.asarray(rows, dtype=float))
        else:
            raise InstanceFormatError(f"unknown metric kind {kind!r}")
    else:
        if set(spec) != {"n", "edges"}:
            raise InstanceFormatError("graph needs exactly n, edges")
        if type(spec["n"]) is not int:
            raise InstanceFormatError(f"graph n must be an integer, got {spec['n']!r}")
        if spec["n"] < 0:
            raise InstanceFormatError(f"graph n must be >= 0, got {spec['n']}")
        if spec["n"] != len(_list(data["ranges"], "'ranges'")):  # before allocating n x n
            raise InstanceFormatError(f"graph n={spec['n']} does not match {len(data['ranges'])} ranges")
        edges = []
        for row in _list(spec["edges"], "'edges'"):
            if not (isinstance(row, list) and len(row) == 3 and type(row[0]) is int and type(row[1]) is int):
                raise InstanceFormatError(f"graph edge row {row!r} is not [u, v, weight]")
            edges.append((row[0], row[1], _float(row[2], "an edge weight")))
        space = WeightedGraph.from_edges(spec["n"], edges)
    return InstanceBundle(
        family=data.get("family", "custom"),
        space=space,
        ranges=RangeAssignment(radii=tuple(_floats(data["ranges"], "'ranges'"))),
        reference=data.get("reference"),
        seed=data.get("seed"),
    )


def write_instance(bundle: InstanceBundle, path) -> None:
    Path(path).write_text(json.dumps(bundle_to_dict(bundle), indent=2, sort_keys=True) + "\n")


def read_json(path):
    """Parse a JSON file; malformed or too deeply nested text raises InstanceFormatError."""
    try:
        return json.loads(Path(path).read_text())
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InstanceFormatError(f"malformed JSON in {path}: {exc}") from exc


def read_instance(path) -> InstanceBundle:
    return bundle_from_dict(read_json(path))
