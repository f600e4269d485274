"""Instance families, seeded random generators, and JSON (de)serialization.

Named families:
  * star:  one hub at distance 1 from everyone, all other distances 2;
    with unit radii the disk graph is the hub star of degree n-1.
  * chain: consecutive points at distance 1, all other pairs at distance 2;
    with unit radii the disk graph is the unit path, while the hub star
    rooted at the first point has constant radius and depth.
  * c3:    a weighted triangle breaking the triangle inequality; its disk
    graph keeps the heavy edge, so the weight coefficient grows with W.
  * line:  collinear points where only the outer vertices see all middles;
    the radius pattern forces the disk graph through the far endpoint,
    making the coefficient grow linearly with n.

Random generators snap coordinates to a dyadic grid for the non-strictly-
convex norms (p = 1, p = inf, and every 1-D case) and build matrix metrics by
shortest-path closure over grid entries. On those grids all distance sums are
exact in 64-bit floats, so the exact comparisons used throughout the package
are safe. Euclidean p = 2 instances in d >= 2 use full-precision uniforms,
where exact ties have probability zero. All generators are pure in
(parameters, seed).
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .disk import RangeAssignment
from .graph import Forest, RootedTree, WeightedGraph, metric_mst, tree_parameters
from .metric import EUCLIDEAN_LP, EXPLICIT_MATRIX, Metric, MetricError, validate_metric

GRID_BITS = 26  # coordinate grid: multiples of 2^-26 in [0, 1]
MATRIX_GRID_BITS = 20

FAMILIES = ("star", "chain", "c3", "line", "euclidean", "matrix")


class InstanceFormatError(ValueError):
    """Raised when an instance file does not match the JSON schema."""


@dataclass(frozen=True)
class InstanceBundle:
    """A metric or weighted graph, its range assignment, and reference values."""

    family: str
    ranges: RangeAssignment
    metric: Metric | None = None
    graph: WeightedGraph | None = None
    reference: dict | None = None
    seed: int | None = None

    def __post_init__(self):
        if (self.metric is None) == (self.graph is None):
            raise ValueError("an instance holds exactly one of metric or graph")
        n = self.metric.n if self.metric is not None else self.graph.n
        if len(self.ranges) != n:
            raise ValueError(f"range assignment has {len(self.ranges)} radii for {n} vertices")

    @property
    def n(self) -> int:
        return self.metric.n if self.metric is not None else self.graph.n


def mix_seed(base: int, index: int) -> int:
    """Derive a per-instance seed: splitmix64 over base + index.

    This is the documented mixing function for reproducible sweeps; the same
    (base, index) pair always yields the same instance.
    """
    x = (base + 0x9E3779B97F4A7C15 * (index + 1)) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


def gen_star_metric(n: int) -> InstanceBundle:
    """Hub star metric with unit radii; n >= 3."""
    if n < 3:
        raise ValueError(f"star family needs n >= 3, got {n}")
    d = np.full((n, n), 2.0)
    d[0, :] = 1.0
    d[:, 0] = 1.0
    np.fill_diagonal(d, 0.0)
    metric = Metric.from_matrix(d)
    reference = {
        "sdg_degree": n - 1,
        "optimal": {"degree": 2, "radius": 1.0},
        "degree_coefficient": (n - 1) / 2,
        "weight_coefficient": 1.0,
    }
    return InstanceBundle(
        family="star", metric=metric, ranges=RangeAssignment.constant(n, 1.0), reference=reference
    )


def _chain_matrix(n: int) -> np.ndarray:
    d = np.full((n, n), 2.0)
    for i in range(n - 1):
        d[i, i + 1] = 1.0
        d[i + 1, i] = 1.0
    np.fill_diagonal(d, 0.0)
    return d


def gen_chain_metric(n: int) -> InstanceBundle:
    """Chain metric with unit radii; the disk graph is the unit path."""
    if n < 3:
        raise ValueError(f"chain family needs n >= 3, got {n}")
    metric = Metric.from_matrix(_chain_matrix(n))
    path = Forest.from_edges(n, [(i, i + 1, 1.0) for i in range(n - 1)])
    star_edges = [(0, 1, 1.0)] + [(0, i, 2.0) for i in range(2, n)]
    star = Forest.from_edges(n, star_edges)
    sdg_params = tree_parameters(RootedTree(path, 0))
    star_params = tree_parameters(RootedTree(star, 0))
    optimal = {"degree": 2, "depth": 1, "hop_diameter": 2}
    if n >= 4:
        # A hub star at an interior point reaches two neighbors at distance 1.
        optimal["radius"] = 2.0
        optimal["sum_single"] = float(2 * n - 4)
    reference = {
        "sdg_params": sdg_params.__dict__.copy(),
        "star_params": star_params.__dict__.copy(),
        "optimal": optimal,
        "weight_coefficient": 1.0,
    }
    return InstanceBundle(
        family="chain", metric=metric, ranges=RangeAssignment.constant(n, 1.0), reference=reference
    )


def gen_c3(w: float = 1000.0) -> InstanceBundle:
    """Weighted triangle (1, 2, W) with radii (1, W, W).

    For W > 3 the weights break the triangle inequality and the disk graph is
    the spanning tree {ab, bc} of weight W + 1 against an MST of weight 3.
    """
    if not w > 0:
        raise ValueError(f"edge weight W must be positive, got {w}")
    w = float(w)
    graph = WeightedGraph(n=3, edges=((0, 1, 1.0), (0, 2, 2.0), (1, 2, w)))
    reference = {
        "sdg_weight": w + 1.0,
        "mst_weight": 3.0,
        "weight_coefficient": (w + 1.0) / 3.0,
        "metric": w <= 3.0,
    }
    return InstanceBundle(
        family="c3",
        graph=graph,
        ranges=RangeAssignment(radii=(1.0, w, w)),
        reference=reference,
    )


def gen_line_graph(n: int, w: float | None = None, eps: float | None = None) -> InstanceBundle:
    """Collinear bipartite-ish graph whose disk graph routes through the far end.

    Points sit at 0, 1, 1+eps, ..., 1+(n-3)*eps, W+1 on a line; edges join the
    left endpoint to every middle point and every middle point to the right
    endpoint. Radii are 1 at the left endpoint and W elsewhere. Defaults
    W = 1000*n and eps = 1/(1000*n) keep the coefficient within 1% of n-2.
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
    graph = WeightedGraph(n=n, edges=tuple(edges))
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
        family="line", graph=graph, ranges=RangeAssignment(radii=radii), reference=reference
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
            if len({tuple(row) for row in pts}) == n:
                break
    else:
        while True:
            cells = rng.integers(0, (1 << GRID_BITS) + 1, size=(n, d))
            if len({tuple(row) for row in cells}) == n:
                break
        pts = cells.astype(float) / scale
    return Metric.euclidean(pts, p=p)


def gen_random_matrix_metric(n: int, seed: int) -> Metric:
    """Random matrix metric: grid entries in [1, 2] repaired by shortest-path
    closure, which forces the triangle inequality exactly.

    Any n >= 1 is accepted (n = 1 gives the 1x1 zero matrix); n = 0 raises
    ValueError. Draws for n >= 2 are unchanged by the one-point case.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = _rng(seed)
    scale = float(1 << MATRIX_GRID_BITS)
    cells = rng.integers(0, (1 << MATRIX_GRID_BITS) + 1, size=(n, n))
    d = 1.0 + cells.astype(float) / scale
    d = np.triu(d, 1)
    d = d + d.T
    # Floyd-Warshall closure; grid sums stay exact in 64-bit floats.
    for k in range(n):
        d = np.minimum(d, d[:, k : k + 1] + d[k : k + 1, :])
    np.fill_diagonal(d, 0.0)
    return Metric.from_matrix(d)


def gen_random_ranges(m: Metric, mode: str, seed: int) -> RangeAssignment:
    """Random radii: "uniform" draws in [min distance, diameter]; "biased"
    additionally lifts each radius to the heaviest incident MST edge, which
    forces the disk graph to contain the MST and hence be connected.

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
        mst = metric_mst(m)
        floor = [0.0] * m.n
        for u, v, w in mst.edges:
            floor[u] = max(floor[u], w)
            floor[v] = max(floor[v], w)
        radii = np.maximum(radii, floor)
    return RangeAssignment(radii=tuple(float(r) for r in radii))


# ---------------------------------------------------------------------------
# JSON instance schema
# ---------------------------------------------------------------------------

_TOP_KEYS = {"metric", "graph", "ranges", "family", "seed", "reference"}


def bundle_to_dict(bundle: InstanceBundle) -> dict:
    out: dict = {}
    if bundle.metric is not None:
        m = bundle.metric
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
            "n": bundle.graph.n,
            "edges": [[u, v, w] for u, v, w in bundle.graph.edges],
        }
    out["ranges"] = list(bundle.ranges.radii)
    out["family"] = bundle.family
    if bundle.seed is not None:
        out["seed"] = bundle.seed
    if bundle.reference is not None:
        out["reference"] = bundle.reference
    return out


def bundle_from_dict(data: dict) -> InstanceBundle:
    if not isinstance(data, dict):
        raise InstanceFormatError("instance file must hold a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise InstanceFormatError(f"unknown top-level fields: {sorted(unknown)}")
    if ("metric" in data) == ("graph" in data):
        raise InstanceFormatError("instance needs exactly one of 'metric' or 'graph'")
    if "ranges" not in data:
        raise InstanceFormatError("instance is missing 'ranges'")
    metric = graph = None
    if "metric" in data:
        spec = data["metric"]
        kind = spec.get("kind")
        if kind == EUCLIDEAN_LP:
            if set(spec) != {"kind", "p", "points"}:
                raise InstanceFormatError("euclidean metric needs exactly kind, p, points")
            p = math.inf if spec["p"] == "inf" else float(spec["p"])
            metric = Metric.euclidean(np.asarray(spec["points"], dtype=float), p=p)
        elif kind == EXPLICIT_MATRIX:
            if set(spec) != {"kind", "matrix"}:
                raise InstanceFormatError("matrix metric needs exactly kind, matrix")
            metric = Metric.from_matrix(np.asarray(spec["matrix"], dtype=float))
        else:
            raise InstanceFormatError(f"unknown metric kind {kind!r}")
    else:
        spec = data["graph"]
        if set(spec) != {"n", "edges"}:
            raise InstanceFormatError("graph needs exactly n, edges")
        graph = WeightedGraph(
            n=int(spec["n"]),
            edges=tuple((int(u), int(v), float(w)) for u, v, w in spec["edges"]),
        )
    return InstanceBundle(
        family=str(data.get("family", "custom")),
        metric=metric,
        graph=graph,
        ranges=RangeAssignment(radii=tuple(float(x) for x in data["ranges"])),
        reference=data.get("reference"),
        seed=data.get("seed"),
    )


def write_instance(bundle: InstanceBundle, path) -> None:
    Path(path).write_text(json.dumps(bundle_to_dict(bundle), indent=2, sort_keys=True) + "\n")


def read_instance(path) -> InstanceBundle:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"malformed JSON in {path}: {exc}") from exc
    return bundle_from_dict(data)
