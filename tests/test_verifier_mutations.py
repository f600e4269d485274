"""Every rejection in `verify_certificate` fires on a one-field mutation.

Each row of `ROWS` changes one input of a valid check (a certificate field,
the forest or the path) and names, as a regular expression, a message the
verifier must then report. The rows marked forged store an edge weight that
differs from the space's d(u, v); the verifier weighs every pair from the
space, so the stated weight cannot hide a heavier edge.

`test_every_check_has_a_row` reads the message templates of the verifier's
`problems.append(...)` calls with `ast` and fails on any template that no row
names, so a check added later cannot go untested.
"""
import ast
import dataclasses
import functools
import inspect
import re

import pytest

from sdglab.decomposition import Prepared, verify_certificate
from sdglab.graph import Forest, canonical_edge, edge_key
from sdglab.hamiltonian import HamPath
from sdglab.sweep import build_instance, standard_suite

# Every certificate field is non-empty here, and 3 path edges outside the disk
# graph are left unretired.
BASE = "euclidean-d3p1-n023-biased-t0"


class Case:
    """A prepared instance with its valid certificate and mutation helpers."""

    def __init__(self, spec_id: str):
        spec = next(s for s in standard_suite(1, trials=1) if s.id == spec_id)
        bundle = build_instance(spec)
        self.p = Prepared(bundle.space, bundle.ranges)
        self.cert = self.p.certificate
        order = self.p.path.order
        self.path = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
        forest = self.p.msf.edge_pairs()
        n = self.p.space.n
        self.off_forest = next(
            (u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in forest | self.path
        )

    def edge(self, pair, w=None):
        u, v = pair
        return canonical_edge(u, v, self.p.space.matrix[u, v] if w is None else w)

    def min_endpoint(self, e) -> int:
        r = self.p.r
        return e[0] if r[e[0]] < r[e[1]] else e[1]

    def check(self, f=None, h=None, **fields) -> list[str]:
        """Problems after replacing the forest, the path or certificate fields."""
        cert = dataclasses.replace(self.cert, **fields)
        return verify_certificate(self.p.space, self.p.r, f or self.p.msf, h or self.p.path, cert)


@functools.cache
def _case(spec_id: str = BASE) -> Case:
    return Case(spec_id)


def _at(values: tuple, i: int, e) -> tuple:
    return values[:i] + (e,) + values[i + 1:]


def _heaviest_forest_edge(b: Case):
    return max(b.p.msf.edges, key=edge_key)


def _far_from_retiring_endpoint(b: Case):
    """The pair from star_h[0]'s smaller-radius endpoint to its farthest point."""
    me = b.min_endpoint(b.cert.star_h[0])
    return (me, int(b.p.space.matrix[me].argmax()))


def _not_incident(b: Case):
    me = b.min_endpoint(b.cert.star_h[0])
    return next(e for e in b.p.msf.edges if me not in e[:2])


def _every_pair(b: Case) -> tuple:
    n = b.p.space.n
    return tuple(b.edge((u, v)) for u in range(n) for v in range(u + 1, n))


ROWS = [
    ("n", lambda b: b.check(n=b.cert.n + 1), r"certificate is for n=24, space has n=23"),
    (
        "path-order",
        lambda b: b.check(h=HamPath(b.p.path.order[:-1] + b.p.path.order[:1], b.p.path.weight)),
        r"hamiltonian path order is not a permutation of the vertices",
    ),
    (
        "forest-edge-dropped",
        lambda b: b.check(f=Forest(b.p.msf.n, b.p.msf.edges[1:])),
        r"forest is not the MSF of the symmetric disk graph",
    ),
    (
        "path-weight",
        lambda b: b.check(h=dataclasses.replace(b.p.path, weight=b.p.path.weight + 1.0)),
        r"stored path weight does not match its edge weights",
    ),
    (
        "e_prime-drop",
        lambda b: b.check(e_prime=b.cert.e_prime[1:]),
        r"e_prime is not \(path edges of the disk graph\)",
    ),
    (
        "e_dprime-drop",
        lambda b: b.check(e_dprime=b.cert.e_dprime[1:]),
        r"e_dprime is not \(path edges outside the disk graph\)",
    ),
    ("e1-drop", lambda b: b.check(e1=b.cert.e1[1:]), r"e1 is not \(e_prime edges inside the forest\)"),
    ("e2-drop", lambda b: b.check(e2=b.cert.e2[1:]), r"e2 is not \(e_prime edges outside the forest\)"),
    ("e2-reverse", lambda b: b.check(e2=b.cert.e2[::-1]), r"e2 is not in ascending edge order"),
    ("tilde_e2-drop", lambda b: b.check(tilde_e2=b.cert.tilde_e2[:-1]), r"tilde_e2 and e2 differ in length"),
    (
        "tilde_e2-duplicate",
        lambda b: b.check(tilde_e2=b.cert.tilde_e2 + b.cert.tilde_e2[:1]),
        r"tilde_e2 contains duplicate edges",
    ),
    (
        "tilde_e2-off-forest",
        lambda b: b.check(tilde_e2=_at(b.cert.tilde_e2, 0, b.edge(b.off_forest))),
        r"tilde_e2\[0\] is not a forest edge",
    ),
    (
        "tilde_e2-on-path",
        lambda b: b.check(tilde_e2=_at(b.cert.tilde_e2, 0, b.cert.e1[0])),
        r"tilde_e2\[0\] belongs to the path",
    ),
    (
        "exchange-heavier",
        lambda b: b.check(tilde_e2=_at(b.cert.tilde_e2, 0, _heaviest_forest_edge(b))),
        r"exchange 0 removed a heavier edge: w=\S+ > w=\S+",
    ),
    (
        "exchange-heavier-forged",
        lambda b: b.check(
            tilde_e2=_at(b.cert.tilde_e2, 0, b.edge(_heaviest_forest_edge(b)[:2], b.cert.tilde_e2[0][2]))
        ),
        r"exchange 0 removed a heavier edge: w=\S+ > w=\S+",
    ),
    ("star_f-drop", lambda b: b.check(star_f=b.cert.star_f[:-1]), r"star_f and star_h differ in length"),
    (
        "star_h-duplicate",
        lambda b: b.check(star_h=b.cert.star_h + b.cert.star_h[:1]),
        r"star_h contains duplicate edges",
    ),
    (
        "star_f-duplicate",
        lambda b: b.check(star_f=b.cert.star_f + b.cert.star_f[:1]),
        r"star_f contains duplicate edges",
    ),
    (
        "star_h-in-disk-graph",
        lambda b: b.check(star_h=_at(b.cert.star_h, 0, b.cert.e1[0])),
        r"star_h\[0\] is not a path edge missing from the disk graph",
    ),
    (
        "star_f-off-forest",
        lambda b: b.check(star_f=_at(b.cert.star_f, 0, b.edge(b.off_forest))),
        r"star_f\[0\] is not a forest edge",
    ),
    (
        "star_f-on-path",
        lambda b: b.check(star_f=_at(b.cert.star_f, 0, b.cert.e1[0])),
        r"star_f\[0\] belongs to the path",
    ),
    (
        "star_f-not-incident",
        lambda b: b.check(star_f=_at(b.cert.star_f, 0, _not_incident(b))),
        r"star_f\[0\] is not incident to the smaller-radius endpoint of star_h\[0\]",
    ),
    (
        "retired-beyond-radius",
        lambda b: b.check(star_f=_at(b.cert.star_f, 0, b.edge(_far_from_retiring_endpoint(b)))),
        r"retired edge 0 exceeds the endpoint radius: w=\S+ > r=\S+",
    ),
    (
        "retired-beyond-radius-forged",
        lambda b: b.check(
            star_f=_at(b.cert.star_f, 0, b.edge(_far_from_retiring_endpoint(b), b.cert.star_f[0][2]))
        ),
        r"retired edge 0 exceeds the endpoint radius: w=\S+ > r=\S+",
    ),
    (
        "retired-outweigh",
        lambda b: b.check(star_f=_at(b.cert.star_f, 0, b.edge(_far_from_retiring_endpoint(b)))),
        r"retired forest edges outweigh their path edges",
    ),
    (
        "tilde_e-drop",
        lambda b: b.check(tilde_e=b.cert.tilde_e[1:]),
        r"tilde_e is not the disjoint union of e1, tilde_e2 and star_f",
    ),
    (
        "e2-shares-e1",
        lambda b: b.check(e2=b.cert.e2 + b.cert.e1[:1]),
        r"e1, e2 and star_h are not pairwise disjoint",
    ),
    (
        "star_f-shares-e1",
        lambda b: b.check(star_f=b.cert.star_f + b.cert.e1[:1]),
        r"e1, tilde_e2 and star_f are not pairwise disjoint",
    ),
    (
        "tilde_e-every-pair",
        lambda b: b.check(tilde_e=_every_pair(b)),
        r"removed weight exceeds the path weight",
    ),
    (
        "isolated-empty",
        lambda b: b.check(isolated=()),
        r"isolated set does not match the forest minus tilde_e",
    ),
    ("tilde_e-empty", lambda b: b.check(tilde_e=()), r"isolated count 0 is below ceil\(n/5\) = 5"),
    (
        "star_h-empty",
        lambda b: b.check(star_h=()),
        r"residual path edge \(\d+,\d+\) has a non-isolated smaller-radius endpoint",
    ),
]


@functools.cache
def _named_messages() -> frozenset[str]:
    """Messages that some row both produced and named."""
    return frozenset(m for _, mutate, pattern in ROWS for m in mutate(_case()) if re.fullmatch(pattern, m))


def _append_templates() -> list[str]:
    """A regular expression per `problems.append(...)` message in the verifier;
    each interpolated value matches any non-empty text."""
    templates = []
    for node in ast.walk(ast.parse(inspect.getsource(verify_certificate))):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "append"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "problems"
        ):
            (arg,) = node.args
            parts = arg.values if isinstance(arg, ast.JoinedStr) else [arg]
            pattern = (re.escape(p.value) if isinstance(p, ast.Constant) else ".+" for p in parts)
            templates.append("".join(pattern))
    return templates


TEMPLATES = _append_templates()


def test_base_certificate_is_valid():
    assert _case().check() == []


@pytest.mark.parametrize("row", ROWS, ids=lambda row: row[0])
def test_mutation_is_reported(row):
    _, mutate, pattern = row
    problems = mutate(_case())
    assert any(re.fullmatch(pattern, m) for m in problems), problems


def test_template_scan_sees_the_checks():
    assert len(TEMPLATES) == len(set(TEMPLATES)) >= 20
    for message in (
        "forest is not the MSF of the symmetric disk graph",
        "residual path edge (1,2) has a non-isolated smaller-radius endpoint",
    ):
        assert [t for t in TEMPLATES if re.fullmatch(t, message)] != []


@pytest.mark.parametrize("template", TEMPLATES)
def test_every_check_has_a_row(template):
    assert any(re.fullmatch(template, m) for m in _named_messages()), f"no row names {template!r}"


@pytest.mark.parametrize("spec_id", ["euclidean-d2p2-n016-uniform-t0", "euclidean-d3p1-n016-uniform-t0"])
def test_forged_exchange_weight_is_rejected(spec_id):
    """A consistent certificate whose first exchange removes a forest edge
    heavier than the edge it keeps, stated with the kept edge's weight."""
    b = _case(spec_id)
    kept = b.cert.e2[0]
    u, v, w = min((e for e in b.p.msf.edges if (e[0], e[1]) not in b.path and e[2] > kept[2]), key=edge_key)
    tilde_e2 = ((u, v, kept[2]),) + b.cert.tilde_e2[1:]
    tilde_e = tuple(sorted(b.cert.e1 + tilde_e2 + b.cert.star_f, key=edge_key))
    removed = {(e[0], e[1]) for e in tilde_e}
    left = [e for e in b.p.msf.edges if (e[0], e[1]) not in removed]
    isolated = tuple(x for x in range(b.p.space.n) if all(x not in e[:2] for e in left))
    problems = b.check(tilde_e2=tilde_e2, tilde_e=tilde_e, isolated=isolated)
    assert problems == [f"exchange 0 removed a heavier edge: w={w} > w={kept[2]}"]
