"""`verify_certificate` re-derives the disk-graph forest on its own.

Each certificate is prepared first, through the builder's path (`sdg_msf`,
which runs `dense_msf` on the metric's matrix and the radii; up to
`graph.PRIM_LIST_CUTOFF` vertices `dense_msf` runs `_prim_on_lists`, and
above it its Borůvka passes call `_trees`, `_jump` and `_mask_disk`). Then
every `sdglab` module's binding of those six functions is replaced by one
that raises (modules import by name, so patching the defining module alone
would miss calls), and `verify_certificate` must still accept the
certificate: it tests the radii
min(r_u, r_v) >= d(u, v) itself, for the path edges and inside `is_msf`,
which checks the forest, so it shares no shortcut with the builder that a bug
could hide behind. SPECS span n = 5 to 128, on both sides of
`graph.CHECK_LIST_CUTOFF`, so both of `is_msf`'s paths, its Kruskal on lists
and its row-block scan, run with the builder forbidden.
"""
import sys

import pytest

from sdglab.decomposition import Prepared, verify_certificate
from sdglab.sweep import build_instance, standard_suite

BUILDER_SHORTCUTS = ("dense_msf", "_prim_on_lists", "_trees", "_jump", "_mask_disk", "sdg_msf")
SPECS = [s for s in standard_suite(1, trials=1) if s.n > 4][::6]


def _forbid_builder_shortcuts(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the verifier called a builder shortcut")

    for name, module in list(sys.modules.items()):
        if name == "sdglab" or name.startswith("sdglab."):
            for attr in BUILDER_SHORTCUTS:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.id)
def test_verifier_calls_no_builder_shortcut(spec, monkeypatch):
    bundle = build_instance(spec)
    p = Prepared(bundle.space, bundle.ranges, "approx")
    args = (p.space, p.r, p.msf, p.path, p.certificate)
    _forbid_builder_shortcuts(monkeypatch)
    with pytest.raises(AssertionError, match="builder shortcut"):
        Prepared(bundle.space, bundle.ranges).msf
    assert verify_certificate(*args) == []
