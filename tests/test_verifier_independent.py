"""`verify_certificate` re-derives the disk-graph forest on its own.

Each certificate is prepared first, through the builder's path (`sdg_msf`,
which runs `dense_msf` on `sdg_matrix`). Then every `sdglab` module's binding
of those three functions is replaced by one that raises (modules import by
name, so patching the defining module alone would miss calls), and
`verify_certificate` must still accept the certificate: it tests the radii
min(r_u, r_v) >= d(u, v) itself, for the path edges and, row block by row
block, inside `is_msf`, which checks the forest, so it shares no shortcut with
the builder that a bug could hide behind.
"""
import sys

import pytest

from sdglab.decomposition import Prepared, verify_certificate
from sdglab.sweep import build_instance, standard_suite

BUILDER_SHORTCUTS = ("dense_msf", "sdg_matrix", "sdg_msf")
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
