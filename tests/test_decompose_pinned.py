"""Pinned outputs of a whole ``decompose`` run.

Two cases: the gentle Gaussian bump on a 32^3 box with the lattice asked as
8.0 / 24 (8.25 / 22 on the box columns, so S is not 0), and the flat 64^3
box with the lattice 6.0 / 48.  The input is a Gaussian gradient plus a
swirl with a normal part.  A pure gradient would leave v0, grad q2, the
trace and the residuals at discretization level (1e-8 and below), where a
relative change of 4e-16 in the input moves them by 1e-7 of their max; with
the swirl they are of order 1e-3 to 1 and the same change moves them by at
most 2e-13.

Pinned are v0, grad q1 and grad q2 on a stride of the inside nodes (about
2,200 nodes per case), the whole trace g, the three norm ledgers and both
residuals.  Each array must match ``data/decompose_pinned.json`` to 1e-12
of its largest finite pinned value, and its non-finite entries (the
H^{-1/2} slot of a trace with a nonzero mean) exactly.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from helmdecomp import BoxField, BoxGrid
from helmdecomp.pipeline import PipelineConfig, decompose

PINNED = Path(__file__).parent / "data" / "decompose_pinned.json"
RTOL = 1e-12
S2 = 0.12
CENTER = np.array([0.0, 0.0, 1.5])

# (half space fixture, box, config, stride of the pinned inside nodes)
CASES = {
    "curved": ("gentle_hs", ((-2.0, -2.0, -0.4), (2.0, 2.0, 3.6), (32, 32, 32)),
               PipelineConfig(rho=0.055, quad_extent=8.0, quad_res=24,
                              mu=0.3, nu=0.08, samples=100, seed=5), 13),
    "flat": ("flat_hs", ((-2.0, -2.0, -0.5), (2.0, 2.0, 3.5), (64, 64, 64)),
             PipelineConfig(rho=0.07, quad_extent=6.0, quad_res=48,
                            mu=0.3, nu=0.1, samples=100, seed=5), 104),
}


def _field(p):
    d = p - CENTER
    grad = -2.0 * d / S2 * np.exp(-np.sum(d * d, -1) / S2)[..., None]
    e = p - [0.2, -0.1, 1.3]
    g = np.exp(-np.sum(e * e, -1) / 0.1)
    return grad + np.stack([-e[..., 1] * g, e[..., 0] * g, 0.5 * g], -1)


def evaluate(case, hs):
    """{output: list of floats} of one decompose run."""
    _, box, cfg, stride = CASES[case]
    v = BoxField.sample(BoxGrid(*box), hs, _field, ncomp=3)
    res = decompose(hs, v, cfg)
    inside = v.inside_mask
    out = {name: getattr(res, name).data[:, inside][:, ::stride].ravel()
           for name in ("v0", "grad_q1", "grad_q2")}
    out["trace_g"] = res.trace_g.values.ravel()
    for name in ("ledger_v", "ledger_v0", "ledger_gradq"):
        ledger = getattr(res, name).to_dict()
        out[name] = [ledger[k] for k in sorted(ledger)]
    out["residual_div"] = [res.residual_div]
    out["residual_normal"] = [res.residual_normal]
    return {k: [float(x) for x in vals] for k, vals in out.items()}


@pytest.fixture(scope="module")
def pinned():
    if not PINNED.exists():
        pytest.fail(f"pinned decompose values missing: {PINNED}")
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_decompose_matches_pinned(case, request, pinned):
    current = evaluate(case, request.getfixturevalue(CASES[case][0]))
    assert sorted(current) == sorted(pinned[case])
    for key, vals in current.items():
        ref = np.array(pinned[case][key])
        got = np.array(vals)
        finite = np.isfinite(ref)
        assert got.shape == ref.shape and np.array_equal(got[~finite], ref[~finite]), key
        err = np.abs(got[finite] - ref[finite]).max()
        assert err <= RTOL * np.abs(ref[finite]).max(), f"{case} {key}: |new - pinned| = {err:.3e}"
