"""Pinned outputs of the two box-sized pipeline stages.

``volume_potential_grad`` (cutoff extension plus the padded spectral solve)
and ``_sample_grad_q2`` (the grad SLP sum by plane FFT at the safe nodes,
with the near nodes extrapolated along their own box columns) run on a
small box over the gentle Gaussian bump.  The field is a Gaussian gradient
plus a swirl; the density handed to ``_sample_grad_q2`` is a decaying
Gaussian on the quadrature lattice, which stands in for the series
solution (only ``sol.density`` is read).  grad q2 is sampled on a stride
of the inside nodes, grad q1 on a stride of the box that also holds nodes
off the mask (at z = -0.4 and -0.025); each output must match
``data/pipeline_pinned.json`` to 1e-12 of its largest pinned value on the
inside nodes and be 0 on the others, where grad q1 was pinned before it
was 0 off the mask.
"""

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from helmdecomp import BoxField, BoxGrid
from helmdecomp.geometry import box_wall
from helmdecomp.layers import SurfaceQuadrature
from helmdecomp.pipeline import _sample_grad_q2, grad_q2_sites, volume_potential_grad
from helmdecomp.sobolev import BoundaryDensity

PINNED = Path(__file__).parent / "data" / "pipeline_pinned.json"
RTOL = 1e-12
S2 = 0.1
CENTER = np.array([0.1, -0.05, 1.0])


def _field(p):
    d = p - CENTER
    g = np.exp(-np.sum(d * d, -1) / S2)
    grad = -2.0 * d / S2 * g[..., None]
    swirl = np.stack([-d[..., 1], d[..., 0], np.zeros_like(g)], -1) * g[..., None]
    return grad + 0.5 * swirl


def _volume_potential_grad(hs):
    grid = BoxGrid((-1.5, -1.5, -0.4), (1.5, 1.5, 2.6), (24, 24, 24))
    v = BoxField.sample(grid, hs, _field, ncomp=3)
    out = volume_potential_grad(box_wall(hs, grid), v, rho=0.055).data
    inside = np.broadcast_to(v.inside_mask, out.shape)
    return out[:, ::3, ::3, ::3].ravel(), inside[:, ::3, ::3, ::3].ravel()


def _sample_grad_q2_values(hs):
    grid = BoxGrid((-1.5, -1.5, -0.4), (1.5, 1.5, 2.6), (24, 24, 24))
    mask = BoxField.sample(grid, hs, _field, ncomp=3).inside_mask
    q = SurfaceQuadrature(hs, 8.0, 32)
    dens = BoundaryDensity.sample(
        8.0, 32, lambda p: np.exp(-np.sum((p - [0.2, 0.1]) ** 2, -1) / 0.5), on_graph=True)
    sites = grad_q2_sites(q, box_wall(hs, grid, q.delta_min), mask, -20 + 2 * np.arange(q.res))
    out = _sample_grad_q2(sites, SimpleNamespace(density=dens))
    vals = out[:, mask][:, ::13].ravel()
    return vals, np.ones(vals.shape, bool)


OPERATORS = {
    "volume_potential_grad": _volume_potential_grad,
    "sample_grad_q2": _sample_grad_q2_values,
}


def evaluate(op, hs):
    """(values, whether each sits on an inside node) of one stage."""
    vals, inside = OPERATORS[op](hs)
    return [float(v) for v in vals], inside


@pytest.fixture(scope="module")
def pinned():
    if not PINNED.exists():
        pytest.fail(f"pinned pipeline values missing: {PINNED}")
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("op", sorted(OPERATORS))
def test_stage_matches_pinned(op, gentle_hs, pinned):
    vals, inside = evaluate(op, gentle_hs)
    current = np.array(vals)
    ref = np.array(pinned[op])
    assert current.shape == ref.shape
    err = np.abs(current - ref)[inside].max()
    assert err <= RTOL * np.abs(ref[inside]).max(), f"{op}: |new - pinned| = {err:.3e}"
    assert not current[~inside].any()
    if op == "volume_potential_grad":
        assert (~inside).any()
