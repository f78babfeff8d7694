"""Pinned values of the layer operators.

Every operator in ``layers`` shares one quadrature: the refined lattice sum,
the bump-support correction, the flat-tail closure and the subcell lattice.
Each pointwise operator is evaluated here on a flat and two curved
geometries, with a decaying, a constant and an offset Gaussian density (the
last two run the flat-tail closure with g_inf != 0), at targets inside and
outside the bump support and at heights with and without near-wall
refinement.  The lattice operator ``apply_S`` is sampled at every 16th node.
The values must match ``data/layers_pinned.json`` to 1e-12 of the density
scale.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from helmdecomp.layers import (SurfaceQuadrature, apply_S, double_layer_Q, gauss_flux,
                               grad_single_layer, poisson_smoothing_deficit, trace_S,
                               trace_limit_Q)
from helmdecomp.sobolev import BoundaryDensity

from reference import abs_flux, single_layer, surface_area

PINNED = Path(__file__).parent / "data" / "layers_pinned.json"
RTOL = 1e-12
# max |g| of each density below; operators without a density use 1
DENSITY_MAX = {"decay": 1.0, "const": 1.0, "offset": 1.3}

# target feet: one on the bump slope, one on the flat part of every geometry
FEET = {"in": (0.11, 0.04), "out": (0.55, -0.3)}


def _densities(q):
    w = (q.extent / 8.0) ** 2
    decay = BoundaryDensity.sample(q.extent, q.res,
                                   lambda p: np.exp(-np.sum(p * p, -1) / w))
    return {"decay": decay,
            "const": BoundaryDensity(q.extent, np.ones((q.res, q.res))),
            "offset": BoundaryDensity(q.extent, decay.values + 0.3)}


def _heights(q):
    # 1.7 spacings sits in the near-wall refinement band, 5 spacings not
    return {"near": 1.7 * q.dx, "mid": 5.0 * q.dx, "far": 0.25}


def _along_normal(q, foot, t):
    """Point at signed distance t from the graph over foot (t > 0 inside)."""
    base = q.hs.boundary.surface_point(np.array(foot))
    return base - t * q.hs.outward_normal(base)


def _on_surface(q):
    """Trace targets: the lattice node nearest each foot and the foot itself."""
    out = {}
    for name, foot in FEET.items():
        idx = int(np.argmin(np.linalg.norm(q.yp - np.array(foot), axis=-1)))
        out[f"node-{name}"] = q.nodes[idx]
        out[f"foot-{name}"] = q.hs.boundary.surface_point(np.array(foot))
    return out


def _single_layer(q):
    g = _densities(q)["decay"]
    heights = dict(_heights(q), wall=0.5 * q.dx)
    for foot, yp in FEET.items():
        for hn, t in heights.items():
            yield f"decay|{foot}|{hn}", single_layer(q, g, _along_normal(q, yp, t))


def _grad_single_layer(q):
    heights = dict(_heights(q), below=-5.0 * q.dx, below_far=-0.6)
    for dn, g in _densities(q).items():
        for foot, yp in FEET.items():
            for hn, t in heights.items():
                x = _along_normal(q, yp, t)
                yield f"{dn}|{foot}|{hn}", grad_single_layer(q, g, x)


def _double_layer_Q(q):
    for dn, g in _densities(q).items():
        for foot, yp in FEET.items():
            for hn, t in _heights(q).items():
                x = _along_normal(q, yp, t)
                for refine in (True, False):
                    yield (f"{dn}|{foot}|{hn}|refine={refine}",
                           double_layer_Q(q, g, x, refine=refine))


def _trace_S(q):
    for dn, g in _densities(q).items():
        for tn, x0 in _on_surface(q).items():
            for refine in (True, False):
                yield f"{dn}|{tn}|refine={refine}", trace_S(q, g, x0, refine=refine)


def _apply_S(q):
    # every 16th lattice node: the sample crosses the bump neighbourhood
    # (refined rows) and the flat rest (columns on the bump only)
    dens = _densities(q)
    for dn in ("decay", "const"):
        yield dn, apply_S(q, q.hs, dens[dn].values)[::16]


def _gauss_flux(q):
    for foot, yp in FEET.items():
        for hn, t in _heights(q).items():
            yield f"{foot}|{hn}", gauss_flux(q, _along_normal(q, yp, t))


def _abs_flux(q):
    for foot, yp in FEET.items():
        for hn, t in _heights(q).items():
            yield f"{foot}|{hn}", abs_flux(q, _along_normal(q, yp, t))


def _poisson_smoothing_deficit(q):
    for dn, g in _densities(q).items():
        for foot, yp in FEET.items():
            for k in (2.0, 6.0):
                yield (f"{dn}|{foot}|t={k}dmin",
                       poisson_smoothing_deficit(q, g, np.array(yp), k * q.delta_min))


def _trace_limit_Q(q):
    for dn, g in _densities(q).items():
        for foot, yp in FEET.items():
            x0 = q.hs.boundary.surface_point(np.array(yp))
            est, raw, _ = trace_limit_Q(q, g, x0, ladder=(4.0, 2.0, 1.0))
            yield f"{dn}|{foot}", [est] + list(raw)


def _surface_area(q):
    for delta in (0.3, 0.8):
        yield f"delta={delta}", surface_area(q, delta)


OPERATORS = {
    "single_layer": _single_layer,
    "grad_single_layer": _grad_single_layer,
    "double_layer_Q": _double_layer_Q,
    "trace_S": _trace_S,
    "apply_S": _apply_S,
    "gauss_flux": _gauss_flux,
    "abs_flux": _abs_flux,
    "poisson_smoothing_deficit": _poisson_smoothing_deficit,
    "trace_limit_Q": _trace_limit_Q,
    "surface_area": _surface_area,
}


def evaluate(op, quads):
    """{geometry|case: list of floats} for one operator."""
    out = {}
    for geo, q in quads.items():
        for key, val in OPERATORS[op](q):
            out[f"{geo}|{key}"] = [float(v) for v in np.atleast_1d(val)]
    return out


@pytest.fixture(scope="module")
def quads(flat_hs, small_bump_hs, bump_hs):
    return {"flat": SurfaceQuadrature(flat_hs, 6.0, 64),
            "small_bump": SurfaceQuadrature(small_bump_hs, 2.0, 64),
            "bump": SurfaceQuadrature(bump_hs, 2.0, 48)}


@pytest.fixture(scope="module")
def pinned():
    if not PINNED.exists():
        pytest.fail(f"pinned operator values missing: {PINNED}")
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("op", sorted(OPERATORS))
def test_operator_matches_pinned(op, quads, pinned):
    current = evaluate(op, quads)
    assert sorted(current) == sorted(pinned[op])
    for key, vals in current.items():
        gmax = DENSITY_MAX.get(key.split("|")[1], 1.0)
        err = np.abs(np.array(vals) - np.array(pinned[op][key])).max()
        assert err <= RTOL * max(1.0, gmax), f"{op} {key}: |new - pinned| = {err:.3e}"
