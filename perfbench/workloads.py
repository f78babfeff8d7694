"""The benchmark's workloads: seeded inputs, one timed op, correctness gate.

Each workload is driven in a closed loop by ``run.py``: ``setup(seed)``
once, then for op i ``prepare(state, i)`` (untimed input generation),
``run(state, inp)`` (the timed op) and ``check(state, inp, out)`` (the
correctness gate).  The inputs of op i depend only on (seed, i), and every
op gets a distinct field, so no result reuse can pay off.

Every call into the program goes through a module attribute looked up at
call time (``pipeline.decompose``, ``cli.main``, ...), so the tracer's
wrappers see the benchmark's own calls too.
"""

import contextlib
import io
import json
import shutil
from pathlib import Path

import numpy as np

from helmdecomp import cli, pipeline, sobolev
from helmdecomp.geometry import BoundaryFunction, BoxField, BoxGrid, PerturbedHalfSpace

# criterion-7 tolerance on the part of the field that must vanish
LEAK_TOL = 5e-2
# the program raises NonDecayingInput above 1e-6 of the field maximum on the
# box faces; seeded fields stay 100x below that, so the error can only come
# from the program
DECAY_MARGIN = 1e-8


class GateFailure(Exception):
    """An op ran but its output failed the correctness gate."""


def _l2(data, mask):
    return float(np.sqrt(np.sum(data[:, mask] ** 2)))


def _check_field_decay(v):
    faces = np.zeros_like(v.inside_mask)
    faces[0], faces[-1] = True, True
    faces[:, 0], faces[:, -1] = True, True
    faces[:, :, -1] = True
    vmax = np.abs(v.data[:, v.inside_mask]).max()
    edge = np.abs(v.data[:, faces & v.inside_mask]).max()
    if not edge <= DECAY_MARGIN * vmax:
        raise RuntimeError(f"seeded field lacks its decay margin: {edge / vmax:.2e}")


def _op_rng(seed, i):
    return np.random.default_rng([seed, i])


def _gaussian_gradient(centre, s2, amp):
    """grad of amp * exp(-|p - c|^2 / s2): a pure gradient field."""
    def fn(p):
        d = p - centre
        return -2.0 * amp * d / s2 * np.exp(-np.sum(d * d, -1) / s2)[..., None]
    return fn


def _tangential_solenoid(centre, s2, amp):
    """Swirl about a vertical axis: divergence free, zero normal on z = 0."""
    def fn(p):
        d = p - centre
        ps = amp * np.exp(-np.sum(d * d, -1) / s2)
        return np.stack([-2 * d[..., 1] / s2 * ps, 2 * d[..., 0] / s2 * ps,
                         np.zeros_like(ps)], -1)
    return fn


def _gate_decomposition(verified, v, vanishing, residual_div, residual_normal):
    """Decompose gate: verify passed and the part that must vanish is below
    the criterion-7 tolerance.  Returns the op's accuracy figures."""
    leak = _l2(vanishing, v.inside_mask) / _l2(v.data, v.inside_mask)
    if not verified:
        raise GateFailure(f"verify failed: residual_div {residual_div:.3e}, "
                          f"residual_normal {residual_normal:.3e}")
    if not leak < LEAK_TOL:
        raise GateFailure(f"leak ratio {leak:.3e} >= {LEAK_TOL}")
    return {"leak_ratio": leak, "residual_div": float(residual_div),
            "residual_normal": float(residual_normal)}


class _Curved:
    """Shared geometry class of the curved workloads (criterion-7a extent)."""

    box_lower = (-2.0, -2.0, -0.4)
    box_upper = (2.0, 2.0, 3.6)
    field_s2 = 0.12
    # rho0/2 of the steepest drawn bump is 0.0547, so the criterion's 0.055
    # is out of range there; s <= 0.5 keeps the 8.0 lattice >= 4x the support
    rho = 0.05
    ledger = {"mu": 0.3, "nu": 0.08, "samples": 100}

    def __init__(self, small=False):
        self.box_res = 32 if small else 64
        self.lattice = {"extent": 8.0, "resolution": 24 if small else 48}

    @staticmethod
    def draw_bump(rng):
        return {"a": float(rng.uniform(0.03, 0.06)), "s": float(rng.uniform(0.45, 0.50))}

    def draw_field(self, rng, hs, grid):
        centre = np.array([rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2),
                           rng.uniform(0.8, 1.4)])
        amp = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        v = BoxField.sample(grid, hs, _gaussian_gradient(centre, self.field_s2, amp), ncomp=3)
        _check_field_decay(v)
        return v

    def grid(self):
        return BoxGrid(self.box_lower, self.box_upper, (self.box_res,) * 3)


class CurvedCold(_Curved):
    """One op = one in-process ``helmdecomp decompose`` on a fresh config."""

    name = "curved-cold"

    def __init__(self, workdir, small=False):
        super().__init__(small)
        self.workdir = Path(workdir)

    def setup(self, seed):
        self.workdir.mkdir(parents=True, exist_ok=True)
        return {"seed": seed}

    def prepare(self, state, i):
        rng = _op_rng(state["seed"], i)
        bump = self.draw_bump(rng)
        hs = PerturbedHalfSpace(BoundaryFunction.gaussian_bump(**bump))
        v = self.draw_field(rng, hs, self.grid())
        opdir = self.workdir / f"op{i}"
        shutil.rmtree(opdir, ignore_errors=True)
        opdir.mkdir(parents=True)
        config = {
            "n": 3, "boundary": {"preset": "gaussian-bump", **bump},
            "box": {"lower": list(self.box_lower), "upper": list(self.box_upper),
                    "resolution": [self.box_res] * 3},
            "lattice": self.lattice, "rho": self.rho, "seed": int(rng.integers(1 << 31)),
            **self.ledger,
        }
        (opdir / "config.json").write_text(json.dumps(config))
        pipeline.write_field(v, opdir / "v.json")
        return {"dir": opdir, "v": v}

    def run(self, state, inp):
        d = inp["dir"]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["--config", str(d / "config.json"), "--out", str(d / "out"),
                             "decompose", str(d / "v.json")])
        return code

    def check(self, state, inp, code):
        d = inp["dir"]
        try:
            if code != 0:
                raise GateFailure(f"CLI exit code {code}")
            payload = json.loads((d / "out" / "decompose.json").read_text())
            v = inp["v"]
            v0 = np.fromfile(d / "out" / "v0.bin", dtype="<f8").reshape(v.data.shape)
            return _gate_decomposition(payload["verify"]["ok"], v, v0, payload["residual_div"],
                                       payload["residual_normal"])
        finally:
            shutil.rmtree(d, ignore_errors=True)


class CurvedStream(_Curved):
    """One geometry built in set-up; each op is decompose + verify on a new field."""

    name = "curved-stream"

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        hs = PerturbedHalfSpace(BoundaryFunction.gaussian_bump(**self.draw_bump(rng)))
        cfg = pipeline.PipelineConfig(
            rho=self.rho, quad_extent=self.lattice["extent"], quad_res=self.lattice["resolution"],
            seed=int(rng.integers(1 << 31)), **self.ledger)
        return {"seed": seed, "hs": hs, "grid": self.grid(), "cfg": cfg}

    def prepare(self, state, i):
        return self.draw_field(_op_rng(state["seed"], i), state["hs"], state["grid"])

    def run(self, state, v):
        res = pipeline.decompose(state["hs"], v, state["cfg"])
        return res, pipeline.verify(res, state["hs"])

    def check(self, state, v, out):
        res, rep = out
        return _gate_decomposition(rep.ok, v, res.v0.data, res.residual_div,
                                   res.residual_normal)


class Flat96:
    """Flat boundary, 96^3 box: S == 0, so the series and S layers idle."""

    name = "flat96"
    field_s2 = 0.12

    def __init__(self, small=False):
        self.box_res = 32 if small else 96
        self.quad_res = 24 if small else 48

    def setup(self, seed):
        hs = PerturbedHalfSpace(BoundaryFunction.zero())
        grid = BoxGrid((-2.0, -2.0, -2.0), (2.0, 2.0, 2.0), (self.box_res,) * 3)
        cfg = pipeline.PipelineConfig(rho=0.07, quad_extent=6.0, quad_res=self.quad_res,
                                      mu=0.3, nu=0.1, samples=100, seed=seed)
        return {"seed": seed, "hs": hs, "grid": grid, "cfg": cfg}

    def prepare(self, state, i):
        rng = _op_rng(state["seed"], i)
        centre = rng.uniform(-0.15, 0.15, 3)
        amp = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
        v = BoxField.sample(state["grid"], state["hs"],
                            _tangential_solenoid(centre, self.field_s2, amp), ncomp=3)
        _check_field_decay(v)
        return v

    def run(self, state, v):
        res = pipeline.decompose(state["hs"], v, state["cfg"])
        return res, pipeline.verify(res, state["hs"])

    def check(self, state, v, out):
        res, rep = out
        return _gate_decomposition(rep.ok, v, res.grad_q1.data + res.grad_q2.data,
                                   res.residual_div, res.residual_normal)


class Norms:
    """Boundary norm machinery: Fourier H^s norms and both Gagliardo modes."""

    name = "norms"

    def __init__(self, small=False):
        self.plane_res = 32 if small else 96
        self.graph_res = 24 if small else 64

    def setup(self, seed):
        # the steep reference bump of the test suite, with its reach override
        hs = PerturbedHalfSpace(BoundaryFunction.smooth_bump(0.3, 0.4), reach_estimate=1.0)
        hinf, hgrad, _ = hs.boundary.sup_norms()
        return {"seed": seed, "hs": hs, "cs": 1.0 + hinf + hgrad}

    def prepare(self, state, i):
        rng = _op_rng(state["seed"], i)

        def gaussian():
            c = rng.uniform(-1.0, 1.0, 2)
            w = rng.uniform(0.3, 1.0)
            return lambda p: np.exp(-np.sum((p - c) ** 2, -1) / w)

        f, g = gaussian(), gaussian()
        return {"f": sobolev.BoundaryDensity.sample(14.0, self.plane_res, f),
                "g": sobolev.BoundaryDensity.sample(14.0, self.plane_res, g),
                "f_graph": sobolev.BoundaryDensity.sample(10.0, self.graph_res, f)}

    def run(self, state, inp):
        f, g, fg = inp["f"], inp["g"], inp["f_graph"]
        return {
            "f_minus": sobolev.hs_norm_fourier(f, -0.5),
            "f_half": sobolev.hs_norm_fourier(f, 0.5),
            "f_gagliardo": sobolev.gagliardo_half(f),
            "g_minus": sobolev.hs_norm_fourier(g, -0.5),
            "pairing": sobolev.pairing(f, g),
            "graph": sobolev.gagliardo_half(sobolev.th_push(fg), hs=state["hs"]),
            "plane": sobolev.gagliardo_half(fg),
        }

    def check(self, state, inp, out):
        # push-forward bound and H^{1/2} / H^{-1/2} duality, as in criterion 8
        if not out["graph"] <= state["cs"] * out["plane"] * (1 + 1e-9):
            raise GateFailure(f"push-forward bound violated: {out['graph']} > "
                              f"{state['cs']} * {out['plane']}")
        if not abs(out["pairing"]) <= out["g_minus"] * out["f_half"] * (1 + 1e-6):
            raise GateFailure("duality bound violated")
        ratio = out["f_half"] / out["f_gagliardo"]
        return {"gagliardo_dev": abs(ratio / np.sqrt(np.pi) - 1.0)}


def make(name, workdir, small=False):
    if name == "curved-cold":
        return CurvedCold(workdir, small)
    if name == "curved-stream":
        return CurvedStream(small)
    if name == "flat96":
        return Flat96(small)
    if name == "norms":
        return Norms(small)
    raise ValueError(f"unknown workload {name!r}")
