"""Batch front-end: config parsing, presets, subcommands, JSON reports.

Exit codes: 0 ok, 2 smallness/contraction gate failed or the series hit
kmax, 3 identity or residual tolerance breached, 4 invalid input (config,
missing file, non-decaying field, target or ladder the lattice cannot
resolve).
"""

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import utils
from .errors import (ConfigError, HelmdecompError, MaxIterations, NonDecayingInput,
                     NotContractive, TooCloseToSurface)
from .geometry import BoundaryFunction, PerturbedHalfSpace
from .layers import (SurfaceQuadrature, gauss_flux, grad_single_layer, trace_S,
                     trace_limit_Q)
from .neumann import check_smallness, estimate_contraction, smallness_constants
from .pipeline import (PipelineConfig, TraceReport, decompose, read_field,
                       verify, write_field)
from .sobolev import BoundaryDensity, vbmol2_norm


@dataclass
class RunConfig:
    n: int
    boundary: dict
    box: dict
    lattice: dict
    mu: float = 0.2
    nu: float = 0.05
    rho: float = 0.05
    rho0: float = None
    reach: float = None
    tol: float = 1e-8
    kmax: int = 64
    cstar_n: float = 1.0
    seed: int = 0
    samples: int = 200
    threads: int = 1

    @classmethod
    def load(cls, path):
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw):
        required = ("n", "boundary", "box", "lattice")
        for key in required:
            if key not in raw:
                raise ConfigError(f"config missing required key {key!r}")
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    def validate(self):
        if self.n != 3:
            raise ConfigError("only n = 3 is supported at runtime")
        for name in ("mu", "nu", "rho", "tol", "cstar_n"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        box = self.box
        for key in ("lower", "upper", "resolution"):
            if key not in box or len(box[key]) != 3:
                raise ConfigError(f"box.{key} must be a 3-vector")
        for r in box["resolution"]:
            if r < 8 or (r & (r - 1)) != 0:
                raise ConfigError("box resolutions must be powers of two >= 8")
        lat = self.lattice
        if "extent" not in lat or "resolution" not in lat:
            raise ConfigError("lattice needs extent and resolution")
        if lat["extent"] <= 0 or lat["resolution"] < 8:
            raise ConfigError("lattice extent/resolution out of range")
        preset = self.boundary.get("preset")
        if preset not in ("zero", "gaussian-bump", "smooth-bump"):
            raise ConfigError(f"unknown boundary preset {preset!r}")

    def build_geometry(self):
        params = {k: v for k, v in self.boundary.items() if k != "preset"}
        b = BoundaryFunction.from_preset(self.boundary["preset"], n=self.n, **params)
        b.validate()
        hs = PerturbedHalfSpace(b, rho0=self.rho0, reach_estimate=self.reach)
        Rh = b.support_radius
        if Rh > 0 and self.lattice["extent"] < 4.0 * Rh:
            raise ConfigError("lattice extent must cover 4x the bump support")
        return hs

    def quadrature(self, hs):
        return SurfaceQuadrature(hs, self.lattice["extent"], self.lattice["resolution"])

    def pipeline_config(self):
        return PipelineConfig(rho=self.rho, quad_extent=self.lattice["extent"],
                              quad_res=self.lattice["resolution"], mu=self.mu,
                              nu=self.nu, tol=self.tol, kmax=self.kmax,
                              seed=self.seed, samples=self.samples)


def _emit(payload, out_dir, name):
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text + "\n")


def cmd_check_smallness(cfg, out_dir=None):
    hs = cfg.build_geometry()
    report = smallness_constants(hs.boundary)
    q = cfg.quadrature(hs)
    report.empirical_2S_norm = estimate_contraction(q, hs, seed=cfg.seed)
    verdict = check_smallness(report, cfg.cstar_n)
    payload = report.to_dict()
    payload["verdict"] = {"first": verdict.first, "second": verdict.second,
                          "empirical": verdict.empirical, "ok": verdict.ok}
    payload["cstar_n"] = cfg.cstar_n
    _emit(payload, out_dir, "smallness.json")
    return 0 if verdict.ok else 2


def cmd_verify_identities(cfg, out_dir=None):
    hs = cfg.build_geometry()
    q = cfg.quadrature(hs)
    rng = np.random.default_rng(cfg.seed)
    rep = TraceReport()
    Rh = max(hs.boundary.support_radius, 0.1)

    # interior flux identity at probes spanning heights and offsets; on a
    # coarse lattice the probes climb with delta_min and the tolerances
    # document the failure instead of crashing
    probes = []
    lo = 4.0 * q.delta_min
    hi = max(1.5, 2.0 * lo)
    for k in range(5):
        off = rng.uniform(0, 2.0 * Rh, size=2)
        ht = rng.uniform(lo, hi)
        probes.append(np.array([off[0], off[1],
                                float(hs.boundary.height(off)) + ht]))
    worst = max(abs(gauss_flux(q, hs, p) + 0.5) for p in probes)
    tol = 1e-6 if hs.boundary.is_flat else 2e-3
    rep.add("gauss_flux_dev", worst, tol)

    # half limit of the constant-density normal derivative
    ones = BoundaryDensity(q.extent, np.ones((q.res, q.res)))
    x = np.array([0.0, 0.0, float(hs.boundary.height(np.zeros(2)))
                  + max(0.5, 2.0 * q.delta_min)])
    gval = grad_single_layer(q, ones, x)
    rep.add("poisson_half_limit_dev", abs(-gval[2] - 0.5), 1e-6 if hs.boundary.is_flat else 2e-3)

    # jump relation on a smooth density; width tied to the lattice so the
    # extrapolation ladder sits well inside the feature scale
    s2 = (q.extent / 6.0) ** 2

    def gfun(p):
        return np.exp(-np.sum(p * p, -1) / s2)

    dens = BoundaryDensity.sample(q.extent, q.res, gfun)
    x0 = hs.boundary.surface_point(np.array([0.25 * Rh, 0.0]))
    est, _, order = trace_limit_Q(q, hs, dens, x0)
    target = 0.5 * float(gfun(x0[:2])) - trace_S(q, hs, dens, x0)
    gmax = float(np.abs(dens.values).max())
    tol = (1e-3 if hs.boundary.is_flat else 5e-3) * gmax
    rep.add("jump_relation_gap", abs(est - target), tol)
    if not hs.boundary.is_flat:
        rep.add("jump_relation_order_deficit", max(0.0, 0.8 - order), 1e-12)

    payload = rep.to_dict()
    _emit(payload, out_dir, "identities.json")
    return 0 if rep.ok else 3


def cmd_norms(cfg, field_path, out_dir=None):
    hs = cfg.build_geometry()
    v = read_field(field_path, hs=hs)
    ledger = vbmol2_norm(v, hs, cfg.mu, cfg.nu, samples=cfg.samples, seed=cfg.seed)
    payload = ledger.to_dict()
    _emit(payload, out_dir, "norms.json")
    return 0


def cmd_decompose(cfg, field_path, out_dir=None):
    hs = cfg.build_geometry()
    v = read_field(field_path, hs=hs)
    try:
        result = decompose(hs, v, cfg.pipeline_config())
    except NotContractive as exc:
        payload = {"error": str(exc)}
        if exc.report is not None:
            payload["smallness"] = exc.report.to_dict()
        _emit(payload, out_dir, "decompose.json")
        return 2
    rep = verify(result, hs)
    payload = {
        "residual_div": result.residual_div,
        "residual_normal": result.residual_normal,
        "ledger_v": result.ledger_v.to_dict(),
        "ledger_v0": result.ledger_v0.to_dict(),
        "ledger_gradq": result.ledger_gradq.to_dict(),
        "smallness": result.smallness,
        "verify": rep.to_dict(),
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_field(result.v0, out / "v0.json")
        write_field(result.grad_q1, out / "grad_q1.json")
        write_field(result.grad_q2, out / "grad_q2.json")
    _emit(payload, out_dir, "decompose.json")
    return 0 if rep.ok else 3


def main(argv=None):
    parser = argparse.ArgumentParser(prog="helmdecomp",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--kmax", type=int, default=None)
    parser.add_argument("--cstar", type=float, default=None)
    parser.add_argument("--seed", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("check-smallness")
    sub.add_parser("verify-identities")
    p_norms = sub.add_parser("norms")
    p_norms.add_argument("field", help="field header JSON path")
    p_dec = sub.add_parser("decompose")
    p_dec.add_argument("field", help="field header JSON path")

    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.load(args.config)
        if args.tol is not None:
            cfg.tol = args.tol
        if args.kmax is not None:
            cfg.kmax = args.kmax
        if args.cstar is not None:
            cfg.cstar_n = args.cstar
        if args.seed is not None:
            cfg.seed = args.seed
        if args.threads is not None:
            cfg.threads = args.threads
        cfg.threads = utils.threads_from_env(cfg.threads)
        utils.set_threads(cfg.threads)

        if args.command == "check-smallness":
            return cmd_check_smallness(cfg, args.out)
        if args.command == "verify-identities":
            return cmd_verify_identities(cfg, args.out)
        if args.command == "norms":
            return cmd_norms(cfg, args.field, args.out)
        if args.command == "decompose":
            return cmd_decompose(cfg, args.field, args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, FileNotFoundError, NonDecayingInput, TooCloseToSurface) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 4
    except MaxIterations as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except HelmdecompError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
