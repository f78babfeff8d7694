"""Batch front-end: config parsing, presets, subcommands, JSON reports.

Exit codes: 0 ok, 2 smallness/contraction gate failed or the series hit
kmax, 3 identity or residual tolerance breached, 4 invalid input (command
line, config, rho above rho0/2, a lattice over LATTICE_MEMORY_CAP or too
narrow for the flat-tail closure, a box too short for the grad q2 columns,
a field file that is missing, unreadable (a directory, say) or malformed, a
field that is not a 3-vector field or has a NaN or infinite value,
non-decaying field, target or ladder the lattice cannot resolve, an --out
that cannot be made a directory or written).
"""

import argparse
import json
import math
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import (ConfigError, HelmdecompError, MaxIterations, NonDecayingInput,
                     NotContractive, TooCloseToSurface)
from .geometry import PRESET_PARAMS, BoundaryFunction, BoxGrid, PerturbedHalfSpace
from .layers import (_REFINE_CELLS, SurfaceQuadrature, gauss_flux, grad_single_layer,
                     trace_S, trace_limit_Q)
from .pipeline import (DecompositionPlan, PipelineConfig, TraceReport, decompose, read_field,
                       square_section_width, verify, write_field)
from .sobolev import BoundaryDensity, vbmol2_norm


# bytes the lattice of a run may take; see RunConfig.build_geometry
LATTICE_MEMORY_CAP = 2 << 30
# PipelineConfig keys set at the top level of a run config (lattice sets quad_*)
_KNOBS = {f.name for f in fields(PipelineConfig) if f.init} - {"quad_extent", "quad_res"}


def _number(value, name, integer=False, least=None):
    """ConfigError unless value is a JSON integer or, with integer=False, a
    finite JSON number (a bool is neither), and at least least if given."""
    if isinstance(value, bool) or not isinstance(value, int if integer else (int, float)) \
            or (isinstance(value, float) and not math.isfinite(value)):
        raise ConfigError(f"{name} must be {'an integer' if integer else 'a finite number'}")
    if least is not None and value < least:
        raise ConfigError(f"{name} must be >= {least}")


@dataclass
class RunConfig:
    n: int
    boundary: dict
    box: dict
    pipeline: PipelineConfig
    rho0: float = None
    reach: float = None
    cstar_n: float = 1.0

    @classmethod
    def load(cls, path):
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        return cls.from_dict(raw)

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        for key in ("n", "boundary", "box", "lattice"):
            if key not in raw:
                raise ConfigError(f"config missing required key {key!r}")
        own = {f.name for f in fields(cls)} - {"pipeline"}
        unknown = set(raw) - own - _KNOBS - {"lattice"}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        lat = raw["lattice"]
        if not isinstance(lat, dict) or "extent" not in lat or "resolution" not in lat:
            raise ConfigError("lattice needs extent and resolution")
        knobs = {"rho": 0.05, **{k: raw[k] for k in _KNOBS & set(raw)}}  # the CLI's rho
        pipeline = PipelineConfig(quad_extent=lat["extent"], quad_res=lat["resolution"], **knobs)
        cfg = cls(pipeline=pipeline, **{k: raw[k] for k in own & set(raw)})
        cfg.validate()
        return cfg

    def validate(self):
        p = self.pipeline
        _number(self.n, "n", integer=True)
        if self.n != 3:
            raise ConfigError("only n = 3 is supported at runtime")
        for name, least in (("kmax", 1), ("seed", 0), ("samples", 1)):
            _number(getattr(p, name), name, integer=True, least=least)
        for owner, name in ((p, "mu"), (p, "nu"), (p, "rho"), (p, "tol"), (self, "cstar_n")):
            _number(getattr(owner, name), name)
            if getattr(owner, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("rho0", "reach"):
            if getattr(self, name) is not None:
                _number(getattr(self, name), name)
        _number(p.quad_extent, "lattice.extent")
        _number(p.quad_res, "lattice.resolution", integer=True)
        if p.quad_extent <= 0 or p.quad_res < 8:
            raise ConfigError("lattice extent/resolution out of range")
        box = self.box if isinstance(self.box, dict) else {}
        for key in ("lower", "upper", "resolution"):
            if not isinstance(box.get(key), list) or len(box[key]) != 3:
                raise ConfigError(f"box.{key} must be a 3-vector")
            for x in box[key]:
                _number(x, f"box.{key}", integer=key == "resolution")
        for r in box["resolution"]:
            if r < 8 or (r & (r - 1)) != 0:
                raise ConfigError("box resolutions must be powers of two >= 8")
        try:
            square_section_width(self.grid())
        except ValueError as exc:
            raise ConfigError(f"box: {exc}") from exc
        preset = self.boundary.get("preset") if isinstance(self.boundary, dict) else None
        if preset not in PRESET_PARAMS:
            raise ConfigError(f"unknown boundary preset {preset!r}")
        params = set(self.boundary) - {"preset"}
        need = set(PRESET_PARAMS[preset])
        if not need <= params <= need | ({"curvature_bound"} if need else set()):
            raise ConfigError(f"boundary {preset} takes the keys {sorted(need)}, "
                              f"optional curvature_bound for a bump; got {sorted(params)}")
        for key in params:
            _number(self.boundary[key], f"boundary.{key}")
            if key != "a" and self.boundary[key] <= 0:
                raise ConfigError(f"boundary.{key} must be positive")

    def grid(self):
        return BoxGrid(*(tuple(self.box[k]) for k in ("lower", "upper", "resolution")))

    def build_geometry(self):
        """The half space of the config; ConfigError for a rho the cutoff refuses, or a
        lattice that does not cover 4x the bump support or fit LATTICE_MEMORY_CAP."""
        params = {k: v for k, v in self.boundary.items() if k != "preset"}
        try:
            b = BoundaryFunction.from_preset(self.boundary["preset"], n=self.n, **params)
            b.validate()
            hs = PerturbedHalfSpace(b, rho0=self.rho0, reach_estimate=self.reach)
            hs.cutoff_theta(self.pipeline.rho, 0.0)
        except ValueError as exc:  # a curvature bound, rho0, reach or rho out of range
            raise ConfigError(f"geometry: {exc}") from exc
        Rh = b.support_radius
        if Rh > 0 and self.pipeline.quad_extent < 4.0 * Rh:
            raise ConfigError("lattice extent must cover 4x the bump support")
        # in floats, so no size overflows: S keeps 8 |B| (2m - |B|) bytes for m = res^2
        # nodes, B those within _REFINE_CELLS + 1 spacings of the bump support, and
        # the grad q2 plane FFT about 8 float64 planes of side n (extent / width + 1)
        p, n = self.pipeline, self.box["resolution"][0]
        nb = min(p.quad_res, 2.0 * (Rh * p.quad_res / p.quad_extent + _REFINE_CELLS + 1) + 1.0) ** 2
        side = n * (p.quad_extent / (self.box["upper"][0] - self.box["lower"][0]) + 1.0)
        need = 8.0 * nb * (2.0 * p.quad_res ** 2 - nb) + 64.0 * side * side
        if not need <= LATTICE_MEMORY_CAP:
            raise ConfigError(f"the lattice needs about {need / 2**30:.3g} GiB, over the "
                              f"{LATTICE_MEMORY_CAP / 2**30:g} GiB cap")
        return hs


def _emit(payload, out_dir, name):
    text = json.dumps(payload, indent=2, sort_keys=True)
    print(text)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text + "\n")


def cmd_check_smallness(cfg, out_dir=None):
    # the plan decompose would build, so the gate sees decompose's lattice
    hs = cfg.build_geometry()
    grid = cfg.grid()
    plan = DecompositionPlan(hs, grid, grid.inside(hs), cfg.pipeline)
    verdict = plan.report.verdict(cfg.cstar_n)
    payload = dict(plan.report.to_dict(), verdict=verdict, cstar_n=cfg.cstar_n,
                   lattice=plan.lattice)
    _emit(payload, out_dir, "smallness.json")
    return 0 if verdict["ok"] else 2


def cmd_verify_identities(cfg, out_dir=None):
    hs = cfg.build_geometry()
    try:
        q = SurfaceQuadrature(hs, cfg.pipeline.quad_extent, cfg.pipeline.quad_res)
    except ValueError as exc:  # too narrow for the flat-tail closure
        raise ConfigError(f"lattice: {exc}") from exc
    rng = np.random.default_rng(cfg.pipeline.seed)
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
    worst = max(abs(gauss_flux(q, p) + 0.5) for p in probes)
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
    est, _, order = trace_limit_Q(q, dens, x0)
    target = 0.5 * float(gfun(x0[:2])) - trace_S(q, dens, x0)
    gmax = float(np.abs(dens.values).max())
    tol = (1e-3 if hs.boundary.is_flat else 5e-3) * gmax
    rep.add("jump_relation_gap", abs(est - target), tol)
    if not hs.boundary.is_flat:
        rep.add("jump_relation_order_deficit", max(0.0, 0.8 - order), 1e-12)

    payload = rep.to_dict()
    _emit(payload, out_dir, "identities.json")
    return 0 if rep.ok else 3


def _read_box_field(cfg, field_path, hs):
    """The field at field_path, which must be a finite 3-vector field on the config box."""
    try:
        v = read_field(field_path, hs=hs)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed field file {field_path}: {exc!r}") from exc
    g = v.grid
    for key, got in (("lower", g.lower), ("upper", g.upper), ("resolution", g.resolution)):
        if not np.allclose(got, cfg.box[key], rtol=0.0, atol=1e-12):
            raise ConfigError(f"field grid {key} {list(got)} differs from box.{key} "
                              f"{list(cfg.box[key])}")
    if v.ncomp != 3:
        raise ConfigError(f"field has {v.ncomp} component(s); a 3-vector field is needed")
    # min and max are NaN when a value is, and +-inf bound any infinite one
    if not np.isfinite([v.data.min(), v.data.max()]).all():
        raise ConfigError(f"malformed field file {field_path}: a value is NaN or infinite")
    return v


def cmd_norms(cfg, field_path, out_dir=None):
    hs = cfg.build_geometry()
    v = _read_box_field(cfg, field_path, hs)
    p = cfg.pipeline
    ledger = vbmol2_norm(v, hs, p.mu, p.nu, samples=p.samples, seed=p.seed)
    _emit(ledger.to_dict(), out_dir, "norms.json")
    return 0


def cmd_decompose(cfg, field_path, out_dir=None):
    hs = cfg.build_geometry()
    v = _read_box_field(cfg, field_path, hs)
    try:
        result = decompose(hs, v, cfg.pipeline)
    except (NotContractive, MaxIterations) as exc:
        payload = {"error": str(exc)}
        if isinstance(exc, NotContractive) and exc.report is not None:
            payload["smallness"] = exc.report.to_dict()
        if isinstance(exc, MaxIterations) and exc.solution is not None:
            payload["series_terms_used"] = exc.solution.series_terms_used
            payload["residual"] = exc.solution.residual
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
        "lattice": result.lattice,
        "verify": rep.to_dict(),
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name in ("v0", "grad_q1", "grad_q2"):
            write_field(getattr(result, name), out / f"{name}.json")
    _emit(payload, out_dir, "decompose.json")
    return 0 if rep.ok else 3


class _ArgumentParser(argparse.ArgumentParser):
    """A usage error is bad input (exit 4), not argparse's exit 2 of a failed gate."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def main(argv=None):
    parser = _ArgumentParser(prog="helmdecomp", description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", default=None, help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("check-smallness")
    sub.add_parser("verify-identities")
    p_norms = sub.add_parser("norms")
    p_norms.add_argument("field", help="field header JSON path")
    p_dec = sub.add_parser("decompose")
    p_dec.add_argument("field", help="field header JSON path")

    try:
        args = parser.parse_args(argv)
        cfg = RunConfig.load(args.config)
        if args.command == "check-smallness":
            return cmd_check_smallness(cfg, args.out)
        if args.command == "verify-identities":
            return cmd_verify_identities(cfg, args.out)
        if args.command == "norms":
            return cmd_norms(cfg, args.field, args.out)
        if args.command == "decompose":
            return cmd_decompose(cfg, args.field, args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, OSError, NonDecayingInput, TooCloseToSurface) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 4
    except HelmdecompError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
