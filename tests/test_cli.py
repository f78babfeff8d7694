import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from helmdecomp import BoundaryFunction, BoxField, BoxGrid, PerturbedHalfSpace, cli, pipeline
from helmdecomp.cli import RunConfig, main
from helmdecomp.errors import ConfigError
from helmdecomp.pipeline import PipelineConfig, write_field


# how a 32^3 curved decompose sums its bump sources: directly, as the
# series in source height costs more there
DIRECT_BUMP_SUM = {"bump_sum": "direct", "series_order": 0, "series_fallback_planes": 0}


def base_config(**override):
    cfg = {
        "n": 3,
        "boundary": {"preset": "zero"},
        "box": {"lower": [-2.0, -2.0, -0.5], "upper": [2.0, 2.0, 3.5],
                "resolution": [32, 32, 32]},
        "lattice": {"extent": 6.0, "resolution": 48},
        "mu": 0.3, "nu": 0.1, "rho": 0.07, "seed": 3,
    }
    cfg.update(override)
    return cfg


def grad_gaussian(p, c=(0.1, -0.1, 1.2)):
    """grad of exp(-|p - c|^2 / 0.12): a pure gradient field."""
    return -2.0 * (p - c) / 0.12 * np.exp(-np.sum((p - c) ** 2, -1) / 0.12)[..., None]


def write_config(tmp_path, name="cfg.json", **override):
    path = tmp_path / name
    path.write_text(json.dumps(base_config(**override)))
    return str(path)


class TestConfig:
    def test_missing_key(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"n": 3})

    def test_unknown_key(self):
        raw = base_config()
        raw["bogus"] = 1
        with pytest.raises(ConfigError):
            RunConfig.from_dict(raw)

    def test_defaults_and_pipeline_keys(self):
        raw = {k: v for k, v in base_config().items() if k not in ("mu", "nu", "rho", "seed")}
        cfg = RunConfig.from_dict(raw)
        # the CLI's rho defaults to 0.05; the other defaults are PipelineConfig's
        assert cfg.pipeline == PipelineConfig(rho=0.05, quad_extent=6.0, quad_res=48)
        p = cfg.pipeline
        assert (p.mu, p.nu, p.tol, p.kmax, p.seed, p.samples) == (0.2, 0.05, 1e-8, 64, 0, 200)
        assert (cfg.rho0, cfg.reach, cfg.cstar_n) == (None, None, 1.0)
        knobs = dict(mu=0.3, nu=0.1, rho=0.07, tol=1e-6, kmax=8, seed=3, samples=50)
        cfg = RunConfig.from_dict(dict(raw, **knobs))
        assert cfg.pipeline == PipelineConfig(quad_extent=6.0, quad_res=48, **knobs)
        for key in ("quad_extent", "quad_res", "pipeline"):
            with pytest.raises(ConfigError, match="unknown"):
                RunConfig.from_dict(dict(raw, **{key: 1}))
        for key in ("mu", "nu", "rho", "tol", "cstar_n"):
            with pytest.raises(ConfigError, match=f"{key} must be positive"):
                RunConfig.from_dict(dict(raw, **{key: 0.0}))

    def test_config_keys_have_no_flags(self, tmp_path, capsys):
        # tol, kmax, cstar_n and seed are set in the config only; a flag is a
        # usage error, which is bad input
        cfg = write_config(tmp_path)
        for flag in ("--tol", "--kmax", "--cstar", "--seed"):
            assert main(["--config", cfg, flag, "1", "check-smallness"]) == 4
            assert "error" in json.loads(capsys.readouterr().err)

    def test_threads_key_is_bad_input(self, tmp_path, capsys):
        # the numpy kernels have no thread knob; the old key is now unknown
        cfg = write_config(tmp_path, threads=2)
        assert main(["--config", cfg, "check-smallness"]) == 4
        assert "threads" in json.loads(capsys.readouterr().err)["error"]

    def test_power_of_two_enforced(self):
        raw = base_config()
        raw["box"]["resolution"] = [32, 48, 32]
        with pytest.raises(ConfigError):
            RunConfig.from_dict(raw)

    def test_bad_preset(self):
        raw = base_config(boundary={"preset": "cliff"})
        with pytest.raises(ConfigError):
            RunConfig.from_dict(raw)

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{")
        assert main(["--config", str(p), "check-smallness"]) == 4


class TestCheckSmallness:
    def test_flat_passes(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["--config", cfg, "--out", str(tmp_path / "out"),
                     "check-smallness"]) == 0
        payload = json.loads((tmp_path / "out" / "smallness.json").read_text())
        assert payload["verdict"]["ok"] is True
        assert payload["C_star"] == 0.0

    def test_large_support_fails_first_condition(self, tmp_path, capsys):
        cfg = write_config(tmp_path, boundary={"preset": "smooth-bump",
                                               "a": 1e-4, "R": 0.6},
                           lattice={"extent": 6.0, "resolution": 48})
        code = main(["--config", cfg, "check-smallness"])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert out["verdict"]["first"] is False

    def test_bump_empirical_report(self, tmp_path, capsys):
        # the lattice lands on the box columns: 2.0 / 32 on this box
        cfg = write_config(tmp_path, boundary={"preset": "smooth-bump",
                                               "a": 0.01, "R": 0.3},
                           box={"lower": [-1.0, -1.0, -0.2], "upper": [1.0, 1.0, 1.8],
                                "resolution": [32, 32, 32]},
                           lattice={"extent": 2.0, "resolution": 48},
                           reach=0.3, rho="remove", cstar_n=1e-4)
        raw = json.loads(open(cfg).read())
        raw["rho"] = 0.015
        open(cfg, "w").write(json.dumps(raw))
        code = main(["--config", cfg, "check-smallness"])
        out = json.loads(capsys.readouterr().out)
        assert out["empirical_2S_norm"] < 0.1
        assert out["verdict"]["empirical"] is True
        assert out["lattice"] == {"extent": 2.0, "resolution": 32, "stride": 1}
        assert code == 0  # tiny cstar_n makes the symbolic gate pass too

    def test_gates_the_decompose_lattice(self, tmp_path, capsys):
        # 8.0 / 24 is asked; decompose and the gate both use 8.25 / 22
        box = {"lower": [-2.0, -2.0, -0.4], "upper": [2.0, 2.0, 3.6],
               "resolution": [32, 32, 32]}
        cfg = write_config(tmp_path, boundary={"preset": "gaussian-bump", "a": 0.05, "s": 0.5},
                           box=box, lattice={"extent": 8.0, "resolution": 24}, rho=0.05)
        hs = PerturbedHalfSpace(BoundaryFunction.gaussian_bump(0.05, 0.5))
        grid = BoxGrid(tuple(box["lower"]), tuple(box["upper"]), (32, 32, 32))
        write_field(BoxField.sample(grid, hs, grad_gaussian, ncomp=3),
                    tmp_path / "v.json")
        # the symbolic first condition fails on this wide bump: exit 2
        assert main(["--config", cfg, "--out", str(tmp_path), "check-smallness"]) == 2
        assert main(["--config", cfg, "--out", str(tmp_path), "decompose",
                     str(tmp_path / "v.json")]) == 0
        capsys.readouterr()
        gate = json.loads((tmp_path / "smallness.json").read_text())
        dec = json.loads((tmp_path / "decompose.json").read_text())
        assert gate["lattice"] == {"extent": 8.25, "resolution": 22, "stride": 3}
        # decompose adds how it summed the bump sources: directly on the 32^3 box
        assert dec["lattice"] == {**gate["lattice"], **DIRECT_BUMP_SUM}
        assert gate["verdict"]["empirical"] is True
        assert gate["empirical_2S_norm"] == dec["smallness"]["empirical_2S_norm"]


class TestVerifyIdentities:
    def test_flat_passes(self, tmp_path):
        cfg = write_config(tmp_path, lattice={"extent": 6.0, "resolution": 192})
        assert main(["--config", cfg, "verify-identities"]) == 0

    def test_bump_passes(self, tmp_path):
        cfg = write_config(tmp_path,
                           boundary={"preset": "smooth-bump", "a": 0.01, "R": 0.3},
                           box={"lower": [-1.0, -1.0, -0.2],
                                "upper": [1.0, 1.0, 1.8],
                                "resolution": [32, 32, 32]},
                           lattice={"extent": 2.0, "resolution": 128},
                           reach=0.28, rho=0.015, nu=0.03, mu=0.2)
        assert main(["--config", cfg, "verify-identities"]) == 0

    def test_coarse_grid_fails_with_diagnostic(self, tmp_path, capsys):
        cfg = write_config(tmp_path, lattice={"extent": 6.0, "resolution": 8})
        code = main(["--config", cfg, "verify-identities"])
        assert code == 3
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is False
        assert any(not e["passed"] for e in out["entries"])


class TestNorms:
    def test_zero_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        grid = BoxGrid((-2.0, -2.0, -0.5), (2.0, 2.0, 3.5), (32, 32, 32))
        f = BoxField(grid, np.zeros((3, 32, 32, 32)))
        write_field(f, tmp_path / "zero.json")
        code = main(["--config", cfg, "norms", str(tmp_path / "zero.json")])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["l2"] == 0.0 and out["bmo"] == 0.0

    def test_constant_field_l2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        hs = PerturbedHalfSpace(BoundaryFunction.zero())
        grid = BoxGrid((-2.0, -2.0, -0.5), (2.0, 2.0, 3.5), (32, 32, 32))
        f = BoxField.sample(grid, hs,
                            lambda p: np.ones(p.shape[:-1] + (3,)), ncomp=3)
        write_field(f, tmp_path / "const.json")
        code = main(["--config", cfg, "norms", str(tmp_path / "const.json")])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        # masked cell count times cell volume: 4 * 4 * 3.5 above the wall
        vol = f.inside_mask.sum() * np.prod(grid.dx)
        assert abs(out["l2"] - np.sqrt(3 * vol)) < 1e-9
        assert out["bmo"] < 1e-12


class TestDecompose:
    @staticmethod
    def _write_gradient_field(tmp_path, hs):
        grid = BoxGrid((-2.0, -2.0, -0.5), (2.0, 2.0, 3.5), (64, 64, 64))
        c = np.array([0.0, 0.0, 1.5])

        def gp(p):
            return -2.0 * (p - c) / 0.12 * np.exp(
                -np.sum((p - c) ** 2, -1) / 0.12)[..., None]

        v = BoxField.sample(grid, hs, gp, ncomp=3)
        write_field(v, tmp_path / "v.json")
        return v

    def test_gradient_preset_and_determinism(self, tmp_path, capsys):
        cfg = write_config(tmp_path, box={"lower": [-2.0, -2.0, -0.5],
                                          "upper": [2.0, 2.0, 3.5],
                                          "resolution": [64, 64, 64]})
        hs = PerturbedHalfSpace(BoundaryFunction.zero())
        self._write_gradient_field(tmp_path, hs)
        out1 = tmp_path / "out1"
        out2 = tmp_path / "out2"
        code = main(["--config", cfg, "--out", str(out1), "decompose",
                     str(tmp_path / "v.json")])
        capsys.readouterr()
        assert code == 0
        payload = json.loads((out1 / "decompose.json").read_text())
        assert payload["residual_normal"] < 1e-3
        assert payload["verify"]["ok"] is True
        code = main(["--config", cfg, "--out", str(out2), "decompose",
                     str(tmp_path / "v.json")])
        capsys.readouterr()
        assert code == 0
        for name in ("v0.bin", "grad_q1.bin", "grad_q2.bin"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        assert (out1 / "decompose.json").read_text() == \
            (out2 / "decompose.json").read_text()


    def test_residual_normal_matches_verify(self, tmp_path, capsys):
        # decompose and verify probe the wall at the same points
        box = {"lower": [-2.0, -2.0, -0.4], "upper": [2.0, 2.0, 3.6],
               "resolution": [32, 32, 32]}
        bump = {"preset": "gaussian-bump", "a": 0.05, "s": 0.5}
        cfg = write_config(tmp_path, boundary=bump, box=box, seed=1234, rho=0.05,
                           lattice={"extent": 8.0, "resolution": 24})
        hs = PerturbedHalfSpace(BoundaryFunction.gaussian_bump(0.05, 0.5))
        grid = BoxGrid(tuple(box["lower"]), tuple(box["upper"]), (32, 32, 32))
        write_field(BoxField.sample(grid, hs, grad_gaussian, ncomp=3), tmp_path / "v.json")
        code = main(["--config", cfg, "--out", str(tmp_path / "out"), "decompose",
                     str(tmp_path / "v.json")])
        capsys.readouterr()
        assert code == 0
        payload = json.loads((tmp_path / "out" / "decompose.json").read_text())
        entry = {e["name"]: e["value"] for e in payload["verify"]["entries"]}
        assert payload["residual_normal"] > 0.0
        assert payload["residual_normal"] == entry["residual_normal"]
        # the lattice asked as 8.0 / 24 lands on every third box column
        assert payload["lattice"] == {"extent": 8.25, "resolution": 22, "stride": 3,
                                      **DIRECT_BUMP_SUM}


class TestExitCodes:
    """Program errors map to the documented codes: 2 gate, 4 bad input."""

    def test_non_decaying_field_is_bad_input(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        hs = PerturbedHalfSpace(BoundaryFunction.zero())
        grid = BoxGrid((-2.0, -2.0, -0.5), (2.0, 2.0, 3.5), (32, 32, 32))
        f = BoxField.sample(grid, hs,
                            lambda p: np.ones(p.shape[:-1] + (3,)), ncomp=3)
        write_field(f, tmp_path / "const.json")
        code = main(["--config", cfg, "decompose", str(tmp_path / "const.json")])
        err = json.loads(capsys.readouterr().err)
        assert code == 4
        assert "decay" in err["error"]

    def test_ladder_that_cannot_fit_is_bad_input(self, tmp_path, capsys):
        cfg = write_config(tmp_path, reach=0.1, rho=0.02)
        code = main(["--config", cfg, "verify-identities"])
        err = json.loads(capsys.readouterr().err)
        assert code == 4
        assert "ladder cannot fit" in err["error"]

    @pytest.mark.parametrize("lower, upper", [
        ([-1.0, -1.0, -0.5], [3.0, 3.0, 3.5]),     # off centre
        ([-2.0, -1.0, -0.5], [2.0, 1.0, 3.5]),     # not square
    ])
    def test_box_not_a_centred_square_is_bad_input(self, tmp_path, capsys, lower, upper):
        cfg = write_config(tmp_path, box={"lower": lower, "upper": upper,
                                          "resolution": [32, 32, 32]})
        hs = PerturbedHalfSpace(BoundaryFunction.zero())
        grid = BoxGrid(tuple(lower), tuple(upper), (32, 32, 32))
        c = np.array([0.5 * (lower[0] + upper[0]), 0.5 * (lower[1] + upper[1]), 1.5])
        write_field(BoxField.sample(grid, hs, lambda p: (p - c) * np.exp(
            -np.sum((p - c) ** 2, -1) / 0.05)[..., None], ncomp=3), tmp_path / "v.json")
        code = main(["--config", cfg, "decompose", str(tmp_path / "v.json")])
        err = json.loads(capsys.readouterr().err)
        assert code == 4
        assert "centred" in err["error"]

    @pytest.mark.parametrize("lattice", [{"extent": 6.0, "resolution": 100000},   # 74.5 GiB
                                         {"extent": 1e300, "resolution": 48}])
    def test_lattice_over_the_memory_cap_is_bad_input(self, tmp_path, capsys, lattice):
        cfg = write_config(tmp_path, lattice=lattice)
        with mock.patch.object(cli, "SurfaceQuadrature",
                               side_effect=AssertionError("a lattice was allocated")):
            code = main(["--config", cfg, "check-smallness"])
        err = json.loads(capsys.readouterr().err)
        assert code == 4
        assert "GiB cap" in err["error"]

    def test_box_too_short_for_the_columns_is_bad_input(self, tmp_path, capsys):
        # lattice spacing 1/8 on the box columns, so delta_min = 0.1875; the
        # columns end at x_n = 0.46875, below 3 delta_min
        box = {"lower": [-2.0, -2.0, -0.5], "upper": [2.0, 2.0, 0.5], "resolution": [32, 32, 32]}
        cfg = write_config(tmp_path, box=box)
        grid = BoxGrid(tuple(box["lower"]), tuple(box["upper"]), (32, 32, 32))
        write_field(BoxField(grid, np.zeros((3, 32, 32, 32))), tmp_path / "v.json")
        code = main(["--config", cfg, "decompose", str(tmp_path / "v.json")])
        err = json.loads(capsys.readouterr().err)
        assert code == 4
        assert "ends below 3 delta_min" in err["error"]

    def test_rho_above_half_rho0_is_bad_input(self, tmp_path, capsys):
        # the zero boundary has rho0 = 0.15, so the cutoff refuses rho = 0.1
        # before any subcommand starts its work
        cfg = write_config(tmp_path, rho=0.1)
        grid = BoxGrid((-2.0, -2.0, -0.5), (2.0, 2.0, 3.5), (32, 32, 32))
        write_field(BoxField(grid, np.zeros((3, 32, 32, 32))), tmp_path / "v.json")
        for argv in (["check-smallness"], ["verify-identities"],
                     ["norms", str(tmp_path / "v.json")], ["decompose", str(tmp_path / "v.json")]):
            assert main(["--config", cfg] + argv) == 4
            assert "rho0/2" in json.loads(capsys.readouterr().err)["error"]

    @staticmethod
    def _narrow_config(tmp_path, res):
        """smooth-bump(0.01, 0.3) on a res^3 box with a lattice asked as 1.2 / 8:
        it covers 4 R_h, but the flat-tail closure needs extent / 2 > R_h + 2 dx."""
        box = {"lower": [-1.0, -1.0, -0.2], "upper": [1.0, 1.0, 1.8], "resolution": [res] * 3}
        grid = BoxGrid(tuple(box["lower"]), tuple(box["upper"]), (res,) * 3)
        write_field(BoxField(grid, np.zeros((3, res, res, res))), tmp_path / "v.json")
        return write_config(tmp_path, box=box, reach=0.3, rho=0.015,
                            boundary={"preset": "smooth-bump", "a": 0.01, "R": 0.3},
                            lattice={"extent": 1.2, "resolution": 8})

    def test_lattice_too_narrow_for_verify_identities_is_bad_input(self, tmp_path, capsys):
        # 1.2 / 8 as asked: extent / 2 = 0.6 = R_h + 2 dx
        cfg = self._narrow_config(tmp_path, 32)
        assert main(["--config", cfg, "verify-identities"]) == 4
        assert "flat-tail closure" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("command", ["check-smallness", "decompose"])
    def test_lattice_too_narrow_for_the_plan_is_bad_input(self, tmp_path, capsys, command):
        # on the 8^3 box the plan's lattice is 1.5 / 6: extent / 2 = 0.75 < R_h + 2 dx
        cfg = self._narrow_config(tmp_path, 8)
        argv = [command] + ([str(tmp_path / "v.json")] if command == "decompose" else [])
        assert main(["--config", cfg] + argv) == 4
        err = json.loads(capsys.readouterr().err)["error"]
        assert "flat-tail closure" in err and "1.5 / 6" in err

    @pytest.mark.parametrize("command", ["norms", "decompose"])
    def test_field_not_a_3_vector_field_is_bad_input(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)
        grid = BoxGrid((-2.0, -2.0, -0.5), (2.0, 2.0, 3.5), (32, 32, 32))
        write_field(BoxField(grid, np.zeros((1, 32, 32, 32))), tmp_path / "s.json")
        assert main(["--config", cfg, command, str(tmp_path / "s.json")]) == 4
        assert "3-vector" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize("where", ["header", "payload"])
    @pytest.mark.parametrize("command", ["norms", "decompose"])
    def test_field_file_that_is_a_directory_is_bad_input(self, tmp_path, capsys, command,
                                                          where):
        # an OSError other than FileNotFoundError (here IsADirectoryError)
        cfg = write_config(tmp_path)
        if where == "header":
            (tmp_path / "v.json").mkdir()
        else:
            grid = BoxGrid((-2.0, -2.0, -0.5), (2.0, 2.0, 3.5), (32, 32, 32))
            write_field(BoxField(grid, np.zeros((3, 32, 32, 32))), tmp_path / "v.json")
            payload = tmp_path / json.loads((tmp_path / "v.json").read_text())["payload"]
            payload.unlink()
            payload.mkdir()
        assert main(["--config", cfg, command, str(tmp_path / "v.json")]) == 4
        assert "error" in json.loads(capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["check-smallness", "decompose"])
    def test_out_that_names_a_file_is_bad_input(self, tmp_path, capsys, command):
        # mkdir of --out raises FileExistsError
        cfg = write_config(tmp_path)
        grid = BoxGrid((-2.0, -2.0, -0.5), (2.0, 2.0, 3.5), (32, 32, 32))
        write_field(BoxField.sample(grid, PerturbedHalfSpace(BoundaryFunction.zero()),
                                    grad_gaussian, ncomp=3), tmp_path / "v.json")
        (tmp_path / "out").write_text("kept\n")
        argv = [command] + ([str(tmp_path / "v.json")] if command == "decompose" else [])
        assert main(["--config", cfg, "--out", str(tmp_path / "out")] + argv) == 4
        assert "error" in json.loads(capsys.readouterr().err)
        assert (tmp_path / "out").read_text() == "kept\n"

    def test_series_cap_is_gate_failure(self, tmp_path, capsys):
        cfg = write_config(tmp_path, box={"lower": [-2.0, -2.0, -0.5],
                                          "upper": [2.0, 2.0, 3.5],
                                          "resolution": [64, 64, 64]}, kmax=1)
        hs = PerturbedHalfSpace(BoundaryFunction.zero())
        TestDecompose._write_gradient_field(tmp_path, hs)
        code = main(["--config", cfg, "--out", str(tmp_path / "out"),
                     "decompose", str(tmp_path / "v.json")])
        out = json.loads(capsys.readouterr().out)
        assert code == 2
        assert "kmax=1" in out["error"]
        assert out["series_terms_used"] == 1 and "residual" in out
        report = json.loads((tmp_path / "out" / "decompose.json").read_text())
        assert report == out

    def test_not_contractive_is_gate_failure(self, tmp_path, capsys):
        # the plan keeps a contraction >= 1; decompose refuses it before any
        # field work, check-smallness reports it with the plan's lattice
        cfg = write_config(tmp_path)
        grid = BoxGrid((-2.0, -2.0, -0.5), (2.0, 2.0, 3.5), (32, 32, 32))
        write_field(BoxField.sample(grid, PerturbedHalfSpace(BoundaryFunction.zero()),
                                    grad_gaussian, ncomp=3), tmp_path / "v.json")
        with mock.patch.object(pipeline, "estimate_contraction", return_value=1.5), \
                mock.patch.object(pipeline, "volume_potential_grad", side_effect=AssertionError):
            assert main(["--config", cfg, "check-smallness"]) == 2
            gate = json.loads(capsys.readouterr().out)
            assert main(["--config", cfg, "decompose", str(tmp_path / "v.json")]) == 2
            out = json.loads(capsys.readouterr().out)
        assert gate["verdict"]["empirical"] is False and gate["empirical_2S_norm"] == 1.5
        assert gate["lattice"] == {"extent": 6.0, "resolution": 48, "stride": 1}
        assert "|2S| = 1.500" in out["error"] and out["smallness"] == {
            k: v for k, v in gate.items() if k not in ("verdict", "cstar_n", "lattice")}

    def test_usage_errors_are_bad_input(self, tmp_path, capsys):
        # exit 2 is a failed gate; argparse's own usage errors exit 4
        cfg = write_config(tmp_path)
        for argv in (["frobnicate"], ["decompose"], []):
            assert main(["--config", cfg] + argv) == 4
            assert "error" in json.loads(capsys.readouterr().err)
        with pytest.raises(SystemExit) as done:
            main(["--help"])
        assert done.value.code == 0

    @pytest.mark.parametrize("config, header", [
        ({"box": {"lower": [-2.0, -2.0, -0.5], "upper": [2.0, 2.0, 3.5],
                  "resolution": [32.0, 32, 32]}}, {}),
        ({"mu": "0.3"}, {}),
        ({"lattice": {"extent": "6.0", "resolution": 48}}, {}),
        ({"lattice": {"extent": 6.0, "resolution": 48.5}}, {}),
        ({"boundary": {"preset": "smooth-bump", "a": 0.01}}, {}),
        ({"seed": None}, {}),
        ({}, {"components": None}),
        ({}, {"payload": "short.bin"}),
        ({}, {"dtype": "f32le"}),
    ], ids=["box-resolution-float", "mu-string", "extent-string", "lattice-resolution-float",
            "smooth-bump-without-R", "seed-null", "header-without-components",
            "short-payload", "dtype-f32le"])
    def test_malformed_input_is_bad_input(self, tmp_path, capsys, config, header):
        cfg = write_config(tmp_path, **config)
        grid = BoxGrid((-2.0, -2.0, -0.5), (2.0, 2.0, 3.5), (32, 32, 32))
        write_field(BoxField(grid, np.zeros((3, 32, 32, 32))), tmp_path / "f.json")
        (tmp_path / "short.bin").write_bytes(bytes(100))
        raw = json.loads((tmp_path / "f.json").read_text())
        raw.update(header)
        (tmp_path / "f.json").write_text(json.dumps({k: v for k, v in raw.items()
                                                     if v is not None}))
        # check-smallness reads no field, so it sees only the config cases
        runs = [["norms", str(tmp_path / "f.json")]] + ([] if header else [["check-smallness"]])
        for argv in runs:
            assert main(["--config", cfg] + argv) == 4
            assert "error" in json.loads(capsys.readouterr().err)

    def test_field_off_the_config_box_is_bad_input(self, tmp_path, capsys):
        cfg = write_config(tmp_path)  # 32^3 box
        hs = PerturbedHalfSpace(BoundaryFunction.zero())
        TestDecompose._write_gradient_field(tmp_path, hs)  # 64^3 field
        for command in ("norms", "decompose"):
            code = main(["--config", cfg, command, str(tmp_path / "v.json")])
            err = json.loads(capsys.readouterr().err)
            assert code == 4
            assert "box.resolution" in err["error"]


def test_cli_import_leaves_scipy_unloaded():
    # scipy.fft costs about 0.3 s to import; only the stages that transform
    # import it, so a run pays for it in its first decompose, not at start-up
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, helmdecomp.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
