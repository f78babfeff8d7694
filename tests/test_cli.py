import json

import numpy as np
import pytest

from helmdecomp import BoundaryFunction, BoxField, BoxGrid, PerturbedHalfSpace
from helmdecomp.cli import RunConfig, main
from helmdecomp.errors import ConfigError
from helmdecomp.pipeline import write_field


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
        cfg = write_config(tmp_path, boundary={"preset": "smooth-bump",
                                               "a": 0.01, "R": 0.3},
                           lattice={"extent": 2.0, "resolution": 48},
                           reach=0.3, rho="remove")
        raw = json.loads(open(cfg).read())
        raw["rho"] = 0.015
        open(cfg, "w").write(json.dumps(raw))
        code = main(["--config", cfg, "--cstar", str(1e-4), "check-smallness"])
        out = json.loads(capsys.readouterr().out)
        assert out["empirical_2S_norm"] < 0.1
        assert out["verdict"]["empirical"] is True
        assert code == 0  # tiny cstar_n makes the symbolic gate pass too


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

    def test_series_cap_is_gate_failure(self, tmp_path, capsys):
        cfg = write_config(tmp_path, box={"lower": [-2.0, -2.0, -0.5],
                                          "upper": [2.0, 2.0, 3.5],
                                          "resolution": [64, 64, 64]})
        hs = PerturbedHalfSpace(BoundaryFunction.zero())
        TestDecompose._write_gradient_field(tmp_path, hs)
        code = main(["--config", cfg, "--kmax", "1", "decompose",
                     str(tmp_path / "v.json")])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert "kmax=1" in err["error"]
