import json
import math
import os

import pytest

from qnmopt.cli import main

from conftest import LN3_4


def run(argv):
    return main([str(a) for a in argv])


class TestSpectrum:
    def test_b4_preset_three_rows(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        assert run(["spectrum", "--preset-constant", 4, "--bounds", 1, 4,
                    "--window", 0.1, 5, 0.1, 1, "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "re,im,multiplicity,residual"
        assert len(lines) == 4
        assert os.path.exists(str(out) + ".manifest.json")

    def test_b1_preset_empty(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        assert run(["spectrum", "--preset-constant", 1, "--bounds", 1, 4,
                    "--window", 0.1, 5, 0.1, 1, "--out", out]) == 0
        assert len(out.read_text().strip().splitlines()) == 1

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert run(["spectrum", "--structure", bad,
                    "--window", 0.1, 5, 0.1, 1,
                    "--out", tmp_path / "x.csv"]) == 2

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["spectrum", "--preset-constant", 4, "--bounds", 1, 4,
                "--window", 0.1, 5, 0.1, 1, "--out"]
        assert run(args + [a]) == 0
        assert run(args + [b]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_window_exit_4(self, tmp_path, capsys):
        # F overflows on a window 400 tall: a numerical failure, not a crash
        out = tmp_path / "spectrum.csv"
        code = run(["spectrum", "--preset-constant", 4,
                    "--window", 0.1, 12, 0.05, 400, "--out", out])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("numerical failure:")
        assert "Traceback" not in err


class TestOptimize:
    def test_axis_run_outputs(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "alpha": 0.0, "bounds": [1, 4], "n_cells": 32,
            "seed_constant": 2.5, "max_iters": 150}))
        out = tmp_path / "run"
        assert run(["optimize", "--config", cfg, "--out-dir", out]) == 0
        rec = json.loads((out / "structure.json").read_text())
        assert abs(rec["kappa"][1] - LN3_4) < 1e-6
        assert rec["structure"]["values"] == [4.0]
        traj = (out / "trajectory.csv").read_text().splitlines()
        assert traj[0] == "iter,re,im,drift,extremality,step"
        cert = json.loads((out / "certificate.json").read_text())
        assert cert["axis"] is True
        assert cert["nonlinear_mismatch"] == 0.0
        assert (out / "run.manifest.json").exists()

    def test_infeasible_exit_3(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.0, "bounds": [0.2, 0.9],
                                   "n_cells": 32}))
        assert run(["optimize", "--config", cfg,
                    "--out-dir", tmp_path / "r"]) == 3

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bounds": [1, 4]}))  # missing alpha
        assert run(["optimize", "--config", cfg,
                    "--out-dir", tmp_path / "r"]) == 2

    def test_partial_trajectory_on_collision(self, tmp_path):
        # a seed sitting on a double eigenvalue aborts with exit 4 but still
        # leaves the trajectory written so far
        from qnmopt.sensitivity import find_double_eigenvalue
        from conftest import DOUBLE_KAPPA_SEED, DOUBLE_SEED
        import math as _math
        from scipy.optimize import root as scipy_root
        from qnmopt.medium import AdmissibleBounds, PiecewiseStructure
        from qnmopt.field import charF, dzF

        a = 23.0 / 32.0
        wide = AdmissibleBounds(0.0, 8.0)

        def residual(p):
            v1, v2, re, im = p
            if v1 <= 0 or v2 <= 0 or im <= 0:
                return [1e3] * 4
            z = complex(re, im)
            B = PiecewiseStructure((0.0, a, 1.0), (v1, v2), wide)
            f, df = charF(z, B), dzF(z, B)
            return [f.real, f.imag, df.real, df.imag]

        sol = scipy_root(residual, [4.0, 1.52, 4.45, 1.04], tol=1e-13)
        assert sol.success
        v1, v2, re, im = sol.x
        B = PiecewiseStructure((0.0, a, 1.0), (v1, v2), wide)
        B.save(tmp_path / "double.json")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "alpha": re, "bounds": [0.0, 8.0], "n_cells": 32,
            "seed_structure": str(tmp_path / "double.json"),
            "seed_kappa": [re, im],
            "max_iters": 10}))
        out = tmp_path / "run"
        code = run(["optimize", "--config", cfg, "--out-dir", out])
        assert code == 4
        assert (out / "trajectory.csv").exists()


class TestCertify:
    def test_on_optimizer_output(self, tmp_path, pi_optimum):
        struct = tmp_path / "s.json"
        pi_optimum.polished.save(struct)
        out = tmp_path / "cert.json"
        k = pi_optimum.polished_kappa
        assert run(["certify", "--structure", struct,
                    "--kappa-re", k.real, "--kappa-im", k.imag,
                    "--out", out]) == 0
        cert = json.loads(out.read_text())
        assert cert["max_deviation"] < 0.05
        assert cert["max_interval_variation"] <= math.pi + 0.05
        assert cert["nonlinear_mismatch"] < 0.02

    def test_not_at_root_exit_2(self, tmp_path):
        out = tmp_path / "cert.json"
        code = run(["certify", "--preset-constant", 4, "--bounds", 1, 4,
                    "--kappa-re", 1.0, "--kappa-im", 0.5, "--out", out])
        assert code == 2


class TestSimulate:
    def test_mode_decay_csv(self, tmp_path):
        out = tmp_path / "decay.csv"
        assert run(["simulate", "--preset-constant", 4, "--bounds", 1, 4,
                    "--kappa-re", math.pi, "--kappa-im", LN3_4,
                    "--mode-excitation", "--T", 2.0, "--cells", 512,
                    "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,energy,u_probe"
        assert len(lines) > 100
        e0 = float(lines[1].split(",")[1])
        e_end = float(lines[-1].split(",")[1])
        assert e_end < e0

    @pytest.mark.parametrize("bad", [["--cells", 0], ["--cells", -3],
                                     ["--T", -1], ["--T", "nan"]])
    def test_bad_run_exit_2(self, tmp_path, capsys, bad):
        out = tmp_path / "decay.csv"
        code = run(["simulate", "--preset-constant", 4, "--bounds", 1, 4,
                    "--out", out, *bad])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("input error:")
        assert "Traceback" not in err
        assert not out.exists()


class TestSplittingProbe:
    def test_fixture_csv_and_summary(self, tmp_path):
        out = tmp_path / "split.csv"
        assert run(["splitting-probe", "--out", out,
                    "--zetas", 1e-4, 1e-5, 1e-6]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "zeta,branch_index,re,im"
        assert len(lines) == 1 + 3 * 2
        summary = json.loads((str(out) + ".summary.json")
                             and open(str(out) + ".summary.json").read())
        assert abs(summary["fitted_exponent"] - 0.5) < 0.05
