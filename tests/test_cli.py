import contextlib
import io
import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnmopt.cli import (_CONFIG_OPTIONS, _config_from_json, build_parser,
                        main)
from qnmopt.medium import AdmissibleBounds, constant
from qnmopt.optimize import OptimizeConfig, minimize_im_at_frequency

from conftest import LN3_4


# OptimizeConfig fields that became module constants, at their old defaults
REMOVED_OPTIONS = {"step0": 0.2, "step_grow": 1.5, "step_shrink": 0.5,
                   "tol_freq": 1e-8, "tol_grad": 1e-10, "round_threshold": 0.25}


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
        manifest = json.loads(open(str(out) + ".manifest.json").read())
        assert set(manifest) == {"command", "config", "inputs", "outputs",
                                 "version", "timestamp"}

    @pytest.mark.parametrize("command", [
        ["spectrum", "--window", 0.1, 5, 0.1, 1],
        ["certify", "--kappa-re", 1, "--kappa-im", 0.5],
        ["simulate"], ["splitting-probe"]])
    def test_no_seed_option(self, command, capsys):
        # --seed only ever reached the manifest
        with pytest.raises(SystemExit) as exc:
            run([*command, "--seed", 0])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

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

    def test_overflowing_window_exit_4(self, tmp_path, capsys):
        # F overflows on a window 400 tall: a numerical failure, not a crash
        out = tmp_path / "spectrum.csv"
        code = run(["spectrum", "--preset-constant", 4,
                    "--window", 0.1, 12, 0.05, 400, "--out", out])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("numerical failure:")
        assert "Traceback" not in err


    @pytest.mark.parametrize("bounds, code, rows", [((1, 2), 2, None),
                                                    ((3, 5), 0, 7)])
    def test_bounds_apply_to_structure(self, tmp_path, capsys, bounds, code,
                                       rows):
        # B = 4 in a file with bounds 0..5: --bounds 1 2 leave it outside
        struct = tmp_path / "s.json"
        struct.write_text(json.dumps({"bounds": [0, 5], "values": [4],
                                      "breakpoints": [0, 1]}))
        out = tmp_path / "spectrum.csv"
        assert run(["spectrum", "--structure", struct, "--bounds", *bounds,
                    "--window", 0.1, 12, 0.05, 3, "--out", out]) == code
        err = capsys.readouterr().err
        if rows is None:
            assert err.startswith("input error:")
            assert sorted(os.listdir(tmp_path)) == ["s.json"]
        else:
            assert len(out.read_text().strip().splitlines()) == 1 + rows


class TestSpectrumErrorContract:
    """The CLI twin of spectrum's error-contract property: on any finite
    window corners and sizes, spectrum exits 0, 2, 3 or 4, prints no
    traceback, and leaves no file behind when it fails."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(b=st.sampled_from([-1.0, 0.0, 1e-300, 0.25, 1.0, 4.0, 9.0, 100.0]),
           re=st.sampled_from([-12.0, 1e6, -1e300, 1e308])
           | st.floats(-20.0, 20.0),
           im=st.sampled_from([0.0, 5e-324, 0.05, 80.0, 1e300])
           | st.floats(0.0, 10.0),
           size=st.tuples(*[st.sampled_from([0.0, 1e-9, 0.01, 0.3, 2.0,
                                             1e300])] * 2))
    def test_exit_codes(self, b, re, im, size):
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as d:
            out = os.path.join(d, "spectrum.csv")
            with contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                try:
                    code = run(["spectrum", "--preset-constant", b,
                                "--window", re, re + size[0], im,
                                im + size[1], "--out", out])
                except SystemExit as exc:   # argparse refused the line
                    code = exc.code
            assert code in (0, 2, 3, 4)
            assert "Traceback" not in err.getvalue()
            if code:
                assert os.listdir(d) == []


class TestSpectrumTol:
    @pytest.mark.parametrize("tol", ["-1e-3", "0", "nan"])
    def test_bad_tol_exit_2(self, tmp_path, capsys, tol):
        # -1e-3 used to bisect to depth 64 and exit 4 with MaxDepthExceeded
        code = run(["spectrum", "--preset-constant", 4, "--window", 0.1, 5,
                    0.1, 1, "--tol", tol, "--out", tmp_path / "spectrum.csv"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("input error:") and "tol" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []


class TestNegativeExponents:
    """Negative floats in exponent form are values, not unknown options."""

    def test_huge_window_reaches_the_library(self, tmp_path, capsys):
        out = tmp_path / "spectrum.csv"
        code = run(["spectrum", "--preset-constant", 4,
                    "--window", "-1e+300", 0, 0.1, 1, "--out", out])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("numerical failure:")
        assert "Traceback" not in err
        assert not out.exists()

    def test_small_negative_corner_runs(self, tmp_path):
        out = tmp_path / "spectrum.csv"
        assert run(["spectrum", "--preset-constant", 4,
                    "--window", "-1e-3", 12, 0.05, 3, "--out", out]) == 0
        # kappa_n = n pi / 2 + i ln3/4, n = 0 .. 7
        assert len(out.read_text().strip().splitlines()) == 1 + 8

    @pytest.mark.parametrize("argv, dest, want", [
        (["spectrum", "--window", "-1e-3", "-2E+1", "0.05", "3",
          "--preset-constant", "-4e0", "--bounds", "-1e0", "4",
          "--tol", "-1.5e-12"],
         ["window", "preset_constant", "bounds", "tol"],
         [[-1e-3, -20.0, 0.05, 3.0], -4.0, [-1.0, 4.0], -1.5e-12]),
        (["certify", "--kappa-re", "-2.5e+1", "--kappa-im", "-.5e-2"],
         ["kappa_re", "kappa_im"], [-25.0, -0.005]),
        (["simulate", "--kappa-re", "-1e1", "--T", "-3e0"],
         ["kappa_re", "T"], [-10.0, -3.0]),
        (["splitting-probe", "--fixture-seed", "-7e-1", "4", "-1.5e0",
          "--zetas", "-1e-3", "-2e-3", "--kappa-im", "-inf"],
         ["fixture_seed", "zetas", "kappa_im"],
         [[-0.7, 4.0, -1.5], [-1e-3, -2e-3], -math.inf])])
    def test_every_float_option(self, argv, dest, want):
        args = build_parser().parse_args(argv)
        assert [getattr(args, d) for d in dest] == want


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

    def test_unpolished_run_writes_the_rounded_medium(self, tmp_path):
        # the rounded medium used to be written with the grid's kappa
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 9.4, "bounds": [0.5, 3.0],
                                   "n_cells": 64}))
        out = tmp_path / "run"
        assert run(["optimize", "--config", cfg, "--out-dir", out]) == 0
        rec = json.loads((out / "structure.json").read_text())
        res = minimize_im_at_frequency(*_config_from_json(str(cfg)))
        assert res.polished is None
        assert rec["structure"] == res.rounded.to_json_dict()
        assert rec["kappa"] == rec["rounded_kappa"] == \
            [res.rounded_kappa.real, res.rounded_kappa.imag]
        assert rec["grid_kappa"] == [res.kappa.real, res.kappa.imag]
        assert abs(rec["kappa"][0] - 9.4) > 0.01

    def test_infeasible_exit_3(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 0.0, "bounds": [0.2, 0.9],
                                   "n_cells": 32}))
        assert run(["optimize", "--config", cfg,
                    "--out-dir", tmp_path / "r"]) == 3

    def test_tiny_frequency_infeasible_exit_3(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 1e-300, "bounds": [1, 4],
                                   "n_cells": 32}))
        code = run(["optimize", "--config", cfg, "--out-dir", tmp_path / "r"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("infeasible:")
        assert "Traceback" not in err

    def test_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bounds": [1, 4]}))  # missing alpha
        assert run(["optimize", "--config", cfg,
                    "--out-dir", tmp_path / "r"]) == 2

    def test_config_defaults_are_optimize_config_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 1.5, "bounds": [1, 4]}))
        got, seed_structure = _config_from_json(str(cfg))
        assert got == OptimizeConfig(alpha=1.5,
                                     bounds=AdmissibleBounds(1.0, 4.0))
        assert seed_structure is None

    @pytest.mark.parametrize("extra, named", [
        ({"max_iter": 5, "n_cell": 32}, "['max_iter', 'n_cell']"),
        ({"seed": 0}, "['seed']"),
    ])
    def test_unknown_config_keys_exit_2(self, tmp_path, capsys, extra,
                                        named):
        # misspelt options used to be ignored: 400 iterations on 256 cells
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 1.5, "bounds": [1, 4], **extra}))
        code = run(["optimize", "--config", cfg, "--out-dir", tmp_path / "r"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("input error: unknown config keys " + named)
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("raw", [[1, 2], "alpha", 1.5])
    def test_config_not_an_object_exit_2(self, tmp_path, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert run(["optimize", "--config", cfg,
                    "--out-dir", tmp_path / "r"]) == 2

    @pytest.mark.parametrize("key, value", REMOVED_OPTIONS.items())
    def test_removed_options_exit_2(self, tmp_path, capsys, key, value):
        # step sizes, tolerances and the rounding threshold are constants
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 1.5, "bounds": [1, 4],
                                   key: value}))
        code = run(["optimize", "--config", cfg, "--out-dir", tmp_path / "r"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"input error: unknown config keys ['{key}']")
        assert "Traceback" not in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("extra", [
        {"n_cells": 8}, {"n_cells": 0}, {"n_cells": 1.5}, {"max_iters": -1},
        {"alpha": math.nan}, {"alpha": math.inf},
        {"seed_kappa": [1.5, 0.25]},
        {"seed_kappa": [math.nan, 0.25], "seed_constant": 4},
        {"seed_kappa": [1.5, math.inf], "seed_constant": 4},
        # int() loaded these as 64 cells and 2 iterations without a word
        {"n_cells": 64.7}, {"max_iters": 2.9}, {"n_cells": "64"},
        {"max_iters": True},
        # a ValueError and an OverflowError traceback, exit 1
        {"seed_constant": "x"}, {"seed_constant": 10 ** 400},
        {"alpha": 10 ** 400}, {"seed_structure": ["s.json"]},
    ])
    def test_invalid_run_exit_2(self, tmp_path, capsys, extra):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 1.5, "bounds": [1, 4],
                                   "n_cells": 32, **extra}))
        code = run(["optimize", "--config", cfg, "--out-dir", tmp_path / "r"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("input error:")
        assert "Traceback" not in err
        # a refused run writes nothing, not even the output directory
        assert not (tmp_path / "r").exists()

    def test_config_options_converted(self, tmp_path):
        opts = {"n_cells": 64, "max_iters": 7}
        assert set(opts) == _CONFIG_OPTIONS
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 1.5, "bounds": [1, 4],
                                   "seed_kappa": [1.5, 0.25], **opts}))
        got = _config_from_json(str(cfg))[0]
        assert got == OptimizeConfig(alpha=1.5,
                                     bounds=AdmissibleBounds(1.0, 4.0),
                                     seed_kappa=1.5 + 0.25j, **opts)

    @pytest.mark.parametrize("raw", [
        {"bounds": [1, 4]}, {"alpha": 1.5},
        {"alpha": None, "bounds": [1, 4]}, {"alpha": 1.5, "bounds": None},
        *({"alpha": 1.5, "bounds": [1, 4], k: None}
          for k in (*_CONFIG_OPTIONS, *REMOVED_OPTIONS)),
    ])
    def test_missing_or_null_exit_2(self, tmp_path, raw):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
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

    @pytest.mark.parametrize("bounds", [[], ["--bounds", 1, 4]])
    def test_preset_manifest_names_the_constant(self, tmp_path, bounds):
        # spectrum, certify and simulate name a preset medium alike
        out = tmp_path / "cert.json"
        assert run(["certify", "--preset-constant", 4, *bounds,
                    "--kappa-re", math.pi, "--kappa-im", LN3_4,
                    "--out", out]) == 0
        manifest = json.loads(open(str(out) + ".manifest.json").read())
        assert manifest["inputs"] == ["constant:4.0"]

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


    @pytest.mark.parametrize("bad, code", [
        (["--T", "1e300"], 2),
        (["--cells", 10 ** 12], 2),
        (["--T", 0, "--fit-decay", "--kappa-re", 1, "--kappa-im", 0.3,
          "--cells", 64], 4),
        (["--T", 1, "--fit-decay", "--kappa-re", "1e-300", "--kappa-im", 0.3,
          "--cells", 64], 4)])
    def test_oversized_or_unfittable_run(self, tmp_path, capsys, bad, code):
        assert run(["simulate", "--preset-constant", 4,
                    "--out", tmp_path / "decay.csv", *bad]) == code
        err = capsys.readouterr().err
        assert err.startswith(("input error:", "numerical failure:"))
        assert "Traceback" not in err


    def test_failed_fit_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # the CSV and its manifest were written before the fit failed
        monkeypatch.chdir(tmp_path)
        assert run(["simulate", "--preset-constant", 4, "--T", 0,
                    "--fit-decay", "--kappa-re", 1, "--kappa-im", 0.3,
                    "--cells", 64, "--out", "d.csv"]) == 4
        assert "Traceback" not in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    def test_fit_decay_writes_and_reports(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert run(["simulate", "--preset-constant", 4, "--T", 6,
                    "--fit-decay", "--kappa-re", math.pi, "--kappa-im", LN3_4,
                    "--cells", 256, "--out", out]) == 0
        assert "fitted beta=" in capsys.readouterr().out
        assert out.exists() and os.path.exists(str(out) + ".manifest.json")

    @pytest.mark.parametrize("mode, runs", [(True, 1), (False, 2)])
    def test_fit_decay_runs(self, tmp_path, capsys, monkeypatch, mode, runs):
        # with --mode-excitation the fit reads the run the CSV holds; it ran
        # excite_and_fit's own run and then that one
        from qnmopt import cli, timedomain
        kappa = complex(math.pi, LN3_4)
        want = timedomain.excite_and_fit(constant(4.0), kappa, 6.0, 256)
        calls = []
        original = timedomain.simulate

        def counted(*args):
            calls.append(args[3])
            return original(*args)

        fits = []

        def fit_decay(*args):
            fits.append(timedomain._fit_decay(*args))
            return fits[-1]

        monkeypatch.setattr(timedomain, "simulate", counted)
        monkeypatch.setattr(cli, "simulate", counted)
        monkeypatch.setattr(cli, "_fit_decay", fit_decay)
        assert run(["simulate", "--preset-constant", 4, "--T", 6,
                    "--fit-decay", "--kappa-re", kappa.real,
                    "--kappa-im", kappa.imag, "--cells", 256,
                    *(["--mode-excitation"] if mode else []),
                    "--out", tmp_path / "d.csv"]) == 0
        assert len(calls) == runs and calls[-1] == 6.0
        assert fits == ([want] if mode else [])
        assert f"fitted beta={want.beta:.6g} " in capsys.readouterr().out


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

    def test_triple_root_structure(self, tmp_path, triple_fixture):
        B, kappa, _ = triple_fixture
        struct = tmp_path / "triple.json"
        B.save(struct)
        out = tmp_path / "split.csv"
        assert run(["splitting-probe", "--structure", struct,
                    "--kappa-re", kappa.real, "--kappa-im", kappa.imag,
                    "--multiplicity", 3, "--out", out]) == 0
        assert len(out.read_text().splitlines()) == 1 + 4 * 3
        summary = json.loads(open(str(out) + ".summary.json").read())
        assert abs(summary["fitted_exponent"] - 1 / 3) < 0.05


class TestCertifySplittingErrorContract:
    """The CLI twins of certificate's error-contract property: certify and
    splitting-probe exit 0, 2, 3 or 4, print no traceback and leave no file
    behind when they fail."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_exit_codes(self, data):
        draw = data.draw
        re = draw(st.sampled_from([math.pi, 4.44244, 0.0, -1.5, 1e300, "nan",
                                   "inf"]))
        im = draw(st.sampled_from([LN3_4, 1.03017, 0.0, -0.5, 1e300, "nan"]))
        kappa = ["--kappa-re", re, "--kappa-im", im]
        medium = draw(st.sampled_from([
            ["--preset-constant", 4], ["--preset-constant", 4, "--bounds", 1, 4],
            ["--preset-constant", -1], ["--preset-constant", 4, "--bounds", 4, 1],
            ["--structure", "s.json"], ["--structure", "missing.json"]]))
        probe = draw(st.sampled_from([
            [], ["--fixture-seed", 0.5, 1, 2], ["--fixture-seed", "nan", 1, 2],
            ["--fixture-seed", 2.0, -1, 3], ["--structure", "s.json", *kappa],
            kappa]))
        probe += ["--multiplicity", draw(st.sampled_from([2, 3, 0, -1, 7]))]
        probe += draw(st.sampled_from([
            [], ["--zetas", 1e-4, 1e-5], ["--zetas", -1e-3], ["--zetas", 0],
            ["--zetas", "inf"], ["--zetas", 1e-4, 1e-4]]))
        for argv in (["certify", *medium, *kappa], ["splitting-probe", *probe]):
            err = io.StringIO()
            with tempfile.TemporaryDirectory() as d:
                struct = os.path.join(d, "s.json")
                constant(4.0).save(struct)
                argv = [os.path.join(d, a) if str(a).endswith(".json") else a
                        for a in argv]
                with contextlib.redirect_stderr(err), \
                        contextlib.redirect_stdout(io.StringIO()):
                    try:
                        code = run(argv + ["--out", os.path.join(d, "out")])
                    except SystemExit as exc:   # argparse refused the line
                        code = exc.code
                assert code in (0, 2, 3, 4)
                assert "Traceback" not in err.getvalue()
                if code:
                    assert os.listdir(d) == ["s.json"]


class TestNonFiniteInput:
    """NaN and infinity in a structure, a bound or kappa exit 2."""

    @pytest.mark.parametrize("breakpoints", [[math.nan, 0.5, 1.0],
                                             [0.0, math.nan, 1.0]])
    def test_structure_breakpoints(self, tmp_path, capsys, breakpoints):
        struct = tmp_path / "s.json"
        struct.write_text(json.dumps({"bounds": [1, 4], "values": [1, 4],
                                      "breakpoints": breakpoints}))
        self.check(tmp_path, capsys, ["spectrum", "--structure", struct,
                                      "--window", 0.1, 12, 0.05, 3])

    def test_infinite_preset(self, tmp_path, capsys):
        self.check(tmp_path, capsys, ["spectrum", "--preset-constant", "inf",
                                      "--window", 0.1, 12, 0.05, 3])

    def test_certify_nan_kappa(self, tmp_path, capsys):
        self.check(tmp_path, capsys, ["certify", "--preset-constant", 4,
                                      "--kappa-re", "nan", "--kappa-im", 0.3])

    def test_simulate_nan_mode(self, tmp_path, capsys):
        self.check(tmp_path, capsys, ["simulate", "--preset-constant", 4,
                                      "--cells", 64, "--T", 1, "--kappa-re",
                                      "nan", "--mode-excitation"])

    @staticmethod
    def check(tmp_path, capsys, argv):
        out = tmp_path / "out"
        code = run(argv + ["--out", out])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("input error:")
        assert "Traceback" not in err
        assert not out.exists()
