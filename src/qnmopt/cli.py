"""Command-line front end.

Subcommands: spectrum, optimize, certify, simulate, splitting-probe.
Exit codes: 0 success, 2 input error, 3 infeasible / seedless,
4 numerical failure.  All CSV output uses a header row and %.12e floats;
files are written atomically (temp + rename) next to a small run manifest.
"""
from __future__ import annotations

import argparse
import datetime
import json
import os
import re
import sys
import tempfile

import numpy as np

from . import __version__
from .errors import InfeasibleError, InputError, QnmOptError
from .medium import (AdmissibleBounds, GridStructure, PiecewiseStructure,
                     constant, extremality_measure, to_grid)
from .optimize import OptimizeConfig, minimize_im_at_frequency
from .certificate import nonlinear_residual, switch_alignment
from .sensitivity import find_double_eigenvalue, splitting_probe
from .spectrum import SpectralWindow, locate
from .timedomain import (_fit_decay, _mode_data, _plan, excite_and_fit,
                         simulate)

FLOAT_FMT = "%.12e"

# frozen two-layer seed known to converge to a double eigenvalue
FIXTURE_SEED = (0.7125, 4.0, 1.4792)
FIXTURE_KAPPA = 4.44244 + 1.03017j

# optional OptimizeConfig keys a config file passes through as they are; an
# absent key keeps the OptimizeConfig default
_CONFIG_OPTIONS = {"n_cells", "max_iters"}
# every key a config file may hold
_CONFIG_KEYS = {"alpha", "bounds", "seed_kappa", "seed_structure",
                "seed_constant", *_CONFIG_OPTIONS}


def _atomic_write(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path: str, header: list, rows: list) -> None:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(FLOAT_FMT % v)
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    _atomic_write(path, "\n".join(lines) + "\n")


def _write_json(path: str, obj) -> None:
    _atomic_write(path, json.dumps(obj, indent=2) + "\n")


def _manifest(command: str, config_path, inputs: list, outputs: list) -> dict:
    return {
        "command": command,
        "config": config_path,
        "inputs": inputs,
        "outputs": outputs,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _load_structure(args) -> tuple:
    """(structure, its manifest input) from --structure or --preset-constant;
    --bounds replaces the bounds of either, so a medium outside them is an
    input error."""
    bounds = AdmissibleBounds(*args.bounds) if args.bounds else None
    if args.structure:
        B = PiecewiseStructure.load(args.structure)
        if bounds is not None:
            B = PiecewiseStructure(B.breakpoints, B.values, bounds)
        return B, args.structure
    if args.preset_constant is not None:
        return (constant(args.preset_constant, bounds),
                f"constant:{args.preset_constant}")
    raise InputError("provide --structure FILE or --preset-constant B")


# -- subcommands --------------------------------------------------------------

def cmd_spectrum(args) -> int:
    B, source = _load_structure(args)
    w = SpectralWindow(*args.window)
    evs = locate(B, w, tol=args.tol)
    rows = [(ev.kappa.real, ev.kappa.imag, ev.multiplicity, ev.residual)
            for ev in evs]
    _write_csv(args.out, ["re", "im", "multiplicity", "residual"], rows)
    _write_json(args.out + ".manifest.json",
                _manifest("spectrum", None, [source], [args.out]))
    print(f"{len(evs)} eigenvalues -> {args.out}")
    return 0


def _config_from_json(path: str) -> tuple:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"config {path} is not a JSON object")
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise InputError(f"unknown config keys {unknown} in {path}")
    try:
        bounds = AdmissibleBounds(*map(float, raw["bounds"]))
        opts = {k: raw[k] for k in _CONFIG_OPTIONS if k in raw}
        if raw.get("seed_kappa") is not None:
            opts["seed_kappa"] = complex(*map(float, raw["seed_kappa"]))
        cfg = OptimizeConfig(alpha=float(raw["alpha"]), bounds=bounds, **opts)
        seed_b = raw.get("seed_constant")
        if seed_b is not None:
            seed_b = float(seed_b)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"bad config: {exc}") from exc
    seed_path = raw.get("seed_structure")
    if seed_path:
        if not isinstance(seed_path, str):
            raise InputError(f"seed_structure must be a path, not {seed_path!r}")
        seed = PiecewiseStructure.load(seed_path)
    elif seed_b is not None:
        seed = constant(seed_b, bounds)
    else:
        return cfg, None
    return cfg, to_grid(seed, cfg.n_cells)


def _trajectory_rows(trajectory) -> list:
    return [(r.iter, r.kappa.real, r.kappa.imag, r.drift, r.extremality,
             r.step) for r in trajectory]


def _certificate_record(B, kappa: complex, axis: bool) -> dict:
    """JSON record of the axis residual, or of the switch-ray certificate."""
    if axis:
        theta, mismatch = nonlinear_residual(B, kappa)
        return {"axis": True, "theta": theta, "nonlinear_mismatch": mismatch}
    cert = switch_alignment(B, kappa)
    return {
        "omega": cert.omega,
        "switch_points": list(cert.switch_xs),
        "deviations": list(cert.deviations),
        "max_deviation": cert.max_deviation,
        "max_interval_variation": cert.max_interval_variation,
        "theta": cert.theta,
        "nonlinear_mismatch": cert.nonlinear_mismatch,
    }


def cmd_optimize(args) -> int:
    cfg, seed_structure = _config_from_json(args.config)
    traj_path = os.path.join(args.out_dir, "trajectory.csv")
    struct_path = os.path.join(args.out_dir, "structure.json")
    cert_path = os.path.join(args.out_dir, "certificate.json")
    header = ["iter", "re", "im", "drift", "extremality", "step"]

    try:
        res = minimize_im_at_frequency(cfg, seed_structure)
    except QnmOptError as exc:
        partial = getattr(exc, "partial", None)
        if partial is not None:
            os.makedirs(args.out_dir, exist_ok=True)
            _write_csv(traj_path, header, _trajectory_rows(partial.trajectory))
        raise

    os.makedirs(args.out_dir, exist_ok=True)
    _write_csv(traj_path, header, _trajectory_rows(res.trajectory))
    final = res.polished if res.polished is not None else res.rounded
    final_kappa = (res.polished_kappa if res.polished_kappa is not None
                   else res.kappa)
    record = final.to_json_dict() if final is not None else None
    _write_json(struct_path, {
        "structure": record,
        "kappa": [final_kappa.real, final_kappa.imag],
        "grid_kappa": [res.kappa.real, res.kappa.imag],
        "rounded_kappa": ([res.rounded_kappa.real, res.rounded_kappa.imag]
                          if res.rounded_kappa is not None else None),
        "status": res.status,
        "extremality": extremality_measure(res.B, cfg.bounds,
                                           0.05 * cfg.bounds.width),
    })

    if final is None:
        cert_obj = {"error": "no bang-bang finalization available"}
    else:
        cert_obj = _certificate_record(
            final, final_kappa, cfg.alpha == 0.0 or final_kappa.real == 0.0)
    _write_json(cert_path, cert_obj)
    _write_json(os.path.join(args.out_dir, "run.manifest.json"),
                _manifest("optimize", args.config, [args.config],
                          [traj_path, struct_path, cert_path]))
    print(f"status={res.status} kappa={final_kappa:.12g} -> {args.out_dir}")
    return 0


def cmd_certify(args) -> int:
    B, source = _load_structure(args)
    kappa = complex(args.kappa_re, args.kappa_im)
    _write_json(args.out, _certificate_record(B, kappa, kappa.real == 0.0))
    _write_json(args.out + ".manifest.json",
                _manifest("certify", None, [source], [args.out]))
    print(f"certificate -> {args.out}")
    return 0


def cmd_simulate(args) -> int:
    B, source = _load_structure(args)
    kappa = complex(args.kappa_re, args.kappa_im)
    m = args.cells
    _plan(B, args.T, m)  # refuse a bad or oversized run up front
    if args.mode_excitation:
        u0, v0 = _mode_data(B, kappa, m)
    else:
        u0 = np.exp(-((np.linspace(0.0, 1.0, m + 1) - 0.35) / 0.07) ** 2)
        v0 = np.zeros_like(u0)
    # a fit that fails exits before anything is written; the mode's own run
    # gives the fit excite_and_fit would
    fit = None
    if args.fit_decay and not args.mode_excitation:
        fit = excite_and_fit(B, kappa, args.T, m)
    sim = simulate(B, u0, v0, args.T, m)
    if args.fit_decay and args.mode_excitation:
        fit = _fit_decay(sim, kappa, args.T)
    rows = list(zip(sim.times.tolist(), sim.energies.tolist(),
                    sim.probe.tolist()))
    _write_csv(args.out, ["t", "energy", "u_probe"], rows)
    _write_json(args.out + ".manifest.json",
                _manifest("simulate", None, [source], [args.out]))
    if fit is not None:
        print(f"fitted beta={fit.beta:.6g} expected={fit.expected:.6g}")
    print(f"{len(rows)} steps -> {args.out}")
    return 0


def cmd_splitting_probe(args) -> int:
    if args.structure:
        B = PiecewiseStructure.load(args.structure)
        kappa = complex(args.kappa_re, args.kappa_im)
    else:
        seed = tuple(args.fixture_seed) if args.fixture_seed else FIXTURE_SEED
        kappa_seed = (complex(args.kappa_re, args.kappa_im)
                      if args.kappa_re or args.kappa_im else FIXTURE_KAPPA)
        B, kappa = find_double_eigenvalue(seed, kappa_seed)
    n = 16
    direction = GridStructure(np.arange(n) < n // 2, B.bounds)
    zetas = args.zetas or [1e-4, 1e-5, 1e-6, 1e-7]
    probe = splitting_probe(B, kappa, args.multiplicity, direction, zetas)
    rows = []
    for zeta, branches in zip(probe.zeta_values, probe.branch_points):
        for idx, z in enumerate(branches):
            rows.append((zeta, idx, z.real, z.imag))
    _write_csv(args.out, ["zeta", "branch_index", "re", "im"], rows)
    _write_json(args.out + ".summary.json", {
        "r": probe.r,
        "fitted_exponent": probe.fitted_exponent,
        "c1_predicted": [probe.c1_predicted.real, probe.c1_predicted.imag],
        "c1_fitted": [probe.c1_fitted.real, probe.c1_fitted.imag],
        "kappa0": [kappa.real, kappa.imag],
    })
    _write_json(args.out + ".manifest.json",
                _manifest("splitting-probe", None,
                          [args.structure or "fixture"],
                          [args.out, args.out + ".summary.json"]))
    print(f"fitted exponent {probe.fitted_exponent:.4f} -> {args.out}")
    return 0


# -- parser ----------------------------------------------------------------------

def _add_structure_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--structure", help="structure JSON file")
    p.add_argument("--preset-constant", type=float, default=None,
                   help="use the constant structure B = value")
    p.add_argument("--bounds", type=float, nargs=2, default=None,
                   metavar=("B1", "B2"))


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that takes every negative float literal, -1e+300
    and -inf among them, as a value: argparse's own rule knows only
    -12 and -1.5, and reads the rest as unknown options."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$",
            re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="qnmopt",
        description="Quasi-normal eigenvalues of 1-D layered cavities and "
                    "optimization of low-loss resonances.")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="locate eigenvalues in a window")
    _add_structure_args(p)
    p.add_argument("--window", type=float, nargs=4, required=True,
                   metavar=("RE_MIN", "RE_MAX", "IM_MIN", "IM_MAX"))
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out", default="spectrum.csv")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("optimize", help="minimize Im kappa at a frequency")
    p.add_argument("--config", required=True, help="config JSON")
    p.add_argument("--out-dir", default="optimize-out")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("certify", help="switch-ray certificate of (B, kappa)")
    _add_structure_args(p)
    p.add_argument("--kappa-re", type=float, required=True)
    p.add_argument("--kappa-im", type=float, required=True)
    p.add_argument("--out", default="certificate.json")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("simulate", help="time-domain energy decay")
    _add_structure_args(p)
    p.add_argument("--kappa-re", type=float, default=0.0)
    p.add_argument("--kappa-im", type=float, default=0.0)
    p.add_argument("--mode-excitation", action="store_true")
    p.add_argument("--fit-decay", action="store_true")
    p.add_argument("--T", type=float, default=10.0)
    p.add_argument("--cells", type=int, default=2048)
    p.add_argument("--out", default="decay.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("splitting-probe",
                       help="Puiseux branches of a multiple eigenvalue")
    p.add_argument("--structure", help="structure JSON with a multiple root")
    p.add_argument("--kappa-re", type=float, default=0.0)
    p.add_argument("--kappa-im", type=float, default=0.0)
    p.add_argument("--fixture-seed", type=float, nargs=3, default=None,
                   metavar=("A", "V1", "V2"))
    p.add_argument("--multiplicity", type=int, default=2)
    p.add_argument("--zetas", type=float, nargs="+", default=None)
    p.add_argument("--out", default="splitting.csv")
    p.set_defaults(func=cmd_splitting_probe)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleError as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 3
    except QnmOptError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
