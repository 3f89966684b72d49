import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnmopt.errors import DegenerateMedium, FitUnstable, InputError, QnmOptError
from qnmopt.field import mode_values
from qnmopt.medium import (AdmissibleBounds, GridStructure, PiecewiseStructure,
                           constant, random_bang_bang, to_piecewise)
from qnmopt.spectrum import SpectralWindow, locate
from qnmopt.timedomain import (_BLOCK, _FIT_WINDOW, _MAX_FLOATS, CFL_SAFETY,
                               FitResult, SimResult, _node_coefficients,
                               excite_and_fit, simulate)

from conftest import LN3_4


def reference_simulate(B, u0, v0, T, m_cells):
    """The per-step leapfrog loop that `simulate` replaced, kept as the oracle."""
    xs = np.linspace(0.0, 1.0, m_cells + 1)
    h = 1.0 / m_cells
    left = np.array([B.layers.values_at(max(x - 0.25 * h, 0.0)) for x in xs])
    right = np.array([B.layers.values_at(min(x + 0.25 * h, 1.0)) for x in xs])
    bn = 0.5 * (left + right)
    dt = CFL_SAFETY * h * math.sqrt(B.values.min())

    u_prev = np.asarray(u0, dtype=float).copy()
    v_init = np.asarray(v0, dtype=float)
    lam2 = dt ** 2 / (h ** 2 * bn)
    mur = (dt - h) / (dt + h)

    def lap(u: np.ndarray) -> np.ndarray:
        out = np.empty_like(u)
        out[1:-1] = u[2:] - 2.0 * u[1:-1] + u[:-2]
        out[0] = 2.0 * (u[1] - u[0])        # Neumann ghost u[-1] = u[1]
        out[-1] = 0.0                        # boundary handled by Mur update
        return out

    # leapfrog start: u at t = dt from a Taylor step
    u = u_prev + dt * v_init + 0.5 * lam2 * lap(u_prev)
    u[-1] = u_prev[-2] + mur * (u[-2] - u_prev[-1])

    n_steps = int(math.ceil(T / dt))
    times = np.empty(n_steps)
    energies = np.empty(n_steps)
    probe = np.empty(n_steps)
    w = np.ones(m_cells + 1)
    w[0] = w[-1] = 0.5

    for n in range(n_steps):
        # staggered (conserved-form) energy at t = (n + 1/2) dt
        vt = (u - u_prev) / dt
        du_new = np.diff(u) / h
        du_old = np.diff(u_prev) / h
        energies[n] = 0.5 * h * (float(np.dot(w * bn, vt * vt))
                                 + float(np.dot(du_new, du_old)))
        times[n] = (n + 0.5) * dt
        probe[n] = u[0]

        u_next = 2.0 * u - u_prev + lam2 * lap(u)
        u_next[-1] = u[-2] + mur * (u_next[-2] - u[-1])
        u_prev, u = u, u_next

    return SimResult(times, energies, probe, dt, h)


def blocked_reference_simulate(B, u0, v0, T, m_cells):
    """The blocked velocity-form loop with a one-sided Neumann node and a
    row-wise einsum energy that the row-view loop replaced, kept as a
    second oracle: the dynamics must match it to the bit."""
    bn = _node_coefficients(B, m_cells)
    h = 1.0 / m_cells
    dt = CFL_SAFETY * h * math.sqrt(float(B.layers.values.min()))
    u_prev = np.asarray(u0, dtype=float).copy()
    v_init = np.asarray(v0, dtype=float)
    lam2 = dt ** 2 / (h ** 2 * bn)
    mur = (dt - h) / (dt + h)
    lap = np.zeros_like(u_prev)
    lap[1:-1] = u_prev[2:] - 2.0 * u_prev[1:-1] + u_prev[:-2]
    lap[0] = 2.0 * (u_prev[1] - u_prev[0])
    u = u_prev + dt * v_init + 0.5 * lam2 * lap
    u[-1] = u_prev[-2] + mur * (u[-2] - u_prev[-1])

    n_steps = math.ceil(T / dt)
    times = (np.arange(n_steps) + 0.5) * dt
    energies = np.empty(n_steps)
    probe = np.empty(n_steps)
    w = np.ones(m_cells + 1)
    w[0] = w[-1] = 0.5
    kin = w * bn / dt ** 2
    V = np.empty((_BLOCK + 1, m_cells + 1))
    D = np.empty((_BLOCK + 1, m_cells))
    VV = np.empty((_BLOCK, m_cells + 1))
    V[0] = u - u_prev
    D[0] = np.diff(u_prev)
    V_in, V_head = V[:, 1:-1], V[:, :-1]
    D_hi, D_lo = D[:, 1:], D[:, :-1]
    u_hi, u_lo = u[1:], u[:-1]
    lam2_in, lam2_0 = lam2[1:-1], 2.0 * lam2[0]
    sub, mul, add = np.subtract, np.multiply, np.add
    for n0 in range(0, n_steps, _BLOCK):
        rows = min(_BLOCK, n_steps - n0)
        for j in range(rows):
            probe[n0 + j] = u[0]
            d = D[j + 1]
            sub(u_hi, u_lo, d)
            v_in = V_in[j + 1]
            sub(D_hi[j + 1], D_lo[j + 1], v_in)
            mul(v_in, lam2_in, v_in)
            add(v_in, V_in[j], v_in)
            v_new = V[j + 1]
            v_new[0] = V[j, 0] + lam2_0 * d[0]
            last, before = u[-1], u[-2]
            add(u_lo, V_head[j + 1], u_lo)
            u[-1] = before + mur * (u[-2] - last)
            v_new[-1] = u[-1] - last
        vv = np.multiply(V[:rows], V[:rows], out=VV[:rows])
        grad = np.einsum("ij,ij->i", D[1:rows + 1], D[:rows])
        energies[n0:n0 + rows] = 0.5 * h * (vv @ kin + grad / h ** 2)
        V[0], D[0] = V[rows], D[rows]

    return SimResult(times, energies, probe, dt, h)


def full_run_fit(B, kappa, T, m_cells):
    """excite_and_fit as it was before it stopped the run early: simulate
    until T, then the same one-period average and log-energy fit."""
    xs = np.linspace(0.0, 1.0, m_cells + 1)
    phi, _ = mode_values(B, kappa, xs)
    sim = simulate(B, phi.real.copy(), (1j * kappa * phi).real.copy(), T,
                   m_cells)
    times, energies = sim.times, sim.energies
    if kappa.real != 0.0:
        p = int(round(math.pi / abs(kappa.real) / sim.dt))
        if p >= 2:
            energies = np.convolve(energies, np.ones(p) / p, mode="valid")
            times = times[p - 1:] - 0.5 * (p - 1) * sim.dt
    t0, t1 = _FIT_WINDOW[0] * T, _FIT_WINDOW[1] * T
    sel = (times >= t0) & (times <= t1)
    ts, logs = times[sel], np.log(energies[sel])
    a, b = np.polyfit(ts, logs, 1)
    resid = logs - (a * ts + b)
    rel = float(np.sqrt(np.mean(resid ** 2)) / max(abs(a) * (ts[-1] - ts[0]),
                                                   1e-300))
    return FitResult(beta=float(-a), expected=2.0 * kappa.imag,
                     rel_residual=rel, window=(t0, t1))


def locate_golden(B):
    return [ev.kappa for ev in locate(B, SpectralWindow(0.1, 12.0, 0.05, 3.0))]


def assert_matches_blocked(B, u0, v0, T, m):
    """Dynamics bit-equal to the blocked oracle, energies within 1e-14 E0."""
    new = simulate(B, u0, v0, T, m)
    ref = blocked_reference_simulate(B, u0, v0, T, m)
    assert np.array_equal(new.probe, ref.probe)
    assert np.array_equal(new.times, ref.times)
    assert (new.dt, new.dx) == (ref.dt, ref.dx)
    assert np.max(np.abs(new.energies - ref.energies),
                  initial=0.0) <= 1e-14 * ref.energies[0]
    return new


def gaussian_pulse(m_cells, center=0.35, width=0.07):
    xs = np.linspace(0.0, 1.0, m_cells + 1)
    f = np.exp(-((xs - center) / width) ** 2)
    fp = -2.0 * (xs - center) / width ** 2 * f
    return f, -fp  # rightward mover: u = f(x - t)


class TestSimulate:
    def test_unit_medium_transparency(self):
        B = constant(1.0, AdmissibleBounds(1, 4))
        m = 2048
        u0, v0 = gaussian_pulse(m)
        sim = simulate(B, u0, v0, 3.0, m)
        assert sim.energies[-1] / sim.energies[0] < 1e-6

    def test_zero_data(self):
        B = constant(1.0, AdmissibleBounds(1, 4))
        sim = simulate(B, np.zeros(257), np.zeros(257), 0.5, 256)
        assert np.all(sim.energies == 0.0)

    def test_energy_nonincreasing(self):
        B = PiecewiseStructure((0.0, 0.4, 1.0), (4.0, 1.0),
                               AdmissibleBounds(1, 4))
        m = 1024
        u0, v0 = gaussian_pulse(m, center=0.5, width=0.1)
        sim = simulate(B, u0, v0, 4.0, m)
        worst = np.max(np.diff(sim.energies))
        assert worst <= 1e-12 * sim.energies[0]

    @pytest.mark.parametrize("B, m", [
        (constant(4.0, AdmissibleBounds(1, 4)), 128),
        (PiecewiseStructure((0.0, 0.4, 1.0), (2.5, 1.5),
                            AdmissibleBounds(1, 4)), 97)])
    def test_runs_at_the_cfl_step(self, B, m):
        # no step or probe option: the step is always the CFL-safe one
        assert list(inspect.signature(simulate).parameters) == [
            "B", "u0", "v0", "T", "m_cells"]
        u0, v0 = gaussian_pulse(m, center=0.2, width=0.1)
        sim = simulate(B, u0, v0, 0.5, m)
        assert sim.dt == CFL_SAFETY * (1.0 / m) * math.sqrt(B.values.min())
        assert len(sim.times) == math.ceil(0.5 / sim.dt)

    def test_degenerate_medium_refused(self):
        bounds = AdmissibleBounds(0.0, 4.0)
        B = PiecewiseStructure((0.0, 0.3, 1.0), (0.0, 4.0), bounds)
        with pytest.raises(DegenerateMedium):
            simulate(B, np.zeros(129), np.zeros(129), 1.0, 128)


class TestAgainstReference:
    """The row-view loop against the per-step and the blocked references."""

    @pytest.mark.parametrize("n_steps", [1, _BLOCK - 3, _BLOCK, _BLOCK + 1,
                                         3 * _BLOCK + 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_media_and_data(self, n_steps, seed):
        rng = np.random.default_rng([seed, n_steps])
        B = random_bang_bang(AdmissibleBounds(1.0, 4.0), rng, max_switches=7)
        m = int(rng.integers(16, 200))
        u0 = rng.normal(size=m + 1)
        v0 = rng.normal(size=m + 1)
        dt = CFL_SAFETY * math.sqrt(B.values.min()) / m
        T = (n_steps - 0.5) * dt
        new = assert_matches_blocked(B, u0, v0, T, m)
        ref = reference_simulate(B, u0, v0, T, m)
        assert len(new.times) == n_steps
        assert np.array_equal(new.times, ref.times)
        assert (new.dt, new.dx) == (ref.dt, ref.dx)
        e0 = ref.energies[0]
        assert np.max(np.abs(new.energies - ref.energies)) <= 1e-12 * e0
        u_max = max(np.max(np.abs(u0)), np.max(np.abs(ref.probe)))
        assert np.max(np.abs(new.probe - ref.probe)) <= 1e-12 * u_max

    @pytest.mark.parametrize("n_steps", [1, _BLOCK, 2 * _BLOCK + 7])
    def test_grid_medium(self, n_steps):
        rng = np.random.default_rng(n_steps)
        B = GridStructure(tuple(rng.choice([1.0, 2.5, 4.0], size=40)),
                          AdmissibleBounds(1, 4))
        m = 120
        u0, v0 = rng.normal(size=m + 1), rng.normal(size=m + 1)
        T = (n_steps - 0.5) * CFL_SAFETY / m
        assert_matches_blocked(B, u0, v0, T, m)

    @pytest.mark.parametrize("n_steps", [1, _BLOCK + 1, 3 * _BLOCK])
    def test_single_cell(self, n_steps):
        B = constant(2.0, AdmissibleBounds(1, 4))
        T = (n_steps - 0.5) * CFL_SAFETY * math.sqrt(2.0)
        u0, v0 = np.array([1.0, -0.5]), np.array([0.25, 2.0])
        new = assert_matches_blocked(B, u0, v0, T, 1)
        ref = reference_simulate(B, u0, v0, T, 1)
        assert np.array_equal(new.times, ref.times)
        assert np.max(np.abs(new.probe - ref.probe)) <= 1e-12

    def test_energies_do_not_depend_on_the_stop(self):
        # a step's energy comes from a pass over a whole block, so a
        # shorter run gives the same leading energies to the bit
        B = PiecewiseStructure((0.0, 0.45, 1.0), (4.0, 1.5),
                               AdmissibleBounds(1, 4))
        m = 200
        u0, v0 = gaussian_pulse(m, center=0.4, width=0.1)
        full = simulate(B, u0, v0, 1.0, m)
        for n in (1, _BLOCK - 1, _BLOCK, 5 * _BLOCK + 3):
            part = simulate(B, u0, v0, (n - 0.5) * full.dt, m)
            assert len(part.times) == n
            for field in ("times", "energies", "probe"):
                assert np.array_equal(getattr(part, field),
                                      getattr(full, field)[:n])

    def test_long_run_mode_excitation(self):
        B = PiecewiseStructure((0.0, 0.3, 0.7, 1.0), (1.0, 4.0, 2.0),
                               AdmissibleBounds(1, 4))
        m = 512
        u0, v0 = gaussian_pulse(m, center=0.5, width=0.1)
        new = assert_matches_blocked(B, u0, v0, 2.0, m)
        ref = reference_simulate(B, u0, v0, 2.0, m)
        assert len(new.times) > 50 * _BLOCK
        assert np.array_equal(new.times, ref.times)
        e0 = ref.energies[0]
        assert np.max(np.abs(new.energies - ref.energies)) <= 1e-12 * e0
        assert np.max(np.abs(new.probe - ref.probe)) <= 1e-12


class TestInputErrors:
    B = constant(4.0, AdmissibleBounds(1, 4))

    @pytest.mark.parametrize("T", [-1.0, math.inf, -math.inf, math.nan,
                                   10 ** 400])
    def test_bad_duration(self, T):
        with pytest.raises(InputError):
            simulate(self.B, np.zeros(65), np.zeros(65), T, 64)

    @pytest.mark.parametrize("m_cells", [0, -4, 2.5, True])
    def test_bad_cell_count(self, m_cells):
        with pytest.raises(InputError):
            simulate(self.B, np.zeros(65), np.zeros(65), 1.0, m_cells)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_initial_data(self, bad):
        u = np.zeros(65)
        u[3] = bad
        for u0, v0 in ((u, np.zeros(65)), (np.zeros(65), u)):
            with pytest.raises(InputError):
                simulate(self.B, u0, v0, 1.0, 64)

    @pytest.mark.parametrize("B, T, m_cells", [
        (PiecewiseStructure((0.0, 0.5, 1.0), (1e-300, 4.0),
                            AdmissibleBounds(0, 4)), 1e300, 64),
        (constant(4.0, AdmissibleBounds(1, 4)), 1e12, 2),
        (constant(4.0, AdmissibleBounds(1, 4)), 1.0, 10 ** 12),
        (constant(4.0, AdmissibleBounds(1, 4)), 1.0, 10 ** 400)])
    def test_run_too_large(self, B, T, m_cells):
        # refused before anything of its size is allocated
        with pytest.raises(InputError, match="run size limit"):
            simulate(B, np.zeros(65), np.zeros(65), T, m_cells)
        with pytest.raises(InputError, match="run size limit"):
            excite_and_fit(B, math.pi + 1j * LN3_4, T, m_cells)

    def test_size_limit_counts_traces_and_rows(self):
        dt = CFL_SAFETY * 2.0 / 64
        simulate(self.B, np.zeros(65), np.zeros(65), 1000 * dt, 64)
        with pytest.raises(InputError, match="run size limit"):
            simulate(self.B, np.zeros(65), np.zeros(65),
                     _MAX_FLOATS / 3 * dt, 64)

    @pytest.mark.parametrize("data", [
        np.zeros(65, complex), np.full(65, "0"), np.zeros(65, object),
        np.zeros(65, bool), [[0.0]] * 65, [0.0, [1.0]] + [0.0] * 63])
    def test_non_real_initial_data(self, data):
        for u0, v0 in ((data, np.zeros(65)), (np.zeros(65), data)):
            with pytest.raises(InputError):
                simulate(self.B, u0, v0, 1.0, 64)

    def test_integer_and_single_precision_data(self):
        u0 = np.arange(65) % 3
        a = simulate(self.B, u0, u0.astype(np.float32), 0.5, 64)
        b = simulate(self.B, u0.astype(float), u0.astype(float), 0.5, 64)
        assert np.array_equal(a.energies, b.energies)

    def test_excite_and_fit_without_cells(self):
        with pytest.raises(InputError):
            excite_and_fit(self.B, math.pi + 1j * LN3_4, 5.0, 0)

    @pytest.mark.parametrize("m_cells", [1.5, True, "64"])
    def test_excite_and_fit_cell_count(self, m_cells):
        with pytest.raises(InputError):
            excite_and_fit(self.B, math.pi + 1j * LN3_4, 5.0, m_cells)

    @pytest.mark.parametrize("kappa", [complex(math.nan, 0.3),
                                       complex(1.0, math.inf), math.nan,
                                       "1+1j", None])
    def test_excite_and_fit_bad_kappa(self, kappa):
        # refused before the mode values, which would warn
        with pytest.raises(InputError):
            excite_and_fit(self.B, kappa, 5.0, 64)

    @pytest.mark.parametrize("T, re", [(0.0, 1.0), (1.0, 1e-300),
                                       (1.0, 5e-324), (0.5, 0.5)])
    def test_averaging_period_longer_than_run(self, T, re):
        with pytest.raises(FitUnstable, match="averaging period"):
            excite_and_fit(self.B, complex(re, 0.3), T, 64)

    def test_zero_duration_is_empty(self):
        sim = simulate(self.B, np.zeros(65), np.zeros(65), 0.0, 64)
        assert len(sim.times) == len(sim.energies) == len(sim.probe) == 0


class TestGridMedium:
    def grid(self):
        rng = np.random.default_rng(7)
        vs = rng.choice([1.0, 2.5, 4.0], size=48)
        vs[10:14] = 2.5                      # equal neighbours merge
        return GridStructure(tuple(vs), AdmissibleBounds(1, 4))

    def test_grid_equals_piecewise(self):
        g = self.grid()
        m = 300
        u0, v0 = gaussian_pulse(m, center=0.4, width=0.08)
        a = simulate(g, u0, v0, 1.5, m)
        b = simulate(to_piecewise(g), u0, v0, 1.5, m)
        for field in ("times", "energies", "probe"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert (a.dt, a.dx) == (b.dt, b.dx)

    def test_excite_and_fit_on_grid(self):
        g = GridStructure((4.0,) * 32, AdmissibleBounds(1, 4))
        kappa = math.pi + 1j * LN3_4
        fit_g = excite_and_fit(g, kappa, 15.0, 512)
        fit_p = excite_and_fit(to_piecewise(g), kappa, 15.0, 512)
        assert fit_g == fit_p
        assert 0.95 <= fit_g.beta / fit_g.expected <= 1.05


class TestExciteAndFit:
    def test_b4_mode_decay(self):
        B = constant(4.0, AdmissibleBounds(1, 4))
        kappa = math.pi + 1j * LN3_4
        fit = excite_and_fit(B, kappa, 15.0, 1024)
        assert 0.95 <= fit.beta / fit.expected <= 1.05
        assert fit.expected == pytest.approx(2 * LN3_4)

    @pytest.mark.parametrize("B, kappa, T, m", [
        (constant(4.0, AdmissibleBounds(1, 4)), math.pi + 1j * LN3_4, 15.0,
         256),
        (PiecewiseStructure((0.0, 0.3, 0.7, 1.0), (1.0, 4.0, 2.0),
                            AdmissibleBounds(1, 4)), None, 9.0, 200),
        (GridStructure((4.0,) * 20 + (1.0,) * 12, AdmissibleBounds(1, 4)),
         None, 12.0, 128)])
    def test_stopped_run_equals_full_run(self, B, kappa, T, m):
        if kappa is None:
            kappa = min(locate_golden(B), key=lambda k: k.imag)
        fit = excite_and_fit(B, kappa, T, m)
        assert repr(fit) == repr(full_run_fit(B, kappa, T, m))

    @pytest.mark.parametrize("T", [15.0, np.float64(15.0), 15])
    def test_fields_are_python_floats(self, T):
        # rel_residual came back as np.float64 and printed so in its repr
        fit = excite_and_fit(constant(4.0, AdmissibleBounds(1, 4)),
                             math.pi + 1j * LN3_4, T, 256)
        values = (fit.beta, fit.expected, fit.rel_residual, *fit.window)
        assert [type(v) for v in values] == [float] * 5
        assert type(fit.window) is tuple and len(fit.window) == 2
        assert "np." not in repr(fit)

    def test_refinement_improves(self):
        B = constant(4.0, AdmissibleBounds(1, 4))
        kappa = math.pi + 1j * LN3_4
        d = [abs(excite_and_fit(B, kappa, 12.0, m).beta / (2 * LN3_4) - 1)
             for m in (512, 1024)]
        assert d[1] < d[0]


_MEDIA = (constant(4.0, AdmissibleBounds(1, 4)),
          GridStructure((1.0, 4.0, 4.0, 2.5), AdmissibleBounds(1, 4)),
          PiecewiseStructure((0.0, 0.5, 1.0), (1e-300, 4.0),
                             AdmissibleBounds(0, 4)),
          PiecewiseStructure((0.0, 0.3, 1.0), (0.0, 4.0),
                             AdmissibleBounds(0, 4)))
_DTYPES = ("float64", "float32", "float16", "longdouble", "int64", "uint8",
           "complex128", "bool", "object", "str")


def _node_data(n, dtype, scale):
    base = np.arange(n) % 3
    if dtype == "float64":
        return base * scale
    if dtype == "longdouble":        # past the double range where scale > 1e154
        return base * np.longdouble(scale) ** 2
    return base.astype(dtype)


def _mostly(valid, invalid):
    """Draws from valid three times as often as from invalid."""
    return st.sampled_from(list(valid) * 3 + list(invalid))


class TestErrorContract:
    """Extreme and malformed arguments to simulate and excite_and_fit end in
    a QnmOptError or a result, never in another exception or a warning.
    Every run the draws allow is at most a few thousand steps on 64 cells."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(B=st.sampled_from(_MEDIA),
           T=_mostly([0.0, 5e-324, 0.3, 2.0, 6, 6.0],
                     [1e12, 1e300, -1.0, math.inf, math.nan, True, 1j, "1"]),
           m_cells=_mostly([1, 2, 17, 64, np.int64(8)],
                           [0, -3, 2.5, True, "8", 10 ** 7, 10 ** 12,
                            10 ** 400]),
           dtype=_mostly(["float64", "float32", "float16", "longdouble",
                          "int64", "uint8"],
                         ["complex128", "bool", "object", "str"]),
           scale=st.sampled_from([0.0, 1.0, 1e-310, 1e150, 1e300]),
           kappa=_mostly([math.pi + 1j * LN3_4, 2.0 + 0.5j, 0j, -3.0 - 1j,
                          7],
                         [1e-300 + 0.3j, 5e-324 + 0.3j, 1e300 + 0.3j,
                          1.0 + 800j, complex(math.nan, 1),
                          complex(0, math.inf), None, "1+1j"]))
    def test_only_qnmopt_errors_escape(self, B, T, m_cells, dtype, scale,
                                       kappa):
        n = m_cells + 1 if m_cells in (1, 2, 17, 64, 8) else 3
        u0 = _node_data(n, dtype, scale)
        try:
            sim = simulate(B, u0, u0[::-1], T, m_cells)
        except QnmOptError:
            pass
        else:
            assert np.all(np.isfinite(sim.energies))
        try:
            excite_and_fit(B, kappa, T, m_cells)
        except QnmOptError:
            pass
