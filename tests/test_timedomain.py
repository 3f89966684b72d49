import math

import numpy as np
import pytest

from qnmopt.errors import CFLViolation, DegenerateMedium, InputError
from qnmopt.medium import (AdmissibleBounds, GridStructure, PiecewiseStructure,
                           constant, random_bang_bang, to_piecewise)
from qnmopt.timedomain import (_BLOCK, CFL_SAFETY, SimResult, excite_and_fit,
                               simulate)

from conftest import LN3_4


def reference_simulate(B, u0, v0, T, m_cells, dt=None, probe_index=0):
    """The per-step leapfrog loop that `simulate` replaced, kept as the oracle."""
    xs = np.linspace(0.0, 1.0, m_cells + 1)
    h = 1.0 / m_cells
    left = np.array([B.value_at(max(x - 0.25 * h, 0.0)) for x in xs])
    right = np.array([B.value_at(min(x + 0.25 * h, 1.0)) for x in xs])
    bn = 0.5 * (left + right)
    dt_max = CFL_SAFETY * h * math.sqrt(B.inf())
    if dt is None:
        dt = dt_max

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
        probe[n] = u[probe_index]

        u_next = 2.0 * u - u_prev + lam2 * lap(u)
        u_next[-1] = u[-2] + mur * (u_next[-2] - u[-1])
        u_prev, u = u, u_next

    return SimResult(times, energies, probe, dt, h)


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

    def test_cfl_violation(self):
        B = constant(4.0, AdmissibleBounds(1, 4))
        with pytest.raises(CFLViolation):
            simulate(B, np.zeros(129), np.zeros(129), 1.0, 128,
                     dt=1.0 / 128.0 * 2.1)

    def test_degenerate_medium_refused(self):
        bounds = AdmissibleBounds(0.0, 4.0)
        B = PiecewiseStructure((0.0, 0.3, 1.0), (0.0, 4.0), bounds)
        with pytest.raises(DegenerateMedium):
            simulate(B, np.zeros(129), np.zeros(129), 1.0, 128)


class TestAgainstReference:
    """The blocked velocity-form loop against the per-step reference."""

    @pytest.mark.parametrize("n_steps", [1, _BLOCK - 3, _BLOCK, _BLOCK + 1,
                                         3 * _BLOCK + 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_media_and_data(self, n_steps, seed):
        rng = np.random.default_rng([seed, n_steps])
        B = random_bang_bang(AdmissibleBounds(1.0, 4.0), rng, max_switches=7)
        m = int(rng.integers(16, 200))
        u0 = rng.normal(size=m + 1)
        v0 = rng.normal(size=m + 1)
        dt = CFL_SAFETY * math.sqrt(B.inf()) / m
        T = (n_steps - 0.5) * dt
        for probe_index in (0, int(rng.integers(1, m)), m, -2):
            new = simulate(B, u0, v0, T, m, probe_index=probe_index)
            ref = reference_simulate(B, u0, v0, T, m, probe_index=probe_index)
            assert len(new.times) == n_steps
            assert np.array_equal(new.times, ref.times)
            assert (new.dt, new.dx) == (ref.dt, ref.dx)
            e0 = ref.energies[0]
            assert np.max(np.abs(new.energies - ref.energies)) <= 1e-12 * e0
            u_max = max(np.max(np.abs(u0)), np.max(np.abs(ref.probe)))
            assert np.max(np.abs(new.probe - ref.probe)) <= 1e-12 * u_max

    def test_long_run_mode_excitation(self):
        B = PiecewiseStructure((0.0, 0.3, 0.7, 1.0), (1.0, 4.0, 2.0),
                               AdmissibleBounds(1, 4))
        m = 512
        u0, v0 = gaussian_pulse(m, center=0.5, width=0.1)
        new = simulate(B, u0, v0, 2.0, m, probe_index=100)
        ref = reference_simulate(B, u0, v0, 2.0, m, probe_index=100)
        assert len(new.times) > 50 * _BLOCK
        assert np.array_equal(new.times, ref.times)
        e0 = ref.energies[0]
        assert np.max(np.abs(new.energies - ref.energies)) <= 1e-12 * e0
        assert np.max(np.abs(new.probe - ref.probe)) <= 1e-12


class TestInputErrors:
    B = constant(4.0, AdmissibleBounds(1, 4))

    @pytest.mark.parametrize("T", [-1.0, math.inf, -math.inf, math.nan])
    def test_bad_duration(self, T):
        with pytest.raises(InputError):
            simulate(self.B, np.zeros(65), np.zeros(65), T, 64)

    @pytest.mark.parametrize("m_cells", [0, -4, 2.5, True])
    def test_bad_cell_count(self, m_cells):
        with pytest.raises(InputError):
            simulate(self.B, np.zeros(65), np.zeros(65), 1.0, m_cells)

    @pytest.mark.parametrize("probe_index", [65, -66, 1000, 2.0])
    def test_probe_outside_grid(self, probe_index):
        with pytest.raises(InputError):
            simulate(self.B, np.zeros(65), np.zeros(65), 1.0, 64,
                     probe_index=probe_index)

    @pytest.mark.parametrize("dt", [0.0, -1e-3, math.nan, math.inf])
    def test_bad_time_step(self, dt):
        with pytest.raises(InputError):
            simulate(self.B, np.zeros(65), np.zeros(65), 1.0, 64, dt=dt)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_initial_data(self, bad):
        u = np.zeros(65)
        u[3] = bad
        for u0, v0 in ((u, np.zeros(65)), (np.zeros(65), u)):
            with pytest.raises(InputError):
                simulate(self.B, u0, v0, 1.0, 64)

    def test_excite_and_fit_without_cells(self):
        with pytest.raises(InputError):
            excite_and_fit(self.B, math.pi + 1j * LN3_4, 5.0, 0)

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
        a = simulate(g, u0, v0, 1.5, m, probe_index=17)
        b = simulate(to_piecewise(g), u0, v0, 1.5, m, probe_index=17)
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

    def test_refinement_improves(self):
        B = constant(4.0, AdmissibleBounds(1, 4))
        kappa = math.pi + 1j * LN3_4
        d = [abs(excite_and_fit(B, kappa, 12.0, m).beta / (2 * LN3_4) - 1)
             for m in (512, 1024)]
        assert d[1] < d[0]
