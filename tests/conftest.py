import math

import numpy as np
import pytest

from qnmopt.medium import AdmissibleBounds, PiecewiseStructure, random_bang_bang

# ln 3 / 4: imaginary part of every eigenvalue of the constant medium B = 4
LN3_4 = math.log(3.0) / 4.0

# frozen two-layer seed that converges to a double eigenvalue (diagnostic
# fixture; values lie outside typical boxes on purpose)
DOUBLE_SEED = (0.7125, 4.0, 1.4792)
DOUBLE_KAPPA_SEED = 4.44244 + 1.03017j

# axis variant: tangency of the real characteristic function
AXIS_DOUBLE_SEED = (0.3, 9.0, 0.25)
AXIS_DOUBLE_KAPPA_SEED = 0.70637j


@pytest.fixture(scope="session")
def box14() -> AdmissibleBounds:
    return AdmissibleBounds(1.0, 4.0)


@pytest.fixture(scope="session")
def random_structures(box14):
    rng = np.random.default_rng(20240817)
    return [random_bang_bang(box14, rng) for _ in range(10)]


@pytest.fixture(scope="session")
def double_fixture():
    from qnmopt.sensitivity import find_double_eigenvalue
    return find_double_eigenvalue(DOUBLE_SEED, DOUBLE_KAPPA_SEED)


@pytest.fixture(scope="session")
def grid_double_fixture():
    """Two-layer double eigenvalue with its interface on the grid edge 45/64.

    The interface stays fixed and (v1, v2, kappa) solve F = dF/dz = 0, so
    every grid of 64 * 2^k cells represents the structure exactly.
    """
    from scipy.optimize import root
    from qnmopt.field import charF, dzF
    bounds = AdmissibleBounds(0.0, 5.0)

    def structure(q):
        return PiecewiseStructure((0.0, 45 / 64, 1.0), (q[0], q[1]), bounds)

    def residual(q):
        z = complex(q[2], q[3])
        f, df = charF(z, structure(q)), dzF(z, structure(q))
        return [f.real, f.imag, df.real, df.imag]

    sol = root(residual, [DOUBLE_SEED[1], DOUBLE_SEED[2],
                          DOUBLE_KAPPA_SEED.real, DOUBLE_KAPPA_SEED.imag],
               tol=1e-14)
    assert max(abs(r) for r in residual(sol.x)) < 1e-12
    return structure(sol.x), complex(sol.x[2], sol.x[3])


@pytest.fixture(scope="session")
def pi_optimum(box14):
    """alpha = pi optimization at acceptance scale, shared across tests."""
    from qnmopt.optimize import OptimizeConfig, minimize_im_at_frequency
    cfg = OptimizeConfig(alpha=math.pi, bounds=box14, n_cells=256,
                         max_iters=400)
    return minimize_im_at_frequency(cfg)
