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

# three-layer seed (a1, a2, v2, v3, Re kappa, Im kappa) of a triple eigenvalue
# with the first layer fixed at 4, in the box (0, 5)
TRIPLE_SEED = (0.536, 0.741, 1.707, 1.070, 5.862, 1.974)


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
def triple_fixture():
    """(B, kappa, why): F = F' = F'' = 0 solved by _damped_newton.

    The unknowns are the two interfaces, the two free layer values and
    kappa; why is None when the solve converged.
    """
    from qnmopt.field import charF_dzF
    from qnmopt.sensitivity import _damped_newton, dzF_higher

    def structure(q):
        return PiecewiseStructure((0.0, q[0], q[1], 1.0), (4.0, q[2], q[3]),
                                  AdmissibleBounds(0.0, 5.0))

    def residual(q, _):
        a1, a2, v2, v3 = q[:4]
        if not (0.01 < a1 < a2 - 0.01 and a2 < 0.99 and 0 < v2 < 5
                and 0 < v3 < 5 and q[5] > 0):
            return None
        B, z = structure(q), complex(q[4], q[5])
        f, df = charF_dzF(z, B)
        d2 = dzF_higher(B, z, 2)
        return np.array([f.real, f.imag, df.real, df.imag,
                         d2.real, d2.imag]), None

    q, _, _, why = _damped_newton(residual, np.array(TRIPLE_SEED), 40)
    return structure(q), complex(q[4], q[5]), why


@pytest.fixture(scope="session")
def pi_optimum(box14):
    """alpha = pi optimization at acceptance scale, shared across tests."""
    from qnmopt.optimize import OptimizeConfig, minimize_im_at_frequency
    cfg = OptimizeConfig(alpha=math.pi, bounds=box14, n_cells=256,
                         max_iters=400)
    return minimize_im_at_frequency(cfg)
