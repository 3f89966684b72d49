"""Exception hierarchy for qnmopt.

Three families: bad input (InputError), infeasible problem setup
(InfeasibleError), and numerical failures (NumericalError).  The CLI maps
them to exit codes 2 / 3 / 4.
"""


class QnmOptError(Exception):
    """Base class for all qnmopt errors."""


class InputError(QnmOptError):
    """Malformed or inconsistent user input (files, windows, parameters)."""


class InfeasibleError(QnmOptError):
    """No admissible seed / structure for the requested problem."""


class NumericalError(QnmOptError):
    """A solver failed to reach its contract."""


# -- medium ------------------------------------------------------------------

class NotBangBang(InputError):
    """Structure takes values other than the two admissible bounds."""


# -- field solver -------------------------------------------------------------

class TailNotConverged(NumericalError):
    """Maclaurin tail bound cannot reach the requested tolerance."""


class ZeroFrequency(InputError):
    """A frequency the operation cannot take (z = 0, a seed with Im <= 0)."""


# -- spectrum -----------------------------------------------------------------

class ZeroOnContour(NumericalError):
    """|F| collapsed on an integration contour; dilate the window and retry."""


class MaxDepthExceeded(NumericalError):
    """Window bisection could not isolate a zero (suspected cluster)."""


class NotIsolated(NumericalError):
    """Another zero sits between the isolation squares of half-side r and 2 r."""


# -- sensitivity --------------------------------------------------------------

class NotAtRoot(InputError):
    """kappa is not a zero of the characteristic function."""


class NearMultiple(NumericalError):
    """|dF/dz| below the simple-root floor; use splitting logic."""


class BranchCountMismatch(NumericalError):
    """Fewer perturbed roots than the multiplicity; shrink zeta."""


class NoConvergence(NumericalError):
    """Iteration exhausted without meeting its stopping test."""


# -- optimizer ----------------------------------------------------------------

class StalledDirection(QnmOptError):
    """First-order optimality reached: no feasible descent direction."""


class LostEigenvalue(NumericalError):
    """Tracked eigenvalue left the trust window and re-location failed."""


class CollisionDetected(NumericalError):
    """Tracked eigenvalue is merging with another (near-multiple)."""


# -- certificate --------------------------------------------------------------

class OnImaginaryAxis(InputError):
    """Re kappa = 0: the ray certificate does not apply; use the axis logic."""


# -- time domain --------------------------------------------------------------

class DegenerateMedium(InputError):
    """min B <= 0: wave speed unbounded, simulation refused."""


class FitUnstable(NumericalError):
    """Log-energy trace is not linear enough to fit a decay rate."""
