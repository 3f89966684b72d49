"""qnmopt: quasi-normal eigenvalues of 1-D layered cavities and their
optimization toward low-loss resonances."""

from .medium import (AdmissibleBounds, GridStructure, PiecewiseStructure,
                     constant, extremality_measure, project_to_box,
                     random_bang_bang, round_to_extreme, switch_points,
                     to_grid, to_piecewise)
from .field import (BoundaryData, charF, charF_dzF, charF_many, dzF,
                    mode_values, phi_series, propagate)
from .spectrum import (QuasiEigenvalue, SpectralWindow, axis_offset,
                       constant_spectrum, locate, multiplicity, winding_count)
from .sensitivity import (GradientDensity, SplittingProbe,
                          eigenvalue_gradient, find_double_eigenvalue,
                          splitting_probe)
from .optimize import (IterationRecord, OptimizeConfig, OptimizeResult,
                       best_constant_seed, constant_upper_bound,
                       minimize_im_at_frequency, step_direction, sweep_I)
from .certificate import (PhaseTrace, SelfConsistentResult, SwitchCertificate,
                          nonlinear_residual, phase_trace,
                          self_consistent_solve, switch_alignment)
from .timedomain import FitResult, SimResult, excite_and_fit, simulate

__version__ = "0.1.0"
