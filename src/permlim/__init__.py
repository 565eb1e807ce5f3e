"""Numerical laboratory for permanent limits of doubly stochastic kernels.

The pipeline: a nonnegative symmetric cost on the unit square determines a
density rho(x, y) = exp(-c(x, y) - a(x) - a(y)) whose potential ``a`` makes
both marginals uniform (:mod:`permlim.bridge`); sampling rho on the grid
i/n gives a kernel matrix (:mod:`permlim.grid`); a small diagonal rescaling
makes it exactly doubly stochastic (:mod:`permlim.balance`); its normalised
permanent per/n! (:mod:`permlim.permanent`) converges, as n grows, to a
Fredholm determinant of the centered integral operator, with a
finite-n determinant estimate along the way (:mod:`permlim.spectral`).
:mod:`permlim.lab` wires the stages into configurable studies behind the
``permlim`` command line.
"""

from .balance import (BalanceDiagnostics, BalanceResult, balance_diagnostics,
                      balance_fixed_point, balance_symmetric_scaling)
from .bridge import (DensitySource, PotentialSolution, bridge_source,
                     constant_source, cosine_source, evaluate_density,
                     evaluate_potential, gamma0, marginal_residual,
                     solve_potential, tabulated_source)
from .cost import (CostFunction, ValidationReport, absolute_cost,
                   evaluate_cost, expression_cost, quadratic_cost,
                   tabulated_cost, validate_cost)
from .errors import (BalanceError, CapExceededError, ConfigError,
                     ConvergenceError, OverflowGuardError, PermlimError,
                     PermlimWarning, RefinementWarning, RuntimeBudgetWarning,
                     SingularSystemError, SmoothnessWarning, SpectralGapError,
                     SpectralGapWarning)
from .grid import (DefectVector, KernelMatrix, RiemannReport, grid_nodes,
                   load_matrix, norm_2n, norm_inf, riemann_correction_check,
                   riemann_sum, row_defect, sample_kernel, save_matrix)
from .lab import (BalanceStudyRecord, ConvergenceRecord, RunConfig, fit_rate,
                  load_config, run_balance_study, run_converge,
                  run_solve_bridge, run_validate_cost)
from .permanent import (PermanentValue, compute_Dn, permanent_brute,
                        permanent_exact)
from .spectral import (SpectrumReport, bn_matrix, centered_nystrom,
                       eigen_symmetric, fredholm_limit, mccullagh_estimate)

__version__ = "0.1.0"
