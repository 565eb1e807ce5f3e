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

from .balance import BalanceResult, balance_fixed_point
from .bridge import (DensitySource, KernelMatrix, PotentialSolution,
                     bridge_source, constant_source, cosine_source,
                     evaluate_potential, gamma0, gauss_legendre,
                     solve_potential, tabulated_source)
from .cost import (CostFunction, ValidationReport, absolute_cost,
                   expression_cost, quadratic_cost, tabulated_cost,
                   validate_cost)
from .errors import (BalanceError, CapExceededError, ConfigError,
                     ConvergenceError, KernelBuildError, OverflowGuardError,
                     PermlimError, PermlimWarning, RefinementWarning,
                     RuntimeBudgetWarning, SingularSystemError,
                     SmoothnessWarning, SpectralGapError, SpectralGapWarning)
from .grid import grid_nodes, load_matrix, norm_2n, norm_inf, sample_kernel
from .lab import (BalanceStudyRecord, ConvergenceRecord, RunConfig, fit_rate,
                  load_config, run_balance_study, run_converge,
                  run_solve_bridge, run_validate_cost)
from .permanent import PermanentValue, compute_Dn, permanent_brute
from .spectral import (SpectrumReport, centered_nystrom, fredholm_limit,
                       mccullagh_estimate)

__version__ = "0.1.0"
