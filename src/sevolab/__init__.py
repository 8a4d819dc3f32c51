"""Numerical laboratory for weakly coupled damped sigma-evolution systems.

The package splits into arithmetic ground truth (exponents), per-mode
linear theory (kernels), the pseudo-spectral time stepper (solver), the
blow-up test-function machinery (testfunc), experiment drivers
(harness), and configuration / persistence / CLI (config, outputs, cli).
"""

from .exponents import (
    SystemParams,
    GammaVector,
    ExponentReport,
    compute_gamma,
    gamma_max_closed_form,
    classify,
    check_global_conditions,
    loss_of_decay_sequence,
    predicted_decay,
    lifespan_exponent,
    gn_theta,
    report,
)
from .kernels import decay_profile, ode_residual, propagator_arrays
from .solver import (
    ComponentData,
    FieldState,
    GridSpec,
    InitialData,
    RunResult,
    make_initial_data,
    norms,
    run,
    step,
)
from .testfunc import (
    check_scaling,
    check_weight_decay,
    frac_laplacian_grid,
    space_weight,
    verify_eta_condition,
    weight_decay_exponent,
)
from .harness import (
    ConvergenceReport,
    DecayReport,
    FitResult,
    LifespanSweep,
    convergence_study,
    decay_experiment,
    fit_power_law,
    lifespan_sweep,
    mean_mode_cutoff,
    xnorm_diagnostic,
)
from .config import (
    ExperimentConfig,
    apply_overrides,
    config_hash,
)

__version__ = "0.1.0"
