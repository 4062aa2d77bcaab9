"""Numerical laboratory for a cone-degenerate p-Laplace equation.

The domain is the stretched cone (0, 1) x X with X an axis-aligned box.
All discrete calculus happens in the flattened coordinates (a, x) with
a = ln t, where the cone gradient and Hessian become the plain gradient
and Hessian and the singular measure dt/t dx becomes Lebesgue measure.
"""

from conepde.geometry import (
    ConeDomain,
    GConditionParams,
    boundary_distance,
    estimate_g_condition,
    exhaustion,
)
from conepde.calculus import (
    LogGrid,
    GridFunction,
    gradient_field,
    hessian_field,
    hoelder_norm,
    read_gridfunction,
    write_gridfunction,
)
from conepde.operators import (
    PDEProblem,
    PucciParams,
    TransformParams,
    q_matrix,
    pucci_plus,
    pucci_minus,
    classify_point,
    psi,
    psi_inverse,
    transformed_residual,
)
from conepde.solver import (
    SolverConfig,
    SolveReport,
    solve_dirichlet,
    manufactured_problem,
    solve_by_exhaustion,
    convergence_study,
)
from conepde.regularization import (
    EnvelopeParams,
    inf_convolution,
    upper_envelope,
    semiconvexity_check,
    convolution_supersolution_check,
)
from conepde.analysis import (
    AbpReport,
    DoublingDiagnostic,
    abp_check,
    comparison_check,
    doubling_diagnostic,
    harnack_ratio,
    hoelder_check,
    oscillation_decay,
    weak_form_residual,
    weak_harnack_check,
)

__version__ = "0.1.0"
