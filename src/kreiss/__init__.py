"""Globally convergent computation of Kreiss constants.

The Kreiss constant K(A) of a stable matrix quantifies the worst-case
transient amplification of ||exp(tA)|| (Hurwitz/continuous time) or
||A^k|| (Schur/discrete time); by the Kreiss Matrix Theorem it brackets
both suprema to within a factor e*n.  This package computes K(A) to a
user-chosen relative accuracy by minimizing the inverse-Kreiss objective
with Newton's method and certifying global optimality through 2D level-set
eigenvalue tests, with a brute-force grid oracle for cross-validation.

Quick start::

    import numpy as np
    import kreiss

    prob = kreiss.MatrixProblem(np.array([[-0.3, 1.0], [0.0, -0.3]]),
                                "continuous")
    result = kreiss.solve_owr(prob)
    print(result.kreiss)
"""

from .errors import *  # noqa: F401,F403
from .linalg import (  # noqa: F401
    RitzValue,
    Spectrum,
    eig_pencil,
    eig_quadratic,
    eigs_shift_invert,
    gen_sylvester_solver,
    solve_gen_sylvester,
    solve_sylvester,
    sylvester_solver,
)
from .matio import (  # noqa: F401
    MatrixKind,
    MatrixProblem,
    TimeDomain,
    gen_test_matrix,
    load_matrix,
    save_matrix,
)
from .objective import (  # noqa: F401
    Derivatives,
    EvalPoint,
    evaluate,
    g_eval,
    g_grad,
    g_hess,
    gradient,
    h_eval,
    h_grad,
    h_hess,
    hessian,
)
from .localopt import OptResult, OptStatus, minimize  # noqa: F401
from .cert_ct import (  # noqa: F401
    CertificateReport,
    KroneckerPencil,
    build_fixed_pencil,
    build_variable_pencil,
    fixed_distance_test,
    horizontal_variable_test,
    variable_distance_test,
    vertical_level_points,
)
from .cert_dt import (  # noqa: F401
    QuadPencil,
    build_quad_pencil_fixed,
    build_quad_pencil_variable,
    circular_level_points,
    fixed_distance_test_dt,
    variable_distance_test_dt,
)
from .dnc import (  # noqa: F401
    LinearOperator,
    op_fixed_ct,
    op_horizontal_ct,
    op_quad_dt,
    op_variable_ct,
    real_eigs_in_interval,
)
from .oracle import grid_min, ratio_curve  # noqa: F401
from .solver import (  # noqa: F401
    Bounds,
    KreissResult,
    SolveStatus,
    TraceEntry,
    certify,
    compute_kreiss,
    default_start,
    solve_owr,
    solve_owr_backtracking,
    solve_trisection,
)

__version__ = "0.1.0"
