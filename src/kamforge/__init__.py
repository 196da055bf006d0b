"""kamforge: invariant curves of the standard family, three ways.

Computes invariant (KAM) curves of the twist maps
T_eps(x, y) = (x + y + eps f(x), y + eps f(x)) for Diophantine and
complexified rotation numbers, cross-validates a quadratic Newton scheme
against a Picard fixed point and a Taylor recursion at q = 0, materializes
the Diophantine set geometry and small-divisor bounds as checkable code,
and detects the formal obstruction at rational frequencies.
"""

from .errors import (
    BoundViolationError,
    DivergenceError,
    KamforgeError,
    NearSingularError,
    NoConvergenceError,
    OverflowRiskError,
    ResonanceError,
)
from .fourier import (
    FourierSeries,
    compose_id_plus,
    derivative,
    evaluate,
    grid_values,
    invert_pointwise,
    mean,
    product,
    sup_norm,
    truncate,
)
from .frequency import (
    DiophantineClass,
    Frequency,
    SampledFamily,
    SetGeometry,
    c1hol_norm_estimate,
    check_exp_dist_bound,
    check_small_divisor_bound,
    dioph_real_margin,
    dist_to_AMR,
    dist_to_integers,
    export_set_geometry,
    from_omega,
    from_q,
    in_AMC,
    lambda_k,
    reflected,
)
from .operators import (
    MultiplierKind,
    apply,
    e_n,
    max_divisor_magnitude,
    multiplier_table,
)
from .kam import (
    InvariantCurve,
    SolveReport,
    SolverConfig,
    dynamical_residual,
    linearized_solve,
    mean_identity_residual,
    newton_step,
    omega_tangent,
    solve_curve,
)
from .continuation import (
    QTaylorData,
    conjugate_reflection_check,
    crosscheck,
    inverse_scattering,
    picard_solve,
    taylor0_eval,
    taylor0_recursion,
)
from .obstruction import (
    ObstructionReport,
    RationalFreq,
    beta_gamma_oracle,
    delta_star,
    e_star,
    obstruction_order,
    projector,
)

__version__ = "0.1.0"
