"""Observable quantum speed limits: Heisenberg-picture dynamics, bound
evaluation, a plain-text system-description language, and reproductions of
the worked qubit examples."""

from .bounds import (
    BOUND_IDS,
    REGISTRY,
    BoundReport,
    BoundSpec,
    EvalContext,
    battery_bounds,
    commutator_qsl,
    corr_qsl,
    evaluate_all,
    oqsl_generator_hs,
    oqsl_kraus,
    oqsl_min_norm,
    oqsl_mt_integral,
    oqsl_purity_hs,
    oqsl_self_inverse,
    oqsl_state_independent,
    qsl_delcampo,
    rate_audit,
    state_qsl_projector,
    two_time_correlation,
)
from .dynamics import (
    DephasingKraus,
    LindbladGenerator,
    RateTable,
    TabulatedKraus,
    TimeGrid,
    Trajectory,
    UnitaryGenerator,
    dephasing_generator,
    evolve_kraus_heisenberg,
    evolve_lindblad_heisenberg,
    evolve_lindblad_schrodinger,
    evolve_unitary_heisenberg,
    lindblad_apply,
    lindblad_final_state,
)
from .linalg import (
    DensityState,
    NumericError,
    ValidationError,
    expectation,
    hs_norm,
    is_hermitian,
    mat_exp,
    op_norm,
    sigma_x,
    sigma_y,
    sigma_z,
    tr_norm,
    variance,
)
from .sysdl import (
    ParseError,
    SystemSpec,
    parse_complex,
    parse_pauli_expr,
    parse_system,
    serialize_system,
)

__version__ = "0.1.0"
