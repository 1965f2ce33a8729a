"""Observable quantum speed limits: Heisenberg-picture dynamics, bound
evaluation, a plain-text system-description language, and reproductions of
the worked qubit examples.

The package namespace is lazy (PEP 562): ``import oqsl`` loads no submodule
and no numpy. Each name below, and each of the submodules ``bounds``,
``dynamics``, ``linalg`` and ``sysdl``, is imported on its first read, so
``python -m oqsl`` reaches its process entry before numpy loads.
"""

_EXPORTS = {
    "bounds": (
        "BOUND_IDS",
        "REGISTRY",
        "BoundReport",
        "BoundSpec",
        "EvalContext",
        "battery_bounds",
        "commutator_qsl",
        "corr_qsl",
        "evaluate_all",
        "oqsl_generator_hs",
        "oqsl_kraus",
        "oqsl_min_norm",
        "oqsl_mt_integral",
        "oqsl_purity_hs",
        "oqsl_self_inverse",
        "oqsl_state_independent",
        "qsl_delcampo",
        "rate_audit",
        "state_qsl_projector",
        "two_time_correlation",
    ),
    "dynamics": (
        "DephasingKraus",
        "LindbladGenerator",
        "TabulatedKraus",
        "TimeGrid",
        "Trajectory",
        "UnitaryGenerator",
        "dephasing_generator",
        "evolve_kraus_heisenberg",
        "evolve_lindblad_heisenberg",
        "evolve_lindblad_schrodinger",
        "evolve_unitary_heisenberg",
        "lindblad_apply",
        "lindblad_final_state",
    ),
    "linalg": (
        "DensityState",
        "NumericError",
        "ValidationError",
        "expectation",
        "hs_norm",
        "is_hermitian",
        "mat_exp",
        "op_norm",
        "sigma_x",
        "sigma_y",
        "sigma_z",
        "variance",
    ),
    "sysdl": (
        "ParseError",
        "SystemSpec",
        "parse_complex",
        "parse_pauli_expr",
        "parse_system",
        "serialize_system",
    ),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_ORIGIN)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = name if name in _EXPORTS else _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # the import statement's path, which binds the submodule here and which -X importtime reports
    __import__(f"{__name__}.{module}")
    if module != name:
        globals()[name] = getattr(globals()[module], name)  # the next read does not come back here
    return globals()[name]


def __dir__() -> list:
    return sorted({*globals(), *_EXPORTS, *__all__})
