"""The layers the traced run times, and the per-layer metrics it prints.

Each site is a public function wrapped in the module namespace where its
callers look it up. Every span name S yields the metric S_s, its summed
self time; the spans of the sysdl, dynamics and bounds layers also yield
S_calls. Spans on the audit's worker threads sum busy time across threads.
"""

DYNAMICS = {
    "evolve_unitary_heisenberg": "dynamics.evolve_unitary",
    "evolve_lindblad_heisenberg": "dynamics.evolve_lindblad_heisenberg",
    "evolve_lindblad_schrodinger": "dynamics.evolve_lindblad_schrodinger",
    "evolve_kraus_heisenberg": "dynamics.evolve_kraus",
}

BOUND_EVALUATORS = (
    "oqsl_mt_integral",
    "oqsl_self_inverse",
    "state_qsl_projector",
    "oqsl_purity_hs",
    "oqsl_min_norm",
    "oqsl_generator_hs",
    "qsl_delcampo",
    "oqsl_kraus",
    "oqsl_state_independent",
    "battery_bounds",
    "two_time_correlation",
    "corr_qsl",
    "commutator_qsl",
    "rate_audit",
)

# (module, attribute, span name)
SITES = (
    ("oqsl.cli", "parse_system", "sysdl.parse"),
    *(("oqsl.cli", fn, span) for fn, span in DYNAMICS.items()),
    *(("oqsl.scenarios", fn, span) for fn, span in DYNAMICS.items()),
    ("oqsl.audit", "evolve_unitary_heisenberg", DYNAMICS["evolve_unitary_heisenberg"]),
    ("oqsl.audit", "evolve_kraus_heisenberg", DYNAMICS["evolve_kraus_heisenberg"]),
    # battery_bounds starts its own unitary evolution
    ("oqsl.bounds", "evolve_unitary_heisenberg", DYNAMICS["evolve_unitary_heisenberg"]),
    *(("oqsl.bounds", fn, f"bounds.{fn}") for fn in BOUND_EVALUATORS),
    ("oqsl.scenarios", "run_scenario", "scenarios.run_scenario"),
    # the audit's phases are private functions; a rename leaves them unattached
    ("oqsl.audit", "_sample_trial", "audit.sample_busy"),
    ("oqsl.audit", "_integrate_lindblad_block", "audit.lindblad_block"),
    ("oqsl.audit", "_evaluate_trial", "audit.trial_eval_busy"),
    # on the main thread: sampling, the Lindblad block and the wait for the trials
    ("oqsl.audit", "run_audit", "audit.run_audit"),
)

SPANS = tuple(dict.fromkeys(span for _, _, span in SITES))
COUNTED_LAYERS = ("sysdl.", "dynamics.", "bounds.")


def metric_units() -> dict:
    """Every per-layer metric name, in print order, with its unit."""
    units = {"cli.import_s": "s", "cli.import_scipy_linalg_s": "s"}
    for span in SPANS:
        units[f"{span}_s"] = "s"
        if span.startswith(COUNTED_LAYERS):
            units[f"{span}_calls"] = "count"
        if span == "sysdl.parse":
            units["sysdl.parse_bytes"] = "bytes"
    units.update(
        {
            "dynamics.samples": "count",
            "dynamics.traj_bytes": "bytes",
            "audit.trials": "count",
            "trace.wall_s": "s",
            "trace.unaccounted_s": "s",
        }
    )
    return units
