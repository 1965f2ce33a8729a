"""Refusals that the rest of the suite never reaches, each raised from the
CLI or the public API with its exception type and its message."""

import io
import re

import numpy as np
import pytest

from oqsl import bounds, cli
from oqsl.dynamics import (
    DephasingKraus,
    LindbladGenerator,
    TabulatedKraus,
    TimeGrid,
    UnitaryGenerator,
    dephasing_generator,
    evolve,
    lindblad_apply,
    liouvillian,
)
from oqsl.linalg import DensityState, ValidationError, as_matrix, sigma_x, sigma_z
from oqsl.scenarios import scenario_kraus_dephasing
from oqsl.sysdl import parse_pauli_expr

PLUS = DensityState.pure([1.0, 1.0])
GRID = TimeGrid(1.0, 10)
TIGHT_QUBIT = "src/oqsl/systems/tight_qubit.sys"


def _cli(*argv):
    """Run the CLI, which must exit 2 with one ``error:`` line and print
    nothing else, and raise that line's refusal again."""
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(list(argv), out, err)
    (line,) = err.getvalue().splitlines()
    assert code == 2 and out.getvalue() == "" and line.startswith("error: ")
    raise ValidationError(line.removeprefix("error: "))


def _closed():
    return evolve(sigma_x, UnitaryGenerator(sigma_z), PLUS, GRID)


REFUSALS = {
    "cli-empty-bounds": (
        lambda: _cli("bound", "--system", TIGHT_QUBIT, "--observable", "O", "--tmax", "1", "--bounds", ","),
        "--bounds must name at least one bound id or ALL",
    ),
    "cli-empty-system": (lambda: _cli("parse", "--system", ""), "missing --system file path"),
    "jump-shape": (
        lambda: LindbladGenerator(sigma_z, jumps=((np.eye(3), 1.0),)),
        "jump operator 0 has shape (3, 3), expected (2, 2)",
    ),
    "kraus-table-shape": (
        lambda: TabulatedKraus([0.0, 1.0], np.zeros((2, 2, 2))),
        "tabulated Kraus operators must have shape (n_times, n_ops, d, d)",
    ),
    "prefix-length": (lambda: _closed().prefix(1), "prefix length 1 outside [2, 10]"),
    "state-dimension": (
        lambda: evolve(sigma_x, UnitaryGenerator(sigma_z), DensityState.pure([1.0, 0.0, 0.0]), GRID),
        "state dimension 3 != 2",
    ),
    "lindblad-apply-shape": (
        lambda: lindblad_apply(dephasing_generator(1.0), np.eye(3)),
        "dimension mismatch: (3, 3) vs (2, 2)",
    ),
    "lindblad-apply-unitary": (
        lambda: lindblad_apply(UnitaryGenerator(sigma_z), np.eye(2) / 2),
        "lindblad_apply needs a lindblad generator, not a unitary one",
    ),
    "liouvillian-kraus": (
        lambda: liouvillian(DephasingKraus(1.0), heisenberg=True),
        "liouvillian needs a lindblad generator, not a kraus one",
    ),
    "dephasing-negative": (lambda: dephasing_generator(-1.0), "dephasing strength must be nonnegative"),
    "kraus-dephasing-negative": (lambda: DephasingKraus(-1.0), "dephasing strength must be a nonnegative real"),
    "kraus-dephasing-nan": (lambda: DephasingKraus(float("nan")), "dephasing strength must be a nonnegative real"),
    "non-square": (lambda: as_matrix(np.zeros((2, 3))), "matrix must be square, got shape (2, 3)"),
    "self-inverse-spread": (
        lambda: bounds.oqsl_self_inverse(1.0, 0.0, 0.0, 1.0),
        "SELF_INVERSE: energy spread must be positive",
    ),
    "state-mt-spread": (
        lambda: bounds.state_qsl_projector(1.0, 0.5, 0.0, 1.0),
        "STATE_MT: energy spread must be positive",
    ),
    "state-indep-kraus": (
        lambda: bounds.oqsl_state_independent(sigma_x, evolve(sigma_x, DephasingKraus(1.0), PLUS, GRID)),
        "STATE_INDEP requires a unitary- or lindblad-kind trajectory",
    ),
    "rates-kraus": (
        lambda: bounds.EvalContext(DephasingKraus(1.0), GRID, sigma_x, PLUS, evolve, rates=True).probes,
        "rate audit applies to unitary or lindblad trajectories",
    ),
    "battery-shapes": (
        lambda: bounds.battery_bounds(sigma_z, np.eye(3), PLUS, GRID),
        "dimension mismatch: (2, 2) vs (3, 3)",
    ),
    "corr-length": (
        lambda: bounds.corr_qsl(np.zeros(5), _closed(), 1.0),
        "correlation samples must match the trajectory grid",
    ),
    "kraus-scenario-gamma": (
        lambda: scenario_kraus_dephasing(gamma=0.0),
        "dephasing strength gamma must be positive",
    ),
    "pauli-qubits": (lambda: parse_pauli_expr("1 X", 0), "pauli expressions need n_qubits >= 1"),
}


@pytest.mark.parametrize("refusal", REFUSALS)
def test_each_refusal_raises_its_message(refusal):
    call, message = REFUSALS[refusal]
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()
