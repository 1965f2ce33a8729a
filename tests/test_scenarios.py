import io
import json

import numpy as np
import pytest

from oqsl.cli import main
from oqsl.linalg import ValidationError
from oqsl.scenarios import (
    SCENARIOS,
    run_scenario,
    scenario_battery_degenerate,
    scenario_dephasing,
    scenario_kraus_dephasing,
    scenario_tight_qubit,
)


def test_registry():
    assert set(SCENARIOS) == {"tight-qubit", "dephasing", "battery-degenerate", "kraus-dephasing"}
    with pytest.raises(ValidationError):
        run_scenario("nosuch")


def test_tight_qubit_passes_with_expected_values():
    res = scenario_tight_qubit()
    assert res.passed
    by_name = {r["bound"]: r for r in res.rows}
    assert by_name["MT_INTEGRAL"]["value"] == pytest.approx(np.pi / 2, abs=1e-4)
    assert by_name["SELF_INVERSE"]["value"] == pytest.approx(np.pi / 2, abs=1e-4)
    assert by_name["STATE_MT"]["value"] == pytest.approx(np.pi / 2, abs=1e-4)
    assert by_name["PURITY_HS"]["value"] == pytest.approx(1 / np.sqrt(2), abs=1e-9)
    assert by_name["MIN_NORM"]["value"] == pytest.approx(1.0, abs=1e-9)


def test_dephasing_rows_and_dominance():
    res = scenario_dephasing()
    assert res.passed
    assert len(res.rows) == 64
    for row in res.rows:
        assert row["err_oqsl"] <= 1e-6
        assert row["err_qsl"] <= 1e-6
        assert row["oqsl"] >= row["qsl"]
    assert res.rows[-1]["T"] == pytest.approx(np.pi / 2)
    assert res.rows[-1]["oqsl"] == pytest.approx(np.pi / (2 * np.sqrt(2)), abs=1e-6)


def test_dephasing_parameter_validation():
    with pytest.raises(ValidationError):
        scenario_dephasing(gamma=0.0)


def test_battery_degenerate_exact_zeros():
    res = scenario_battery_degenerate()
    assert res.passed
    by_name = {r["quantity"]: r for r in res.rows}
    assert by_name["BATTERY_CT1"]["value"] == 0.0
    assert by_name["BATTERY_CT2"]["value"] == 0.0
    assert by_name["STATE_MT"]["value"] >= 0.5


def test_kraus_dephasing_scenario():
    res = scenario_kraus_dephasing()
    assert res.passed
    by_name = {r["quantity"]: r for r in res.rows}
    assert by_name["max_expect_err"]["value"] <= 1e-9


@pytest.mark.parametrize("gamma", [0.5, 1.0, 3.0])
def test_kraus_dephasing_bound_is_t_over_sqrt2_at_every_gamma(gamma):
    res = scenario_kraus_dephasing(gamma=gamma)
    row = {r["quantity"]: r for r in res.rows}["KRAUS"]
    assert res.passed and row["reference"] == np.pi / 2 / np.sqrt(2.0) and row["abs_err"] <= 1e-15


def test_kraus_dephasing_fails_on_a_wrong_kraus_bound(monkeypatch):
    from oqsl import bounds

    kraus = bounds.oqsl_kraus

    def halved(traj, rho):
        report = kraus(traj, rho)
        T_qsl = report.T_qsl / 2
        return bounds.BoundReport(report.bound_id, report.T, T_qsl, report.valid, report.details, report.inputs)

    monkeypatch.setattr(bounds, "oqsl_kraus", halved)
    res = scenario_kraus_dephasing()
    row = {r["quantity"]: r for r in res.rows}["KRAUS"]
    assert not res.passed and row["abs_err"] == pytest.approx(np.pi / 4 / np.sqrt(2.0))


def printed(name, fmt):
    """What ``oqsl scenario name --format fmt`` prints."""
    out = io.StringIO()
    assert main(["scenario", name, "--format", fmt], out=out, err=io.StringIO()) == 0
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_deterministic_output(name):
    assert printed(name, "csv") == printed(name, "csv")
    assert printed(name, "json") == printed(name, "json")


def test_csv_headers_stable():
    assert printed("dephasing", "csv").splitlines()[0] == (
        "T,oqsl,qsl,ref_oqsl,ref_qsl,err_oqsl,err_qsl"
    )
    assert printed("tight-qubit", "csv").splitlines()[0] == (
        "bound,value,reference,abs_err"
    )


def test_json_schema_keys():
    payload = json.loads(printed("tight-qubit", "json"))
    assert payload["schema"] == "oqsl.scenario/v1"
    assert set(payload) == {"schema", "scenario", "tolerance", "passed", "columns", "rows"}
