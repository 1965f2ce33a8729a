"""Output checks made apart from the program.

Every check compares an `oqsl` output with a closed form, with the
benchmark's own numpy computation, or with a property the method must have
(T_qsl <= T, the applicable bound set, audit trial counts). None compares
with a saved copy of an earlier output. A check raises CheckError.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse.linalg import expm_multiply

# the validity convention of the bound catalog: T_qsl <= T + 1e-6
VALID_TOL = 1e-6
# numerically exact quantities (eigendecomposition, Liouvillian exponential,
# RK4 at h = 1e-3 on norm-1 generators)
EXACT_TOL = 1e-8
AUDIT_TOL = 1e-6

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)


class CheckError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _close(value: float, ref: float, tol: float, what: str) -> None:
    _require(abs(value - ref) <= tol, f"{what} = {value!r}, expected {ref!r} (tol {tol:g})")


# ---------------------------------------------------------------------------
# the benchmark's own copies of the built-in systems


def _system(kind, H, ket, A, jumps=()):
    return {"kind": kind, "H": H, "ket": ket, "A": A, "jumps": list(jumps)}


# the bound ids `--bounds ALL` must select, by the README's applicability rules
_UNITARY_PURE = {"PURITY_HS", "GENERATOR_HS", "STATE_INDEP", "MIN_NORM", "BATTERY_CT1", "BATTERY_CT2", "CORR_CLOSED"}
_LINDBLAD = {"GENERATOR_HS", "DELCAMPO", "STATE_INDEP"}

BUILTIN = {
    "dephasing.sys": (
        _system("lindblad", np.zeros((2, 2), complex), PLUS, X, jumps=[(Z, 0.5)]),
        _LINDBLAD | {"CORR_OPEN"},
    ),
    "kraus_dephasing.sys": (None, {"KRAUS"}),
    "battery.sys": (
        _system("unitary", Z + X, np.array([0, 1], complex), Z),
        _UNITARY_PURE | {"MT_INTEGRAL", "SELF_INVERSE"},
    ),
    "qutrit_decay.sys": (
        _system(
            "lindblad",
            np.diag([1.0, 0.0, -1.0]).astype(complex),
            None,
            np.diag([2.0, 1.0, 0.0]).astype(complex),
            jumps=[(np.diag([1.0, 1.0], k=1).astype(complex), 0.3)],
        ),
        _LINDBLAD,
    ),
    "two_qubit.sys": (
        _system(
            "unitary",
            0.5 * np.kron(X, X) + 0.5 * np.kron(Y, Y) + 0.25 * np.kron(Z, I2),
            np.array([1, 0, 0, 0], complex),
            np.kron(I2, Z),
        ),
        # |00> is an eigenstate, so the energy spread vanishes and no
        # spread-based bound applies
        _UNITARY_PURE | {"COMM_CLOSED"},
    ),
    "tight_qubit.sys": (
        _system("unitary", Z, PLUS, X),
        _UNITARY_PURE | {"MT_INTEGRAL", "SELF_INVERSE"},
    ),
}
QUTRIT_RHO0 = np.diag([0.5, 0.3, 0.2]).astype(complex)


# ---------------------------------------------------------------------------
# references


def density(system: dict) -> np.ndarray:
    if system["ket"] is None:
        return QUTRIT_RHO0
    psi = np.asarray(system["ket"], complex)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def unitary_state(H: np.ndarray, rho0: np.ndarray, T: float) -> np.ndarray:
    """rho(T) = U rho0 U^dag with U = exp(-i H T), from numpy's eigh."""
    w, V = np.linalg.eigh(H)
    U = (V * np.exp(-1j * w * T)) @ V.conj().T
    return U @ rho0 @ U.conj().T


def liouvillian(H: np.ndarray, jumps) -> np.ndarray:
    """Schrodinger-picture generator on column-stacked vec(rho), using
    vec(A X B) = (B^T kron A) vec(X)."""
    d = H.shape[0]
    eye = np.eye(d)
    L = -1j * (np.kron(eye, H) - np.kron(H.T, eye))
    for J, rate in jumps:
        JdJ = J.conj().T @ J
        L = L + rate * (np.kron(J.conj(), J) - 0.5 * np.kron(eye, JdJ) - 0.5 * np.kron(JdJ.T, eye))
    return L


def lindblad_state(H: np.ndarray, jumps, rho0: np.ndarray, T: float) -> np.ndarray:
    d = H.shape[0]
    vec = expm_multiply(T * liouvillian(H, jumps), rho0.reshape(-1, order="F"))
    return vec.reshape((d, d), order="F")


def final_state(system: dict, T: float) -> np.ndarray:
    rho0 = density(system)
    if system["kind"] == "unitary":
        return unitary_state(system["H"], rho0, T)
    return lindblad_state(system["H"], system["jumps"], rho0, T)


# ---------------------------------------------------------------------------
# bound outputs


def _reports(out: dict, T: float, expected_ids: set) -> dict:
    _require(out.get("schema") == "oqsl.bound/v1", f"unexpected schema {out.get('schema')!r}")
    ids = [r["bound_id"] for r in out["reports"]]
    _require(len(ids) == len(set(ids)), f"duplicate bound ids {ids}")
    _require(set(ids) == expected_ids, f"bound set {sorted(ids)} != applicable set {sorted(expected_ids)}")
    for r in out["reports"]:
        bid, tq = r["bound_id"], r["T_qsl"]
        _close(r["T"], T, 1e-12, f"{bid} T")
        _require(math.isfinite(tq) and tq >= 0.0, f"{bid} T_qsl = {tq!r} is not a nonnegative number")
        _require(tq <= T + VALID_TOL, f"{bid} T_qsl = {tq!r} exceeds T = {T!r}")
    return {r["bound_id"]: r for r in out["reports"]}


def _check_dynamics(reports: dict, system: dict, T: float) -> None:
    """<A(T)> wherever a report carries it, against the reference state;
    the Hilbert-Schmidt speed under unitary dynamics is the constant
    ||[H, A]||_hs; DELCAMPO's relative purity against the reference state."""
    rho0 = density(system)
    rhoT = final_state(system, T)
    A = system["A"]
    scale = max(1.0, float(np.linalg.norm(A, 2)))
    ref_expect = float(np.trace(A @ rhoT).real)
    for bid, r in reports.items():
        d = r["details"]
        for key in ("expectT", "expect_end"):
            if key in d:
                _close(d[key], ref_expect, EXACT_TOL * scale, f"{bid} {key}")
    if system["kind"] == "unitary":
        H = system["H"]
        speed = float(np.linalg.norm(H @ A - A @ H))
        _close(reports["GENERATOR_HS"]["details"]["lambda_T"], speed, EXACT_TOL * max(1.0, speed), "lambda_T")
    if "DELCAMPO" in reports:
        # relative purity, clipped into the domain of arccos as the bound defines it
        purity0 = float(np.trace(rho0 @ rho0).real)
        cos_theta = min(1.0, max(-1.0, float(np.trace(rho0 @ rhoT).real) / purity0))
        _close(reports["DELCAMPO"]["details"]["cos_theta"], cos_theta, EXACT_TOL, "DELCAMPO cos_theta")


def check_builtin_bound(out: dict, params: dict) -> None:
    name, T = params["system"], params["T"]
    system, expected_ids = BUILTIN[name]
    reports = _reports(out, T, expected_ids)
    if system is not None:
        _check_dynamics(reports, system, T)
    if name == "dephasing.sys":
        # <X(t)> = e^{-t}; GENERATOR_HS = T / sqrt 2; DELCAMPO = (1 - e^{-T}) / sqrt 2
        _close(reports["GENERATOR_HS"]["T_qsl"], T / math.sqrt(2.0), 1e-6, "GENERATOR_HS")
        _close(reports["DELCAMPO"]["T_qsl"], (1.0 - math.exp(-T)) / math.sqrt(2.0), 1e-6, "DELCAMPO")
        _close(reports["GENERATOR_HS"]["details"]["expectT"], math.exp(-T), EXACT_TOL, "<O(T)>")
    elif name == "kraus_dephasing.sys":
        # <X(t)> = e^{-t}; sum_i ||K_i^dag X dK_i/dt||_hs = e^{-t} / sqrt 2, so KRAUS = T / sqrt 2
        _close(reports["KRAUS"]["details"]["expectT"], math.exp(-T), EXACT_TOL, "<O(T)>")
        _close(reports["KRAUS"]["T_qsl"], T / math.sqrt(2.0), 1e-5, "KRAUS")
    elif name == "battery.sys":
        # Bloch rotation about (x + z) / sqrt 2 at rate 2 sqrt 2 from -z
        _close(
            reports["SELF_INVERSE"]["details"]["expectT"],
            -0.5 - 0.5 * math.cos(2.0 * math.sqrt(2.0) * T),
            EXACT_TOL,
            "<Z(T)>",
        )
    elif name == "qutrit_decay.sys":
        # the ladder's populations decay in closed form at rate g
        g = 0.3
        p2 = 0.2 * math.exp(-g * T)
        p1 = (0.3 + g * T * 0.2) * math.exp(-g * T)
        _close(reports["GENERATOR_HS"]["details"]["expectT"], 2.0 * (1.0 - p1 - p2) + p1, EXACT_TOL, "<N(T)>")
    elif name == "tight_qubit.sys":
        # the arcsine and path-integral bounds are tight: pi / 2
        for bid in ("MT_INTEGRAL", "SELF_INVERSE"):
            _close(reports[bid]["T_qsl"], math.pi / 2.0, 1e-5, bid)


def check_dense_bound(out: dict, params: dict) -> None:
    system, T = params["system"], params["T"]
    if system["kind"] == "unitary":
        expected = _UNITARY_PURE | {"MT_INTEGRAL", "COMM_CLOSED"}
    else:
        expected = _LINDBLAD | {"CORR_OPEN", "COMM_OPEN"}
    _check_dynamics(_reports(out, T, expected), system, T)


# ---------------------------------------------------------------------------
# scenarios


def _rows(out: dict, key: str) -> dict:
    return {r[key]: r for r in out["rows"]}


def check_scenario(out: dict, params: dict) -> None:
    name = params["scenario"]
    _require(out.get("schema") == "oqsl.scenario/v1", f"unexpected schema {out.get('schema')!r}")
    _require(out.get("scenario") == name, f"scenario {out.get('scenario')!r} != {name!r}")
    if name == "tight-qubit":
        T = math.pi / 2.0
        refs = {"MT_INTEGRAL": T, "SELF_INVERSE": T, "STATE_MT": T, "PURITY_HS": 1 / math.sqrt(2.0), "MIN_NORM": 1.0}
        rows = _rows(out, "bound")
        _require(set(rows) == set(refs), f"rows {sorted(rows)} != {sorted(refs)}")
        for bid, ref in refs.items():
            _close(rows[bid]["value"], ref, 1e-4, bid)
            _require(rows[bid]["value"] <= T + VALID_TOL, f"{bid} exceeds T")
    elif name == "dephasing":
        _require(out["rows"] and len(out["rows"]) == 64, "dephasing needs 64 horizons")
        for k, r in enumerate(out["rows"], start=1):
            T = k * (math.pi / 2.0) / 64
            _close(r["T"], T, 1e-12, f"horizon {k}")
            _close(r["oqsl"], T / math.sqrt(2.0), 1e-6, f"observable bound at T={T:.4f}")
            _close(r["qsl"], (1.0 - math.exp(-T)) / math.sqrt(2.0), 1e-6, f"state bound at T={T:.4f}")
            _require(r["qsl"] <= r["oqsl"] <= T + VALID_TOL, f"bound order fails at T={T:.4f}")
    elif name == "battery-degenerate":
        T = math.pi / 4.0
        rows = _rows(out, "quantity")
        # the stored energy never changes, while the state reaches an orthogonal one at pi / 4
        _require(rows["BATTERY_CT1"]["value"] == 0.0 and rows["BATTERY_CT2"]["value"] == 0.0, "CT bounds not zero")
        _close(rows["STATE_MT"]["value"], T, 1e-6, "STATE_MT")
        _require(rows["STATE_MT"]["value"] <= T + VALID_TOL, "STATE_MT exceeds T")
    elif name == "kraus-dephasing":
        T = math.pi / 2.0
        value = _rows(out, "quantity")["KRAUS"]["value"]
        _close(value, T / math.sqrt(2.0), 1e-5, "KRAUS")
        _require(value <= T + VALID_TOL, "KRAUS exceeds T")
    else:
        raise CheckError(f"no check for scenario {name!r}")


# ---------------------------------------------------------------------------
# audit


def audit_rows(trials: int) -> dict:
    """(check, kind) -> trial count, from the audit's sampling plan: qubit
    trials = --trials, qutrit trials = half; even indices are pure; the Kraus
    family is qubit-only."""
    n_qubit, n_qutrit = trials, trials // 2
    every = n_qubit + n_qutrit
    pure = (n_qubit + 1) // 2 + (n_qutrit + 1) // 2
    rows = {}
    for check in ("MT_INTEGRAL", "SELF_INVERSE", "STATE_MT", "PURITY_HS", "GENERATOR_HS", "STATE_INDEP",
                  "RATE_ROBERTSON", "RATE_HOLDER_OP"):
        rows[(check, "unitary")] = every
    for check in ("MIN_NORM", "BATTERY_CT1", "BATTERY_CT2", "CORR_CLOSED", "COMM_CLOSED"):
        rows[(check, "unitary")] = pure
    for check in ("GENERATOR_HS", "STATE_INDEP", "RATE_CS_HS", "DUALITY"):
        rows[(check, "lindblad")] = every
    for check in ("CORR_OPEN", "COMM_OPEN"):
        rows[(check, "lindblad")] = pure
    rows[("KRAUS", "kraus")] = n_qubit
    return rows


def check_audit(out: dict, params: dict) -> None:
    trials = params["trials"]
    _require(out.get("schema") == "oqsl.audit/v1", f"unexpected schema {out.get('schema')!r}")
    _require(out["seed"] == params["seed"], f"seed {out['seed']} != {params['seed']}")
    _require(out["n_qubit"] == trials and out["n_qutrit"] == trials // 2, "trial numbers do not match --trials")
    got = {(r["check"], r["kind"]): r for r in out["rows"]}
    expected = audit_rows(trials)
    _require(set(got) == set(expected), f"audit rows {sorted(got)} != {sorted(expected)}")
    for key, count in expected.items():
        r = got[key]
        _require(r["trials"] == count, f"{key} ran {r['trials']} trials, expected {count}")
        v = r["max_violation"]
        _require(math.isfinite(v) and v <= AUDIT_TOL, f"{key} max violation {v!r} exceeds {AUDIT_TOL:g}")


CHECKS = {
    "builtin_bound": check_builtin_bound,
    "dense_bound": check_dense_bound,
    "scenario": check_scenario,
    "audit": check_audit,
}
