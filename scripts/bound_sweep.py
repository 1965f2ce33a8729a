#!/usr/bin/env python3
"""Sweep the dephasing strength and tabulate every applicable bound at a
fixed horizon, showing how the bound hierarchy shifts with noise."""

import argparse

import numpy as np

from oqsl.bounds import oqsl_generator_hs, oqsl_state_independent, qsl_delcampo
from oqsl.dynamics import (
    TimeGrid,
    dephasing_generator,
    evolve_lindblad_heisenberg,
    lindblad_apply,
    lindblad_final_state,
)
from oqsl.linalg import DensityState, hs_norm, sigma_x


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tmax", type=float, default=np.pi / 2)
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--gammas", type=float, nargs="+", default=[0.25, 0.5, 1.0, 2.0, 4.0])
    args = ap.parse_args()

    rho = DensityState.pure([1.0, 1.0])
    grid = TimeGrid(0.0, args.tmax, args.steps)
    print("gamma,generator_hs,state_indep,delcampo,T")
    for gamma in args.gammas:
        gen = dephasing_generator(gamma)
        traj = evolve_lindblad_heisenberg(sigma_x, gen, rho, grid)
        rho_T = lindblad_final_state(rho, gen, grid)
        l2 = hs_norm(lindblad_apply(gen, rho.matrix, 0.0)) ** 2
        g = oqsl_generator_hs(traj, rho).T_qsl
        s = oqsl_state_independent(sigma_x, traj).T_qsl
        d = qsl_delcampo(rho, rho_T, l2, grid.duration).T_qsl
        print(f"{gamma:.6g},{g:.6g},{s:.6g},{d:.6g},{grid.duration:.6g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
