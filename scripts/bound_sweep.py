#!/usr/bin/env python3
"""Sweep the dephasing strength and tabulate every applicable bound at a
fixed horizon, showing how the bound hierarchy shifts with noise."""

import argparse

import numpy as np

from oqsl.bounds import EvalContext, evaluate_all
from oqsl.dynamics import TimeGrid, dephasing_generator, evolve_lindblad_heisenberg
from oqsl.linalg import DensityState, sigma_x

IDS = ("GENERATOR_HS", "STATE_INDEP", "DELCAMPO")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tmax", type=float, default=np.pi / 2)
    ap.add_argument("--steps", type=int, default=2000)
    ap.add_argument("--gammas", type=float, nargs="+", default=[0.25, 0.5, 1.0, 2.0, 4.0])
    args = ap.parse_args()

    rho = DensityState.pure([1.0, 1.0])
    grid = TimeGrid(args.tmax, args.steps)
    print("gamma,generator_hs,state_indep,delcampo,T")
    for gamma in args.gammas:
        ctx = EvalContext(
            dephasing_generator(gamma), grid, sigma_x, rho, evolve_lindblad_heisenberg,
            final_state=True, ids=IDS,
        )
        g, s, d = (r.T_qsl for r in evaluate_all(ctx))
        print(f"{gamma:.6g},{g:.6g},{s:.6g},{d:.6g},{grid.T:.6g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
