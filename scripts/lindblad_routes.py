#!/usr/bin/env python3
"""Time the Lindblad kernel's two routes on the same work and print the
README's route table: the exact propagator exp(h L), which
``dynamics.lindblad_chunks`` takes for d <= ``dynamics.EXACT_MAX_DIM``, and
the Taylor cells, which it takes above. The route is picked in-process by
setting ``EXACT_MAX_DIM`` to d (exact) or to 0 (cells) around each timed
call. Each row times one of two pieces of work:

- batch 1: ``evolve_lindblad_heisenberg`` of one observable, with its speeds,
  on a random d-dimensional system with two jumps (H and the observable of
  operator norm 1, each jump 0.5 L / ||L||_2 at a rate in [0.1, 1), a pure
  state, hbar = 1), over [0, 1] on STEPS steps, for each d in DIMS;
- the audit's blocks: ``audit._integrate_lindblad_block`` of QUBIT_TRIALS
  qubit trials and half as many qutrit trials on the audit's grid, which
  evolves every trial's observable and state as one batch each, and for
  qubits also runs the Kraus kernel, whose route does not change.

Each cell is the range, over ``--repeats`` repeats, of the median of
``--runs`` timed calls; the two routes alternate within a repeat. Run it
with one BLAS thread, as the table in the README was:

    OPENBLAS_NUM_THREADS=1 python scripts/lindblad_routes.py
"""

import argparse
import functools
import statistics
import time

import numpy as np

from oqsl import audit, dynamics
from oqsl.dynamics import LindbladGenerator, TimeGrid, evolve_lindblad_heisenberg
from oqsl.linalg import DensityState, op_norm

DIMS = (2, 3, 4, 5, 6, 8, 12, 16)
STEPS = 1000
QUBIT_TRIALS = 100  # the audit's qubit block; its qutrit block has half as many


def random_case(dim: int, seed: int):
    """(gen, O, rho): a random generator with two jumps, a random observable
    and a random pure state."""
    rng = np.random.default_rng([seed, dim])

    def hermitian():
        G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return (G + G.conj().T) / op_norm(G + G.conj().T)

    H, O = hermitian(), hermitian()
    jumps = []
    for _ in range(2):
        L = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        jumps.append((0.5 * L / op_norm(L), float(rng.uniform(0.1, 1.0))))
    rho = DensityState.pure(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    return LindbladGenerator(H=H, jumps=tuple(jumps)), O, rho


def median_ms(work, runs: int) -> float:
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def row(dim: int, work, runs: int, repeats: int) -> tuple:
    """(exact, cells): the ranges of the repeat medians of ``work`` on each route."""
    medians = {True: [], False: []}
    default = dynamics.EXACT_MAX_DIM
    try:
        for _ in range(repeats):
            for exact in medians:
                dynamics.EXACT_MAX_DIM = dim if exact else 0
                medians[exact].append(median_ms(work, runs))
    finally:
        dynamics.EXACT_MAX_DIM = default
    return tuple(f"{min(m):.1f}–{max(m):.1f} ms" for m in medians.values())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--repeats", type=int, default=2)
    args = ap.parse_args()

    print("| d | batch | steps | exact route | Taylor cells |")
    print("|---|---|---|---|---|")
    grid = TimeGrid(1.0, STEPS)
    for dim in DIMS:
        gen, O, rho = random_case(dim, seed=0)
        cells = row(dim, functools.partial(evolve_lindblad_heisenberg, O, gen, rho, grid), args.runs, args.repeats)
        print(f"| {dim} | 1 | {grid.steps} |", " | ".join(cells), "|")
    for dim, count, name in ((2, QUBIT_TRIALS, "qubit"), (3, QUBIT_TRIALS // 2, "qutrit")):
        trials = [audit._sample_trial(42, dim, i) for i in range(count)]
        work = functools.partial(audit._integrate_lindblad_block, trials, audit.LINDBLAD_GRID)
        cells = row(dim, work, args.runs, args.repeats)
        print(f"| {dim} | {count} (audit {name} block) | {audit.LINDBLAD_GRID.steps} |", " | ".join(cells), "|")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
