#!/usr/bin/env python3
"""Emit (and optionally plot) the dephasing bound-comparison data.

Writes the 64-point table of the observable-speed bound vs the
relative-purity state bound to CSV; with matplotlib installed and
``--plot FILE`` given, also renders the comparison figure.
"""

import argparse
import sys
from pathlib import Path

from oqsl.cli import write_result
from oqsl.scenarios import scenario_dephasing


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gamma", type=float, default=1.0)
    ap.add_argument("--out", type=Path, default=Path("dephasing_bounds.csv"))
    ap.add_argument("--plot", type=Path, default=None, help="optional PNG path")
    args = ap.parse_args()

    result = scenario_dephasing(gamma=args.gamma)
    with args.out.open("w") as f:
        write_result(f, "csv", result.columns, result.rows)
    print(f"wrote {len(result.rows)} rows to {args.out} (passed={result.passed})")

    if args.plot is not None:
        try:
            import matplotlib

            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError:
            print("matplotlib not installed; skipping plot", file=sys.stderr)
            return 0
        T = [r["T"] for r in result.rows]
        fig, ax = plt.subplots(figsize=(5, 3.4))
        ax.plot(T, [r["oqsl"] for r in result.rows], label="observable bound")
        ax.plot(T, [r["qsl"] for r in result.rows], "--", label="state bound")
        ax.set_xlabel("T")
        ax.set_ylabel("bound on minimal time")
        ax.set_title(f"pure dephasing, strength {args.gamma}")
        ax.legend()
        fig.tight_layout()
        fig.savefig(args.plot, dpi=150)
        print(f"wrote {args.plot}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
