"""Child entry point of the traced run: wraps the layer functions listed in
layers.SITES, runs ``oqsl.cli.main`` on the command line it was given, and
writes the spans to the JSON file named by OQSL_BENCH_SPANS.

Run as ``python -X importtime bench/trace_entry.py <oqsl arguments>``.
"""

import os
import sys

import layers

# the first import of the program, so -X importtime charges numpy and scipy
# to oqsl.cli as `python -m oqsl` does
import oqsl.cli  # isort: skip

import functools  # noqa: E402
import importlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402


class Tracer:
    """Spans (id, parent, name, on main thread, start, end) kept in memory.

    The parent is the innermost open span on the same thread.
    """

    def __init__(self):
        self.spans = []
        self.counters = {"sysdl.parse_bytes": 0, "dynamics.samples": 0, "dynamics.traj_bytes": 0}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _count(self, key: str, n: int) -> None:
        with self._lock:
            self.counters[key] += n

    def _after(self, span: str, args, result) -> None:
        if span == "sysdl.parse":
            self._count("sysdl.parse_bytes", len(args[0].encode("utf-8")))
        elif span.startswith("dynamics."):
            # a trajectory object, or a list of states from the Schrodinger evolution
            items = result if isinstance(result, list) else [result]
            samples = len(result) if isinstance(result, list) else len(result.expect)
            nbytes = sum(v.nbytes for x in items for v in vars(x).values() if isinstance(v, np.ndarray))
            self._count("dynamics.samples", samples)
            self._count("dynamics.traj_bytes", nbytes)

    def wrap(self, span: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            sid = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                main = threading.current_thread() is threading.main_thread()
                self.spans.append((sid, parent, span, main, t0, t1))
            self._after(span, args, result)
            return result

        return traced

    def install(self, sites) -> list:
        """Wrap every site; return the spans of sites that are missing."""
        unattached = []
        for module, attr, span in sites:
            try:
                mod = importlib.import_module(module)
            except ImportError:
                mod = None
            fn = getattr(mod, attr, None)
            if callable(fn):
                setattr(mod, attr, self.wrap(span, fn))
            else:
                unattached.append(f"{span} ({module}.{attr})")
        return unattached


def main() -> int:
    tracer = Tracer()
    unattached = tracer.install(layers.SITES)
    try:
        return oqsl.cli.main(sys.argv[1:])
    finally:
        record = {"spans": tracer.spans, "counters": tracer.counters, "unattached": unattached}
        with open(os.environ["OQSL_BENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    raise SystemExit(main())
