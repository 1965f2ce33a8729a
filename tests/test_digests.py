"""Every command of scripts/output_digests.py, run in-process through
``oqsl.cli.main``, against the outputs committed in tests/digests: each
number within the script's RTOL relative (ATOL absolute near zero), and
every key and every parse reprint as saved. A change that moves a number
saves them again with ``python scripts/output_digests.py --save tests/digests``.
Each command that takes ``--format`` runs again with ``--format csv``, and
its table must be exactly the one that its JSON output states."""

import importlib.util
import io
import json
from pathlib import Path

from oqsl import cli

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "digests"


def _script():
    spec = importlib.util.spec_from_file_location("output_digests", ROOT / "scripts" / "output_digests.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _table(payload: dict, header: list) -> str:
    """The CSV table of a JSON output at the columns ``header``: the header,
    then one line per report, row or evolve sample, booleans in lower case,
    floats as ``.12g`` and other values as ``str``."""
    rows = payload.get("reports", payload.get("rows"))
    if rows is None:  # evolve prints one series a column
        rows = [dict(zip(header, sample)) for sample in zip(*(payload[c] for c in header))]
    cell = lambda v: str(v).lower() if isinstance(v, bool) else f"{v:.12g}" if isinstance(v, float) else str(v)
    return "".join(line + "\n" for line in [",".join(header), *(",".join(cell(r[c]) for c in header) for r in rows)])


def _csv_failure(argv: list, payload: dict) -> str | None:
    """Why the ``--format csv`` run of a JSON command is not exactly the
    table of its JSON output ``payload``, or None when it is."""
    i = argv.index("--format") + 1
    out, err = io.StringIO(), io.StringIO()
    if code := cli.main([*argv[:i], "csv", *argv[i + 1 :]], out, err):
        return f"exit {code}: {err.getvalue()}"
    got = out.getvalue()
    header = got.split("\n", 1)[0].split(",")
    if "columns" in payload and header != payload["columns"]:
        return f"header {header} is not the JSON columns {payload['columns']}"
    want = _table(payload, header)
    if got == want:
        return None
    lines = enumerate(zip(got.splitlines(), want.splitlines()))
    return next((f"line {n}: {a!r}, where the JSON output states {b!r}" for n, (a, b) in lines if a != b),
                "the line counts differ")


def test_every_digest_output_matches_its_saved_output(tmp_path):
    script = _script()
    script.write_systems(tmp_path)
    failures = []
    for label, argv in script.commands(tmp_path):
        out, err = io.StringIO(), io.StringIO()
        code = cli.main(argv, out, err)
        if code:
            failures.append(f"{label}: exit {code}: {err.getvalue()}")
            continue
        if "--format" in argv and (why := _csv_failure(argv, json.loads(out.getvalue()))):
            failures.append(f"{label}: --format csv: {why}")
        saved = (DIGESTS / script._file(label)).read_text(encoding="utf-8")
        try:
            diff, where, _, unmatched = script.largest_difference(saved, out.getvalue())
        except ValueError as exc:  # a non-number differs, or a parse reprint
            failures.append(f"{label}: {exc}")
            continue
        if unmatched or not diff <= script.RTOL:
            failures.append(f"{label}: {diff:.2e} at {where}, keys {unmatched}")
    assert not failures, "\n".join(failures)
