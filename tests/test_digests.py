"""Every command of scripts/output_digests.py, run in-process through
``oqsl.cli.main``, against the outputs committed in tests/digests: each
number within the script's RTOL relative (ATOL absolute near zero), the
numbers of the CSV tables too, and every key, every other CSV cell and
every parse reprint as saved. A change that moves a number saves
them again with ``python scripts/output_digests.py --save tests/digests``."""

import importlib.util
import io
from pathlib import Path

from oqsl import cli

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "digests"


def _script():
    spec = importlib.util.spec_from_file_location("output_digests", ROOT / "scripts" / "output_digests.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


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
        saved = (DIGESTS / script._file(label)).read_text(encoding="utf-8")
        try:
            diff, where, _, unmatched = script.largest_difference(saved, out.getvalue(), script.is_csv(label))
        except ValueError as exc:  # a non-number differs, or a parse reprint
            failures.append(f"{label}: {exc}")
            continue
        if unmatched or not diff <= script.RTOL:
            failures.append(f"{label}: {diff:.2e} at {where}, keys {unmatched}")
    assert not failures, "\n".join(failures)
