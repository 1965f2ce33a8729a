"""Each evolution computes only the series its bounds declare (``reads``):
the spread dO(t), the Hilbert-Schmidt speed and the operator-norm speed. A
declaration that misses a read, or a kernel that computes a read series
differently for a subset, shows here as a report that moves between
``--bounds ALL`` and ``--bounds <ID>``."""

import io
import json
from pathlib import Path

import numpy as np
import pytest
from test_digests import _script

import oqsl
from oqsl import audit, dynamics, linalg
from oqsl.cli import main
from oqsl.dynamics import LindbladGenerator, TimeGrid, UnitaryGenerator, evolve
from oqsl.linalg import DensityState, ValidationError, sigma_x, sigma_z

SYSTEMS = Path(oqsl.__file__).parent / "systems"


def _reports(path, obs, obs_b, tmax, ids: str) -> dict:
    argv = ["bound", "--system", str(path), "--observable", obs, "--tmax", repr(tmax), "--bounds", ids]
    out, err = io.StringIO(), io.StringIO()
    code = main([*argv, *(["--observable-b", obs_b] if obs_b else []), "--format", "json"], out=out, err=err)
    assert code == 0, (path, ids, err.getvalue())
    return {r["bound_id"]: json.dumps(r, sort_keys=True) for r in json.loads(out.getvalue())["reports"]}


def _cases(tmp_path):
    script = _script()
    for fname, obs, obs_b, tmax in script.BUILTIN_BOUNDS:
        yield SYSTEMS / fname, obs, obs_b, tmax
    for d in (5, 17):
        path = tmp_path / f"lindblad_{d}.sys"
        path.write_text(script.lindblad_system_text(d, d), encoding="utf-8")
        yield path, "A", "B", 1.0


def test_each_bound_alone_reads_what_it_reads_beside_every_other(tmp_path):
    # a bound selected alone evolves with its own reads only: its report,
    # inputs_digest and details included, is the one --bounds ALL prints
    for path, obs, obs_b, tmax in _cases(tmp_path):
        every = _reports(path, obs, obs_b, tmax, "ALL")
        for bound_id, report in every.items():
            alone = _reports(path, obs, obs_b if bound_id.startswith("COMM") else None, tmax, bound_id)
            assert alone == {bound_id: report}, (path.name, bound_id)


def test_an_unread_series_is_none_and_reading_it_raises():
    rho, grid = DensityState.pure([1.0, 1.0]), TimeGrid(1.0, 20)
    for gen in (UnitaryGenerator(sigma_z), LindbladGenerator(sigma_z, ((sigma_z, 0.5),))):
        whole = evolve(sigma_x, gen, rho, grid)
        part = evolve(sigma_x, gen, rho, grid, reads=frozenset({"speed_hs"}))
        assert np.array_equal(part.gen_speed_hs, whole.gen_speed_hs)
        assert np.array_equal(part.expect, whole.expect)
        for traj in (part, part.prefix(10)):
            assert traj._stddev is None and traj._gen_speed_op is None
            with pytest.raises(ValidationError, match="stddev needs 'stddev' declared as a read"):
                traj.stddev
            with pytest.raises(ValidationError, match="gen_speed_op needs 'speed_op' declared as a read"):
                traj.gen_speed_op
        assert all(x is not None for x in (whole._stddev, whole._gen_speed_hs, whole._gen_speed_op))


@pytest.fixture
def counted(monkeypatch):
    """The shapes of the stacks passed to numpy's eigvalsh, to
    hermitian_op_norm and to op_norm, by name, and the number of variance
    products (the einsum "ntab,ntba->nt" of the streamed reducer)."""
    calls = {"eigvalsh": [], "hermitian_op_norm": [], "op_norm": [], "variance": []}

    def wrap(name, fn):
        def counting(X, *args, **kwargs):
            calls[name].append(np.shape(X))
            return fn(X, *args, **kwargs)

        return counting

    monkeypatch.setattr(np.linalg, "eigvalsh", wrap("eigvalsh", np.linalg.eigvalsh))
    for name in ("hermitian_op_norm", "op_norm"):
        fn = wrap(name, getattr(linalg, name))
        for module in (linalg, dynamics, oqsl.bounds):
            monkeypatch.setattr(module, name, fn, raising=False)
    einsum = np.einsum

    def counting_einsum(subscripts, *operands, **kwargs):
        if subscripts == "ntab,ntba->nt":
            calls["variance"].append(operands[0].shape)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counting_einsum)
    return calls


def _matrices(shapes) -> int:
    return sum(int(np.prod(shape[:-2])) for shape in shapes)


def test_generator_hs_takes_no_speed_norm_and_no_variance(tmp_path, counted):
    # a d = 32 Lindblad system with two jumps: the only operator norms are
    # ||O||_op twice (the CLI's projector-slot check and the tolerances'
    # scale) and the 2 + 2 of beta, none of the 1001 samples' speeds
    path = tmp_path / "lindblad_32.sys"
    path.write_text(_script().lindblad_system_text(32, 32), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    argv = ["bound", "--system", str(path), "--observable", "A", "--tmax", "1", "--bounds", "GENERATOR_HS"]
    assert main(argv, out=out, err=err) == 0, err.getvalue()
    assert counted["variance"] == []
    assert _matrices(counted["eigvalsh"]) == 6
    assert all(len(shape) < 4 for shape in counted["hermitian_op_norm"])  # no stack of samples


@pytest.mark.parametrize("dim", [2, 3])
def test_audit_block_takes_operator_norms_of_pure_trials_only(dim, counted):
    # even trials are pure: only they read the open correlation and
    # commutator bounds, and so the operator-norm speed; no Lindblad or
    # Kraus trajectory reads a spread, and the Kraus sweep no operator norm
    grid = TimeGrid(audit.LINDBLAD_T, 200)
    trials = [audit._sample_trial(1, dim, i) for i in range(4)]
    audit._integrate_lindblad_block(trials, grid)
    speeds = [shape for shape in counted["hermitian_op_norm"] if len(shape) == 4]
    assert {shape[0] for shape in speeds} == {2} and _matrices(speeds) == 2 * (grid.steps + 1)
    assert counted["variance"] == []
    # beta's 2 + 2 matrices per generator, and each Kraus family's none
    assert set(counted["op_norm"]) == {(4, dim, dim)}
    for t in trials:
        assert (t.lindblad.traj._gen_speed_op is None) == (t.index % 2 == 1)
        assert t.lindblad.traj._stddev is None
        if t.kraus:
            assert t.kraus.traj._gen_speed_op is None and t.kraus.traj._stddev is None
