"""The command line's exit code agrees with what it prints, for any config.

Hypothesis draws configs over every key at N in {4, 6, 8}, with at most 8
steps, and runs each subcommand that takes a config through ``cli.main`` in
this process:

- no run exits 3, an internal error;
- exit 0 comes only with every printed number finite and every check ok;
- exit 1 comes only with a ``FAIL`` line or a ``run failed:`` line;
- exit 2 comes only with an ``error:`` line.

``verify`` takes no config, and its product-law threshold column prints
``inf`` by design, so it is not drawn. The refinement driver's
manufactured-solution study takes no config either; it is computed once and
handed to every refine example.
"""

import contextlib
import io
import math
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsdamp import cli, experiments
from nsdamp.checkpoint import write_checkpoint
from nsdamp.dynamics import SolverState
from nsdamp.initial_conditions import taylor_green
from nsdamp.spectral import PhysParams, make_grid

TWO_PI = 2.0 * math.pi
NOT_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory for the runs' outputs, holding a checkpoint of an N = 8 state."""
    base = tmp_path_factory.mktemp("cli-property")
    state = SolverState(t=0.0, u=taylor_green(make_grid(8, TWO_PI)),
                        params=PhysParams(nu=1.0, alpha=1.0, beta=4.0))
    write_checkpoint(state, base / "start.ckpt")
    return base


@pytest.fixture(scope="module")
def study():
    return experiments._temporal_order_study()


@st.composite
def invocations(draw, checkpoint: str) -> tuple[dict, list[str]]:
    """A config mapping over every key, and a subcommand with its flags."""
    dt = draw(st.sampled_from([1e-3, 5e-3, 0.02]) | st.floats(1e-4, 0.1))
    steps = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["taylor-green", "random-solenoidal", "checkpoint"]))
    mapping = {
        "grid.n_modes": draw(st.sampled_from([8, 6, 4])),
        "grid.box_length": draw(st.sampled_from([8.0 * math.pi, TWO_PI]) | st.floats(0.5, 40.0)),
        "grid.cutoff_fraction": draw(st.sampled_from([2.0 / 3.0]) | st.floats(0.2, 2.0 / 3.0)),
        "phys.nu": draw(st.sampled_from([1.0]) | st.floats(1e-3, 3.0)),
        "phys.alpha": draw(st.sampled_from([1.0, 0.0]) | st.floats(0.0, 4.0)),
        "phys.beta": draw(st.sampled_from([10.0 / 3.0, 4.0]) | st.floats(1.5, 8.0)),
        "time.dt": dt,
        "time.t_end": steps * dt,
        "time.output_every": draw(st.none() | st.integers(1, steps).map(lambda k: k * dt)),
        "ic.kind": kind,
        "ic.seed": draw(st.integers(0, 2**31 - 1)),
        "ic.amplitude": draw(st.sampled_from([1.0, 1e-300]) | st.floats(1e-3, 50.0)),
        "ic.path": checkpoint if kind == "checkpoint" else None,
    }
    if kind == "checkpoint" and draw(st.booleans()):  # the checkpoint's own grid and parameters
        mapping.update({"grid.n_modes": 8, "grid.box_length": TWO_PI,
                        "grid.cutoff_fraction": 2.0 / 3.0, "phys.nu": 1.0, "phys.alpha": 1.0,
                        "phys.beta": 4.0})

    command = draw(st.sampled_from(["run", "twin", "continuity", "decay", "refine"]))
    if command == "twin":
        flags = ["--delta", repr(draw(st.sampled_from([0.0, 1e-3]) | st.floats(0.0, 10.0)))]
    elif command == "continuity":  # the ladder's run takes t0 + the largest eps: 8 steps at most
        i_t0 = draw(st.integers(2, 6))
        ladder = draw(st.lists(st.integers(1, min(i_t0 - 1, 8 - i_t0)), min_size=1, unique=True))
        flags = ["--t0", repr(i_t0 * dt), "--eps", ",".join(repr(i * dt) for i in ladder)]
    elif command == "refine":
        n = mapping["grid.n_modes"]
        flags = ["--levels", f"{n},{2 * n},{4 * n}"]
    else:
        flags = []
    return mapping, [command, *flags]


def _config_text(mapping: dict) -> str:
    return "".join(f"{key} = {value!r}\n" if isinstance(value, float) else f"{key} = {value}\n"
                   for key, value in mapping.items() if value is not None)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_the_exit_code_agrees_with_the_printed_report(workdir, study, data):
    mapping, (command, *flags) = data.draw(invocations(str(workdir / "start.ckpt")))
    out = tempfile.mkdtemp(dir=workdir)
    config = f"{out}/exp.cfg"
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(_config_text(mapping))
    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "_temporal_order_study", lambda: study)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main([command, config, "--out", f"{out}/o", *flags])
    printed, err = stdout.getvalue(), stderr.getvalue()
    report = f"{command} {' '.join(flags)}\n{_config_text(mapping)}\n{printed}{err}"

    assert code in (0, 1, 2), report
    if code == 0:
        assert not NOT_FINITE.search(printed), report
        assert "FAIL" not in printed and printed.splitlines()[-2] == "verdict: pass", report
    elif code == 1:
        assert re.search(r"^FAIL ", printed, re.MULTILINE) or err.startswith("run failed: "), report
    else:
        assert err.startswith("error: "), report
