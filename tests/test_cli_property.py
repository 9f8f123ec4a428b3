"""The command line's exit code agrees with what it prints, for any config.

Hypothesis draws configs over every key at N in {4, 6, 8}, with at most 8
steps, and runs each subcommand that takes a config through ``cli.main`` in
this process:

- no run exits 3, an internal error;
- exit 0 comes only with every printed number finite, at least one check
  line and each of them ``pass``, then ``verdict: pass``;
- exit 1 comes only with a ``FAIL`` check line or a ``run failed:`` line;
- exit 2 comes only with an ``error:`` line, and leaves no ``--out`` path.

Each run also draws ``NSD_THREADS`` from {unset, 1, 2, 0, -1, ``x``}; a
value that is not a positive integer must exit 2 with an ``error:`` line.
No draw asks for more than two threads.

``verify`` takes no config, and its product-law threshold column prints
``inf`` by design, so it is not drawn. The refinement driver's
manufactured-solution study takes no config either; it is computed once and
handed to every refine example.

A second property draws a value-taking flag and a value that begins with
"-" or that argparse would not read as a number (negative numbers, exponent
forms, ``nan`` and infinities), a ``--t0`` or ``--eps`` off the dt grid, or
a ``--levels`` list that does not double or holds fewer than three
entries, and passes it both as ``--flag value`` and as ``--flag=value``:
the two spellings exit with the same code and print the same ``error:``
lines, and each keeps the exit-code contract above.
"""

import contextlib
import io
import math
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import field_state
from nsdamp import cli, experiments
from nsdamp.checkpoint import write_checkpoint
from nsdamp.initial_conditions import taylor_green
from nsdamp.spectral import PhysParams, make_grid

TWO_PI = 2.0 * math.pi
NOT_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)
#: a check line as the certificate prints it
CHECK_LINE = re.compile(r"^(pass|FAIL) .+: \S+ against bound \S+$")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory for the runs' outputs, holding a checkpoint of an N = 8 state."""
    base = tmp_path_factory.mktemp("cli-property")
    state = field_state(taylor_green(make_grid(8, TWO_PI)), 0.0, PhysParams(nu=1.0, alpha=1.0, beta=4.0))
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


def _main(argv: list[str], study, threads: str | None = None) -> tuple[int, str, str]:
    """cli.main(argv) with the given manufactured-solution study and NSD_THREADS (None: unset):
    (exit code, stdout, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(experiments, "_temporal_order_study", lambda: study)
        if threads is None:
            mp.delenv("NSD_THREADS", raising=False)
        else:
            mp.setenv("NSD_THREADS", threads)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    return code, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_the_exit_code_agrees_with_the_printed_report(workdir, study, data):
    mapping, (command, *flags) = data.draw(invocations(str(workdir / "start.ckpt")))
    threads = data.draw(st.sampled_from([None, "1", "2", "0", "-1", "x"]))
    out = tempfile.mkdtemp(dir=workdir)
    config = f"{out}/exp.cfg"
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(_config_text(mapping))
    code, printed, err = _main([command, config, "--out", f"{out}/o", *flags], study, threads)
    report = f"NSD_THREADS={threads} {command} {' '.join(flags)}\n{_config_text(mapping)}\n{printed}{err}"

    if threads in ("0", "-1", "x"):
        assert code == 2, report
    _assert_contract(code, printed, err, report)
    if code == 2:  # every flag is well formed: the refusal is the package's own
        assert err.startswith("error: "), report
        assert not os.path.lexists(f"{out}/o"), report  # a refused input writes nothing


def _assert_contract(code: int, printed: str, err: str, report: str) -> None:
    """The exit code agrees with the printed check lines, verdict, failed run or error."""
    assert code in (0, 1, 2), report
    lines = printed.splitlines()
    verdicts = [line.split()[0] for line in lines if CHECK_LINE.match(line)]
    if code == 0:  # the directory line names a drawn --out, which may read "nan"
        assert not any(NOT_FINITE.search(line) for line in lines[:-1]), report
        assert lines[-1].startswith("outputs in "), report
        assert verdicts and set(verdicts) == {"pass"}, report
        assert lines[-2] == "verdict: pass", report
    elif code == 1:
        assert "FAIL" in verdicts or err.startswith("run failed: "), report
    else:  # the driver's own "error: " line, or argparse's "nsdamp <command>: error: " after its usage
        assert _errors(err), report


#: flag values argparse would not hand to a flag: negative numbers, exponent forms, nan, infinities
VALUES = (
    st.integers(-10**6, -1).map(str)
    | st.floats(max_value=-1e-300, allow_infinity=False).map(repr)
    | st.floats(1e-6, 1e-2).map(lambda x: f"{x:e}")  # a short run at most
    | st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "+inf", "-Infinity", "-0.0", "-1E+2"])
)

#: per flag, values the driver reads and may refuse: times off the dt grid of 1e-3, and level
#: lists that do not double or hold fewer than three entries
READ_VALUES = {
    "--t0": st.floats(1e-4, 3e-3).map(repr),
    "--eps": st.floats(1e-4, 2e-3).map(repr),
    "--levels": st.lists(st.sampled_from([4, 6, 8, 12, 16, 32]), min_size=1, max_size=4)
    .map(lambda levels: ",".join(map(str, levels))),
}

#: (subcommand, the flag drawn, the other flags it needs); the configs take 4 steps of 1e-3
FLAGS = [
    ("run", "--out", []),
    ("twin", "--delta", []),
    ("continuity", "--t0", ["--eps", "1e-3"]),
    ("continuity", "--eps", ["--t0", "3e-3"]),
    ("refine", "--levels", []),
    ("verify", "--seed", []),
]


@pytest.fixture(scope="module")
def flag_config(workdir):
    path = workdir / "flags.cfg"
    path.write_text("grid.n_modes = 8\ngrid.box_length = 6.283185307179586\nphys.alpha = 1.0\n"
                    "phys.beta = 4.0\ntime.dt = 0.001\ntime.t_end = 0.004\n"
                    "ic.kind = taylor-green\n", encoding="utf-8")
    return str(path)


def _spellings(command, flag, others, value, config, out):
    """argv with flag given value as "--flag value" and as "--flag=value"."""
    head = [command] if command == "verify" else [command, config]
    if flag != "--out" and command != "verify":
        head += ["--out", out]
    return [head + others + [flag, value], head + others + [f"{flag}={value}"]]


def _errors(err: str) -> list[str]:
    return [line for line in err.splitlines() if "error:" in line]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(choice=st.sampled_from(FLAGS), data=st.data())
def test_a_flag_value_reads_the_same_in_both_spellings(workdir, study, flag_config, choice, data):
    command, flag, others = choice
    if flag in READ_VALUES and data.draw(st.booleans()):
        value = data.draw(READ_VALUES[flag])
    else:
        value = data.draw(VALUES)
        value = f"{value},16,32" if flag == "--levels" else value
    out = tempfile.mkdtemp(dir=workdir)
    with contextlib.chdir(workdir):  # a drawn --out value is a directory name here
        (code_a, printed_a, err_a), (code_b, printed_b, err_b) = (
            _main(argv, study) for argv in _spellings(command, flag, others, value, flag_config, out))
    context = f"{command} {flag} {value}\n{printed_a}{err_a}"
    assert code_a == code_b, (context, err_b)
    assert _errors(err_a) == _errors(err_b), context
    assert "expected one argument" not in err_a, context
    for code, printed, err in ((code_a, printed_a, err_a), (code_b, printed_b, err_b)):
        _assert_contract(code, printed, err, context)


@pytest.mark.parametrize("argv, refusal", [
    (["twin", "--delta", "-1e-3"], "error: delta must be nonnegative and finite, got -0.001"),
    (["continuity", "--t0", "-inf", "--eps", "1e-3"], "error: t0 must be finite, got -inf"),
])
def test_a_negative_value_reaches_the_driver(workdir, study, flag_config, argv, refusal):
    # argparse read "-1e-3" and "-inf" as options and stopped with "expected one argument"
    command, flag, value, *rest = argv
    for spelling in ([flag, value], [f"{flag}={value}"]):
        code, printed, err = _main([command, flag_config, "--out", f"{workdir}/neg", *spelling, *rest],
                                   study)
        assert (code, err.splitlines()) == (2, [refusal]), err


@pytest.mark.parametrize("threads", ["0", "-1", "x"])
@pytest.mark.parametrize("argv", [
    ["run"], ["twin", "--delta", "1e-3"], ["continuity", "--t0", "3e-3", "--eps", "1e-3"],
    ["decay"], ["refine", "--levels", "8,16,32"], ["verify", "--fast"],
], ids=lambda argv: argv[0])
def test_a_bad_thread_count_exits_2_naming_it(workdir, study, argv, threads):
    # a config every driver accepts, so that NSD_THREADS is what each refuses
    config = workdir / "threads.cfg"
    config.write_text("grid.n_modes = 8\ngrid.box_length = 25.132741228718345\nphys.alpha = 1.0\n"
                      "phys.beta = 4.0\ntime.dt = 0.001\ntime.t_end = 0.004\n"
                      "ic.kind = taylor-green\n", encoding="utf-8")
    command, *flags = argv
    head = [command] if command == "verify" else [command, str(config), "--out", f"{workdir}/threads"]
    code, printed, err = _main(head + flags, study, threads)
    assert code == 2 and printed == "", err
    assert err.splitlines() == [f"error: NSD_THREADS must be {'an integer' if threads == 'x' else 'positive'}, "
                                f"got {threads!r}"]
