"""Config parsing/validation and the binary checkpoint format."""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import field_state
from nsdamp.checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from nsdamp.config import (
    ConfigError,
    canonical_text,
    config_from_mapping,
    load_config,
    parse_config,
)
from nsdamp.dynamics import StepperConfig, run
from nsdamp.initial_conditions import random_solenoidal, taylor_green
from nsdamp.spectral import PhysParams, SpectralField, l2_norm, make_grid

TWO_PI = 2.0 * np.pi

GOOD = """
# comment line, then keys in any order
grid.n_modes = 16
grid.box_length = 6.283185307179586
phys.nu = 0.5
phys.alpha = 1.0
phys.beta = 4.0
time.dt = 1e-3
time.t_end = 0.5
ic.kind = taylor-green
"""


def _base_mapping(**over):
    m = {
        "grid.n_modes": 16,
        "grid.box_length": TWO_PI,
        "phys.nu": 1.0,
        "phys.alpha": 1.0,
        "phys.beta": 4.0,
        "time.dt": 1e-3,
        "time.t_end": 0.5,
        "ic.kind": "taylor-green",
    }
    m.update(over)
    return m


class TestParsing:
    def test_happy_path_with_defaults(self):
        cfg = parse_config(GOOD)
        assert cfg.n_modes == 16
        assert cfg.nu == 0.5
        assert cfg.cutoff_fraction == pytest.approx(2.0 / 3.0)
        assert cfg.output_every is None
        assert cfg.ic_seed == 0
        assert cfg.output_directory == "out"

    def test_canonical_form_reparses_to_itself(self):
        cfg = parse_config(GOOD)
        echoed = canonical_text(cfg)
        assert parse_config(echoed) == cfg
        # every non-default value is present in the echo
        assert "phys.nu = 0.5" in echoed

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        st.fixed_dictionaries(
            {
                "grid.n_modes": st.integers(2, 32).map(lambda k: 2 * k),
                "grid.box_length": st.floats(1e-3, 1e3) | st.floats(1e-3, 1e3).map(np.float64),
                "phys.alpha": st.floats(0.0, 1e3),
                "phys.beta": st.floats(1.0, 20.0, exclude_min=True),
                "time.dt": st.floats(1e-9, 1.0),
                "time.t_end": st.floats(1e-9, 1e6),
                "output.directory": st.text(),
            },
            optional={
                "grid.cutoff_fraction": st.floats(1e-3, 2.0 / 3.0),
                "phys.nu": st.floats(1e-9, 1e3),
                "time.output_every": st.floats(1e-9, 1e3),
                "ic.seed": st.integers(0, 2**63 - 1),
                "ic.amplitude": st.floats(1e-9, 1e3),
            },
        ),
        st.one_of(
            st.sampled_from(["taylor-green", "random-solenoidal"]).map(lambda k: {"ic.kind": k}),
            st.text().map(lambda path: {"ic.kind": "checkpoint", "ic.path": path}),
        ),
    )
    def test_canonical_text_round_trips(self, mapping, ic):
        # the free-text values are drawn unrestricted: each is either refused
        # with its key named or echoed back to an equal config
        try:
            cfg = config_from_mapping({**mapping, **ic})
        except ConfigError as exc:
            assert str(exc).startswith(("output.directory:", "ic.path:"))
            return
        assert parse_config(canonical_text(cfg)) == cfg

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("grid.n_modes = 16\n\nwhat is this\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config("time.dt = 1e-3\ntime.dt = 2e-3\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(GOOD + "grid.spacing = 0.1\n")

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigError, match="grid.n_modes"):
            parse_config(GOOD.replace("grid.n_modes = 16", "grid.n_modes = sixteen"))

    def test_missing_file_message(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            load_config(tmp_path / "nope.cfg")

    def test_load_round_trip(self, tmp_path):
        p = tmp_path / "exp.cfg"
        p.write_text(GOOD)
        assert load_config(p) == parse_config(GOOD)


class TestValidation:
    @pytest.mark.parametrize(
        "over,fragment",
        [
            ({"grid.n_modes": 7}, "even integer"),
            ({"grid.n_modes": 2}, "even integer"),
            ({"grid.box_length": -1.0}, "box_length must be positive"),
            ({"grid.cutoff_fraction": 0.75}, "cutoff_fraction"),
            ({"phys.nu": 0.0}, "nu must be positive"),
            ({"phys.alpha": -0.5}, "alpha must be nonnegative"),
            ({"phys.beta": 1.0}, "beta must exceed 1"),
            ({"time.dt": 0.0}, "dt must be positive"),
            ({"time.t_end": -2.0}, "t_end must be positive"),
            ({"time.output_every": 0.0}, "output_every must be positive"),
            ({"ic.kind": "vortex-sheet"}, "ic.kind"),
            ({"ic.amplitude": 0.0}, "amplitude must be positive"),
            ({"grid.box_length": 0.0}, "grid.box_length must be positive"),
            ({"grid.box_length": math.inf}, "grid.box_length must be positive and finite"),
            ({"phys.nu": math.inf}, "phys.nu must be positive and finite"),
            ({"phys.alpha": math.inf}, "phys.alpha must be nonnegative and finite"),
            ({"phys.alpha": math.nan}, "phys.alpha must be nonnegative and finite"),
            ({"phys.beta": math.inf}, "phys.beta must exceed 1 and be finite"),
            ({"time.dt": math.inf}, "time.dt must be positive and finite"),
            ({"time.t_end": "inf"}, "time.t_end must be positive and finite"),
            ({"time.output_every": math.inf}, "time.output_every must be positive and finite"),
            ({"ic.amplitude": math.inf}, "ic.amplitude must be positive and finite"),
            ({"output.directory": "runs#1"}, "output.directory: expected a nonempty one-line"),
            ({"output.directory": " x "}, "output.directory: expected a nonempty one-line"),
            ({"output.directory": "a\nb"}, "output.directory: expected a nonempty one-line"),
            ({"ic.kind": "checkpoint", "ic.path": ""}, "ic.path: expected a nonempty one-line"),
        ],
    )
    def test_invariant_violations_name_the_key(self, over, fragment):
        with pytest.raises(ConfigError, match=fragment):
            config_from_mapping(_base_mapping(**over))

    def test_checkpoint_kind_needs_path(self):
        with pytest.raises(ConfigError, match="ic.path is required"):
            config_from_mapping(_base_mapping(**{"ic.kind": "checkpoint"}))
        with pytest.raises(ConfigError, match="only applies"):
            config_from_mapping(_base_mapping(**{"ic.path": "x.ckpt"}))

    def test_missing_required_key(self):
        m = _base_mapping()
        del m["phys.beta"]
        with pytest.raises(ConfigError, match="missing required key 'phys.beta'"):
            config_from_mapping(m)


class TestCheckpoint:
    def _state(self, seed=0, t=0.25):
        grid = make_grid(8, TWO_PI)
        u = random_solenoidal(grid, seed=seed)
        return field_state(u, t, PhysParams(nu=0.7, alpha=1.5, beta=4.0))

    def test_round_trip_bitwise(self, tmp_path):
        state = self._state()
        path = tmp_path / "s.ckpt"
        write_checkpoint(state, path)
        back = read_checkpoint(path)
        assert np.array_equal(back.u.coeffs, state.u.coeffs)
        assert back.t == state.t
        assert back.params == state.params
        assert back.grid.n_modes == 8
        assert back.cum_visc == 0.0 and back.cum_damp == 0.0
        # writing the read-back state reproduces the file bytes
        path2 = tmp_path / "s2.ckpt"
        write_checkpoint(back, path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_a_state_of_any_field_writes_a_checkpoint_that_reads_back(self, tmp_path):
        # a field with an entry outside the ball enters a state by its ball
        # entries alone: the file holds their expansion, which the reader
        # accepts, and the state read back holds the same entries and no cube
        grid = make_grid(8, TWO_PI)
        c = random_solenoidal(grid, seed=6).coeffs.copy()
        c[:, 3, 0, 0] = 1.0  # |m| = 3 > R = 8/3
        state = field_state(SpectralField(grid, c), 0.0, PhysParams(nu=1.0, alpha=1.0, beta=4.0))
        path = tmp_path / "s.ckpt"
        write_checkpoint(state, path)
        back = read_checkpoint(path)
        assert back.vector.tobytes() == state.vector.tobytes() and not back.vector.flags.writeable
        assert "u" not in vars(back)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "s.ckpt"
        write_checkpoint(self._state(), path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="bad magic"):
            read_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "s.ckpt"
        write_checkpoint(self._state(), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(CheckpointError, match="truncated payload"):
            read_checkpoint(path)

    def test_corrupted_field_rejected(self, tmp_path):
        # flipping payload bytes breaks conjugate symmetry, which read
        # validation catches
        path = tmp_path / "s.ckpt"
        write_checkpoint(self._state(), path)
        blob = bytearray(path.read_bytes())
        blob[200:208] = b"\x3f" * 8
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="invalid field"):
            read_checkpoint(path)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_damaged_file_raises_only_checkpoint_error(self, tmp_path, data):
        # a truncation or a single flipped bit of a valid file either still
        # reads as a state or raises CheckpointError (exit 2), nothing else
        path = tmp_path / "s.ckpt"
        write_checkpoint(self._state(), path)
        blob = bytearray(path.read_bytes())
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            header_bits = 8 * (4 + 7 * 8)  # the magic and the seven header slots
            bit = data.draw(
                st.one_of(st.integers(0, header_bits - 1), st.integers(0, 8 * len(blob) - 1)),
                label="bit",
            )
            blob[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(blob))
        try:
            read_checkpoint(path)
        except CheckpointError:
            pass

    @pytest.mark.parametrize("slot, value", [(6, math.inf), (6, math.nan), (3, math.inf)])
    def test_non_finite_header_rejected(self, tmp_path, slot, value):
        # 8-byte header slots after the magic: n_modes, box_length, cutoff_radius, nu, alpha, beta, t
        path = tmp_path / "s.ckpt"
        write_checkpoint(self._state(), path)
        blob = bytearray(path.read_bytes())
        offset = 4 + 8 * slot
        blob[offset : offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="invalid header"):
            read_checkpoint(path)

    def test_overflowing_box_length_rejected_without_a_warning(self, tmp_path):
        # a tiny positive L passes the finiteness checks, but |xi|^2 at the
        # (N/2, N/2, N/2) corner overflows; the header is refused before any
        # table squares it, so warnings turned into errors stay silent
        path = tmp_path / "s.ckpt"
        write_checkpoint(field_state(taylor_green(make_grid(8, TWO_PI)), 0.0,
                                     PhysParams(nu=1.0, alpha=1.0, beta=4.0)), path)
        blob = bytearray(path.read_bytes())
        blob[12:20] = struct.pack("<d", 1e-300)  # box_length, header slot 1
        path.write_bytes(bytes(blob))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CheckpointError, match="invalid header: box_length"):
                read_checkpoint(path)

    def test_restart_matches_continuous_run(self, tmp_path):
        grid = make_grid(8, TWO_PI)
        u0 = taylor_green(grid)
        params = PhysParams(nu=1.0, alpha=1.0, beta=4.0)
        cfg = StepperConfig(dt=2e-3)
        cont = run(u0, params, cfg, 0.4, output_every=0.2)
        mid = cont[1]
        assert mid.t == 0.2

        path = tmp_path / "mid.ckpt"
        write_checkpoint(mid, path)
        resumed = read_checkpoint(path)
        tail = run(
            resumed.u,
            resumed.params,
            cfg,
            0.4,
            t_start=resumed.t,
            output_every=0.2,
        )
        a, b = cont[-1].u, tail[-1].u
        assert tail[-1].t == cont[-1].t
        diff = l2_norm(a - b) / l2_norm(a)
        assert diff <= 1e-12
