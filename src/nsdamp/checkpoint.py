"""Binary checkpoint format for solver states.

Layout (all little-endian):

    bytes 0-3    magic b"NSD1"
    bytes 4-59   header, struct "<q6d":
                 n_modes, box_length, cutoff_radius, nu, alpha, beta, t
    bytes 60-    payload: 3 * n_modes^3 complex coefficients as interleaved
                 float64 (re, im) pairs, component-major, modes row-major in
                 (m1, m2, m3) with each axis ordered 0, 1, ..., N/2-1,
                 -N/2, ..., -1 (the FFT layout, written as-is).

The payload is SolverState.u, the expansion of the state's ball vector.
read_checkpoint validates the field and returns the state of its ball
entries, which expand to the payload's bytes again for every file the
package writes: write -> read -> write is a bitwise identity.  The dissipation
accumulators are not stored: a restarted run opens a fresh budget at the
checkpoint time, which is exactly the restarted-system reading of the
verification harness.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .certificate import _write_atomic
from .dynamics import SolverState
from .spectral import GridSpec, PhysParams, SpectralField

__all__ = ["CheckpointError", "write_checkpoint", "read_checkpoint"]

_MAGIC = b"NSD1"
_HEADER = struct.Struct("<q6d")


class CheckpointError(RuntimeError):
    """Unreadable, corrupt, or inconsistent checkpoint file."""


def write_checkpoint(state: SolverState, path) -> None:
    """Write state's checkpoint to path, atomically (see certificate._write_atomic)."""
    grid = state.grid
    header = _HEADER.pack(
        grid.n_modes,
        grid.box_length,
        grid.cutoff_radius,
        state.params.nu,
        state.params.alpha,
        state.params.beta,
        state.t,
    )
    payload = np.ascontiguousarray(state.u.coeffs, dtype="<c16")

    def write(fh) -> None:
        fh.write(_MAGIC + header)
        fh.write(payload.data)  # the array's own bytes: no copy of the payload

    _write_atomic(path, "wb", write)


def read_checkpoint(path) -> SolverState:
    """Load a state holding the file's ball entries; validates magic, header, payload size and field."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {exc}") from None

    if len(blob) < len(_MAGIC) + _HEADER.size:
        raise CheckpointError(f"truncated header: file holds {len(blob)} bytes")
    if blob[: len(_MAGIC)] != _MAGIC:
        raise CheckpointError(f"bad magic: expected {_MAGIC!r}, got {blob[:4]!r}")

    n_modes, box_length, cutoff_radius, nu, alpha, beta, t = _HEADER.unpack_from(
        blob, len(_MAGIC)
    )
    try:
        grid = GridSpec(n_modes=n_modes, box_length=box_length, cutoff_radius=cutoff_radius)
        params = PhysParams(nu=nu, alpha=alpha, beta=beta)
    except ValueError as exc:
        raise CheckpointError(f"invalid header: {exc}") from None
    if not math.isfinite(t):
        raise CheckpointError(f"invalid header: t must be finite, got {t!r}")

    payload = blob[len(_MAGIC) + _HEADER.size :]
    expected = 3 * n_modes**3 * 16
    if len(payload) != expected:
        raise CheckpointError(
            f"truncated payload: expected {expected} bytes, got {len(payload)}"
        )
    coeffs = (
        np.frombuffer(payload, dtype="<c16")
        .reshape(3, n_modes, n_modes, n_modes)
        .astype(np.complex128)
    )
    field = SpectralField(grid, coeffs)
    try:
        field.validate()
    except ValueError as exc:
        raise CheckpointError(f"invalid field in checkpoint: {exc}") from None
    return SolverState(grid, grid.ball.gather(field.coeffs), t, params)
