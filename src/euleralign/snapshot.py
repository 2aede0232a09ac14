"""Binary state snapshots with bit-exact round tripping.

Layout (little-endian):

    8 bytes   magic "EASNAP01"
    u8        format version (1)
    u32       dim
    u32       n (points per axis)
    f64 x 6   L, t, alpha, kappa, gamma, mu
    u8        scalar field code: 1 = sigma, always written; 0 = rho, written
              by older versions and converted to sigma on reading
    f64[...]  scalar field, row-major physical values
    f64[...]  velocity components, each row-major

Physical values are stored, so the round trip is exact at the byte level.
"""

from __future__ import annotations

import contextlib
import os
import secrets
import struct

import numpy as np

from .grid import Grid, GridError, SpectralField
from .model import ModelParams, State, VacuumError, h_of_sigma, sigma_from_rho
from .operators import ParameterError

__all__ = ["SnapshotError", "write_snapshot", "read_snapshot"]

MAGIC = b"EASNAP01"
VERSION = 1
_HEADER = struct.Struct("<8sBII6dB")
_RHO, _SIGMA = 0, 1  # scalar field codes; _RHO is only read


class SnapshotError(ValueError):
    """Malformed or incompatible snapshot file."""


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "wb", **kwargs):
    """Open a temp file beside ``path``, renamed over it when the block exits
    cleanly and removed when it raises.

    The temp file is created with mode 0o666, less the umask, as a plain
    ``open`` creates a file (``tempfile.mkstemp`` would make it 0o600).
    """
    tmp = f"{os.path.abspath(path)}.{secrets.token_hex(8)}.tmp"
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_snapshot(path: str, state: State, params: ModelParams) -> None:
    """Serialize a state; the write is atomic (temp file + rename)."""
    grid = state.grid
    header = _HEADER.pack(
        MAGIC,
        VERSION,
        grid.dim,
        grid.n,
        grid.L,
        state.t,
        params.alpha,
        params.kappa,
        params.gamma,
        params.mu,
        _SIGMA,
    )
    scalar = np.ascontiguousarray(state.scalar.to_physical()[0], dtype="<f8")
    u = state.u.to_physical()
    with atomic_open(path) as fh:
        fh.write(header)
        fh.write(scalar.tobytes())
        for comp in range(grid.dim):
            fh.write(np.ascontiguousarray(u[comp], dtype="<f8").tobytes())


def read_snapshot(path: str):
    """Read a snapshot as (state, params); a rho file becomes a sigma state.
    The header's grid and model parameters must be valid, the file must hold
    the field data they declare, t and every field sample must be finite, and
    either file's density > 0."""
    with open(path, "rb") as fh:
        raw = fh.read(_HEADER.size)
        if len(raw) < _HEADER.size:
            raise SnapshotError(f"{path}: truncated header")
        magic, version, dim, n, L, t, alpha, kappa, gamma, mu, code = _HEADER.unpack(raw)
        if magic != MAGIC:
            raise SnapshotError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise SnapshotError(f"{path}: unsupported version {version}")
        if code not in (_RHO, _SIGMA):
            raise SnapshotError(f"{path}: unknown scalar field code {code}")
        try:
            grid = Grid(dim, n, L)
            params = ModelParams(alpha=alpha, kappa=kappa, gamma=gamma, dim=dim, mu=mu)
        except (GridError, ParameterError) as exc:
            raise SnapshotError(f"{path}: {exc}") from None
        count = n**dim
        size = 8 * count * (1 + dim)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if size > left:  # checked first: the header's n may declare any size
            raise SnapshotError(
                f"{path}: truncated field data: the header declares {size} bytes, {left} follow"
            )
        body = np.frombuffer(fh.read(size), dtype="<f8")
    if not (np.isfinite(t) and np.isfinite(body).all()):
        raise SnapshotError(f"{path}: t and every field sample must be finite")
    scalar = body[:count].reshape(grid.shape)
    u = body[count:].reshape((dim,) + grid.shape)
    try:  # rho <= 0 is bad input data, not a run that reached vacuum
        if code == _RHO:
            scalar = sigma_from_rho(scalar, params)
        else:
            h_of_sigma(scalar, params)  # raises where rho <= 0
    except VacuumError as exc:
        raise SnapshotError(f"{path}: rho must be > 0, min rho = {exc.min_rho:.6e}") from None
    state = State(
        SpectralField.from_physical(grid, scalar),
        SpectralField.from_physical(grid, u),
        t,
    )
    return state, params
