"""Command-line interface: run / analyze / linear / heat-decay.

All CSV output is RFC-4180 (CRLF line endings, '.' decimal point) with 17
significant digits.  Exit codes: 0 success, 2 validation error or a path
that cannot be read or written, 3 a run's vacuum abort, 4 a run's CFL abort;
an aborted run still writes its partial trace.  Exit 3 comes only from a
run's trace status: a snapshot whose density is not > 0 (the check of
``model.h_of_sigma``) is a validation error.  With
``--output -`` stdout carries the CSV alone; the other lines go to stderr.
A reader that closes the pipe early ends the CSV there, and the command keeps
its own exit code.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from .config import parse_config_file
from .grid import Grid
from .linear import (
    LinearEnergyParams,
    mode_eigenvalues,
    rate_floor,
    regime_classify,
)
from .operators import ParameterError
from .simulation import Recorder, decay_fit, fractional_heat_trace, run
from .snapshot import SnapshotError, atomic_open, read_snapshot, write_snapshot

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VACUUM = 3
EXIT_CFL = 4
_ABORT_EXIT = {"vacuum": EXIT_VACUUM, "cfl": EXIT_CFL}  # by trace.status


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _note(output, text: str) -> None:
    """Print a line for the reader: on stderr when the CSV goes to stdout
    (``output`` is '-'), so that stdout stays a pure CSV stream."""
    print(text, file=sys.stderr if output == "-" else sys.stdout)


def _write_csv(path, header, rows):
    """Atomic CSV write (temp file + rename); '-' writes to stdout."""

    def emit(fh):
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])

    if path == "-":
        try:
            emit(sys.stdout)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader closed the pipe: the run keeps its exit code, and
            # stdout goes to devnull so that the exit flush raises nothing
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return
    with atomic_open(path, "w", encoding="utf-8", newline="") as fh:
        emit(fh)


def _cmd_run(args) -> int:
    config = parse_config_file(args.config)
    params = config.model_params()
    _note(
        args.output,
        f"run: dim={config.dim} n={config.n} L={_fmt(config.L)} "
        f"alpha={_fmt(params.alpha)} kappa={_fmt(params.kappa)} "
        f"gamma={_fmt(params.gamma)} mu={_fmt(params.mu)} lambda={_fmt(params.lam)} "
        f"ic={config.ic} amplitude={_fmt(config.amplitude)} seed={config.seed}",
    )
    trace, states = run(config)
    _write_csv(args.output, trace.columns, trace.rows)
    if config.snapshot_path is not None:
        write_snapshot(config.snapshot_path, states[-1], params)
    if config.decay_window is not None:
        try:
            exponent, r2 = decay_fit(
                trace.t,
                trace.column(config.decay_column),
                config.decay_window,
                kind=config.decay_kind,
            )
            _note(
                args.output,
                f"decay fit [{config.decay_column}]: exponent={_fmt(exponent)} r2={_fmt(r2)}",
            )
        except ValueError as exc:
            print(f"decay fit skipped: {exc}", file=sys.stderr)
    if trace.status in _ABORT_EXIT:
        print(f"{trace.status} abort: partial trace written", file=sys.stderr)
        return _ABORT_EXIT[trace.status]
    return EXIT_OK


def _cmd_analyze(args) -> int:
    rows = []
    header = None
    for path in args.snapshots:
        st, params = read_snapshot(path)
        row, *_ = Recorder(st.grid, params).row(st)
        if header is None:
            header = list(row)
        elif list(row) != header:
            raise SnapshotError(
                f"{path}: its columns differ from {args.snapshots[0]}'s (another dimension)"
            )
        rows.append([row[c] for c in header])
    _write_csv(args.output, header, rows)
    return EXIT_OK


def _cmd_linear(args) -> int:
    flags = [("--lambda", args.lam), ("--mu", args.mu), ("--xi-min", args.xi_min),
             ("--xi-max", args.xi_max), ("--xi-count", args.xi_count)]
    flags += [("--xi", xi) for xi in args.xi or ()]
    for flag, value in flags:  # before LinearEnergyParams, so the message names the flag
        if not 0 < value < np.inf:
            raise ParameterError(f"{flag} must be finite and > 0, got {value}")
    ep = LinearEnergyParams(alpha=args.alpha, lam=args.lam, mu=args.mu)
    xis = args.xi or np.logspace(np.log10(args.xi_min), np.log10(args.xi_max), args.xi_count)
    rows = []
    for xi in xis:
        fast, slow = mode_eigenvalues(xi, ep)
        rows.append(
            [
                xi,
                fast.real,
                slow.real,
                abs(slow.imag),
                regime_classify(xi, ep),
                rate_floor(xi, ep),
            ]
        )
    _write_csv(
        args.output, ["|xi|", "re_fast", "re_slow", "im", "regime", "rate_floor"], rows
    )
    return EXIT_OK


def _cmd_heat_decay(args) -> int:
    grid = Grid(args.dim, args.n, args.L)
    if not 0.0 < args.alpha < 2.0:  # before the s0 and s1 ranges, which depend on it
        raise ParameterError(f"--alpha must lie in (0, 2), got {args.alpha}")
    for flag, t in (("--t-a", args.t_a), ("--t-b", args.t_b)):  # before the trace's times
        if not 0.0 <= t < np.inf:
            raise ParameterError(f"{flag} must be finite and >= 0, got {t}")
    if args.samples < 10:  # before the trace's times, which NumPy would refuse below 0
        raise ParameterError(
            f"--samples must be >= 10 (decay_fit needs at least 10 samples), got {args.samples}"
        )
    # the profile's s0: a Gaussian's flat spectrum acts like the s0 = N/2
    # envelope, and it reads no --s0
    half_n = args.dim / 2.0
    s0 = half_n if args.profile == "gaussian" else args.s0
    if args.profile == "power" and not args.alpha - half_n - 1.0 < s0 < half_n:
        raise ParameterError(f"--s0 must lie in (alpha-N/2-1, N/2), got {s0}")
    if not -s0 <= args.s1 <= half_n + 1.0 - args.alpha:
        raise ParameterError(f"--s1 must lie in [-s0, N/2+1-alpha] with s0 = {s0}, got {args.s1}")
    times = np.linspace(args.t_a, args.t_b, args.samples)
    trace = fractional_heat_trace(
        grid, args.alpha, args.mu, args.profile, times, s0=s0, s1=args.s1,
        width=args.width,
    )
    note = "periodic-box surrogate; window must end before the lowest-mode timescale"
    rows = []
    window = (args.t_a, args.t_b)
    exp_l2, r2_l2 = decay_fit(trace.t, trace.column("l2"), window)
    rows.append(
        [args.alpha, s0, args.s1, args.t_a, args.t_b, "l2", exp_l2,
         -args.dim / (2.0 * args.alpha), r2_l2, note]
    )
    exp_b, r2_b = decay_fit(trace.t, trace.column("b_s1"), window)
    rows.append(
        [args.alpha, s0, args.s1, args.t_a, args.t_b, "b_s1", exp_b,
         -(args.s1 + s0) / args.alpha, r2_b, note]
    )
    _write_csv(
        args.output,
        ["alpha", "s0", "s1", "t_a", "t_b", "norm", "exponent", "target", "r2", "note"],
        rows,
    )
    _note(args.output, f"l2 exponent={_fmt(exp_l2)}; b_s1 exponent={_fmt(exp_b)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="euleralign",
        description="Pseudospectral toolkit for the fractional Euler-alignment system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="full nonlinear simulation from a config file")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--output", required=True, help="trace CSV path ('-' = stdout)")
    p_run.set_defaults(func=_cmd_run)

    p_an = sub.add_parser("analyze", help="recompute norms on stored snapshots")
    p_an.add_argument("snapshots", nargs="+")
    p_an.add_argument("--output", required=True)
    p_an.set_defaults(func=_cmd_analyze)

    p_lin = sub.add_parser("linear", help="eigenvalue / decay-rate tables")
    p_lin.add_argument("--alpha", type=float, required=True)
    p_lin.add_argument("--lambda", dest="lam", type=float, required=True)
    p_lin.add_argument("--mu", type=float, required=True)
    p_lin.add_argument("--xi", type=float, action="append", help="frequency magnitude (repeatable)")
    p_lin.add_argument("--xi-min", type=float, default=2.0**-6)
    p_lin.add_argument("--xi-max", type=float, default=2.0**10)
    p_lin.add_argument("--xi-count", type=int, default=200)
    p_lin.add_argument("--output", default="-")
    p_lin.set_defaults(func=_cmd_linear)

    p_hd = sub.add_parser("heat-decay", help="fractional-heat decay-exponent experiment")
    p_hd.add_argument("--dim", type=int, default=1)
    p_hd.add_argument("--n", type=int, default=8192)
    p_hd.add_argument("--L", type=float, default=512.0 * np.pi)
    p_hd.add_argument("--alpha", type=float, default=1.5)
    p_hd.add_argument("--mu", type=float, default=1.0)
    p_hd.add_argument("--profile", choices=["gaussian", "power"], default="gaussian")
    p_hd.add_argument("--width", type=float, default=1.0)
    p_hd.add_argument("--s0", type=float, default=0.25)
    p_hd.add_argument("--s1", type=float, default=0.0)
    p_hd.add_argument("--t-a", type=float, default=20.0)
    p_hd.add_argument("--t-b", type=float, default=200.0)
    p_hd.add_argument("--samples", type=int, default=200)
    p_hd.add_argument("--output", default="-")
    p_hd.set_defaults(func=_cmd_heat_decay)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # OSError: a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
