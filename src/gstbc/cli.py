"""Command line front end.

Three subcommands: `ber` runs a Monte Carlo sweep and writes CSV, `flops`
prints the arithmetic cost report, `detect` runs one detector on a
single instance read from a text file.

Instance file format (complex numbers written like 0.5-1.25i):

    n_rx layers alpha
    <n_rx lines of 2*layers channel gains>
    <one line of 2*n_rx stacked received samples>

Blank lines and lines starting with # are ignored.  Exit codes: 0 on
success, 2 on a parse or configuration error, 3 when the detector itself
fails on valid input.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys
import time

import numpy as np

from .channel import ChannelMatrix, ReceivedVector
from .complexity import format_flop_report, run_flop_report
from .detectors import SCALAR_DETECTORS
from .errors import GstbcError, ParseError
from .sim import DETECTORS, SimConfig, emit_csv, format_csv, run_ber_sweep


def _parse_complex(token: str, line: int, column: int) -> complex:
    try:
        value = complex(token.replace("i", "j").replace("I", "j"))
    except ValueError:
        raise ParseError(f"bad complex number {token!r}", line=line, column=column) from None
    if not cmath.isfinite(value):
        raise ParseError(f"non-finite complex number {token!r}", line=line, column=column)
    return value


def _parse_real(token: str, line: int, column: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"bad number {token!r}", line=line, column=column) from None
    if not math.isfinite(value):
        raise ParseError(f"non-finite number {token!r}", line=line, column=column)
    return value


def _parse_int(token: str, line: int, column: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"bad integer {token!r}", line=line, column=column) from None


def parse_instance(text: str):
    """Parse an instance file into (channel, received, alpha)."""
    lines = [
        (i + 1, raw.split())
        for i, raw in enumerate(text.splitlines())
        if raw.split() and not raw.lstrip().startswith("#")
    ]
    if not lines:
        raise ParseError("empty instance file")
    lineno, head = lines[0]
    if len(head) != 3:
        raise ParseError("header must be: n_rx layers alpha", line=lineno)
    n_rx = _parse_int(head[0], lineno, 1)
    layers = _parse_int(head[1], lineno, 2)
    alpha = _parse_real(head[2], lineno, 3)
    if layers < 1 or n_rx < layers:
        raise ParseError(f"need n_rx >= layers >= 1, got n_rx={n_rx} layers={layers}", line=lineno)
    if not alpha > 0:
        raise ParseError(f"alpha must be > 0, got {alpha}", line=lineno, column=3)
    if len(lines) != 1 + n_rx + 1:
        raise ParseError(
            f"expected {n_rx} channel rows plus one received row, "
            f"got {len(lines) - 1} content lines after the header"
        )
    gains = np.empty((n_rx, 2 * layers), dtype=np.complex128)
    for r in range(n_rx):
        lineno, toks = lines[1 + r]
        if len(toks) != 2 * layers:
            raise ParseError(
                f"channel row {r + 1}: expected {2 * layers} gains, got {len(toks)}",
                line=lineno,
            )
        for c, tok in enumerate(toks):
            gains[r, c] = _parse_complex(tok, lineno, c + 1)
    lineno, toks = lines[1 + n_rx]
    if len(toks) != 2 * n_rx:
        raise ParseError(f"expected {2 * n_rx} received samples, got {len(toks)}", line=lineno)
    x = np.empty(2 * n_rx, dtype=np.complex128)
    for c, tok in enumerate(toks):
        x[c] = _parse_complex(tok, lineno, c + 1)
    return ChannelMatrix(gains), ReceivedVector(x), alpha


def _fmt_complex(c: complex) -> str:
    return f"{c.real:.6g}{c.imag:+.6g}i"


def _cmd_ber(args) -> int:
    for flag, value in (("start", args.snr_start), ("stop", args.snr_stop), ("step", args.snr_step)):
        if not math.isfinite(value):
            print(f"error: --snr-{flag} must be finite, got {value}", file=sys.stderr)
            return 2
    if args.snr_step <= 0:
        print("error: --snr-step must be positive", file=sys.stderr)
        return 2
    grid = tuple(
        np.arange(args.snr_start, args.snr_stop + args.snr_step / 2, args.snr_step).tolist()
    )
    try:
        config = SimConfig(
            layers=args.m,
            n_rx=args.n,
            snr_db=grid,
            detectors=tuple(args.detectors.split(",")),
            trials=args.trials,
            seed=args.seed,
        )
    except GstbcError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    # a channel use counts once per detector, as in the sweep's records;
    # the blocks differ in size by at most one instance, so each finished
    # (block, point) step counts as an equal share of the uses
    total = config.trials * len(config.detectors) * len(config.snr_db)
    start = time.perf_counter()
    steps = 0

    def progress(point, block, blocks):
        nonlocal steps
        if args.quiet:
            return
        steps += 1
        done = total * steps / (blocks * len(config.snr_db))
        rate = done / max(time.perf_counter() - start, 1e-9)
        eta = round((total - done) / rate)
        line = (
            f"snr point {point + 1}/{len(config.snr_db)} block {block + 1}/{blocks}"
            f"  {rate:,.0f} channel uses/s  ETA {eta // 60}:{eta % 60:02d}"
        )
        print(f"\r{line:<79}", end="", file=sys.stderr)

    try:
        records = run_ber_sweep(config, progress=progress)
    except GstbcError as e:
        records, failure = None, e
    if not args.quiet:
        print(file=sys.stderr)
    if records is None:
        print(f"error: {failure}", file=sys.stderr)
        return 3
    if args.out:
        emit_csv(records, args.out, config)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(format_csv(records, config))
    return 0


def _cmd_flops(args) -> int:
    try:
        report = run_flop_report(args.m, args.n, detector=args.detector)
    except GstbcError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(format_flop_report(report))
    return 0


def _cmd_detect(args) -> int:
    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    try:
        h, x, alpha = parse_instance(text)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.alpha is not None:
        if not 0 < args.alpha < math.inf:
            print(f"error: alpha must be > 0 and finite, got {args.alpha}", file=sys.stderr)
            return 2
        alpha = args.alpha
    try:
        result = SCALAR_DETECTORS[args.detector](h, x, alpha)
    except GstbcError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    print(f"detector={args.detector} layers={h.layers} n_rx={h.n_rx} alpha={alpha:.10g}")
    print("decisions:", " ".join(_fmt_complex(c) for c in result.decisions))
    print("soft:", " ".join(_fmt_complex(c) for c in result.soft))
    print("order:", " ".join(str(l) for l in result.order))
    print(f"flops: {result.flops.real_mults} real mults, {result.flops.real_adds} real adds")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gstbc",
        description="Group-wise space-time block code detection toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ber = sub.add_parser("ber", help="run a Monte Carlo BER sweep")
    ber.add_argument("--m", type=int, default=2, help="number of Alamouti layers")
    ber.add_argument("--n", type=int, default=2, help="number of receive antennas")
    ber.add_argument("--snr-start", type=float, default=0.0, help="first Eb/N0 point, dB")
    ber.add_argument("--snr-stop", type=float, default=10.0, help="last Eb/N0 point, dB, inclusive")
    ber.add_argument("--snr-step", type=float, default=2.0)
    ber.add_argument("--trials", type=int, default=100_000, help="channel uses per SNR point")
    ber.add_argument(
        "--detectors",
        default="proposed",
        help=f"comma list from: {','.join(sorted(DETECTORS))}",
    )
    ber.add_argument("--seed", type=int, default=0)
    ber.add_argument("--out", default=None, help="CSV path (default: stdout)")
    ber.add_argument("--quiet", action="store_true")
    ber.set_defaults(func=_cmd_ber)

    flops = sub.add_parser("flops", help="print the arithmetic cost report")
    flops.add_argument("--m", type=int, default=2, help="number of Alamouti layers")
    flops.add_argument("--n", type=int, default=2, help="number of receive antennas")
    flops.add_argument(
        "--detector", default="proposed", choices=sorted(SCALAR_DETECTORS)
    )
    flops.set_defaults(func=_cmd_flops)

    detect = sub.add_parser("detect", help="detect one instance from a file")
    detect.add_argument("--input", required=True, help="instance file, or - for stdin")
    detect.add_argument(
        "--detector", default="proposed", choices=sorted(SCALAR_DETECTORS)
    )
    detect.add_argument(
        "--alpha", type=float, default=None, help="override the alpha given in the file"
    )
    detect.set_defaults(func=_cmd_detect)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
