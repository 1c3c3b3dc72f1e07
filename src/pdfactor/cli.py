"""Command-line interface: factor, sweep, verify, simulate.

Matrices travel as small JSON documents (dimension plus flat row-major
data), chains add a factor list and optional scheme metadata, and bulk
output (sweeps, trajectories) goes to CSV. Angles are degrees at the
boundary and radians inside. Exit codes: 0 success, 1 invalid input or
flags, 2 numerical failure or unreachable target, 3 verification failed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import sys

import numpy as np

from ._output import _create, _CsvEncoder
from .ballantine import FactorOptions, factor_matrix, verify
from .errors import InputError, InvalidInput, NumericError
from .flowsim import (
    _stream_csv,
    segments_from_chain,
    transition_matrix,
)
from .matfun import _as_square, _certify_spd, _floats, _spd_ok, _sym_spd
from .planar import ChainParams, FactorChain, phi_sweep

__all__ = [
    "main",
    "load_matrix",
    "save_matrix",
    "load_chain",
    "save_chain",
]

DEG = math.pi / 180.0


class _UsageError(InputError):
    """Bad flags; argparse would normally exit 2, we want exit 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_json(path, key) -> tuple:
    """The JSON object in path, its dimension "n" (an integer >= 1) and
    its entry key."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc
    try:
        n, value = doc["n"], doc[key]
    except (KeyError, TypeError) as exc:
        raise InvalidInput(
            f"{path}: need a JSON object with integer 'n' and '{key}'"
        ) from exc
    # Only a JSON integer is a dimension; 2.7, "2" and true are not.
    if type(n) is not int or n < 1:
        raise InvalidInput(f"{path}: n must be an integer >= 1, got {n!r}")
    return doc, n, value


def _shape_matrix(flat, n, what):
    # Only JSON numbers are entries: np.array would read "2" and true (a
    # bool is an int) as numbers.
    if (not isinstance(flat, list) or len(flat) != n * n
            or not all(type(x) in (int, float) for x in flat)):
        raise InvalidInput(f"{what}: expected a flat list of {n * n} numbers")
    return _as_square(_floats(flat, f"{what}: entries", copy=None).reshape(n, n), what)


def _write(path, text) -> None:
    """Write text to a new file at path, UTF-8 with LF line endings."""
    with _create(path) as fh:
        fh.write(text.encode("utf-8"))


def load_matrix(path) -> np.ndarray:
    """Read a JSON matrix file: {"n": dim, "data": flat row-major}."""
    _, n, data = _read_json(path, "data")
    return _shape_matrix(data, n, path)


def _matrix_json(M) -> str:
    """The JSON document of a square float array, as load_matrix reads it."""
    return json.dumps({"n": M.shape[0], "data": M.ravel().tolist()}) + "\n"


def save_matrix(path, M) -> None:
    """Write M for load_matrix. Raises InvalidInput, and writes nothing,
    unless M is a finite square matrix."""
    _write(path, _matrix_json(_as_square(M, "matrix")))


def load_chain(path) -> FactorChain:
    """Read a chain file and certify every factor SPD before returning."""
    doc, n, raw = _read_json(path, "factors")
    if not isinstance(raw, list) or not raw:
        raise InvalidInput(f"{path}: 'factors' must be a nonempty list")
    factors = [
        _shape_matrix(flat, n, f"{path} factor {i}") for i, flat in enumerate(raw)
    ]
    defect, symmetric, dmax, dmin, e = _sym_spd(np.stack(factors))
    bad = np.flatnonzero(~(symmetric & _spd_ok(dmax, dmin)))
    if bad.size:
        i = bad[0]
        name = f"{path} factor {i}"
        if not symmetric[i]:
            raise InvalidInput(f"{name} is not symmetric (defect {defect[i]:.3e})")
        _certify_spd(np.ldexp((dmax[i], dmin[i]), e[i]), name)
    params = None
    if "meta" in doc:  # the whole block or none, so that a save gives the file back
        meta = doc["meta"]
        if not isinstance(meta, dict) or set(meta) != {"lambda", "theta_rad", "k"}:
            raise InvalidInput(f"{path}: meta must be an object of exactly 'lambda', "
                               f"'theta_rad' and 'k', got {meta!r}")
        # As for n and the entries, only JSON numbers: "30" and true are not.
        for key in ("lambda", "theta_rad", "k"):
            if type(meta[key]) not in ((int,) if key == "k" else (int, float)):
                kind = "an integer" if key == "k" else "a number"
                raise InvalidInput(f"{path}: meta '{key}' must be {kind}, got {meta[key]!r}")
        params = ChainParams(meta["lambda"], meta["theta_rad"], meta["k"])
    return FactorChain._trusted(factors, params)


def save_chain(path, chain: FactorChain) -> None:
    doc = {
        "n": int(chain.n),
        "factors": [M.ravel().tolist() for M in chain.factors],
    }
    if chain.params is not None:
        doc["meta"] = {
            "lambda": chain.params.lam,
            "theta_rad": chain.params.theta,
            "k": chain.params.k,
        }
    _write(path, json.dumps(doc) + "\n")


def _emit(text) -> None:
    """Write text to stdout. A reader that stops early (``| head``) closes
    the pipe; that is not an error, and the rest of the text is dropped."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at the null device, so that the interpreter's own
        # flush at exit finds no broken pipe either.
        with contextlib.suppress(OSError):  # a stdout with no descriptor
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)


def _emit_report(report) -> int:
    """Print a verification report as JSON; exit code 0 if it passed, else 3."""
    _emit(json.dumps(report.as_dict(), indent=2) + "\n")
    return 0 if report.passed else 3


def _parse_float_list(values, what):
    out = []
    for chunk in values:
        for piece in str(chunk).split(","):
            piece = piece.strip()
            if not piece:
                continue
            try:
                out.append(float(piece))
            except ValueError as exc:
                raise _UsageError(f"bad {what} value: {piece!r}") from exc
    if not out:
        raise _UsageError(f"no {what} values given")
    return out


def cmd_factor(args) -> int:
    Phi = load_matrix(args.input)
    opts = FactorOptions(
        k_rotation=args.factors,
        lam_budget=args.max_cond,
        tol_verify=args.tol,
    )
    chain = factor_matrix(Phi, opts)
    report = verify(chain, Phi, opts.tol_verify)
    if args.output:
        save_chain(args.output, chain)
    return _emit_report(report)


def cmd_sweep(args) -> int:
    lams = _parse_float_list(args.lam, "--lambda")
    theta_max = args.theta_max * DEG
    tables = [phi_sweep(lam, args.k, theta_max, args.steps) for lam in lams]
    out = io.BytesIO()
    out.write(b"theta_deg,lambda,phi_deg\n")
    rows = [np.column_stack((table.theta / DEG, np.full(table.theta.size, lam), table.phi / DEG))
            for lam, table in zip(lams, tables)]
    _CsvEncoder().write(out, np.concatenate(rows))
    text = out.getvalue().decode()
    if args.output:
        _write(args.output, text)
    else:
        _emit(text)
    return 0


def cmd_verify(args) -> int:
    chain = load_chain(args.chain)
    target = load_matrix(args.target)
    return _emit_report(verify(chain, target, args.tol))


def _load_particles(path, n):
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip()
            body = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    expected = ",".join(f"x{i + 1}" for i in range(n))
    if header.replace(" ", "") != expected:
        raise InvalidInput(
            f"{path}: expected header {expected!r}, got {header!r}"
        )
    rows = []
    for ln, line in enumerate(body.splitlines(), start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != n:
            raise InvalidInput(f"{path} line {ln}: expected {n} columns")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise InvalidInput(f"{path} line {ln}: {exc}") from exc
    if not rows:
        raise InvalidInput(f"{path}: no particles")
    return np.array(rows, dtype=np.float64)


def cmd_simulate(args) -> int:
    chain = load_chain(args.chain)
    positions = _load_particles(args.particles, chain.n)
    durations = None
    if args.durations:
        durations = _parse_float_list(args.durations, "--durations")
    segments = segments_from_chain(chain, durations)
    _stream_csv(segments, positions, args.dt, args.out_prefix)
    _emit(_matrix_json(transition_matrix(segments)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pdfactor",
        description=(
            "Factor positive-determinant matrices into short products of "
            "symmetric positive-definite matrices, and simulate the "
            "gradient flows that realize them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "factor", help="factor a JSON matrix into an SPD chain"
    )
    p.add_argument("input", help="matrix JSON file")
    p.add_argument("--factors", type=int, default=5, metavar="K",
                   help="rotation stages per block, 3 to 257 (default 5)")
    p.add_argument("--max-cond", type=float, default=1000.0, metavar="L",
                   help="largest scale lambda of each rotation plane's chain "
                   "(default 1000); factors can be worse conditioned")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="verification tolerance (default 1e-8)")
    p.add_argument("--output", help="write the chain JSON here")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser(
        "sweep", help="tabulate net rotation angle against step angle"
    )
    p.add_argument("--k", type=int, default=3, help="factor count (default 3)")
    p.add_argument("--lambda", dest="lam", action="append", required=True,
                   metavar="L", help="scale value, repeatable or comma list")
    p.add_argument("--theta-max", type=float, default=89.9, metavar="DEG",
                   help="sweep upper limit in degrees (default 89.9)")
    p.add_argument("--steps", type=int, default=2000,
                   help="grid points (default 2000)")
    p.add_argument("--output", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "verify", help="check a chain against a target matrix"
    )
    p.add_argument("--chain", required=True, help="chain JSON file")
    p.add_argument("--target", required=True, help="matrix JSON file")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="residual tolerance (default 1e-8)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "simulate", help="run the gradient flow a chain encodes"
    )
    p.add_argument("--chain", required=True, help="chain JSON file")
    p.add_argument("--particles", required=True,
                   help="CSV of starting positions, header x1..xn")
    p.add_argument("--dt", type=float, default=1e-3,
                   help="integration step (default 1e-3)")
    p.add_argument("--durations", action="append", metavar="T",
                   help="per-factor durations, repeatable or comma list")
    p.add_argument("--out-prefix", required=True,
                   help="prefix for trajectory and covariance CSVs")
    p.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (InputError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:  # writing an output file
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a count too large for this machine
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 1


def _entry() -> int:
    """The process entry of ``pdfactor`` and ``python -m pdfactor``. What is
    imported by now lives until exit, so it moves to the permanent
    generation, where no later collection walks it, finalization's included."""
    gc.freeze()
    return main()


if __name__ == "__main__":  # python -m pdfactor.cli: a second copy, no launcher
    sys.exit("error: run python -m pdfactor or pdfactor")
