"""Command-line front end.

Subcommands compose the library modules over diff-able text artifacts.
Each accepts `--out DIR` (default halfline_out) and only the flags it
reads:

    forward    --potential CSV [--kmax --dk]
               -> scattering.json, phase_shift.csv, jost.csv
    invert     --data JSON [--xmax --dx --force]
               -> potential.csv, kernel_diagonal.csv, inversion_diagnostics.json
    extract    --f-data CSV [--kmax --dk (default 0.05)]
               -> scattering.json (reads x >= 0 only; the x = 0 sample
               is F(0+); the kernel on [0, X/2] for F on [0, X])
    riemann    --data JSON -> jost_boundary.csv, factorization_report.json
    validate   --data JSON -> report.json (exit 0 iff all conditions pass)
    roundtrip  --potential CSV [--kmax --dk --dx --tol] -> roundtrip_report.json
               (forward, validate, invert on the potential's own grid, compare;
               exit 0 iff the characterization passes and the sup error <= tol)

File formats: potentials are CSV with header x,q on a uniform grid;
scattering data are JSON {k, S_re, S_im, bound_states: [{kappa, s}],
s_zero_sign}; the kernel diagonal is CSV with header x,A.  Numbers are
serialized with repr (17 significant digits), so reading an artifact back
reproduces the in-memory object bit for bit and identical inputs give
byte-identical outputs.  A column that is even or odd on the symmetric
momentum grid bit for bit (k, S, delta, f and f' obey S(-k) = conj S(k))
is formatted from its last half alone; the bytes are those of repr on
every entry.  Exit codes: 2 usage, 3 forward failure,
4 inversion failure, 5 riemann failure, 6 validation or tolerance failure.
A HalflineError raised by a subcommand ends in the code of the stage that
failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import characterize, marchenko as mk, riemann as rm
from .errors import DataError, HalflineError, StageError
from .forward import ForwardResult, forward as forward_problem  # noqa: shadowed module name at package level
from .model import (
    BoundState,
    MarchenkoInput,
    MomentumGrid,
    Potential,
    RadialGrid,
    ScatteringData,
    UniformGrid,
)

__all__ = ["parse_args", "run", "main"]

EXIT_USAGE = 2
EXIT_FORWARD = 3
EXIT_INVERSE = 4
EXIT_RIEMANN = 5
EXIT_VALIDATION = 6

# Rows per block of `_write_csv`: bounds the Python floats and strings alive
# at once.  A mirrored CSV also holds its last half's text (1.7 MB for
# forward's jost.csv); at 1024 rows writing jost.csv peaks at 2.4 MB, as
# 8192-row blocks of floats alone would.
_CSV_BLOCK = 1024


# ---------------------------------------------------------------------------
# serialization


def write_potential_csv(path: Path, q: Potential) -> None:
    _write_csv(path, ["x", "q"], [q.grid.nodes, q.values])


def _read_columns(path: Path, names: list[str]) -> list[np.ndarray]:
    """The columns of a CSV artifact with the given header.  DataError for
    an undecodable file, a wrong header, no data, a short row or a
    non-numeric entry."""
    try:
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: unreadable CSV ({exc})") from None
    if not rows or [c.strip() for c in rows[0][: len(names)]] != names:
        raise DataError(f"{path}: expected header {','.join(names)!r}")
    body = [row[: len(names)] for row in rows[1:]]
    if not body:
        raise DataError(f"{path}: no data rows")
    if any(len(row) < len(names) for row in body):
        raise DataError(f"{path}: every data row needs {len(names)} values")
    try:
        table = np.array([[float(v) for v in row] for row in body])
    except ValueError as exc:
        raise DataError(f"{path}: non-numeric entry ({exc})") from None
    return list(table.T)


def read_potential_csv(path: Path) -> Potential:
    xs, qs = _read_columns(path, ["x", "q"])
    return Potential(grid=RadialGrid(xs), values=qs)


def write_scattering_json(path: Path, sd: ScatteringData) -> None:
    # the arrays are finite: ScatteringData refuses non-finite S
    doc = {
        "k": sd.kgrid.nodes,
        "S_re": sd.s_values.real,
        "S_im": sd.s_values.imag,
        "bound_states": [{"kappa": float(b.kappa), "s": float(b.s)} for b in sd.bound_states],
        "s_zero_sign": int(sd.s_at_zero_sign),
    }
    _write_json(path, doc)


def _number(value, name: str) -> float:
    """A JSON number as a float; TypeError for any other value, a bool or a
    numeric string included."""
    if type(value) not in (int, float):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def _numbers(values, name: str) -> np.ndarray:
    """A JSON array of numbers as a float array; TypeError for any other
    value, an array holding a bool, a string or an array included."""
    if type(values) is not list or not set(map(type, values)) <= {int, float}:
        raise TypeError(f"{name} must be an array of numbers")
    return np.array(values, dtype=float)


def read_scattering_json(path: Path) -> ScatteringData:
    """Scattering data from the JSON artifact.  DataError for an undecodable
    document, a missing key, an entry that is not a JSON number (a bool or
    a numeric string included), arrays of different lengths or an
    s_zero_sign other than +1 or -1."""
    try:
        doc = json.loads(path.read_text())
        k, s_re, s_im = (_numbers(doc[key], key) for key in ("k", "S_re", "S_im"))
        bound = tuple(BoundState(_number(b["kappa"], "kappa"), _number(b["s"], "s")) for b in doc.get("bound_states", []))
        sign = _number(doc.get("s_zero_sign", 1), "s_zero_sign")
    except (ValueError, TypeError, KeyError, AttributeError, OverflowError) as exc:
        # JSONDecodeError is a ValueError; a missing key a KeyError; an integer
        # beyond float range an OverflowError
        raise DataError(f"{path}: malformed scattering JSON ({type(exc).__name__}: {exc})") from None
    if not k.shape == s_re.shape == s_im.shape:
        raise DataError(f"{path}: k, S_re and S_im lengths differ ({k.size}, {s_re.size}, {s_im.size})")
    if sign not in (1, -1):
        raise DataError(f"{path}: malformed scattering JSON (s_zero_sign must be +1 or -1, got {sign!r})")
    return ScatteringData(kgrid=MomentumGrid(k), s_values=s_re + 1j * s_im, bound_states=bound, s_at_zero_sign=int(sign))


def read_f_csv(path: Path) -> MarchenkoInput:
    """F on the half-line: the rows from the node nearest x = 0 on, which
    must be a uniform grid starting at x = 0 (GridError otherwise)."""
    xs, f = _read_columns(path, ["x", "F"])
    i0 = int(np.argmin(np.abs(UniformGrid(xs).nodes)))
    return MarchenkoInput(xgrid=RadialGrid(xs[i0:]), fs_values=f[i0:], fd_values=np.zeros(f.size - i0))


def _mirror_sign(a: np.ndarray) -> int:
    """1 if the float column a is even, its first half reversed equal to its
    last half bit for bit; -1 if it is odd, equal to the negated last half
    bit for bit, with no NaN (repr writes nan for either sign); else 0.
    The centre of an odd length is not compared."""
    h = a.size // 2
    if h == 0 or a.dtype != np.float64:
        return 0
    low, high = a[:h][::-1].view(np.int64), a[a.size - h :]
    if np.array_equal(low, high.view(np.int64)):
        return 1
    if np.array_equal(low, np.negative(high).view(np.int64)) and not np.isnan(high).any():
        return -1
    return 0


def _mirrored(strings: list[str], sign: int) -> list[str]:
    """The reprs of the mirror images, in reverse order, of the values whose
    reprs are `strings`: x for an even column, -x for an odd one.  Toggling
    a leading '-' is repr(-x) for every x but NaN, ±0.0 and ±inf included;
    it runs on the joined text, which holds '--' only where a '-' is
    prefixed to a negative repr (an exponent carries one '-')."""
    if sign > 0 or not strings:
        return strings[::-1]
    return ("-" + "\n-".join(reversed(strings))).replace("--", "").split("\n")


def _reprs(a: np.ndarray) -> list[str]:
    """list(map(repr, a.tolist())), formatting only the last half (from the
    centre node on) of a column _mirror_sign finds even or odd."""
    sign = _mirror_sign(a)
    if not sign:
        return list(map(repr, a.tolist()))
    upper = list(map(repr, a[a.size // 2 :].tolist()))
    return _mirrored(upper[a.size % 2 :], sign) + upper


def _rows(columns) -> str:
    """The CSV text of the columns' rows, each ending in CRLF."""
    text = "\r\n".join(map(",".join, zip(*columns)))
    return text + "\r\n" if text else text


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """One row per sample, each value as repr(float): the bytes csv.writer
    writes for these rows, streamed _CSV_BLOCK rows at a time.

    When a column is even or odd (_mirror_sign), only its last half is
    formatted.  The last half is then formatted block by block from its
    far end, and each block's mirror rows, the next rows of the first
    half, are written at once; the last half's joined text is held until
    the first half is written.  A column that does not mirror is formatted
    entry by entry in both halves, in the same block order."""
    n = len(columns[0])
    signs = [_mirror_sign(c) for c in columns]
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        h = n // 2
        upper = []  # joined text of the last half's blocks, far end first
        for hi in range(n, h, -_CSV_BLOCK):
            lo = max(hi - _CSV_BLOCK, h)
            block = [list(map(repr, c[lo:hi].tolist())) for c in columns]
            upper.append(_rows(block))
            # rows n - hi, ..., n - hi + m - 1 mirror the block's last m rows
            # (all but the centre node of an odd length)
            m = hi - max(lo, n - h)
            fh.write(
                _rows(
                    _mirrored(s[len(s) - m :], sign) if sign else map(repr, c[n - hi : n - hi + m].tolist())
                    for c, s, sign in zip(columns, block, signs)
                )
            )
        fh.writelines(reversed(upper))


def _write_json(path: Path, doc: dict) -> None:
    """The bytes of json.dumps(doc, indent=1, sort_keys=True) and a newline,
    numpy scalars written as floats.  A top-level numpy array, which must be
    finite (json writes NaN where repr writes nan), is joined from the
    reprs of its entries directly (_reprs: the last half alone of a
    mirrored column): with an indent, json runs its pure-Python encoder,
    several times slower on long lists."""
    entries = []
    for key in sorted(doc):
        value = doc[key]
        if isinstance(value, np.ndarray):
            body = "[\n  " + ",\n  ".join(_reprs(value)) + "\n ]" if value.size else "[]"
        else:
            body = json.dumps(value, indent=1, sort_keys=True, default=float).replace("\n", "\n ")
        entries.append(f" {json.dumps(key)}: {body}")
    path.write_text("{\n" + ",\n".join(entries) + "\n}\n")


# ---------------------------------------------------------------------------
# argument parsing


class _CheckPositive(argparse.Action):
    """Stores a grid or tolerance value; exit 2 unless positive and finite."""

    def __call__(self, parser, namespace, value, option_string=None):
        if not (np.isfinite(value) and value > 0):
            parser.error(f"{self.option_strings[0]} must be positive and finite, got {value}")
        setattr(namespace, self.dest, value)


def _input_file(value: str) -> Path:
    path = Path(value)
    if not path.is_file():
        raise argparse.ArgumentTypeError(f"input file not found: {path}")
    if path.stat().st_size == 0:
        raise argparse.ArgumentTypeError(f"input file is empty: {path}")
    return path


def _out_dir(value: str) -> Path:
    path = Path(value)
    if any(p.exists() and not p.is_dir() for p in (path, *path.parents)):
        raise argparse.ArgumentTypeError(f"not a directory: {path}")
    return path


def _positive(dest: str, default: float, text: str) -> dict:
    return dict(dest=dest, type=float, action=_CheckPositive, default=default, help=f"{text} (default %(default)s)")


# Every flag, declared once; `_SUBCOMMANDS` attaches each to the
# subcommands that read it.
_FLAGS = {
    "--potential": dict(type=_input_file, required=True, help="potential CSV, header x,q"),
    "--data": dict(type=_input_file, required=True, help="scattering JSON"),
    "--f-data": dict(type=_input_file, required=True, help="F samples CSV, header x,F"),
    "--out": dict(dest="out_dir", type=_out_dir, default="halfline_out", help="output directory"),
    "--kmax": _positive("k_max", 200.0, "momentum grid half-width"),
    "--dk": _positive("dk", 0.01, "momentum grid spacing"),
    "--xmax": _positive("x_max", 40.0, "inversion grid length"),
    "--dx": _positive("dx", 0.05, "inversion grid spacing"),
    "--tol": _positive("tol", 5e-3, "round-trip sup-error tolerance"),
    "--force": dict(action="store_true", help="skip the characterization gate"),
}


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """Parse and validate CLI arguments.

    Usage errors (unknown flags, a prefix of a flag, a flag the subcommand
    does not read, missing or empty input files, an --out that is not a
    directory, a grid or tolerance flag that is not positive and finite)
    exit with status 2.
    """
    p = argparse.ArgumentParser(
        prog="halfline",
        description="Forward and inverse scattering on the half-line.",
        allow_abbrev=False,
    )
    sub = p.add_subparsers(dest="subcommand", required=True)
    for name, (handler, flags, _) in _SUBCOMMANDS.items():
        sp = sub.add_parser(name, help=handler.__doc__, allow_abbrev=False)
        for flag in (*flags, "--out"):
            sp.add_argument(flag, **_FLAGS[flag])
    # S from F on a finite window resolves k only to ~2 pi / (window length):
    # 0.05 already oversamples a 50-unit window (data_from_kernel's default)
    sub.choices["extract"].set_defaults(dk=0.05)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# subcommand implementations: each reads, computes and writes, and raises
# on failure; `run` turns the error into the exit code


def _forward(ns: argparse.Namespace) -> tuple[Potential, ForwardResult]:
    q = read_potential_csv(ns.potential)
    return q, forward_problem(q, MomentumGrid.make(ns.k_max, ns.dk))


def _run_forward(ns: argparse.Namespace) -> int:
    """potential -> scattering data"""
    _, result = _forward(ns)
    sd = result.sd
    k = sd.kgrid.nodes
    write_scattering_json(ns.out_dir / "scattering.json", sd)
    _write_csv(ns.out_dir / "phase_shift.csv", ["k", "delta"], [k, result.delta])
    _write_csv(
        ns.out_dir / "jost.csv",
        ["k", "f_re", "f_im", "fprime_re", "fprime_im"],
        [k, result.f0.real, result.f0.imag, result.fprime0.real, result.fprime0.imag],
    )
    idx = characterize.check_index(sd).measured
    print(f"forward: J={sd.j_count}, index={idx:g}, S(0) sign {sd.s_at_zero_sign:+d}, wrote {ns.out_dir}")
    return 0


def _run_invert(ns: argparse.Namespace) -> int:
    """scattering data -> potential"""
    sd = read_scattering_json(ns.data)
    res = mk.invert_full(sd, mk.InversionConfig(x_max=ns.x_max, dx=ns.dx, force=ns.force))
    write_potential_csv(ns.out_dir / "potential.csv", res.potential)
    xg = res.kernel.grid
    _write_csv(ns.out_dir / "kernel_diagonal.csv", ["x", "A"], [xg.nodes, res.kernel.diagonal])
    diag = {
        "neglected_tail_mass": res.neglected_tail_mass,
        "A_origin": float(res.kernel.diagonal[0]),
        "report": res.report.to_dict() if res.report is not None else None,
    }
    _write_json(ns.out_dir / "inversion_diagnostics.json", diag)
    print(f"invert: q on [0, {xg.x_max}] with dx={xg.dx}, wrote {ns.out_dir}")
    return 0


def _run_extract(ns: argparse.Namespace) -> int:
    """F(x) samples -> scattering data"""
    F = read_f_csv(ns.f_data)
    sd = mk.data_from_F(F, MomentumGrid.make(ns.k_max, ns.dk))
    write_scattering_json(ns.out_dir / "scattering.json", sd)
    print(f"extract: J={sd.j_count}, wrote {ns.out_dir}")
    return 0


def _run_riemann(ns: argparse.Namespace) -> int:
    """scattering data -> Jost function"""
    sd = read_scattering_json(ns.data)
    sol = rm.solve_riemann(sd)
    report = rm.verify_factorization(sol)
    _write_csv(ns.out_dir / "jost_boundary.csv", ["k", "f_re", "f_im"], [sd.kgrid.nodes, sol.f0.real, sol.f0.imag])
    _write_json(ns.out_dir / "factorization_report.json", report)
    print(
        f"riemann: {sol.case} case, index {sol.index}, "
        f"boundary residual {report['boundary_residual']:.2e}, wrote {ns.out_dir}"
    )
    return 0


def _run_validate(ns: argparse.Namespace) -> int:
    """characterization report for scattering data"""
    report = characterize.full_report(read_scattering_json(ns.data))
    _write_json(ns.out_dir / "report.json", report.to_dict())
    status = "pass" if report.passed else "FAIL: " + ", ".join(report.failures())
    print(f"validate: {status}, wrote {ns.out_dir}")
    return 0 if report.passed else EXIT_VALIDATION


def _staged(stage: str, fn, *args):
    """fn(*args), with a HalflineError it raises tagged as `stage`'s."""
    try:
        return fn(*args)
    except HalflineError as exc:
        raise StageError(stage, exc) from None


def _run_roundtrip(ns: argparse.Namespace) -> int:
    """potential -> data -> potential comparison"""
    q, result = _staged("forward", _forward, ns)
    report = _staged("characterize", characterize.full_report, result.sd)
    res = mk.invert_full(result.sd, mk.InversionConfig(x_max=q.grid.x_max, dx=ns.dx, force=True))
    # compare on the inversion grid (subsample of the input grid when nested)
    qi = res.potential
    q_ref = np.interp(qi.grid.nodes, q.grid.nodes, q.values)
    err = np.abs(qi.values - q_ref)
    l1_rel = float(np.trapezoid(err, dx=qi.grid.dx) / max(np.trapezoid(np.abs(q_ref), dx=qi.grid.dx), 1e-30))
    doc = {
        "validation": report.to_dict(),
        "sup_error": float(np.max(err)),
        "l1_rel_error": l1_rel,
        "tolerance": ns.tol,
        "passed": bool(report.passed and np.max(err) <= ns.tol),
    }
    _write_json(ns.out_dir / "roundtrip_report.json", doc)
    print(
        f"roundtrip: sup={doc['sup_error']:.3e}, relL1={l1_rel:.3e}, "
        f"{'pass' if doc['passed'] else 'FAIL'}, wrote {ns.out_dir}"
    )
    return 0 if doc["passed"] else EXIT_VALIDATION


# name: (handler, flags it reads besides --out, what its failures report as)
_SUBCOMMANDS = {
    "forward": (_run_forward, ["--potential", "--kmax", "--dk"], "forward failed"),
    "invert": (_run_invert, ["--data", "--xmax", "--dx", "--force"], "inversion failed"),
    "extract": (_run_extract, ["--f-data", "--kmax", "--dk"], "extraction failed"),
    "riemann": (_run_riemann, ["--data"], "riemann failed"),
    "validate": (_run_validate, ["--data"], "validation failed to run"),
    "roundtrip": (_run_roundtrip, ["--potential", "--kmax", "--dk", "--dx", "--tol"], "roundtrip failed"),
}

# Exit code of a failure, by the stage a StageError names, else by the
# subcommand; roundtrip tags its forward and characterize stages, so what
# remains of its failures is the inversion's.
_EXIT_CODES = {
    "forward": EXIT_FORWARD,
    "invert": EXIT_INVERSE,
    "extract": EXIT_INVERSE,
    "riemann": EXIT_RIEMANN,
    "validate": EXIT_VALIDATION,
    "characterize": EXIT_VALIDATION,
    "roundtrip": EXIT_INVERSE,
}


def run(ns: argparse.Namespace) -> int:
    """Execute a parsed invocation; returns the process exit code."""
    handler, _, failed = _SUBCOMMANDS[ns.subcommand]
    code = _EXIT_CODES[ns.subcommand]
    ns.out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return handler(ns)
    except StageError as exc:
        print(f"{failed} in stage {exc.stage}: {exc.cause}", file=sys.stderr)
        return _EXIT_CODES.get(exc.stage, code)
    except HalflineError as exc:
        print(f"{failed}: {exc}", file=sys.stderr)
        return code


def main(argv: list[str] | None = None) -> int:
    try:
        ns = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return run(ns)


if __name__ == "__main__":
    sys.exit(main())
