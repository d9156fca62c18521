"""Command-line front end.

Subcommands compose the library modules over diff-able text artifacts.
Each accepts `--out DIR` (default halfline_out) and only the flags it
reads:

    forward    --potential CSV [--kmax --dk]
               -> scattering.json, phase_shift.csv, jost.csv
    invert     --data JSON [--xmax --dx --force]
               -> potential.csv, kernel_diagonal.csv, inversion_diagnostics.json
    extract    --f-data CSV [--kmax --dk (default 0.05) --stripping-tol]
               -> scattering.json
    riemann    --data JSON -> jost_boundary.csv, factorization_report.json
    validate   --data JSON -> report.json (exit 0 iff all conditions pass)
    roundtrip  --potential CSV [--kmax --dk --dx --tol] -> roundtrip_report.json
               (forward, validate, invert on the potential's own grid, compare;
               exit 0 iff the characterization passes and the sup error <= tol)

File formats: potentials are CSV with header x,q on a uniform grid;
scattering data are JSON {k, S_re, S_im, bound_states: [{kappa, s}],
s_zero_sign}; kernels are x,y,A triples.  Numbers are serialized with
repr (17 significant digits), so reading an artifact back reproduces the
in-memory object bit for bit and identical inputs give byte-identical
outputs.  Exit codes: 2 usage, 3 forward failure, 4 inversion failure,
5 riemann failure, 6 validation or tolerance failure.  A HalflineError
raised by a subcommand ends in the code of the stage that failed.
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
from .numkit import winding_number

__all__ = ["parse_args", "run", "main"]

EXIT_USAGE = 2
EXIT_FORWARD = 3
EXIT_INVERSE = 4
EXIT_RIEMANN = 5
EXIT_VALIDATION = 6

# Rows per block of `_write_csv`: bounds the Python floats alive at once.
_CSV_BLOCK = 8192


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
    doc = {
        "k": sd.kgrid.nodes.tolist(),
        "S_re": sd.s_values.real.tolist(),
        "S_im": sd.s_values.imag.tolist(),
        "bound_states": [{"kappa": float(b.kappa), "s": float(b.s)} for b in sd.bound_states],
        "s_zero_sign": int(sd.s_at_zero_sign),
    }
    _write_json(path, doc)


def read_scattering_json(path: Path) -> ScatteringData:
    try:
        doc = json.loads(path.read_text())
        k, s_re, s_im = (np.array(doc[key], dtype=float) for key in ("k", "S_re", "S_im"))
        bound = tuple(BoundState(float(b["kappa"]), float(b["s"])) for b in doc.get("bound_states", []))
        sign = int(doc.get("s_zero_sign", 1))
    except (ValueError, TypeError, KeyError, AttributeError) as exc:
        # JSONDecodeError is a ValueError; a missing key a KeyError
        raise DataError(f"{path}: malformed scattering JSON ({type(exc).__name__}: {exc})") from None
    if k.ndim != 1 or not k.shape == s_re.shape == s_im.shape:
        raise DataError(f"{path}: k, S_re and S_im lengths differ ({k.size}, {s_re.size}, {s_im.size})")
    return ScatteringData(kgrid=MomentumGrid(k), s_values=s_re + 1j * s_im, bound_states=bound, s_at_zero_sign=sign)


def read_f_csv(path: Path) -> MarchenkoInput:
    xs, f = _read_columns(path, ["x", "F"])
    return MarchenkoInput(xgrid=UniformGrid(xs), f_values=f, fs_values=f, fd_values=np.zeros_like(f))


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """One row per sample, each value as repr(float): the bytes csv.writer
    writes for these rows, streamed block by block."""
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(0, len(columns[0]), _CSV_BLOCK):
            rows = zip(*(c[i : i + _CSV_BLOCK].tolist() for c in columns))
            fh.writelines(",".join(map(repr, row)) + "\r\n" for row in rows)


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True, default=float) + "\n")


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
    "--stripping-tol": _positive("stripping_tol", 1e-3, "bound-state stripping tolerance"),
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
    sd, jost = result.sd, result.jost
    k = sd.kgrid.nodes
    write_scattering_json(ns.out_dir / "scattering.json", sd)
    _write_csv(ns.out_dir / "phase_shift.csv", ["k", "delta"], [k, result.delta])
    _write_csv(
        ns.out_dir / "jost.csv",
        ["k", "f_re", "f_im", "fprime_re", "fprime_im"],
        [k, jost.f0.real, jost.f0.imag, jost.fprime0.real, jost.fprime0.imag],
    )
    idx, _ = winding_number(sd.s_values)
    print(f"forward: J={sd.j_count}, index={idx}, S(0) sign {sd.s_at_zero_sign:+d}, wrote {ns.out_dir}")
    return 0


def _run_invert(ns: argparse.Namespace) -> int:
    """scattering data -> potential"""
    sd = read_scattering_json(ns.data)
    res = mk.invert_full(sd, mk.InversionConfig(x_max=ns.x_max, dx=ns.dx, force=ns.force))
    write_potential_csv(ns.out_dir / "potential.csv", res.potential)
    xg = res.kernel.xgrid
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
    sd = mk.extract_data_from_F(F, stripping_tol=ns.stripping_tol, kgrid=MomentumGrid.make(ns.k_max, ns.dk))
    write_scattering_json(ns.out_dir / "scattering.json", sd)
    print(f"extract: J={sd.j_count}, wrote {ns.out_dir}")
    return 0


def _run_riemann(ns: argparse.Namespace) -> int:
    """scattering data -> Jost function"""
    sd = read_scattering_json(ns.data)
    sol = rm.solve_riemann(sd)
    report = rm.verify_factorization(sol, sd)
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
    "extract": (_run_extract, ["--f-data", "--kmax", "--dk", "--stripping-tol"], "extraction failed"),
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
