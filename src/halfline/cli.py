"""Command-line front end.

Subcommands compose the library modules over diff-able text artifacts:

    forward    potential CSV -> scattering.json, phase_shift.csv, jost.csv
    invert     scattering JSON -> potential.csv, kernel_diagonal.csv,
               inversion_diagnostics.json
    extract    F samples CSV -> scattering.json
    riemann    scattering JSON -> jost_boundary.csv, factorization_report.json
    validate   scattering JSON -> report.json (exit 0 iff all conditions pass)
    roundtrip  potential CSV -> roundtrip_report.json (forward, validate,
               invert, compare; exit 0 iff errors within tolerance)

File formats: potentials are CSV with header x,q on a uniform grid;
scattering data are JSON {k, S_re, S_im, bound_states: [{kappa, s}],
s_zero_sign}; kernels are x,y,A triples.  Numbers are serialized with
repr (17 significant digits), so reading an artifact back reproduces the
in-memory object bit for bit and identical inputs give byte-identical
outputs.  Exit codes: 2 usage, 3 forward failure, 4 inversion failure,
5 riemann failure, 6 validation or tolerance failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import characterize, marchenko as mk, riemann as rm
from .errors import DataError, HalflineError, StageError
from .forward import forward as forward_problem  # noqa: shadowed module name at package level
from .model import (
    BoundState,
    MarchenkoInput,
    MomentumGrid,
    Potential,
    RadialGrid,
    ScatteringData,
    UniformGrid,
)
from .numkit import differentiate, winding_number

__all__ = ["JobSpec", "parse_args", "run", "main"]

EXIT_USAGE = 2
EXIT_FORWARD = 3
EXIT_INVERSE = 4
EXIT_RIEMANN = 5
EXIT_VALIDATION = 6


# ---------------------------------------------------------------------------
# serialization


def _fmt(x: float) -> str:
    return repr(float(x))


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
        "k": [float(v) for v in sd.kgrid.nodes],
        "S_re": [float(v) for v in sd.s_values.real],
        "S_im": [float(v) for v in sd.s_values.imag],
        "bound_states": [{"kappa": float(b.kappa), "s": float(b.s)} for b in sd.bound_states],
        "s_zero_sign": int(sd.s_at_zero_sign),
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


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
    grid = UniformGrid(xs)
    return MarchenkoInput(
        xgrid=grid,
        f_values=f,
        fs_values=f,
        fd_values=np.zeros_like(f),
        fprime=differentiate(f, grid.dx),
    )


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in zip(*columns):
            w.writerow([_fmt(v) for v in row])


def _write_report(path: Path, doc: dict, fmt: str) -> None:
    if fmt == "json":
        path.write_text(json.dumps(doc, indent=1, sort_keys=True, default=float) + "\n")
    else:
        flat = _flatten(doc)
        with path.with_suffix(".csv").open("w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["key", "value"])
            for k, v in flat:
                w.writerow([k, v])


def _flatten(doc, prefix: str = "") -> list[tuple[str, object]]:
    out = []
    if isinstance(doc, dict):
        for k in sorted(doc):
            out.extend(_flatten(doc[k], f"{prefix}{k}."))
    elif isinstance(doc, (list, tuple)):
        for i, v in enumerate(doc):
            out.extend(_flatten(v, f"{prefix}{i}."))
    else:
        out.append((prefix[:-1], doc))
    return out


# ---------------------------------------------------------------------------
# job specification


@dataclass(frozen=True)
class JobSpec:
    """Validated CLI invocation: subcommand, inputs, grids, tolerances."""

    subcommand: str
    out_dir: Path
    potential: Path | None = None
    data: Path | None = None
    f_data: Path | None = None
    k_max: float = 200.0
    dk: float = 0.01
    x_max: float = 40.0
    dx: float = 0.05
    tol: float = 5e-3
    stripping_tol: float = 1e-3
    force: bool = False
    fmt: str = "json"


def parse_args(argv: list[str] | None = None) -> JobSpec:
    """Parse and validate CLI arguments into a JobSpec.

    Usage errors (unknown flags, missing or empty files, a grid or tolerance
    flag that is not positive and finite) exit with status 2.
    """
    p = argparse.ArgumentParser(
        prog="halfline",
        description="Forward and inverse scattering on the half-line.",
    )
    sub = p.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument("--out", default="halfline_out", help="output directory")
        sp.add_argument("--kmax", type=float, default=200.0)
        sp.add_argument("--dk", type=float, default=0.01)
        sp.add_argument("--xmax", type=float, default=40.0)
        sp.add_argument("--dx", type=float, default=0.05)
        sp.add_argument("--tol", type=float, default=5e-3, help="tolerance for pass/fail checks")
        sp.add_argument("--force", action="store_true", help="skip the characterization gate")
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("forward", help="potential -> scattering data")
    sp.add_argument("--potential", required=True)
    common(sp)
    sp = sub.add_parser("invert", help="scattering data -> potential")
    sp.add_argument("--data", required=True)
    common(sp)
    sp = sub.add_parser("extract", help="F(x) samples -> scattering data")
    sp.add_argument("--f-data", required=True)
    sp.add_argument("--stripping-tol", type=float, default=1e-3)
    common(sp)
    sp = sub.add_parser("riemann", help="scattering data -> Jost function")
    sp.add_argument("--data", required=True)
    common(sp)
    sp = sub.add_parser("validate", help="characterization report for scattering data")
    sp.add_argument("--data", required=True)
    common(sp)
    sp = sub.add_parser("roundtrip", help="potential -> data -> potential comparison")
    sp.add_argument("--potential", required=True)
    common(sp)

    ns = p.parse_args(argv)
    for flag in ("kmax", "dk", "xmax", "dx", "tol", "stripping_tol"):
        value = getattr(ns, flag, 1.0)
        if not (np.isfinite(value) and value > 0):
            p.error(f"--{flag.replace('_', '-')} must be positive and finite, got {value}")

    def checked(path_str: str | None) -> Path | None:
        if path_str is None:
            return None
        path = Path(path_str)
        if not path.exists():
            p.error(f"input file not found: {path}")
        if path.stat().st_size == 0:
            p.error(f"input file is empty: {path}")
        return path

    return JobSpec(
        subcommand=ns.subcommand,
        out_dir=Path(ns.out),
        potential=checked(getattr(ns, "potential", None)),
        data=checked(getattr(ns, "data", None)),
        f_data=checked(getattr(ns, "f_data", None)),
        k_max=ns.kmax,
        dk=ns.dk,
        x_max=ns.xmax,
        dx=ns.dx,
        tol=ns.tol,
        stripping_tol=getattr(ns, "stripping_tol", 1e-3),
        force=ns.force,
        fmt=ns.format,
    )


# ---------------------------------------------------------------------------
# subcommand implementations


def _run_forward(job: JobSpec) -> int:
    try:
        q = read_potential_csv(job.potential)
        kgrid = MomentumGrid.make(job.k_max, job.dk)
        result = forward_problem(q, kgrid)
    except HalflineError as exc:
        print(f"forward failed: {exc}", file=sys.stderr)
        return EXIT_FORWARD
    write_scattering_json(job.out_dir / "scattering.json", result.sd)
    _write_csv(job.out_dir / "phase_shift.csv", ["k", "delta"], [kgrid.nodes, result.delta])
    _write_csv(
        job.out_dir / "jost.csv",
        ["k", "f_re", "f_im", "fprime_re", "fprime_im"],
        [
            kgrid.nodes,
            result.jost.f0.real,
            result.jost.f0.imag,
            result.jost.fprime0.real,
            result.jost.fprime0.imag,
        ],
    )
    idx, _ = winding_number(result.sd.s_values)
    print(
        f"forward: J={result.sd.j_count}, index={idx}, "
        f"S(0) sign {result.sd.s_at_zero_sign:+d}, wrote {job.out_dir}"
    )
    return 0


def _run_invert(job: JobSpec) -> int:
    try:
        sd = read_scattering_json(job.data)
        cfg = mk.InversionConfig(x_max=job.x_max, dx=job.dx, force=job.force)
        res = mk.invert_full(sd, cfg)
    except StageError as exc:
        print(f"inversion failed in stage {exc.stage}: {exc.cause}", file=sys.stderr)
        return EXIT_VALIDATION if exc.stage == "characterize" else EXIT_INVERSE
    except HalflineError as exc:
        print(f"inversion failed: {exc}", file=sys.stderr)
        return EXIT_INVERSE
    write_potential_csv(job.out_dir / "potential.csv", res.potential)
    xg = res.kernel.xgrid
    _write_csv(job.out_dir / "kernel_diagonal.csv", ["x", "A"], [xg.nodes, res.kernel.diagonal])
    diag = {
        "neglected_tail_mass": res.neglected_tail_mass,
        "A_origin": float(res.kernel.diagonal[0]),
        "report": res.report.to_dict() if res.report is not None else None,
    }
    _write_report(job.out_dir / "inversion_diagnostics.json", diag, "json")
    print(f"invert: q on [0, {xg.x_max}] with dx={xg.dx}, wrote {job.out_dir}")
    return 0


def _run_extract(job: JobSpec) -> int:
    try:
        F = read_f_csv(job.f_data)
        kgrid = MomentumGrid.make(job.k_max, max(job.dk, 0.05))
        sd = mk.extract_data_from_F(F, stripping_tol=job.stripping_tol, kgrid=kgrid)
    except HalflineError as exc:
        print(f"extraction failed: {exc}", file=sys.stderr)
        return EXIT_INVERSE
    write_scattering_json(job.out_dir / "scattering.json", sd)
    print(f"extract: J={sd.j_count}, wrote {job.out_dir}")
    return 0


def _run_riemann(job: JobSpec) -> int:
    try:
        sd = read_scattering_json(job.data)
        sol = rm.solve_riemann(sd)
        report = rm.verify_factorization(sol, sd)
    except HalflineError as exc:
        print(f"riemann failed: {exc}", file=sys.stderr)
        return EXIT_RIEMANN
    _write_csv(
        job.out_dir / "jost_boundary.csv",
        ["k", "f_re", "f_im"],
        [sd.kgrid.nodes, sol.f0.real, sol.f0.imag],
    )
    _write_report(job.out_dir / "factorization_report.json", report, job.fmt)
    print(
        f"riemann: {sol.case} case, index {sol.index}, "
        f"boundary residual {report['boundary_residual']:.2e}, wrote {job.out_dir}"
    )
    return 0


def _run_validate(job: JobSpec) -> int:
    try:
        sd = read_scattering_json(job.data)
        report = characterize.full_report(sd)
    except HalflineError as exc:
        print(f"validation failed to run: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    _write_report(job.out_dir / "report.json", report.to_dict(), job.fmt)
    status = "pass" if report.passed else "FAIL: " + ", ".join(report.failures())
    print(f"validate: {status}, wrote {job.out_dir}")
    return 0 if report.passed else EXIT_VALIDATION


def _run_roundtrip(job: JobSpec) -> int:
    try:
        q = read_potential_csv(job.potential)
        kgrid = MomentumGrid.make(job.k_max, job.dk)
        result = forward_problem(q, kgrid)
    except HalflineError as exc:
        print(f"roundtrip failed in forward: {exc}", file=sys.stderr)
        return EXIT_FORWARD
    report = characterize.full_report(result.sd)
    try:
        cfg = mk.InversionConfig(x_max=q.grid.x_max, dx=job.dx, force=True)
        res = mk.invert_full(result.sd, cfg)
    except HalflineError as exc:
        print(f"roundtrip failed in inversion: {exc}", file=sys.stderr)
        return EXIT_INVERSE
    # compare on the inversion grid (subsample of the input grid when nested)
    qi = res.potential
    q_ref = np.interp(qi.grid.nodes, q.grid.nodes, q.values)
    err = np.abs(qi.values - q_ref)
    l1_rel = float(np.trapezoid(err, dx=qi.grid.dx) / max(np.trapezoid(np.abs(q_ref), dx=qi.grid.dx), 1e-30))
    doc = {
        "validation": report.to_dict(),
        "sup_error": float(np.max(err)),
        "l1_rel_error": l1_rel,
        "tolerance": job.tol,
        "passed": bool(report.passed and np.max(err) <= job.tol),
    }
    _write_report(job.out_dir / "roundtrip_report.json", doc, job.fmt)
    print(
        f"roundtrip: sup={doc['sup_error']:.3e}, relL1={l1_rel:.3e}, "
        f"{'pass' if doc['passed'] else 'FAIL'}, wrote {job.out_dir}"
    )
    return 0 if doc["passed"] else EXIT_VALIDATION


def run(job: JobSpec) -> int:
    """Execute a parsed JobSpec; returns the process exit code."""
    job.out_dir.mkdir(parents=True, exist_ok=True)
    handlers = {
        "forward": _run_forward,
        "invert": _run_invert,
        "extract": _run_extract,
        "riemann": _run_riemann,
        "validate": _run_validate,
        "roundtrip": _run_roundtrip,
    }
    return handlers[job.subcommand](job)


def main(argv: list[str] | None = None) -> int:
    try:
        job = parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return run(job)
    except HalflineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
