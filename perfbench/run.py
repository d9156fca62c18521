#!/usr/bin/env python3
"""halfline benchmark: two closed-loop pipeline workloads with one client.

    python3 perfbench/run.py --workload well-cli --seed 0 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Run from the root of a checkout; the library is imported from `src/` of
that checkout (nothing is installed).  Each op runs the workload's public
pipeline calls on a fresh seeded square-well input and is checked against
the closed-form oracle in reference.py.  With `--trace 0` the run reports
the end-to-end metrics of BENCHMARK.json; with `--trace 1` it wraps the
library's public functions (tracer.py), alternates untraced and traced
ops, times one public call at two sizes, and reports the per-layer
metrics.  Thread settings are left at the library's defaults.  The last
stdout line is the JSON result; a record with the environment, every op
and the spans is written to `.perfbench_run/`.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
SETUP_REPEATS = 5
THREAD_VARS = ("HALFLINE_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here (no library source, bad arguments)."""


def load_library():
    """Import halfline from this checkout's src/, never from elsewhere."""
    init = SRC / "halfline" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no library source at {init.relative_to(ROOT)}; run from a checkout root")
    sys.path.insert(0, str(SRC))
    import halfline
    import halfline.cli  # noqa: F401  (binds every layer module on the package)

    if Path(halfline.__file__).resolve() != init.resolve():
        raise BenchError(f"halfline imported from {halfline.__file__}, not from {init}")
    return halfline


def blas_threads(np) -> int | None:
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(np),
        **{var: os.environ.get(var) for var in THREAD_VARS},
    }


def make_workload(hl, name: str, work: Path):
    from workloads import WORKLOADS

    return WORKLOADS[name](hl, work)


def setup_probe(name: str, seed: int) -> None:
    """One set-up as a fresh process pays it: import, then the first input."""
    work = RUN_DIR / f"probe-{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = make_workload(load_library(), name, work)
        wl.prepare(next(wl.depths(seed)))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure_setup(name: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", name, "--seed", str(seed)],
            check=True,
            cwd=ROOT,
        )
        times.append(time.perf_counter() - t0)
    return times


def run_ops(wl, seed: int, seconds: float, tracer) -> tuple[list[dict], dict]:
    """Closed loop: prepare, run (timed), check, until the next op would
    overrun the budget.  With a tracer, odd ops are traced and the run
    first times the workload's scaling probes."""
    from workloads import OpFailed

    start = time.perf_counter()
    depths = wl.depths(seed)
    orders = wl.order_probes(wl.prepare(wl.nominal_depth)) if tracer is not None else {}
    ops: list[dict] = []
    longest = 0.0
    while True:
        elapsed = time.perf_counter() - start
        traced_done = tracer is None or {False, True} <= {op["traced"] for op in ops}
        if ops and traced_done and elapsed + longest > seconds:
            break
        c0 = time.perf_counter()
        inp = wl.prepare(next(depths))
        traced = tracer is not None and len(ops) % 2 == 1
        op = {"depth": inp["depth"], "traced": traced, "ok": False}
        try:
            if traced:
                tracer.install(len(ops))
            t0 = time.perf_counter()
            try:
                output = wl.run(inp)
            finally:
                op["seconds"] = time.perf_counter() - t0
                op["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                if traced:
                    tracer.uninstall()
            op.update(wl.check(inp, output))
            op["ok"] = bool(op["err"] <= wl.tol)
            if not op["ok"]:
                op["error"] = f"result_err {op['err']:.3e} above {wl.tol:g}"
        except OpFailed as exc:
            op["error"] = str(exc)
        except Exception:  # a library failure fails the op, not the run
            op["error"] = traceback.format_exc(limit=3)
        ops.append(op)
        longest = max(longest, time.perf_counter() - c0)
    return ops, orders


def end_to_end(ops: list[dict], setup: list[float]) -> dict[str, tuple[float, str]]:
    good = [op for op in ops if op["ok"]] or ops
    times = [op["seconds"] for op in good]
    errs = [op["err"] for op in ops if "err" in op]
    return {
        "setup_s": (statistics.median(setup), f"median of {len(setup)} set-ups"),
        "op_p50_s": (statistics.median(times), f"n={len(times)}"),
        "ops_per_s": (sum(op["ok"] for op in ops) / sum(op["seconds"] for op in ops), f"n={len(ops)}"),
        "peak_rss_mb": (ops[0]["rss_mb"], "process peak through the first op"),
        "ok_frac": (sum(op["ok"] for op in ops) / len(ops), f"n={len(ops)}"),
        "result_err": (statistics.median(errs) if errs else sys.float_info.max, f"median of n={len(errs)}"),
    }


def per_layer(ops: list[dict], orders: dict, tracer) -> dict[str, tuple[float, str]]:
    traced = [i for i, op in enumerate(ops) if op["traced"]]
    plain = [op["seconds"] for op in ops if not op["traced"]]
    out = {k: (v, f"per op, n={len(traced)}") for k, v in tracer.per_op(traced).items()}
    health: dict[str, list[float]] = {}
    for op in ops:
        for k, v in op.get("health", {}).items():
            health.setdefault(k, []).append(v)
    out.update({k: (statistics.median(v), f"median of n={len(v)}") for k, v in health.items()})
    bytes_ = [op["bytes"] for op in ops if "bytes" in op]
    if bytes_:
        out["cli.bytes_written"] = (statistics.median(bytes_), f"median of n={len(bytes_)}")
    out.update({k: (v, "two sizes") for k, v in orders.items()})
    overhead = statistics.median(ops[i]["seconds"] for i in traced) - statistics.median(plain)
    out["trace.overhead_s"] = (overhead, f"n={len(traced)} traced, {len(plain)} untraced")
    return out


def run_one(args) -> int:
    hl = load_library()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {sorted(names)}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = RUN_DIR / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True), flush=True)
    wl = make_workload(hl, args.workload, work)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(hl)
        setup = []
    else:
        setup = measure_setup(args.workload, args.seed)
    try:
        ops, orders = run_ops(wl, args.seed, args.seconds, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is None:
        measured, wanted = end_to_end(ops, setup), spec["end_to_end"]
    else:
        measured, wanted = per_layer(ops, orders, tracer), spec["per_layer"]
    failed = sum(not op["ok"] for op in ops)
    metrics, notes = {}, {}
    for m in wanted:
        value, note = measured.get(m["name"], (0.0, "not reached by this workload"))
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
        notes[m["name"]] = note
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "environment": env, "ops": ops, "setup_s": setup, "orders": orders, "metrics": metrics,
              "notes": notes, "unlisted": {k: v[0] for k, v in measured.items() if k not in metrics}}
    if tracer is not None:
        record["spans"] = tracer.dump()
    (RUN_DIR / f"{tag}.json").write_text(json.dumps(record, default=str))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: {len(ops)} ops attempted, {failed} failed")
    for op in ops:
        if not op["ok"]:
            print(f"  failed op at depth {op['depth']:.4f}: {op.get('error')}")
    for name, m in metrics.items():
        if tracer is None or m["value"] != 0.0:
            print(f"  {name:48s} {m['value']:.6g} {m['unit']}  ({notes[name]})")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; the last line merges the results."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {w['name']} exited {proc.returncode}")
        res = json.loads(lines[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{w['name']}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name from BENCHMARK.json, or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    try:
        if args.setup_probe:
            setup_probe(args.workload, args.seed)
            return 0
        if args.seconds <= 0:
            raise BenchError("--seconds must be positive")
        return run_all(args) if args.workload == "all" else run_one(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
