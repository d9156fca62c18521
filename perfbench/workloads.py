"""The two benchmark workloads.

`well-cli` runs one well through the three CLI subcommands (the stage
classes below); `deep-kernel` runs the library chain on a deep well.
Each op gets a fresh well depth drawn from the run's seed, so no two ops in
a run share an input.  `prepare` builds the op's input in closed form
(untimed), `run` is the timed public pipeline call, and `check` scores the
output against the closed-form oracle in reference.py.  Library functions
are looked up through their module at call time, so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import time
from pathlib import Path

import numpy as np

import reference as ref

# Momentum grid of the exact scattering data the invert and riemann stages
# read: the CLI's k_max with twice its dk (n_k = 20001), which halves the
# stages' time and leaves their errors within 5 % of those at dk 0.01.
K_MAX, DK = 200.0, 0.02
WIDTH = 1.0


class OpFailed(Exception):
    """An op exited non-zero, left an artifact out, or produced non-finite output."""


def _finite(name: str, *arrays) -> None:
    for a in arrays:
        if not np.all(np.isfinite(np.asarray(a))):
            raise OpFailed(f"non-finite values in {name}")


def _load_csv(path: Path) -> np.ndarray:
    if not path.is_file():
        raise OpFailed(f"missing artifact {path.name}")
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    _finite(path.name, table)
    return table


def _load_json(path: Path) -> dict:
    if not path.is_file():
        raise OpFailed(f"missing artifact {path.name}")
    return json.loads(path.read_text())


def _match_states(found, exact) -> tuple[float, int, int]:
    """(max relative error of matched (kappa, s), states missed, spurious).

    A found state matches the nearest exact kappa within 10 %; every exact
    state left unmatched is scored 1.0."""
    errs, used, spurious = [], set(), 0
    for kap, s in found:
        j = min(range(len(exact)), key=lambda i: abs(exact[i][0] - kap)) if exact else None
        if j is None or j in used or abs(exact[j][0] - kap) > 0.1 * exact[j][0]:
            spurious += 1
            continue
        used.add(j)
        errs.append(max(abs(kap - exact[j][0]) / exact[j][0], abs(s - exact[j][1]) / exact[j][1]))
    missed = len(exact) - len(used)
    return max(errs + [1.0] * missed + [0.0]), missed, spurious


class Workload:
    name = ""
    depth_range = (3.5, 4.5)
    nominal_depth = 4.0
    tol = 0.0  # result_err above this fails the op

    def __init__(self, hl, work: Path):
        self.hl = hl
        self.work = work
        self.out = work / "out"

    def depths(self, seed: int):
        """Per-op depths: seed 0 starts at the nominal depth."""
        rng = np.random.default_rng(seed)
        i = 0
        while True:
            d = rng.uniform(*self.depth_range)
            yield self.nominal_depth if (seed == 0 and i == 0) else float(d)
            i += 1

    def prepare(self, depth: float) -> dict:
        raise NotImplementedError

    def run(self, inp: dict):
        raise NotImplementedError

    def check(self, inp: dict, output) -> dict:
        """{'err': result_err, 'health': {...}, 'bytes': artifact bytes}."""
        raise NotImplementedError

    def order_probes(self, inp: dict) -> dict[str, float]:
        """Fitted exponents of one public call timed at two sizes."""
        return {}


def _exponent(t_small: float, t_large: float, n_small: int, n_large: int) -> float:
    return math.log(t_large / t_small) / math.log(n_large / n_small)


def _timed(fn, *args, **kwargs) -> float:
    t0 = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - t0


class CliWorkload(Workload):
    subcommand = ""

    def argv(self, inp: dict) -> list[str]:
        return [self.subcommand, "--data", str(inp["path"]), "--out", str(self.out)]

    def prepare(self, depth: float) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        return self.write_input(depth)

    def run(self, inp: dict) -> None:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = self.hl.cli.main(self.argv(inp))
        if code != 0:
            raise OpFailed(f"halfline {self.subcommand} exited {code}: {sink.getvalue().strip()[-300:]}")

    def bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.out.iterdir() if p.is_file())

    def write_input(self, depth: float) -> dict:
        """Exact scattering data of the well as a scattering JSON."""
        half = int(round(K_MAX / DK))
        k = DK * np.arange(-half, half + 1)
        s = ref.s_matrix(k, depth, WIDTH)
        states = ref.bound_states(depth, WIDTH)
        doc = {
            "k": k.tolist(),
            "S_re": s.real.tolist(),
            "S_im": s.imag.tolist(),
            "bound_states": [{"kappa": kap, "s": sj} for kap, sj in states],
            "s_zero_sign": 1,
        }
        path = self.work / "scattering.json"
        path.write_text(json.dumps(doc))
        return {"depth": depth, "path": path, "states": states}

    def _f0_err(self, inp: dict, table: np.ndarray) -> float:
        """max |f(0,k) - f_exact| over |k| <= 20, per unit well depth.

        The discretisation error is first order in the depth, so dividing
        by it gives every seeded depth the same score."""
        k, f = table[:, 0], table[:, 1] + 1j * table[:, 2]
        near = np.abs(k) <= 20.0
        err = np.max(np.abs(f[near] - ref.jost_f0(k[near], inp["depth"], WIDTH)))
        return float(err / inp["depth"])


class WellInvert(CliWorkload):
    subcommand = "invert"
    tol = 0.05
    x_max = 20.0  # 401 Marchenko rows at the default dx 0.05; q is 0 beyond x = 1

    def argv(self, inp: dict) -> list[str]:
        return super().argv(inp) + ["--xmax", repr(self.x_max)]

    def check(self, inp: dict, output) -> dict:
        table = _load_csv(self.out / "potential.csv")
        diag = _load_json(self.out / "inversion_diagnostics.json")
        x, q = table[:, 0], table[:, 1]
        q_ref = ref.potential(x, inp["depth"], WIDTH)
        err = float(np.trapezoid(np.abs(q - q_ref), x) / np.trapezoid(np.abs(q_ref), x))
        return {
            "err": err,
            "health": {"marchenko.neglected_tail_mass": float(diag["neglected_tail_mass"])},
            "bytes": self.bytes_written(),
        }

    def order_probes(self, inp: dict) -> dict[str, float]:
        mk = self.hl.marchenko
        sd = self.hl.cli.read_scattering_json(inp["path"])
        t = {dx: _timed(mk.invert_full, sd, mk.InversionConfig(dx=dx)) for dx in (0.1, 0.05)}
        n = {dx: int(round(40.0 / dx)) + 1 for dx in t}
        return {"marchenko.invert_full.order": _exponent(t[0.1], t[0.05], n[0.1], n[0.05])}


class WellRiemann(CliWorkload):
    subcommand = "riemann"
    tol = 1e-4

    def check(self, inp: dict, output) -> dict:
        table = _load_csv(self.out / "jost_boundary.csv")
        report = _load_json(self.out / "factorization_report.json")
        residual = float(report["boundary_residual"])
        _finite("factorization_report.json", residual)
        return {
            "err": self._f0_err(inp, table),
            "health": {"riemann.boundary_residual": residual},
            "bytes": self.bytes_written(),
        }

    def order_probes(self, inp: dict) -> dict[str, float]:
        pv = self.hl.numkit.pv_cauchy_grid
        t, n = {}, {}
        for dk in (0.02, 0.01):
            half = int(round(K_MAX / dk))
            k = dk * np.arange(-half, half + 1)
            phi = np.unwrap(np.angle(ref.s_matrix(k, inp["depth"], WIDTH)))
            t[dk], n[dk] = _timed(pv, phi, k), k.size
        return {"numkit.pv_cauchy_grid.order": _exponent(t[0.02], t[0.01], n[0.02], n[0.01])}


class WellForward(CliWorkload):
    subcommand = "forward"
    tol = 1e-4
    x_max, dx = 10.0, 0.01  # 1001 nodes; q is 0 beyond x = 1

    def argv(self, inp: dict) -> list[str]:
        return [self.subcommand, "--potential", str(inp["path"]), "--out", str(self.out)]

    def write_input(self, depth: float) -> dict:
        x = self.dx * np.arange(int(round(self.x_max / self.dx)) + 1)
        q = ref.potential(x, depth, WIDTH)
        path = self.work / "potential.csv"
        path.write_text("x,q\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), q.tolist())))
        return {"depth": depth, "path": path, "states": ref.bound_states(depth, WIDTH)}

    def check(self, inp: dict, output) -> dict:
        table = _load_csv(self.out / "jost.csv")
        _load_csv(self.out / "phase_shift.csv")
        doc = _load_json(self.out / "scattering.json")
        found = [b["kappa"] for b in doc["bound_states"]]
        exact = [kap for kap, _ in inp["states"]]
        _finite("scattering.json", doc["S_re"], doc["S_im"], found)
        if len(found) != len(exact):
            raise OpFailed(f"forward found {len(found)} bound states, expected {len(exact)}")
        kappa_err = max(abs(a - b) / b for a, b in zip(found, exact))
        if kappa_err > 1e-3:
            raise OpFailed(f"forward bound states off the oracle: kappa {kappa_err:.2e}")
        return {"err": self._f0_err(inp, table), "health": {"forward.kappa_err": kappa_err}, "bytes": self.bytes_written()}


class DeepKernel(Workload):
    name = "deep-kernel"
    depth_range = (64.0, 68.0)
    nominal_depth = 64.0
    tol = 1.0  # dropped states score 1.0 and are reported, not failed
    x_max, dx = 10.0, 0.005

    def _potential(self, depth: float, dx: float):
        model = self.hl.model
        grid = model.RadialGrid.make(self.x_max, dx)
        return model.Potential(grid=grid, values=ref.potential(grid.nodes, depth, WIDTH))

    def prepare(self, depth: float) -> dict:
        return {"depth": depth, "q": self._potential(depth, self.dx), "states": ref.bound_states(depth, WIDTH)}

    def run(self, inp: dict):
        fw, mk = self.hl.forward, self.hl.marchenko
        q = inp["q"]
        scan = fw.find_bound_states(q)
        norming, report = fw.norming_constants(q, scan.kappas)
        kernel = fw.kernel_from_potential(q)
        data = mk.data_from_kernel(kernel)
        F = mk.f_from_kernel(kernel)
        return scan, norming, report, kernel, data, F

    def check(self, inp: dict, output) -> dict:
        scan, norming, report, kernel, data, F = output
        exact = inp["states"]
        _finite("deep-kernel outputs", scan.kappas, norming, kernel.values, data.s_values, F.f_values)
        _finite("data_from_kernel bound states", [(b.kappa, b.s) for b in data.bound_states])
        if len(scan.kappas) != len(exact):
            raise OpFailed(f"find_bound_states found {len(scan.kappas)} states, expected {len(exact)}")
        kappa_err = max(abs(a - b[0]) / b[0] for a, b in zip(scan.kappas, exact))
        norm_err = max(abs(a - b[1]) / b[1] for a, b in zip(norming, exact))
        if kappa_err > 1e-2 or norm_err > 3e-2:
            raise OpFailed(f"forward scan off the oracle: kappa {kappa_err:.2e}, s {norm_err:.2e}")
        err, missed, spurious = _match_states([(b.kappa, b.s) for b in data.bound_states], exact)
        if spurious:
            raise OpFailed(f"data_from_kernel returned {spurious} state(s) matching no exact state")
        return {
            "err": err,
            "health": {
                "forward.kappa_err": kappa_err,
                "forward.norming_rel_diff": max(r["rel_diff"] for r in report),
                "marchenko.data_from_kernel.states_missed": float(missed),
            },
            "bytes": 0,
        }

    def order_probes(self, inp: dict) -> dict[str, float]:
        kfp = self.hl.forward.kernel_from_potential
        t, n = {}, {}
        for dx in (0.01, 0.005):
            q = self._potential(inp["depth"], dx)
            t[dx], n[dx] = _timed(kfp, q), q.grid.n
        return {"forward.kernel_from_potential.order": _exponent(t[0.01], t[0.005], n[0.01], n[0.005])}


class WellCli(Workload):
    """One seeded well through `halfline forward`, `invert` and `riemann`.

    The three subcommands share one op so that a run is long enough to
    average out the host's drift; each stage keeps its own input, output
    directory, tolerance and oracle check."""

    name = "well-cli"
    tol = 3.0  # result_err sums each stage's share of its tolerance; a stage over its own fails first

    def __init__(self, hl, work: Path):
        super().__init__(hl, work)
        self.stages = [cls(hl, work / cls.subcommand) for cls in (WellForward, WellInvert, WellRiemann)]
        for stage in self.stages:
            stage.work.mkdir(parents=True, exist_ok=True)

    def prepare(self, depth: float) -> dict:
        return {"depth": depth, "stages": [stage.prepare(depth) for stage in self.stages]}

    def run(self, inp: dict) -> None:
        for stage, stage_inp in zip(self.stages, inp["stages"]):
            stage.run(stage_inp)

    def check(self, inp: dict, output) -> dict:
        err, health, bytes_ = 0.0, {}, 0
        for stage, stage_inp in zip(self.stages, inp["stages"]):
            res = stage.check(stage_inp, None)
            if res["err"] > stage.tol:
                raise OpFailed(f"halfline {stage.subcommand}: result_err {res['err']:.3e} above {stage.tol:g}")
            err += res["err"] / stage.tol
            health.update(res["health"])
            bytes_ += res["bytes"]
        return {"err": err, "health": health, "bytes": bytes_}

    def order_probes(self, inp: dict) -> dict[str, float]:
        orders = {}
        for stage, stage_inp in zip(self.stages, inp["stages"]):
            orders.update(stage.order_probes(stage_inp))
        return orders


WORKLOADS = {w.name: w for w in (WellCli, DeepKernel)}
