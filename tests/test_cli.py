import csv
import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import displaced_data, reflectionless_data, vanishing_fprime_well, write_csv_reference, write_json_reference
from halfline import characterize, cli, marchenko as mk
from halfline.errors import DataError
from halfline.model import BoundState, MomentumGrid, RadialGrid, ScatteringData
from halfline.potentials import sech2_potential, square_well_potential


@pytest.fixture()
def sech2_csv(tmp_path):
    # a short grid keeps the CLI runs fast; accuracy is tested elsewhere
    q = sech2_potential(RadialGrid.make(30.0, 0.01))
    path = tmp_path / "q.csv"
    cli.write_potential_csv(path, q)
    return path


def identity_dataset(tmp_path, name="sd.json", tamper=None):
    kg = MomentumGrid.make(200.0, 0.05)
    sd = ScatteringData(kgrid=kg, s_values=np.ones(kg.n, complex))
    if tamper == "negative_s":
        # index-consistent Blaschke-squared data with the norming constant
        # negated: only the discrete condition is at fault
        s = ((kg.nodes + 1j) / (kg.nodes - 1j)) ** 2
        sd = ScatteringData(kgrid=kg, s_values=s, bound_states=(BoundState(1.0, -2.0),))
    path = tmp_path / name
    cli.write_scattering_json(path, sd)
    return path


def test_parse_forward(tmp_path, sech2_csv):
    job = cli.parse_args(["forward", "--potential", str(sech2_csv), "--kmax", "40", "--out", str(tmp_path / "o")])
    assert job.subcommand == "forward"
    assert job.k_max == 40.0


def test_parse_missing_file_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        cli.parse_args(["invert", "--data", str(tmp_path / "nope.json")])
    assert err.value.code == 2
    assert cli.main(["invert", "--data", str(tmp_path / "nope.json")]) == 2
    assert cli.main(["invert", "--data", str(tmp_path)]) == 2  # a directory: was an IsADirectoryError traceback


def test_parse_unknown_flag_exits_2():
    assert cli.main(["forward", "--bogus"]) == 2


def test_parse_tolerance_override(sech2_csv):
    job = cli.parse_args(["roundtrip", "--potential", str(sech2_csv), "--tol", "5e-3"])
    assert job.tol == pytest.approx(5e-3)


def test_validate_identity_exit_zero(tmp_path):
    data = identity_dataset(tmp_path)
    rc = cli.main(["validate", "--data", str(data), "--out", str(tmp_path / "v")])
    assert rc == 0
    doc = json.loads((tmp_path / "v" / "report.json").read_text())
    assert doc["passed"] is True


def test_validate_tampered_exit_six(tmp_path):
    data = identity_dataset(tmp_path, tamper="negative_s")
    rc = cli.main(["validate", "--data", str(data), "--out", str(tmp_path / "v")])
    assert rc == 6
    doc = json.loads((tmp_path / "v" / "report.json").read_text())
    failed = [e["name"] for e in doc["entries"] if not e["passed"]]
    assert failed == ["discrete_data"]


def test_scattering_json_roundtrip_bit_exact(tmp_path, fw_well):
    path = tmp_path / "well.json"
    cli.write_scattering_json(path, fw_well.sd)
    sd = cli.read_scattering_json(path)
    assert np.array_equal(sd.kgrid.nodes, fw_well.sd.kgrid.nodes)
    assert np.array_equal(sd.s_values, fw_well.sd.s_values)
    assert sd.bound_states == fw_well.sd.bound_states
    assert sd.s_at_zero_sign == fw_well.sd.s_at_zero_sign


@pytest.mark.parametrize("states", [(), ((0.5, 1e-300),), ((0.5, 2.0), (1.5, 1e22))])
def test_scattering_json_bytes_match_json_dumps(tmp_path, states):
    # the reference is the json.dumps call the artifact was first written
    # with; the float lists carry -0.0, subnormal, tiny and huge entries.
    # k is odd about its -0.0 centre; the second S has S(-k) = conj S(k)
    # bit for bit, so only the last halves of its S_re and S_im are formatted
    kg = MomentumGrid(np.array([-3.0, -2.0, -1.0, -0.0, 1.0, 2.0, 3.0]))
    plain = (
        np.array([-0.0, 1e-300, 1e22, 0.1 + 0.2, 5e-324, -1.5, 1.0]),
        np.array([0.0, -1e22, -0.0, 1e-300, 2.0 / 3.0, 1e16, -5e-324]),
    )
    mirrored = (
        np.array([1.0, -1.5, 5e-324, 0.1 + 0.2, 5e-324, -1.5, 1.0]),
        np.array([-1e16, 5e-324, -0.0, 1e-300, 0.0, -5e-324, 1e16]),
    )
    assert [cli._mirror_sign(a) for a in (kg.nodes, *mirrored)] == [-1, 1, -1]
    for re, im in (plain, mirrored):
        s = np.empty(kg.n, complex)
        s.real, s.imag = re, im  # re + 1j * im would turn -0.0 into 0.0
        sd = ScatteringData(kgrid=kg, s_values=s, bound_states=tuple(BoundState(*b) for b in states), s_at_zero_sign=-1)
        doc = {
            "k": kg.nodes.tolist(),
            "S_re": re.tolist(),
            "S_im": im.tolist(),
            "bound_states": [{"kappa": kappa, "s": norm} for kappa, norm in states],
            "s_zero_sign": -1,
        }
        path = tmp_path / "sd.json"
        cli.write_scattering_json(path, sd)
        assert path.read_text() == json.dumps(doc, indent=1, sort_keys=True) + "\n"


def test_write_json_nested_values_match_json_dumps(tmp_path):
    doc = {"b": {"z": [1, {"y": None}], "a": []}, "a": np.float64(0.1), "c": {}, "d": True, "e": np.arange(3.0)}
    cli._write_json(tmp_path / "d.json", doc)
    ref = dict(doc, e=doc["e"].tolist())
    assert (tmp_path / "d.json").read_text() == json.dumps(ref, indent=1, sort_keys=True, default=float) + "\n"


def test_forward_artifacts_and_determinism(tmp_path, sech2_csv):
    args = ["forward", "--potential", str(sech2_csv), "--kmax", "100", "--dk", "0.05"]
    rc1 = cli.main(args + ["--out", str(tmp_path / "a")])
    rc2 = cli.main(args + ["--out", str(tmp_path / "b")])
    assert rc1 == 0 and rc2 == 0
    for name in ("scattering.json", "phase_shift.csv", "jost.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


_SPECIAL = np.array([-0.0, 5e-324, 1e308, np.nan, np.inf, -np.inf, 0.1 + 0.2, -1.5])


def mirror(upper: np.ndarray, n: int, flip) -> np.ndarray:
    """An n-long column whose last n - n // 2 entries are `upper` and whose
    first half is flip of the last half, reversed."""
    return np.concatenate([flip(upper[::-1][: n // 2]), upper])


def test_write_csv_bytes_match_csv_writer(tmp_path):
    # the reference is the csv.writer loop the artifacts were first written
    # with; rows span several write blocks, whose last-half rows are
    # formatted from the far end while the first half is written
    for n in (0, 1, 2, 3, 4 * cli._CSV_BLOCK + 3, 4 * cli._CSV_BLOCK + 4):
        upper = np.resize(_SPECIAL, n - n // 2)
        finite = np.resize(_SPECIAL[np.isfinite(_SPECIAL)], n - n // 2)
        columns = [
            np.resize(_SPECIAL, n),
            mirror(upper, n, np.positive),  # even, NaN and inf included
            mirror(finite, n, np.negative),  # odd
            mirror(upper, n, np.negative),  # odd but for its NaN: falls back
            np.resize(_SPECIAL[::-1], n),
        ]
        if n >= 4:
            assert [cli._mirror_sign(c) for c in columns] == [0, 1, -1, 0, 0]
        # mixed, mirrored only, mirrored first, none mirrored
        for cols in (columns, columns[1:3], columns[2:], [columns[0], columns[4]]):
            cli._write_csv(tmp_path / "got.csv", ["c"] * len(cols), cols)
            with (tmp_path / "ref.csv").open("w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["c"] * len(cols))
                for row in zip(*cols):
                    w.writerow([repr(float(v)) for v in row])
            assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes(), (n, len(cols))


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e308, -1e308, np.nan, -np.nan]),
)


@settings(max_examples=200, deadline=None)
@given(
    n=st.one_of(st.integers(0, 5), st.integers(2 * cli._CSV_BLOCK + 1, 2 * cli._CSV_BLOCK + 4)),
    pattern=st.lists(_FLOATS, min_size=1, max_size=8),
    centre=_FLOATS,
    kind=st.sampled_from(["even", "odd", "even, one ulp off", "odd, one ulp off", "neither"]),
    where=st.integers(0, 2**31),
)
def test_column_reprs_match_repr(n, pattern, centre, kind, where):
    # the column formatter of both writers formats one half of an even or
    # odd column and derives the other; it must return exactly the reprs
    upper = np.resize(np.array(pattern), n - n // 2)
    if n % 2:
        upper[0] = centre
    if kind == "neither":
        a = np.resize(np.array(pattern + [centre]), n)
    else:
        a = mirror(upper, n, np.negative if kind.startswith("odd") else np.positive)
    if kind.endswith("ulp off") and n >= 2:
        a.view(np.int64)[where % (n // 2)] ^= 1  # the last bit of one first-half entry
    got = cli._reprs(a)
    assert got == list(map(repr, a.tolist()))
    # repr writes nan for -nan too: an odd column holding NaN must fall back
    expected = {"even": 1, "odd": -1 if not np.isnan(a[n - n // 2 :]).any() else 0}.get(kind, None)
    if n >= 2 and expected is not None:
        assert cli._mirror_sign(a) == expected
    elif kind.endswith("ulp off") and n >= 2:
        assert cli._mirror_sign(a) == 0


def write_f_csv(path, sd, x_hi, dx):
    """The half-line F of sd on [0, x_hi] as an `extract` input, with the
    right limit F(0+) at x = 0."""
    F = mk.build_F(sd, x_hi, dx)
    cli._write_csv(path, ["x", "F"], [F.xgrid.nodes, F.f_values])
    return path


def test_extract_subcommand(tmp_path, kgrid_fourier):
    path = write_f_csv(tmp_path / "f.csv", reflectionless_data(kgrid_fourier, ((1.0, 2.0), (2.0, 3.0))), 20.0, 0.0125)
    rc = cli.main(["extract", "--f-data", str(path), "--out", str(tmp_path / "e")])
    assert rc == 0
    doc = json.loads((tmp_path / "e" / "scattering.json").read_text())
    assert len(doc["bound_states"]) == 2
    assert doc["bound_states"][0]["kappa"] == pytest.approx(1.0, abs=1e-4)
    assert doc["bound_states"][1]["s"] == pytest.approx(3.0, abs=1e-4)


def test_extract_well_from_F_at_0_plus(tmp_path, fw_well):
    # the depth-4 well's F on [0, 20] with F(0+) at x = 0 reproduces the
    # forward data: S on |k| <= 100, kappa and s relative to forward's
    path = write_f_csv(tmp_path / "f.csv", fw_well.sd, 20.0, 0.0125)
    assert cli.main(["extract", "--f-data", str(path), "--out", str(tmp_path / "e")]) == 0
    sd = cli.read_scattering_json(tmp_path / "e" / "scattering.json")
    ref = fw_well.sd
    k = sd.kgrid.nodes
    idx = np.round((k - ref.kgrid.nodes[0]) / ref.kgrid.dk).astype(int)
    band = np.abs(k) <= 100.0
    assert np.max(np.abs(sd.s_values - ref.s_values[idx])[band]) <= 1e-3
    assert sd.j_count == ref.j_count == 1
    np.testing.assert_allclose(sd.kappas, ref.kappas, rtol=1e-4)
    np.testing.assert_allclose(sd.norming, ref.norming, rtol=1e-4)


def test_extract_reads_only_x_geq_0(tmp_path, fw_well):
    # rows at x < 0 do not enter: a CSV that starts at x = -0.5 writes the
    # bytes the [0, 20] CSV writes
    half = write_f_csv(tmp_path / "half.csv", fw_well.sd, 20.0, 0.0125)
    x, f = cli._read_columns(half, ["x", "F"])
    dx = 0.0125
    xs = dx * np.arange(-40, x.size)
    assert np.array_equal(xs[40:], x) and xs[0] == -0.5
    cli._write_csv(tmp_path / "whole.csv", ["x", "F"], [xs, np.concatenate([np.full(40, 7.0), f])])
    for name in ("half", "whole"):
        assert cli.main(["extract", "--f-data", str(tmp_path / f"{name}.csv"), "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "whole" / "scattering.json").read_bytes() == (tmp_path / "half" / "scattering.json").read_bytes()


def test_extract_needs_an_x0_node(tmp_path, capsys):
    # the x = 0 sample is F(0+): a CSV without it, starting past 0 or with
    # its nodes offset from the grid through 0, is refused
    for dx, x0 in ((0.0125, 0.0125), (0.05, -0.025)):
        xs = x0 + dx * np.arange(int(round(40.0 / dx)))
        cli._write_csv(tmp_path / "f.csv", ["x", "F"], [xs, 2 * np.exp(-np.abs(xs))])
        argv = ["extract", "--f-data", str(tmp_path / "f.csv"), "--out", str(tmp_path / "o")]
        assert cli.main(argv) == cli.EXIT_INVERSE
        assert "x = 0" in capsys.readouterr().err


def test_artifacts_match_reference_writers(tmp_path, fw_well, monkeypatch):
    # forward, riemann, invert and extract on the README's well write the
    # bytes the reference writers write for the same results: forward's
    # and riemann's f0 columns are mirrored, invert's columns are not
    qpath = tmp_path / "q.csv"
    cli.write_potential_csv(qpath, square_well_potential(RadialGrid.make(40.0, 0.01)))
    fpath = write_f_csv(tmp_path / "f.csv", fw_well.sd, 20.0, 0.0125)

    def run_all(out):
        data = str(out / "forward" / "scattering.json")
        for argv in (
            ["forward", "--potential", str(qpath), "--dk", "0.05"],
            ["riemann", "--data", data],
            ["invert", "--data", data, "--xmax", "20"],
            ["extract", "--f-data", str(fpath)],
        ):
            assert cli.main(argv + ["--out", str(out / argv[0])]) == 0
        return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}

    got = run_all(tmp_path / "got")
    f = np.loadtxt(tmp_path / "got" / "riemann" / "jost_boundary.csv", delimiter=",", skiprows=1)
    assert [cli._mirror_sign(f[:, 1]), cli._mirror_sign(f[:, 2])] == [1, -1]
    monkeypatch.setattr(cli, "_write_csv", write_csv_reference)
    monkeypatch.setattr(cli, "_write_json", write_json_reference)
    ref = run_all(tmp_path / "ref")
    assert len(got) == 9 and got.keys() == ref.keys()
    for name in got:
        assert got[name] == ref[name], name


def test_riemann_subcommand(tmp_path, fw_well):
    data = tmp_path / "sd.json"
    # riemann runs on the coarse grid; subsample the forward data
    kg = MomentumGrid.make(200.0, 0.05)
    idx = np.round((kg.nodes - fw_well.sd.kgrid.nodes[0]) / fw_well.sd.kgrid.dk).astype(int)
    sd = ScatteringData(
        kgrid=kg,
        s_values=fw_well.sd.s_values[idx],
        bound_states=fw_well.sd.bound_states,
        s_at_zero_sign=fw_well.sd.s_at_zero_sign,
    )
    cli.write_scattering_json(data, sd)
    rc = cli.main(["riemann", "--data", str(data), "--out", str(tmp_path / "r")])
    assert rc == 0
    doc = json.loads((tmp_path / "r" / "factorization_report.json").read_text())
    assert doc["index"] == -2
    assert doc["boundary_residual"] < 1e-8


def test_riemann_subcommand_failure_exit_five(tmp_path):
    kg = MomentumGrid.make(100.0, 0.05)
    s = ((kg.nodes + 1j) / (kg.nodes - 1j)) ** 2  # winding -2 but J = 0
    cli.write_scattering_json(tmp_path / "bad.json", ScatteringData(kgrid=kg, s_values=s))
    rc = cli.main(["riemann", "--data", str(tmp_path / "bad.json"), "--out", str(tmp_path / "r")])
    assert rc == 5


@pytest.mark.parametrize("sign, s_power, states", [(1, 1, ()), (-1, 2, (BoundState(1.0, 1.0),))])
def test_riemann_refuses_data_failing_the_index_entry(tmp_path, capsys, sign, s_power, states):
    # a resonance S ((k + i)/(k - i), S(0) = -1) flagged +1, and
    # Blaschke-squared S with J = 1 flagged -1: validate fails the index
    # entry, and riemann refuses the data rather than pick a case by the
    # winding alone
    kg = MomentumGrid.make(100.0, 0.05)
    s = ((kg.nodes + 1j) / (kg.nodes - 1j)) ** s_power
    path = tmp_path / "sd.json"
    cli.write_scattering_json(path, ScatteringData(kgrid=kg, s_values=s, bound_states=states, s_at_zero_sign=sign))
    assert cli.main(["validate", "--data", str(path), "--out", str(tmp_path / "v")]) == cli.EXIT_VALIDATION
    assert "FAIL: index" in capsys.readouterr().out
    assert cli.main(["riemann", "--data", str(path), "--out", str(tmp_path / "r")]) == cli.EXIT_RIEMANN
    assert "index condition" in capsys.readouterr().err
    assert not (tmp_path / "r" / "jost_boundary.csv").exists()


@pytest.mark.parametrize("a", [0.0, 2.0, 4.0, 6.0, 10.0])
def test_invert_gate_is_validate_report(tmp_path, a):
    # invert's characterization gate is validate's report at every --xmax:
    # the same exit code, and on a pass the same report in its diagnostics.
    # A gate on [0, 2 xmax] refused the README well (a = 0) at --xmax 5 and
    # the wells on [2, 3], [4, 5] and [6, 7] at --xmax 5 or 10; the well on
    # [10, 11] fails both
    data = tmp_path / "sd.json"
    cli.write_scattering_json(data, displaced_data(a))
    code = cli.main(["validate", "--data", str(data), "--out", str(tmp_path / "v")])
    assert code == (cli.EXIT_VALIDATION if a == 10.0 else 0)
    report = json.loads((tmp_path / "v" / "report.json").read_text())
    for xmax in ("5", "10", "20", "40"):
        out = tmp_path / f"inv{xmax}"
        assert cli.main(["invert", "--data", str(data), "--xmax", xmax, "--out", str(out)]) == code, xmax
        if code == 0:
            assert json.loads((out / "inversion_diagnostics.json").read_text())["report"] == report, xmax


def test_asymmetric_S_one_verdict(tmp_path, capsys, fw_well):
    # S e^{i 1e-9}: a symmetry error of 2e-9 passes the symmetry entry at
    # 1e-6, but F's imaginary residual exceeds build_F's IMAG_TOL, and the
    # gate and the solve build F by one rule: validate and invert agree
    sd = fw_well.sd
    tilted = ScatteringData(sd.kgrid, sd.s_values * np.exp(1e-9j), sd.bound_states, sd.s_at_zero_sign)
    assert characterize.check_symmetry_unitarity(tilted).passed
    data = tmp_path / "sd.json"
    cli.write_scattering_json(data, tilted)
    for sub in ("validate", "invert"):
        assert cli.main([sub, "--data", str(data), "--out", str(tmp_path / sub)]) == cli.EXIT_VALIDATION, sub
        assert "imaginary residual" in capsys.readouterr().err, sub


def assert_stage_exits(path, tmp_path, capsys, reason):
    """riemann and invert on a malformed scattering JSON: each ends in its
    own stage code with a message naming the reason, never a traceback."""
    cases = (("riemann", cli.EXIT_RIEMANN, "riemann failed"), ("invert", cli.EXIT_INVERSE, "inversion failed"))
    for sub, code, msg in cases:
        rc = cli.main([sub, "--data", str(path), "--out", str(tmp_path / sub)])
        err = capsys.readouterr().err
        assert rc == code
        assert msg in err and reason in err
        assert "Traceback" not in err


def test_nonfinite_scattering_json_exits_with_stage_code(tmp_path, capsys):
    # a NaN in S_re must end in the subcommand's failure code and a message,
    # not in a traceback from deep inside the solver
    path = identity_dataset(tmp_path)
    doc = json.loads(path.read_text())
    doc["S_re"][7] = float("nan")
    path.write_text(json.dumps(doc))
    assert_stage_exits(path, tmp_path, capsys, "finite")


def test_unequal_scattering_json_lengths_exit_with_stage_code(tmp_path, capsys):
    # S_re one entry short of S_im and k: a data error, not a numpy traceback
    path = identity_dataset(tmp_path)
    doc = json.loads(path.read_text())
    doc["S_re"] = doc["S_re"][:-1]
    path.write_text(json.dumps(doc))
    assert_stage_exits(path, tmp_path, capsys, "lengths differ")


def test_invert_and_roundtrip_subcommands(tmp_path):
    q = square_well_potential(RadialGrid.make(20.0, 0.01))
    qpath = tmp_path / "well.csv"
    cli.write_potential_csv(qpath, q)
    rc = cli.main(
        ["roundtrip", "--potential", str(qpath), "--out", str(tmp_path / "rt"), "--dx", "0.05", "--tol", "0.9"]
    )
    assert rc == 0
    doc = json.loads((tmp_path / "rt" / "roundtrip_report.json").read_text())
    assert doc["passed"] is True
    assert doc["l1_rel_error"] < 0.05

    # invert consumes the artifacts the forward subcommand writes
    rc = cli.main(["forward", "--potential", str(qpath), "--out", str(tmp_path / "f")])
    assert rc == 0
    rc = cli.main(
        ["invert", "--data", str(tmp_path / "f" / "scattering.json"),
         "--out", str(tmp_path / "i"), "--xmax", "20", "--dx", "0.05"]
    )
    assert rc == 0
    pot = cli.read_potential_csv(tmp_path / "i" / "potential.csv")
    ref = np.interp(pot.grid.nodes, q.grid.nodes, q.values)
    l1 = np.trapezoid(np.abs(pot.values - ref), dx=pot.grid.dx)
    assert l1 / 4.0 < 0.05


def test_empty_input_file_exits_2(tmp_path, capsys):
    # a zero-byte artifact is a usage error, like a missing one
    (tmp_path / "q.csv").write_text("")
    (tmp_path / "sd.json").write_text("")
    for args in (
        ["forward", "--potential", str(tmp_path / "q.csv")],
        ["roundtrip", "--potential", str(tmp_path / "q.csv")],
        ["validate", "--data", str(tmp_path / "sd.json")],
    ):
        assert cli.main(args + ["--out", str(tmp_path / "o")]) == 2
        assert "input file is empty" in capsys.readouterr().err


def test_non_numeric_potential_csv_exits_3(tmp_path, capsys):
    path = tmp_path / "q.csv"
    path.write_text("x,q\n0.0,-4.0\n0.5,abc\n1.0,0.0\n")
    for sub in ("forward", "roundtrip"):
        assert cli.main([sub, "--potential", str(path), "--out", str(tmp_path / sub)]) == cli.EXIT_FORWARD
        err = capsys.readouterr().err
        assert "non-numeric" in err and "Traceback" not in err


def test_header_only_csv_exits_with_stage_code(tmp_path, capsys):
    (tmp_path / "q.csv").write_text("x,q\n")
    (tmp_path / "f.csv").write_text("x,F\n0.0,1.0\n0.1\n")
    assert cli.main(["forward", "--potential", str(tmp_path / "q.csv"), "--out", str(tmp_path / "o")]) == 3
    assert "no data rows" in capsys.readouterr().err
    assert cli.main(["extract", "--f-data", str(tmp_path / "f.csv"), "--out", str(tmp_path / "o")]) == 4
    assert "needs 2 values" in capsys.readouterr().err


def test_nonfinite_f_csv_refused_at_the_input(tmp_path, capsys):
    # the NaN is refused as F input, before any Fourier transform
    (tmp_path / "f.csv").write_text("x,F\n" + "".join(f"{x},{'nan' if x == 0 else 1.0}\n" for x in range(-40, 41)))
    assert cli.main(["extract", "--f-data", str(tmp_path / "f.csv"), "--out", str(tmp_path / "o")]) == cli.EXIT_INVERSE
    assert "f_values samples must be finite" in capsys.readouterr().err


def test_invert_force_on_indefinite_data_exits_4(tmp_path, capsys):
    # S = 1 with the state (1, -3) gives F = -3 e^{-x}: I + F_x is
    # indefinite for x < ln(1.5)/2, and the exact kernel has a pole there
    kg = MomentumGrid.make(20.0, 0.05)
    sd = ScatteringData(kgrid=kg, s_values=np.ones(kg.n, complex), bound_states=(BoundState(1.0, -3.0),))
    cli.write_scattering_json(tmp_path / "sd.json", sd)
    argv = ["invert", "--data", str(tmp_path / "sd.json"), "--force", "--xmax", "5", "--out", str(tmp_path / "o")]
    assert cli.main(argv) == cli.EXIT_INVERSE
    assert "stage solve_marchenko" in capsys.readouterr().err
    assert not (tmp_path / "o" / "potential.csv").exists()


def test_threads_flag_is_gone(tmp_path, capsys):
    path = identity_dataset(tmp_path)
    assert cli.main(["invert", "--data", str(path), "--threads", "2", "--out", str(tmp_path / "o")]) == cli.EXIT_USAGE
    assert "--threads" in capsys.readouterr().err


@pytest.mark.parametrize(
    "subcommand, flag, value",
    [
        ("riemann", "--kmax", "5"),
        ("validate", "--dx", "0.1"),
        ("invert", "--kmax", "5"),
        ("roundtrip", "--xmax", "3"),
        ("forward", "--force", None),
        ("validate", "--format", "csv"),
        # unique prefixes of --dk and --force, and of extract's removed
        # --stripping-tol, which is refused too
        ("forward", "--d", "0.5"),
        ("invert", "--f", None),
        ("extract", "--strip", "0.1"),
        ("extract", "--stripping-tol", "1e-3"),
    ],
)
def test_flag_the_subcommand_does_not_read_exits_2(tmp_path, sech2_csv, capsys, subcommand, flag, value):
    if subcommand in ("forward", "roundtrip"):
        source = ["--potential", str(sech2_csv)]
    elif subcommand == "extract":
        (tmp_path / "f.csv").write_text("x,F\n" + "".join(f"{x},{np.exp(-abs(x))!r}\n" for x in range(-40, 41)))
        source = ["--f-data", str(tmp_path / "f.csv")]
    else:
        source = ["--data", str(identity_dataset(tmp_path))]
    argv = [subcommand, *source, flag, *([value] if value else []), "--out", str(tmp_path / "o")]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_out_naming_a_file_exits_2(tmp_path, capsys):
    data = identity_dataset(tmp_path)
    before = data.read_bytes()
    for out in (data, data / "sub"):
        assert cli.main(["validate", "--data", str(data), "--out", str(out)]) == cli.EXIT_USAGE
        assert "--out: not a directory" in capsys.readouterr().err
    assert data.read_bytes() == before


def test_roundtrip_characterization_error_exits_6(tmp_path, sech2_csv, capsys, monkeypatch):
    def refuse(sd):
        raise DataError("characterization refused the data")

    monkeypatch.setattr(characterize, "full_report", refuse)
    argv = ["roundtrip", "--potential", str(sech2_csv), "--kmax", "100", "--dk", "0.05", "--out", str(tmp_path / "rt")]
    assert cli.main(argv) == cli.EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "roundtrip failed in stage characterize: characterization refused the data" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "subcommand, flag, value",
    [
        ("forward", "--dk", "0"),  # was a ZeroDivisionError traceback
        ("forward", "--dk", "nan"),  # was a ValueError traceback
        ("forward", "--kmax", "inf"),  # was an OverflowError traceback
        ("forward", "--kmax", "-200"),
        ("invert", "--xmax", "nan"),
        ("invert", "--dx", "0"),
        ("roundtrip", "--tol", "-1e-3"),
        ("extract", "--dk", "inf"),
    ],
)
def test_bad_grid_or_tolerance_flag_exits_2(tmp_path, sech2_csv, capsys, subcommand, flag, value):
    inputs = {
        "forward": ["--potential", str(sech2_csv)],
        "roundtrip": ["--potential", str(sech2_csv)],
        "invert": ["--data", str(identity_dataset(tmp_path))],
        "extract": ["--f-data", str(sech2_csv)],
    }
    argv = [subcommand, *inputs[subcommand], f"{flag}={value}", "--out", str(tmp_path / "o")]
    assert cli.main(argv) == cli.EXIT_USAGE
    assert f"{flag} must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "subcommand, flag, value, code",
    [
        ("forward", "--dk", "1e-300", cli.EXIT_FORWARD),  # was numpy's ValueError traceback
        ("forward", "--kmax", "1e300", cli.EXIT_FORWARD),
        ("invert", "--dx", "1e-300", cli.EXIT_INVERSE),  # was exit 6, blamed on the characterization
    ],
)
def test_grid_numpy_cannot_allocate_exits_with_stage_code(tmp_path, sech2_csv, capsys, subcommand, flag, value, code):
    # positive and finite, so past the parser, but numpy refuses the node
    # count before allocating anything
    inputs = {"forward": ["--potential", str(sech2_csv)], "invert": ["--data", str(identity_dataset(tmp_path))]}
    argv = [subcommand, *inputs[subcommand], f"{flag}={value}", "--out", str(tmp_path / "o")]
    assert cli.main(argv) == code
    err = capsys.readouterr().err
    assert "cannot build a grid" in err and "Traceback" not in err


def _set_entry(key, i, value):
    return lambda doc: doc[key].__setitem__(i, value(doc[key][i]))


# each of these was once read as a number (s_zero_sign 1.5, true and "1"
# as +1, so identity data passed validate; -1.9 as -1), or, an integer
# beyond float range, ended in a traceback
MALFORMED_NUMBERS = {
    "sign 1.5": lambda doc: doc.update(s_zero_sign=1.5),
    "sign true": lambda doc: doc.update(s_zero_sign=True),
    "sign string": lambda doc: doc.update(s_zero_sign="1"),
    "sign -1.9": lambda doc: doc.update(s_zero_sign=-1.9),
    "k string": _set_entry("k", 3, repr),
    "S_re string": _set_entry("S_re", 3, repr),
    "S_im bool": _set_entry("S_im", 3, bool),
    "k beyond float": _set_entry("k", 3, lambda v: 10**400),
    "kappa string": lambda doc: doc["bound_states"].append({"kappa": "1.0", "s": 2.0}),
    "s bool": lambda doc: doc["bound_states"].append({"kappa": 1.0, "s": True}),
}


@pytest.mark.parametrize("tamper", MALFORMED_NUMBERS.values(), ids=MALFORMED_NUMBERS.keys())
def test_scattering_json_refuses_malformed_numbers(tmp_path, capsys, tamper):
    path = identity_dataset(tmp_path)
    doc = json.loads(path.read_text())
    tamper(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match="malformed scattering JSON"):
        cli.read_scattering_json(path)
    assert cli.main(["validate", "--data", str(path), "--out", str(tmp_path / "v")]) == cli.EXIT_VALIDATION
    assert "malformed scattering JSON" in capsys.readouterr().err
    assert_stage_exits(path, tmp_path, capsys, "malformed scattering JSON")


def test_unresolved_potential_forward_exits_3(tmp_path, capsys):
    # a depth-1e200 well at dx 0.01: refused with the forward stage's code,
    # not an overflow warning and a traceback from the bound-state scan
    path = tmp_path / "q.csv"
    cli.write_potential_csv(path, square_well_potential(RadialGrid.make(10.0, 0.01), depth=1e200))
    assert cli.main(["forward", "--potential", str(path), "--out", str(tmp_path / "o")]) == cli.EXIT_FORWARD
    err = capsys.readouterr().err
    assert "does not resolve" in err and "Traceback" not in err


def test_vanishing_fprime_forward_exits_3(tmp_path, capsys):
    # f'(0, i kappa) = 0.0 at this well's state: forward and roundtrip end
    # in the forward stage's code with a message (warnings are errors here)
    path = tmp_path / "q.csv"
    cli.write_potential_csv(path, vanishing_fprime_well())
    for sub in ("forward", "roundtrip"):
        assert cli.main([sub, "--potential", str(path), "--out", str(tmp_path / sub)]) == cli.EXIT_FORWARD
        err = capsys.readouterr().err
        assert "norming constant at kappa = 5.582375 is undefined" in err and "Traceback" not in err


def test_scattering_json_without_s_re_exits_with_stage_code(tmp_path, capsys):
    path = identity_dataset(tmp_path)
    doc = json.loads(path.read_text())
    del doc["S_re"]
    path.write_text(json.dumps(doc))
    assert_stage_exits(path, tmp_path, capsys, "S_re")


def test_undecodable_scattering_json_exits_6(tmp_path, capsys):
    path = tmp_path / "sd.json"
    path.write_text("\n")  # not zero bytes, but no JSON document
    assert cli.main(["validate", "--data", str(path), "--out", str(tmp_path / "v")]) == cli.EXIT_VALIDATION
    assert "malformed scattering JSON" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fuzz: malformed artifacts end in a documented exit code, never a traceback

# the grid flags each fuzzed subcommand reads; the others accept none
_FUZZ_GRID = {"forward": ["--kmax", "200", "--dk", "0.1"], "invert": ["--xmax", "5", "--dx", "0.05"]}


@functools.lru_cache(maxsize=1)
def _fuzz_artifacts():
    """A small valid potential CSV and scattering JSON (square well, one
    bound state) for the fuzz test to corrupt."""
    from halfline.forward import forward

    q = square_well_potential(RadialGrid.make(5.0, 0.05))
    sd = forward(q, MomentumGrid.make(200.0, 0.1)).sd
    doc = {
        "k": [float(v) for v in sd.kgrid.nodes],
        "S_re": [float(v) for v in sd.s_values.real],
        "S_im": [float(v) for v in sd.s_values.imag],
        "bound_states": [{"kappa": b.kappa, "s": b.s} for b in sd.bound_states],
        "s_zero_sign": sd.s_at_zero_sign,
    }
    csv_text = "x,q\n" + "".join(f"{float(x)!r},{float(v)!r}\n" for x, v in zip(q.grid.nodes, q.values))
    return csv_text, doc


@st.composite
def _malformed_artifact(draw):
    csv_text, json_doc = _fuzz_artifacts()
    kind = draw(st.sampled_from(["csv", "json"]))
    text = csv_text if kind == "csv" else json.dumps(json_doc)
    how = draw(st.sampled_from(["truncate", "non_numeric", "missing", "empty"]))
    if how == "truncate":
        text = text[: draw(st.integers(0, len(text) - 1))]
    elif how == "non_numeric":
        tokens = text.split(",")
        i = draw(st.integers(0, len(tokens) - 1))
        tokens[i] = draw(st.sampled_from(["abc", "", "1e", "--1", "[]", '"x"']))
        text = ",".join(tokens)
    elif how == "missing" and kind == "json":
        doc = dict(json_doc)
        del doc[draw(st.sampled_from(sorted(doc)))]
        text = json.dumps(doc)
    elif how == "missing":
        lines = text.splitlines(keepends=True)
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = lines[i].split(",")[0] + "\n"
        text = "".join(lines)
    else:
        text = draw(st.sampled_from(["", "\n", " ", "{}", "[]", "x,q\n"]))
    return kind, text


@settings(max_examples=100, deadline=None)
@given(_malformed_artifact())
def test_malformed_artifacts_keep_exit_code_contract(tmp_path_factory, artifact):
    kind, text = artifact
    work = tmp_path_factory.mktemp("fuzz")
    path = work / ("q.csv" if kind == "csv" else "sd.json")
    path.write_text(text)
    subs = (("forward", "--potential"),) if kind == "csv" else (("validate", "--data"), ("riemann", "--data"), ("invert", "--data"))
    for sub, flag in subs:
        rc = cli.main([sub, flag, str(path), "--out", str(work / sub)] + _FUZZ_GRID.get(sub, []))
        assert rc in (0, 2, 3, 4, 5, 6), (sub, rc, text[:200])
        # only a zero-byte artifact is a usage error: a refused flag would
        # end every example in 2 and test nothing
        assert rc != 2 or text == "", (sub, text[:200])
