import csv
import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfline import characterize, cli
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


def test_forward_artifacts_and_determinism(tmp_path, sech2_csv):
    args = ["forward", "--potential", str(sech2_csv), "--kmax", "100", "--dk", "0.05"]
    rc1 = cli.main(args + ["--out", str(tmp_path / "a")])
    rc2 = cli.main(args + ["--out", str(tmp_path / "b")])
    assert rc1 == 0 and rc2 == 0
    for name in ("scattering.json", "phase_shift.csv", "jost.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_write_csv_bytes_match_csv_writer(tmp_path):
    # the reference is the csv.writer loop the artifacts were first written
    # with; rows span several write blocks
    values = np.array([-0.0, 5e-324, 1e308, np.nan, np.inf, -np.inf, 0.1 + 0.2, -1.5])
    columns = [np.resize(values, 2 * cli._CSV_BLOCK + 3), np.resize(values[::-1], 2 * cli._CSV_BLOCK + 3)]
    cli._write_csv(tmp_path / "got.csv", ["k", "f"], columns)
    with (tmp_path / "ref.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "f"])
        for row in zip(*columns):
            w.writerow([repr(float(v)) for v in row])
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_extract_subcommand(tmp_path):
    x = np.arange(-12.0, 40.0 + 1e-9, 0.01)
    F = 2 * np.exp(-x) + 3 * np.exp(-2 * x)
    path = tmp_path / "f.csv"
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "F"])
        for xi, fi in zip(x, F):
            w.writerow([repr(float(xi)), repr(float(fi))])
    rc = cli.main(["extract", "--f-data", str(path), "--out", str(tmp_path / "e")])
    assert rc == 0
    doc = json.loads((tmp_path / "e" / "scattering.json").read_text())
    assert len(doc["bound_states"]) == 2
    assert doc["bound_states"][0]["kappa"] == pytest.approx(1.0, abs=1e-4)
    assert doc["bound_states"][1]["s"] == pytest.approx(3.0, abs=1e-4)


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
        # unique prefixes of --dk, --force and --stripping-tol
        ("forward", "--d", "0.5"),
        ("invert", "--f", None),
        ("extract", "--strip", "0.1"),
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
        ("extract", "--stripping-tol", "inf"),
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
