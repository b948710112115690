import csv
import io
import json
import math
import threading
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperfock import errors, fock, wigner_grid
from hyperfock import cli
from hyperfock.cli import FAMILIES, main
from hyperfock.errors import (
    IndexOutOfRange,
    InvalidParams,
    NegativeCoefficient,
    QuadratureNotConverged,
    TruncationTooSmall,
    ZeroState,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_state_pahs_has_hole(capsys):
    code, out, _ = run_cli(
        capsys, "state", "pahs", "--L", "60", "--M", "5", "--eta", "0.2", "--k", "2"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["pnd"][0] == 0.0 and doc["pnd"][1] == 0.0
    assert doc["dim"] == 8
    assert np.isclose(sum(doc["pnd"]), 1.0, atol=1e-12)


def test_state_fock(capsys):
    code, out, _ = run_cli(capsys, "state", "fock", "--n", "1", "--dim", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["amplitudes"] == [[0.0, 0.0], [1.0, 0.0]]


def test_state_hypergeometric_integer_case(capsys):
    code, out, _ = run_cli(
        capsys, "state", "hypergeometric", "--L", "20", "--M", "3", "--eta", "0.5"
    )
    assert code == 0
    doc = json.loads(out)
    want = np.array([120, 450, 450, 120]) / 1140.0
    assert np.allclose(doc["pnd"], want, atol=1e-14)


def test_measures_vacuum(capsys):
    code, out, _ = run_cli(capsys, "measures", "fock", "--n", "0", "--dim", "1")
    assert code == 0
    doc = json.loads(out)
    m = doc["measures"]
    assert m["mu"] == "undefined"
    assert m["anticlassicality"] == 0.0
    assert m["anticlassicality_with_vacuum"] == 1.0
    assert m["concurrence"] == 0.0
    assert abs(m["wln"]) < 1e-4
    assert doc["metadata"]["wln_log_base"] == "e"


def test_measures_single_photon(capsys):
    code, out, _ = run_cli(capsys, "measures", "fock", "--n", "1")
    assert code == 0
    doc = json.loads(out)
    m = doc["measures"]
    assert m["mu"] == "inf"
    assert m["anticlassicality"] == 1.0
    assert abs(m["concurrence"] - 1.0) < 1e-12
    assert abs(m["wln"] - math.log(4.0 * math.exp(-0.5) - 1.0)) < 1e-4
    assert doc["metadata"]["wln_refinement_delta"] < 1e-4


def test_measures_csv_schema(capsys):
    code, out, _ = run_cli(
        capsys,
        "measures", "pahs", "--M", "4", "--eta", "0.3", "--k", "1",
        "--measures", "mu,anticlassicality,mean_n",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(out.strip().split("\n")))
    assert rows[0] == [
        "L", "M", "eta", "k",
        "anticlassicality", "anticlassicality_with_vacuum", "mean_n", "mu",
    ]
    assert len(rows) == 2


def test_sweep_concurrence_rises_with_k(capsys, tmp_path):
    out_path = tmp_path / "sweep.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep", "pahs", "--M", "5", "--eta", "0.1",
        "--param", "k", "--values", "0,1,2,3,4",
        "--measures", "concurrence", "--out", str(out_path),
    )
    assert code == 0
    rows = list(csv.DictReader(out_path.open()))
    assert [r["k"] for r in rows] == ["0", "1", "2", "3", "4"]
    c = [float(r["concurrence"]) for r in rows]
    assert all(b >= a for a, b in zip(c, c[1:]))
    assert all(r["error"] == "" for r in rows)


def test_sweep_single_value_matches_measures(capsys, tmp_path):
    out_path = tmp_path / "row.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep", "pahs", "--M", "4", "--eta", "0.3",
        "--param", "k", "--values", "1",
        "--measures", "mu,concurrence,mean_n", "--out", str(out_path),
    )
    assert code == 0
    row = next(csv.DictReader(out_path.open()))
    code, out, _ = run_cli(
        capsys,
        "measures", "pahs", "--M", "4", "--eta", "0.3", "--k", "1",
        "--measures", "mu,concurrence,mean_n",
    )
    assert code == 0
    doc = json.loads(out)
    assert float(row["mu"]) == doc["measures"]["mu"]
    assert float(row["concurrence"]) == doc["measures"]["concurrence"]
    assert float(row["mean_n"]) == doc["measures"]["mean_n"]


def test_sweep_records_row_errors(capsys, tmp_path):
    out_path = tmp_path / "partial.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep", "pahs", "--M", "5", "--L", "100",
        "--param", "eta", "--values", "0.2,1.5,0.4",
        "--measures", "mu", "--out", str(out_path),
    )
    assert code == 2
    rows = list(csv.DictReader(out_path.open()))
    assert len(rows) == 3
    assert rows[0]["error"] == "" and rows[2]["error"] == ""
    assert "eta" in rows[1]["error"]
    assert rows[1]["mu"] == ""


def _refuse_thread_start(thread):
    raise AssertionError("the sweep started a thread")


def test_sweep_is_deterministic_and_jobs_invariant(capsys, tmp_path, monkeypatch):
    paths = [tmp_path / f"d{i}.csv" for i in range(3)]
    argsets = [
        ("--jobs", "1"), ("--jobs", "1"), ("--jobs", "3"),
    ]
    for path, jobs in zip(paths, argsets):
        with monkeypatch.context() as patch:
            if jobs != ("--jobs", "1"):
                # --jobs is accepted but rows run one at a time, in this thread
                patch.setattr(threading.Thread, "start", _refuse_thread_start)
            code, _, _ = run_cli(
                capsys,
                "sweep", "binomial", "--M", "6",
                "--param", "eta", "--values", "0.1,0.3,0.5,0.7,0.9",
                "--measures", "mu,anticlassicality,concurrence,mean_n",
                "--out", str(path), *jobs,
            )
        assert code == 0
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_sweep_rejects_unknown_param(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "sweep", "fock", "--param", "eta", "--values", "0.5",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "not sweepable" in err


def test_wigner_grid_command(capsys, tmp_path):
    out_path = tmp_path / "grid.csv"
    code, out, _ = run_cli(
        capsys,
        "wigner", "fock", "--n", "0", "--dim", "1",
        "--nx", "41", "--np", "41", "--out", str(out_path),
    )
    assert code == 0
    sidecar = json.loads(out)
    assert sidecar["w_min"] > 0.0
    assert abs(sidecar["integral"] - 1.0) < 1e-3
    assert json.loads((tmp_path / "grid.csv.json").read_text()) == sidecar
    assert sidecar["nx"] == 41 and sidecar["np"] == 41
    with out_path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "p", "W"]
    assert len(rows) == 1 + 41 * 41
    # the rows streamed to the file are the text to_csv_text builds
    grid = wigner_grid(fock(0, 1), nx=41, n_p=41)
    assert out_path.read_bytes() == grid.to_csv_text().encode()


def test_wigner_grid_with_non_finite_values_exits_3(capsys, tmp_path):
    # the unscaled Laguerre sums of |300> overflow far out in phase space;
    # the run reports that by its exit code and error line alone, with no
    # numpy warning on stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys,
            "wigner", "fock", "--n", "300", "--nx", "5", "--np", "5",
            "--xmin", "-27", "--xmax", "27", "--pmin", "-27", "--pmax", "27",
            "--out", str(tmp_path / "g.csv"),
        )
    assert code == 3
    assert caught == []
    assert out == "" and err.startswith("error:") and err.count("\n") == 1
    assert "not finite" in err
    assert not any(tmp_path.iterdir())


def test_largest_supported_state_runs(capsys):
    code, out, _ = run_cli(capsys, "state", "pahs", "--M", "1000", "--eta", "0.3")
    assert code == 0
    assert json.loads(out)["dim"] == 1001


def test_measures_smoke_row_all_finite(capsys):
    code, out, _ = run_cli(
        capsys, "measures", "pahs", "--M", "10", "--eta", "0.9", "--k", "1"
    )
    assert code == 0
    m = json.loads(out)["measures"]
    for name in ("mu", "anticlassicality", "mean_n"):
        assert math.isfinite(m[name])
    assert m["concurrence"] > 0.0
    assert m["wln"] > 0.0


def test_unconverged_quadrature_exit_code(capsys):
    code, _, err = run_cli(
        capsys,
        "measures", "pahs", "--M", "4", "--eta", "0.3", "--k", "1",
        "--measures", "wln", "--wln-tolerance", "1e-13",
    )
    assert code == 3
    assert "log-negativity" in err


def test_wln_converges_after_second_node_doubling(capsys):
    # WLN moves by 4.7e-5 from 512 x 256 to 1024 x 512 nodes, above the
    # tolerance 1e-5, and by 2.5e-6 one doubling later
    code, out, _ = run_cli(
        capsys,
        "measures", "pahs", "--M", "12", "--eta", "0.928008", "--k", "2",
        "--L-coeff", "10", "--measures", "wln", "--wln-tolerance", "1e-5",
    )
    assert code == 0
    meta = json.loads(out)["metadata"]
    assert meta["wln_nodes"] == 2048 and meta["wln_angular_nodes"] == 1024
    assert meta["wln_refinement_delta"] <= 1e-4


def test_sweep_flags_unconverged_rows(capsys, tmp_path):
    out_path = tmp_path / "unconverged.csv"
    code, _, _ = run_cli(
        capsys,
        "sweep", "pahs", "--M", "4", "--eta", "0.3",
        "--param", "k", "--values", "1",
        "--measures", "wln", "--wln-tolerance", "1e-13",
        "--out", str(out_path),
    )
    assert code == 3
    row = next(csv.DictReader(out_path.open()))
    assert "log-negativity" in row["error"]
    assert row["wln"] == ""


@pytest.mark.parametrize("values", ["1,-1", "-1,1"])
def test_sweep_parameter_error_outranks_unconverged_row(capsys, tmp_path, values):
    out_path = tmp_path / "mixed.csv"
    code, out, _ = run_cli(
        capsys,
        "sweep", "pahs", "--M", "4", "--eta", "0.3",
        "--param", "k", f"--values={values}",
        "--measures", "wln", "--wln-tolerance", "1e-13",
        "--out", str(out_path),
    )
    assert code == 2
    assert out.endswith("(2 failed)\n")
    errors_by_k = {r["k"]: r["error"] for r in csv.DictReader(out_path.open())}
    assert "nonnegative integer" in errors_by_k["-1"]
    assert "log-negativity" in errors_by_k["1"]


def test_sweep_requires_a_measure(capsys, tmp_path):
    code, _, _ = run_cli(
        capsys,
        "sweep", "fock", "--param", "n", "--values", "1",
        "--measures", " ", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2


def test_invalid_params_exit_code(capsys):
    code, _, err = run_cli(capsys, "measures", "pahs", "--M", "5", "--eta", "1.5")
    assert code == 2
    assert "eta" in err


def test_every_parameter_error_is_invalid_params():
    for cls in (InvalidParams, ZeroState, NegativeCoefficient,
                TruncationTooSmall, IndexOutOfRange):
        assert issubclass(cls, InvalidParams) and issubclass(cls, ValueError)
    assert issubclass(IndexOutOfRange, IndexError)


# the documented exit code of every failure a command may raise
_EXIT_CODES = {
    InvalidParams: 2,
    ZeroState: 2,
    NegativeCoefficient: 2,
    TruncationTooSmall: 2,
    IndexOutOfRange: 2,
    QuadratureNotConverged: 3,
    OSError: 4,
}


@pytest.mark.parametrize(
    "cls",
    [c for c in vars(errors).values() if isinstance(c, type)] + [OSError],
    ids=lambda c: c.__name__,
)
def test_each_failure_gives_its_exit_code(capsys, monkeypatch, cls):
    def fail(*args):
        raise cls("boom")

    monkeypatch.setattr(cli, "_build_state", fail)
    code, out, err = run_cli(capsys, "state", "fock", "--n", "1")
    assert (code, out, err) == (_EXIT_CODES[cls], "", "error: boom\n")


def test_main_calls_in_a_row_share_no_flags(capsys):
    """main reuses one parser; no call may see the flags of the last."""
    argv = ["measures", "pahs", "--M", "4", "--eta", "0.3", "--k", "1",
            "--measures", "mu,mean_n"]
    code, out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0 and out.startswith("L,M,eta,k,mean_n,mu\n")
    code, json_out, _ = run_cli(capsys, *argv)
    assert code == 0 and json.loads(json_out)["params"]["M"] == 4
    with pytest.raises(SystemExit) as exc:  # argparse usage error
        main([*argv, "--format", "xml"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    code, again, _ = run_cli(capsys, *argv)
    assert code == 0 and again == json_out
    assert cli._parser.cache_info().misses == 1  # built once in this process


def test_missing_required_flag_exit_code(capsys):
    code, _, err = run_cli(capsys, "state", "pahs", "--eta", "0.5")
    assert code == 2
    assert "--M" in err


def test_io_error_exit_code(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "sweep", "fock", "--param", "n", "--values", "0,1",
        "--measures", "mu", "--out", str(tmp_path / "missing" / "x.csv"),
    )
    assert code == 4


def test_output_dir_env_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("HYPERFOCK_OUTPUT_DIR", str(tmp_path))
    code, _, _ = run_cli(
        capsys,
        "sweep", "fock", "--param", "n", "--values", "0,1,2",
        "--measures", "mean_n", "--out", "env_rows.csv",
    )
    assert code == 0
    rows = list(csv.DictReader((tmp_path / "env_rows.csv").open()))
    assert [r["mean_n"] for r in rows] == ["0", "1", "2"]


@pytest.mark.parametrize(
    "argv, reason",
    [
        ("measures binomial --M 4 --eta 0.5 --k -1", "nonnegative integer"),
        ("sweep pahs --M 4 --eta 0.3 --param k --values a,b --out {tmp}/x.csv",
         "finite number"),
        ("sweep pahs --M 4 --eta 0.3 --param eta --values 0.2,nan --out {tmp}/x.csv",
         "finite number"),
        ("measures coherent --alpha nan", "finite number"),
        ("measures coherent --alpha inf", "finite number"),
        ("measures coherent --alpha 1e200", "truncation"),
        ("measures pahs --M 4 --eta 0.3 --quad-cutoff nan --measures wln",
         "finite number"),
        ("wigner fock --n 1 --xmin nan --out {tmp}/g.csv", "finite number"),
        ("measures pahs --M 3 --eta 0.5 --L inf", "finite number"),
        # the pinned L = 2 M / eta overflows
        ("measures pahs --M 3 --eta 1e-320", "finite real, got inf"),
        # at most 1001 Fock levels, checked before any array is sized
        ("sweep pahs --eta 0.3 --param M --values 1e200 --out {tmp}/x.csv",
         "1001 Fock levels"),
        ("measures pahs --M 100000000000 --eta 0.3 --measures mu", "1001 Fock levels"),
        ("measures pahs --M 1000 --eta 0.3 --k 1 --measures mu", "1001 Fock levels"),
        ("measures fock --n 1001 --measures mu", "1001 Fock levels"),
        ("measures coherent --alpha 300", "truncation"),
        # node counts above their caps, checked before any array is sized
        ("wigner fock --n 1 --nx 1002 --np 5 --out {tmp}/g.csv", "at most 1001"),
        ("wigner fock --n 1 --nx 5 --np 1002 --out {tmp}/g.csv", "at most 1001"),
        ("measures fock --n 1 --measures wln --quad-nodes 4097", "at most 4096"),
        ("measures fock --n 1 --measures wln --quad-angular-nodes 2049",
         "at most 2048"),
    ],
)
def test_bad_flag_values_exit_2(capsys, tmp_path, argv, reason):
    try:
        code = main(argv.format(tmp=tmp_path).split())
    except SystemExit as exc:  # argparse usage error
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and reason in err
    assert not any(tmp_path.iterdir())


class _StopAfterValidation(Exception):
    pass


def test_node_counts_at_their_caps_pass_validation(tmp_path, monkeypatch):
    seen = []

    def record(*args, **kwargs):
        seen.append(kwargs)
        raise _StopAfterValidation

    monkeypatch.setattr(cli, "wigner_grid", record)
    monkeypatch.setattr(cli, "measure_report", record)
    with pytest.raises(_StopAfterValidation):
        main(["wigner", "fock", "--n", "1", "--nx", "1001", "--np", "1001",
              "--out", str(tmp_path / "g.csv")])
    with pytest.raises(_StopAfterValidation):
        main(["measures", "fock", "--n", "1", "--measures", "wln",
              "--quad-nodes", "4096", "--quad-angular-nodes", "2048"])
    grid, measures = seen
    assert grid["nx"] == grid["n_p"] == 1001
    assert (measures["quad"].nodes, measures["quad"].angular_nodes) == (4096, 2048)


_FLOAT_EDGES = ("nan", "inf", "-inf", "-1", "0", "1e-320", "0.5", "1", "1.5", "1e200")
_FLOAT_FLAGS = ("--L", "--L-coeff", "--eta", "--alpha", "--quad-cutoff", "--wln-tolerance")
_INT_FLAGS = ("--M", "--k", "--dim", "--n")
_VALID_FLAGS = {
    "pahs": "--M=4 --eta=0.3",
    "hypergeometric": "--M=4 --eta=0.3",
    "binomial": "--M=4 --eta=0.3",
    "coherent": "--alpha=1.5",
    "fock": "--n=2",
}


@st.composite
def _measures_argv(draw):
    """A valid measures call with up to three flags overridden (the last
    value of a flag wins) by edge values. Integers stay <= 30 and alpha is
    at most 1.5 or the rejected 1e200, so no example asks for more than
    about 60 Fock levels."""
    family = draw(st.sampled_from(FAMILIES))
    argv = ["measures", family, *_VALID_FLAGS[family].split(),
            "--measures", "mu,anticlassicality,mean_n"]
    flags = st.sampled_from(_FLOAT_FLAGS + _INT_FLAGS)
    for flag in draw(st.lists(flags, max_size=3, unique=True)):
        if flag in _FLOAT_FLAGS:
            value = draw(st.sampled_from(_FLOAT_EDGES))
        else:
            value = draw(st.integers(-3, 30))
        argv.append(f"{flag}={value}")
    return argv


@settings(deadline=None, max_examples=200)
@given(_measures_argv())
def test_flag_values_give_documented_exit_codes(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage error
            code = exc.code
    assert code in (0, 2, 3, 4)
    assert code == 0 or "error:" in err.getvalue()
