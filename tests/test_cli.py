import csv
import json
import math

import numpy as np

from hyperfock.cli import main


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


def test_sweep_is_deterministic_and_jobs_invariant(capsys, tmp_path):
    paths = [tmp_path / f"d{i}.csv" for i in range(3)]
    argsets = [
        ("--jobs", "1"), ("--jobs", "1"), ("--jobs", "3"),
    ]
    for path, jobs in zip(paths, argsets):
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
    with out_path.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "p", "W"]
    assert len(rows) == 1 + 41 * 41


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
    # WLN moves by 1.137e-4 from 512 x 256 to 1024 x 512 nodes, above the
    # default tolerance 1e-4, and by 1.9e-5 one doubling later
    code, out, _ = run_cli(
        capsys,
        "measures", "pahs", "--M", "15", "--eta", "0.930485", "--k", "3",
        "--L-coeff", "10", "--measures", "wln",
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
