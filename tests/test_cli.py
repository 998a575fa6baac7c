import json
import math

import numpy as np
import pytest

from privsvm.cli import main
from privsvm.mechanisms import (
    calibrate_noise_privacy_rff,
    calibrate_noise_utility_rff,
    calibrate_rff_dim_hinge,
)
from privsvm.model_io import load_model, save_model
from privsvm.mechanisms import IDENTITY_MAP, PrivateModel
from privsvm.kernels import linear_kernel

TWO_POINT = "1.0,0.0,+1\n-1.0,0.0,-1\n"


@pytest.fixture()
def data_file(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text(TWO_POINT)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_train_happy_path(capsys, data_file, tmp_path):
    out_path = str(tmp_path / "model.json")
    code, out, err = run(capsys, [
        "train", "--data", data_file, "--kernel", "linear",
        "--c", "2.0", "--out", out_path,
    ])
    assert code == 0
    model = load_model(out_path)
    assert model.kernel == linear_kernel()
    assert json.loads(out)["written"] == out_path


def test_train_reports_solver_diagnostics(capsys, tmp_path):
    rng = np.random.default_rng(12)
    n = 30
    points = rng.uniform(-1, 1, (n, 2))
    labels = np.where(rng.random(n) < 0.5, 1, -1)
    data = tmp_path / "d.csv"
    data.write_text("".join(f"{x},{y},{l:+d}\n" for (x, y), l in zip(points, labels)))
    out_path = str(tmp_path / "model.json")
    code, out, _ = run(capsys, [
        "train", "--data", str(data), "--kernel", "rbf", "--sigma", "0.5",
        "--c", "100", "--out", out_path,
    ])
    assert code == 0
    summary = json.loads(out)
    model = load_model(out_path)
    assert summary["residual"] == model.residual <= 1e-8
    assert summary["at_lower"] == np.count_nonzero(model.alphas <= 0.0)
    assert summary["at_upper"] == np.count_nonzero(model.alphas >= 100 / n)
    assert summary["at_lower"] > 0 and summary["at_upper"] > 0
    assert summary["at_lower"] + summary["at_upper"] <= n


def test_train_rbf_requires_sigma(capsys, data_file, tmp_path):
    code, _, err = run(capsys, [
        "train", "--data", data_file, "--kernel", "rbf",
        "--c", "1.0", "--out", str(tmp_path / "m.json"),
    ])
    assert code == 2
    assert "sigma" in err


def test_unknown_flag_is_usage_error(capsys, data_file):
    code, _, _ = run(capsys, ["train", "--data", data_file, "--nope"])
    assert code == 2


def test_bad_label_is_computation_error(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,0.0,2\n0.0,1.0,-1\n")
    code, _, err = run(capsys, [
        "train", "--data", str(bad), "--kernel", "linear",
        "--c", "1.0", "--out", str(tmp_path / "m.json"),
    ])
    assert code == 1
    assert "label" in err


def test_predict_two_point_model(capsys, data_file, tmp_path):
    model_path = str(tmp_path / "model.json")
    assert main(["train", "--data", data_file, "--kernel", "linear",
                 "--c", "2.0", "--out", model_path]) == 0
    capsys.readouterr()
    probe = tmp_path / "probe.csv"
    probe.write_text("2.0,0.0\n-2.0,0.0\n")
    code, out, _ = run(capsys, ["predict", "--model", model_path, "--data", str(probe)])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "2.0 +1"
    assert lines[1] == "-2.0 -1"


def test_predict_accepts_labeled_rows(capsys, data_file, tmp_path):
    model_path = str(tmp_path / "model.json")
    main(["train", "--data", data_file, "--kernel", "linear",
          "--c", "2.0", "--out", model_path])
    capsys.readouterr()
    code, out, _ = run(capsys, ["predict", "--model", model_path, "--data", data_file])
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_predict_reads_quoted_fields_like_train(capsys, tmp_path):
    quoted = tmp_path / "quoted.csv"
    quoted.write_text('"1.0","0.0",+1\n"-1.0","0.0",-1\n')
    model_path = str(tmp_path / "model.json")
    assert main(["train", "--data", str(quoted), "--kernel", "linear",
                 "--c", "2.0", "--out", model_path]) == 0
    capsys.readouterr()
    code, out, err = run(capsys, ["predict", "--model", model_path, "--data", str(quoted)])
    assert code == 0, err
    assert out.strip().splitlines() == ["1.0 +1", "-1.0 -1"]


def test_predict_rejects_mixed_row_forms(capsys, data_file, tmp_path):
    model_path = str(tmp_path / "model.json")
    assert main(["train", "--data", data_file, "--kernel", "linear",
                 "--c", "2.0", "--out", model_path]) == 0
    capsys.readouterr()
    mixed = tmp_path / "mixed.csv"
    mixed.write_text("2.0,0.0\n-2.0,0.0,-1\n")
    code, _, err = run(capsys, ["predict", "--model", model_path, "--data", str(mixed)])
    assert code == 1
    assert "row 2" in err and "ragged" in err


def test_predict_zero_model_sign_tie(capsys, tmp_path):
    model = PrivateModel(np.zeros(2), IDENTITY_MAP, linear_kernel(), 1.0, 0.1, n=2, dim=2)
    model_path = tmp_path / "zero.json"
    save_model(model, model_path)
    probe = tmp_path / "probe.csv"
    probe.write_text("0.5,0.5\n-3.0,2.0\n")
    code, out, _ = run(capsys, ["predict", "--model", str(model_path), "--data", str(probe)])
    assert code == 0
    for line in out.strip().splitlines():
        assert line == "0.0 +1"


def test_private_train_finite_deterministic(capsys, data_file, tmp_path):
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    base = ["private-train-finite", "--data", data_file, "--c", "2.0",
            "--lambda", "0.1", "--seed", "7"]
    assert main(base + ["--out", out1]) == 0
    assert main(base + ["--out", out2]) == 0
    capsys.readouterr()
    assert open(out1).read() == open(out2).read()
    model = load_model(out1)
    assert model.seed == 7
    assert model.claimed["kappa"] == pytest.approx(1.0)


def test_private_train_rff_writes_map(capsys, data_file, tmp_path):
    out_path = str(tmp_path / "rff.json")
    code, out, _ = run(capsys, [
        "private-train-rff", "--data", data_file, "--kernel", "rbf", "--sigma", "1.0",
        "--c", "1.0", "--lambda", "0.2", "--d-hat", "8", "--seed", "3",
        "--out", out_path,
    ])
    assert code == 0
    model = load_model(out_path)
    assert model.feature_map.d_hat == 8
    assert model.weights.shape == (16,)


def test_private_train_requires_seed(capsys, data_file, tmp_path):
    code, _, _ = run(capsys, [
        "private-train-finite", "--data", data_file, "--c", "1.0",
        "--lambda", "0.1", "--out", str(tmp_path / "m.json"),
    ])
    assert code == 2


def test_calibrate_rff_matches_library(capsys):
    code, out, _ = run(capsys, [
        "calibrate", "--mechanism", "rff", "--beta", "1", "--eps", "0.5",
        "--delta", "0.1", "--c", "1", "--n", "100", "--dim", "2",
        "--sigma", "1", "--diam", "2",
    ])
    assert code == 0
    doc = json.loads(out)
    d_hat = calibrate_rff_dim_hinge(0.5, 0.1, 1.0, 2, math.sqrt(2.0), 2.0)
    assert doc["d_hat"] == d_hat
    assert doc["lambda_min_privacy"] == pytest.approx(
        calibrate_noise_privacy_rff(1.0, 1.0, d_hat, 1.0, 100), rel=1e-12
    )
    assert doc["lambda_max_utility"] == pytest.approx(
        calibrate_noise_utility_rff(0.5, 0.1, d_hat), rel=1e-12
    )
    assert doc["feasible"] == (doc["lambda_min_privacy"] <= doc["lambda_max_utility"])


def test_calibrate_finite_needs_kappa_phi(capsys):
    code, _, err = run(capsys, [
        "calibrate", "--mechanism", "finite", "--beta", "1", "--eps", "0.5",
        "--delta", "0.1", "--c", "1", "--n", "100", "--dim", "2",
    ])
    assert code == 2
    assert "kappa" in err


def test_bounds_rbf(capsys):
    code, out, _ = run(capsys, ["bounds", "--lower", "rbf", "--delta", "0.05",
                                "--sigma", "0.3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["N"] == 11
    assert doc["bound"] == pytest.approx(math.log(190.0), rel=1e-12)


def test_bounds_linear(capsys):
    code, out, _ = run(capsys, ["bounds", "--lower", "linear", "--delta", "0.05"])
    assert code == 0
    assert json.loads(out)["bound"] == pytest.approx(math.log(19.0), rel=1e-12)


def test_bounds_rbf_sigma_out_of_range(capsys):
    code, _, err = run(capsys, ["bounds", "--lower", "rbf", "--delta", "0.05",
                                "--sigma", "0.9"])
    assert code == 1
    assert "0.8493" in err


def test_audit_sensitivity_smoke(capsys):
    code, out, _ = run(capsys, [
        "audit", "--name", "sensitivity", "--seed", "1", "--trials", "5",
        "--n", "6", "--dim", "2", "--c", "1.0",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["audit"]["name"] == "sensitivity"
    assert doc["audit"]["pass"] is True


def test_audit_separation_needs_no_seed(capsys):
    code, out, _ = run(capsys, [
        "audit", "--name", "separation", "--c", "1.0", "--n", "8", "--sigma", "0.3",
    ])
    assert code == 0
    assert json.loads(out)["audit"]["pass"] is True


def test_audit_randomized_requires_seed(capsys):
    code, _, err = run(capsys, [
        "audit", "--name", "sensitivity", "--trials", "5",
    ])
    assert code == 2
    assert "--seed" in err


def test_audit_kernel_approx_via_cli(capsys):
    code, out, _ = run(capsys, [
        "audit", "--name", "kernel-approx", "--seed", "2", "--trials", "10",
        "--kernel", "laplacian", "--d-hat", "200", "--dim", "1",
        "--eps", "0.5", "--grid", "21",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["audit"]["name"] == "kernel_approx"
    assert doc["audit"]["details"]["delta_inverted"] == "inf"  # no finite bound


def test_audit_privacy_ratio_via_cli(capsys, tmp_path):
    d1 = tmp_path / "d1.csv"
    d2 = tmp_path / "d2.csv"
    d1.write_text("1.0,+1\n-1.0,-1\n0.5,-1\n")
    d2.write_text("1.0,+1\n-1.0,-1\n0.5,+1\n")
    code, out, _ = run(capsys, [
        "audit", "--name", "privacy-ratio", "--seed", "6", "--trials", "2000",
        "--data", str(d1), "--data2", str(d2), "--c", "1.0",
        "--lambda", "0.4", "--beta", "1.0", "--bins", "15", "--coord", "0",
        "--dim", "1",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["audit"]["name"] == "privacy_ratio"
    assert doc["audit"]["details"]["smoke_test"] is True


def test_audit_utility_via_cli(capsys, tmp_path):
    rng = np.random.default_rng(0)
    rows = []
    for i in range(12):
        x = rng.uniform(-1, 1, 2)
        y = 1 if x.sum() > 0 else -1
        rows.append(f"{float(x[0])!r},{float(x[1])!r},{y:+d}")
    data = tmp_path / "u.csv"
    data.write_text("\n".join(rows) + "\n")
    code, out, _ = run(capsys, [
        "audit", "--name", "utility", "--seed", "4", "--trials", "20",
        "--data", str(data), "--c", "1.0", "--lambda", "0.01",
        "--eps", "0.5", "--delta", "0.2", "--grid", "11",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["audit"]["name"] == "utility"
