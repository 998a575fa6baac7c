import hashlib
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from privsvm import cli
from privsvm.cli import build_parser, main
from privsvm.mechanisms import (
    calibrate_noise_privacy_finite,
    calibrate_noise_privacy_rff,
    calibrate_noise_utility_rff,
    calibrate_rff_dim_hinge,
    calibration_report_finite,
)
from privsvm.model_io import load_model, save_model
from privsvm.mechanisms import PrivateModel, noiseless_weights
from privsvm.data import DomainBox, load_csv
from privsvm.kernels import linear_kernel, rbf_kernel
from privsvm.noise import sample_laplace
from privsvm.rff import RandomFeatureMap

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


@pytest.mark.parametrize("argv, message", [
    (["train", "--data", "DATA", "--kernel", "linear", "--sigma", "1.0", "--c", "1.0",
      "--out", "OUT"], "--sigma only applies to the rbf kernel"),
    (["bounds", "--lower", "rbf", "--delta", "0.05"], "--lower rbf requires --sigma"),
    (["audit", "--name", "sensitivity", "--trials", "5"],
     "audit --name sensitivity is randomized and requires --seed"),
    (["audit", "--name", "kernel-approx", "--seed", "1", "--sigma", "1.0", "--eps", "0.5"],
     "audit --name kernel-approx requires --d-hat"),
], ids=["sigma-with-linear", "bounds-rbf-no-sigma", "audit-no-seed", "audit-no-d-hat"])
def test_missing_or_misplaced_flag_is_one_usage_error_line(capsys, data_file, tmp_path, argv,
                                                           message):
    out_path = tmp_path / "m.json"
    argv = [{"OUT": str(out_path), "DATA": data_file}.get(a, a) for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"
    assert not out_path.exists()


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


@pytest.mark.parametrize("argv", [
    ["train", "--kernel", "linear", "--c", "inf"],
    ["train", "--kernel", "linear", "--c", "nan"],
    ["private-train-finite", "--c", "inf", "--lambda", "0.1"],
    ["private-train-finite", "--c", "1.0", "--lambda", "nan"],
    ["private-train-rff", "--kernel", "rbf", "--sigma", "1.0", "--c", "1.0",
     "--lambda", "inf", "--d-hat", "4", "--seed", "1"],
], ids=["train-c-inf", "train-c-nan", "finite-c-inf", "finite-lambda-nan", "rff-lambda-inf"])
def test_non_finite_c_or_lambda_is_an_error_line(capsys, data_file, tmp_path, argv):
    # a model trained with C = inf used to be written, and then failed its
    # own checksum on load
    out_path = tmp_path / "m.json"
    code, out, err = run(capsys, argv + ["--data", data_file, "--out", str(out_path)])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "must be finite and positive" in err
    assert not out_path.exists()


@pytest.mark.parametrize("argv, name", [
    (["calibrate", "--mechanism", "finite", "--beta", "1", "--eps", "0.5", "--delta", "0.1",
      "--c", "nan", "--n", "100", "--dim", "2"], "C"),
    (["train", "--kernel", "linear", "--c", "1.0", "--tol", "nan", "--out", "OUT",
      "--data", "DATA"], "tol"),
    (["audit", "--name", "kernel-approx", "--seed", "1", "--sigma", "1.0", "--d-hat", "0",
      "--eps", "0.5"], "d_hat"),
], ids=["calibrate-c-nan", "train-tol-nan", "kernel-approx-d-hat-0"])
def test_nan_parameter_is_an_error_line(capsys, data_file, tmp_path, argv, name):
    # NaN passes a check written as x <= 0: calibrate printed "nan" and
    # exited 0, and train swept until its sweep limit. kernel-approx's
    # d_hat = 0 was reported under the feature sampler's name, count
    out_path = tmp_path / "m.json"
    argv = [{"OUT": str(out_path), "DATA": data_file}.get(a, a) for a in argv]
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {name}") and err.count("\n") == 1
    assert not out_path.exists()


@pytest.mark.parametrize("claim, name", [
    (["--beta", "-3"], "beta"),
    (["--beta", "inf"], "beta"),
    (["--eps", "nan"], "epsilon"),
    (["--eps", "0"], "epsilon"),
    (["--delta", "7"], "delta"),
    (["--delta", "0"], "delta"),
], ids=["beta-negative", "beta-inf", "eps-nan", "eps-zero", "delta-7", "delta-0"])
def test_release_refuses_malformed_claim(capsys, data_file, tmp_path, claim, name):
    # a release used to write such a claim into `claimed` and exit 0
    out_path = tmp_path / "m.json"
    code, out, err = run(capsys, ["private-train-finite", "--data", data_file, "--c", "1.0",
                                  "--lambda", "0.1", "--out", str(out_path)] + claim)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert name in err
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["calibrate", "--mechanism", "finite", "--beta", "1", "--eps", "0.5", "--delta", "0.1",
     "--c", "1", "--n", "100", "--dim", "0"],
    ["audit", "--name", "kernel-approx", "--seed", "1", "--sigma", "1.0", "--d-hat", "10",
     "--eps", "0.25", "--dim", "0"],
    ["audit", "--name", "sensitivity", "--seed", "1", "--n", "10", "--dim", "-1"],
], ids=["calibrate-dim-0", "kernel-approx-dim-0", "sensitivity-dim-minus-1"])
def test_box_dimension_below_one_is_a_named_error(capsys, argv):
    # each used to end deep in numpy (an empty reduction, an empty stack,
    # a negative array size)
    code, out, err = run(capsys, argv)
    assert code == 1
    assert out == ""
    assert err == "error: box dimension must be at least 1\n"


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


FINITE = {"format_version": 1, "mechanism": "private_finite", "kernel": {"family": "linear"},
          "C": 1.0, "lambda": 0.1, "n": 2, "dim": 2, "weights": [0.5, -0.5]}
RFF = {**FINITE, "mechanism": "private_rff", "kernel": {"family": "rbf", "sigma": 1.0},
       "d_hat": 4, "omegas": [[0.0, 0.0]] * 4, "weights": [0.0] * 8}
SVM = {"format_version": 1, "mechanism": "svm", "kernel": {"family": "linear"}, "C": 1.0,
       "alphas": [0.25, 0.25], "entries": [[1.0, 0.0, 1], [-1.0, 0.0, -1]],
       "objective": 0.25, "residual": 0.0, "sweeps": 1}


@pytest.mark.parametrize("doc, field", [
    ({"format_version": 1, "mechanism": "private_finite"}, "'kernel'"),
    ({k: v for k, v in FINITE.items() if k != "weights"}, "'weights'"),
    ({"format_version": 1, "mechanism": "svm", "kernel": {}}, "'family'"),
    ({**FINITE, "n": None}, "'n'"),
    ({**FINITE, "C": None}, "'C'"),
    ({**FINITE, "claimed": [1, 2]}, "'claimed'"),
    ({**SVM, "entries": [1, 2]}, "'entries'"),
    ({**FINITE, "kernel": {"family": "rbf", "sigma": "abc"}}, "sigma"),
    ({**SVM, "alphas": [0.25]}, "alphas"),
    ({**SVM, "C": "inf"}, "C must be finite and positive"),
    ({**FINITE, "lambda": "nan"}, "lam must be finite and positive"),
    ({**FINITE, "n": -5}, "n must be at least 2"),
    ({**FINITE, "dim": 0, "weights": []}, "dim must be at least 1"),
    ({**RFF, "d_hat": 99}, "'d_hat'"),
], ids=["no-kernel", "no-weights", "kernel-no-family", "n-null", "C-null", "claimed-list",
        "entries-1d", "sigma-string", "alphas-short", "svm-C-inf",
        "lambda-nan", "n-negative", "dim-zero", "rff-d-hat-not-omega-rows"])
def test_predict_model_missing_field_is_an_error_line(capsys, data_file, tmp_path, doc, field):
    model = tmp_path / "bad.json"
    model.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["predict", "--model", str(model), "--data", data_file])
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert field in err


def test_predict_accepts_labeled_rows(capsys, data_file, tmp_path):
    model_path = str(tmp_path / "model.json")
    main(["train", "--data", data_file, "--kernel", "linear",
          "--c", "2.0", "--out", model_path])
    capsys.readouterr()
    code, out, _ = run(capsys, ["predict", "--model", model_path, "--data", data_file])
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_predict_without_data_rows_is_an_error_line(capsys, data_file, tmp_path):
    model_path = str(tmp_path / "model.json")
    assert main(["train", "--data", data_file, "--kernel", "linear",
                 "--c", "2.0", "--out", model_path]) == 0
    capsys.readouterr()
    header_only = tmp_path / "header.csv"
    header_only.write_text("x1,x2\n")
    code, out, err = run(capsys, ["predict", "--model", model_path, "--data",
                                  str(header_only), "--header"])
    assert code == 1
    assert out == ""
    assert err == "error: no data rows to predict on\n"


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
    model = PrivateModel(np.zeros(2), linear_kernel(), 1.0, 0.1, n=2, dim=2)
    model_path = tmp_path / "zero.json"
    save_model(model, model_path)
    probe = tmp_path / "probe.csv"
    probe.write_text("0.5,0.5\n-3.0,2.0\n")
    code, out, _ = run(capsys, ["predict", "--model", str(model_path), "--data", str(probe)])
    assert code == 0
    for line in out.strip().splitlines():
        assert line == "0.0 +1"


def test_predict_output_bytes(capsys, monkeypatch, tmp_path):
    # one "repr(value) sign" line per row; -0.0 keeps its sign and counts as +1
    model_path = tmp_path / "zero.json"
    save_model(PrivateModel(np.zeros(2), linear_kernel(), 1.0, 0.1, n=2, dim=2), model_path)
    probe = tmp_path / "probe.csv"
    probe.write_text("0.5,0.5\n" * 7)
    values = np.array([-0.0, 0.0, 5e-324, -2.5, 0.1, 1 / 3, -1e22])
    monkeypatch.setattr(PrivateModel, "decision_values", lambda self, X: values)
    code, out, _ = run(capsys, ["predict", "--model", str(model_path), "--data", str(probe)])
    assert code == 0
    assert out == ("-0.0 +1\n0.0 +1\n5e-324 +1\n-2.5 -1\n0.1 +1\n"
                   "0.3333333333333333 +1\n-1e+22 -1\n")


def test_private_train_finite_redraws_only_the_noise(capsys, data_file, tmp_path):
    # each release draws fresh noise; every other field is a function of the
    # data and the flags
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    base = ["private-train-finite", "--data", data_file, "--c", "2.0", "--lambda", "0.1"]
    assert main(base + ["--out", out1]) == 0
    assert main(base + ["--out", out2]) == 0
    capsys.readouterr()
    doc1, doc2 = json.loads(Path(out1).read_text()), json.loads(Path(out2).read_text())
    assert set(doc1) == set(doc2)
    assert {k for k in doc1 if doc1[k] != doc2[k]} == {"weights", "checksum"}
    model = load_model(out1)
    assert not hasattr(model, "seed")
    assert "kappa" not in model.claimed


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


def write_public_fields_data(tmp_path):
    """A 20-point 3-D CSV file in [-1, 1]^3 for the release-contract tests."""
    rng = np.random.default_rng(5)
    points = rng.uniform(-1, 1, (20, 3))
    labels = np.where(rng.random(20) < 0.5, 1, -1)
    data = tmp_path / "d.csv"
    data.write_text("".join(
        ",".join(repr(float(v)) for v in row) + f",{l:+d}\n" for row, l in zip(points, labels)
    ))
    return data


def assert_checksum_covers_the_rest(doc):
    rest = {k: v for k, v in doc.items() if k != "checksum"}
    payload = json.dumps(rest, sort_keys=True, separators=(",", ":"))
    assert doc["checksum"] == hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_private_train_finite_release_holds_only_public_fields(capsys, tmp_path):
    # every field of the written file is n, dim, the noisy weights, a flag or
    # a caller's claim; no norm or bound taken from the data
    data = write_public_fields_data(tmp_path)
    out_path = tmp_path / "finite.json"
    C, lam = 2.0, 0.3
    code, _, _ = run(capsys, [
        "private-train-finite", "--data", str(data), "--c", str(C), "--lambda", str(lam),
        "--beta", "1.5", "--eps", "0.25", "--delta", "0.05", "--out", str(out_path),
    ])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert set(doc) == {"format_version", "mechanism", "kernel", "C", "lambda", "n", "dim",
                        "claimed", "weights", "checksum"}
    assert doc["format_version"] == 1
    assert doc["mechanism"] == "private_finite"
    assert doc["kernel"] == {"family": "linear"}
    assert (doc["C"], doc["lambda"]) == (C, lam)
    assert doc["claimed"] == {"beta": 1.5, "epsilon": 0.25, "delta": 0.05}
    assert (doc["n"], doc["dim"]) == (20, 3)
    assert len(doc["weights"]) == 3
    assert_checksum_covers_the_rest(doc)


def test_private_train_rff_release_holds_only_public_fields(capsys, tmp_path):
    # every field of the written file is n, dim, the noisy weights, the map,
    # a flag or a caller's claim; nothing else computed from the data, and
    # not --seed
    data = write_public_fields_data(tmp_path)
    out_path = tmp_path / "rff.json"
    seed, d_hat, sigma, C, lam = 11, 6, 0.7, 2.0, 0.3
    code, _, _ = run(capsys, [
        "private-train-rff", "--data", str(data), "--kernel", "rbf", "--sigma", str(sigma),
        "--c", str(C), "--lambda", str(lam), "--d-hat", str(d_hat), "--seed", str(seed),
        "--beta", "1.5", "--eps", "0.25", "--delta", "0.05", "--out", str(out_path),
    ])
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert set(doc) == {"format_version", "mechanism", "kernel", "C", "lambda", "n", "dim",
                        "d_hat", "omegas", "claimed", "weights", "checksum"}
    # constants and flags
    assert doc["format_version"] == 1
    assert doc["mechanism"] == "private_rff"
    assert doc["kernel"] == {"family": "rbf", "sigma": sigma}
    assert (doc["C"], doc["lambda"], doc["d_hat"]) == (C, lam, d_hat)
    assert doc["claimed"] == {"beta": 1.5, "epsilon": 0.25, "delta": 0.05}
    # the sizes of the data
    assert (doc["n"], doc["dim"]) == (20, 3)
    # the map is the first d_hat spectral draws of default_rng(seed)
    spectral = np.random.default_rng(seed).standard_normal((d_hat, 3)) / sigma
    assert np.array_equal(np.array(doc["omegas"]), spectral)
    assert len(doc["weights"]) == 2 * d_hat
    assert_checksum_covers_the_rest(doc)


def seeds_that_redraw_the_noise(model, db, seeds, skip_map=lambda gen: None):
    """The seeds s for which the Laplace draws of default_rng(s), taken after
    `skip_map` has drawn a map from it, equal model's weights minus its
    noiseless weights: each such s would give the noiseless weights back."""
    noise = model.weights - noiseless_weights(db, model.feature_map, model.C)
    found = []
    for s in seeds:
        gen = np.random.default_rng(s)
        skip_map(gen)
        if np.abs(sample_laplace(model.lam, noise.size, gen) - noise).max() <= 1e-9:
            found.append(s)
    return found


def test_release_noise_is_not_drawn_from_the_seed(capsys, tmp_path):
    # a search over --seed and every small seed finds no generator that
    # redraws a CLI release's noise; --seed fixes the rff map alone
    data = write_public_fields_data(tmp_path)
    db = load_csv(str(data))
    seed = 48213
    seeds = [seed] + list(range(10**4 + 1))
    common = ["--data", str(data), "--c", "2.0", "--lambda", "0.3"]
    finite = tmp_path / "finite.json"
    assert main(["private-train-finite"] + common + ["--out", str(finite)]) == 0
    assert seeds_that_redraw_the_noise(load_model(finite), db, seeds) == []

    outs = [tmp_path / "rff1.json", tmp_path / "rff2.json"]
    for out in outs:
        assert main(["private-train-rff"] + common + [
            "--kernel", "rbf", "--sigma", "0.7", "--d-hat", "6", "--seed", str(seed),
            "--out", str(out)]) == 0
    capsys.readouterr()
    a, b = (load_model(out) for out in outs)
    assert np.array_equal(a.feature_map.omegas, b.feature_map.omegas)
    assert not np.array_equal(a.weights, b.weights)
    assert seeds_that_redraw_the_noise(
        a, db, seeds, lambda gen: RandomFeatureMap.from_rng(rbf_kernel(0.7), 3, 6, gen)) == []


def test_private_train_requires_seed(capsys, data_file, tmp_path):
    # --seed seeds private-train-rff's public map; private-train-finite
    # draws nothing public and takes no --seed
    code, _, _ = run(capsys, [
        "private-train-rff", "--data", data_file, "--kernel", "rbf", "--sigma", "1.0",
        "--c", "1.0", "--lambda", "0.1", "--d-hat", "4", "--out", str(tmp_path / "m.json"),
    ])
    assert code == 2
    code, _, err = run(capsys, [
        "private-train-finite", "--data", data_file, "--c", "1.0",
        "--lambda", "0.1", "--seed", "1", "--out", str(tmp_path / "m.json"),
    ])
    assert code == 2
    assert "--seed" in err
    assert not (tmp_path / "m.json").exists()


def test_calibrate_rff_matches_library(capsys):
    # the diameter comes from the box: [0, sqrt 2]^2 has diameter exactly 2
    assert DomainBox(np.zeros(2), np.full(2, math.sqrt(2.0))).diameter() == 2.0
    code, out, _ = run(capsys, [
        "calibrate", "--mechanism", "rff", "--beta", "1", "--eps", "0.5",
        "--delta", "0.1", "--c", "1", "--n", "100", "--dim", "2",
        "--sigma", "1", "--box-min", "0", "--box-max", repr(math.sqrt(2.0)),
    ])
    assert code == 0
    doc = json.loads(out)
    d_hat = calibrate_rff_dim_hinge(0.5, 0.1, 1.0, 2, math.sqrt(2.0), 2.0)
    assert doc["d_hat"] == d_hat
    assert doc["lambda_min_privacy"] == pytest.approx(
        calibrate_noise_privacy_rff(1.0, d_hat, 1.0, 100), rel=1e-12
    )
    assert doc["lambda_max_utility"] == pytest.approx(
        calibrate_noise_utility_rff(0.5, 0.1, d_hat), rel=1e-12
    )
    assert doc["feasible"] == (doc["lambda_min_privacy"] <= doc["lambda_max_utility"])


def test_calibrate_finite_takes_constants_from_default_box(capsys):
    code, out, _ = run(capsys, [
        "calibrate", "--mechanism", "finite", "--beta", "1", "--eps", "0.5",
        "--delta", "0.1", "--c", "1", "--n", "100", "--dim", "2",
    ])
    assert code == 0
    # [-1, 1]^2: kappa = sqrt 2, Phi = 1, F = 2
    report = calibration_report_finite(1.0, 0.5, 0.1, 1.0, 100, math.sqrt(2.0), 1.0, 2)
    assert json.loads(out) == report.to_doc()


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
        "--eps", "0.5", "--delta", "0.2",
    ])
    assert code == 0
    doc = json.loads(out)
    assert doc["audit"]["name"] == "utility"


@pytest.mark.parametrize("argv", [
    ["train", "--data", "MISSING", "--kernel", "linear", "--c", "1", "--out", "OUT"],
    ["private-train-finite", "--data", "MISSING", "--c", "1", "--lambda", "0.1",
     "--out", "OUT"],
    ["private-train-rff", "--data", "MISSING", "--kernel", "rbf", "--sigma", "1", "--c", "1",
     "--lambda", "0.1", "--d-hat", "4", "--seed", "1", "--out", "OUT"],
    ["audit", "--name", "utility", "--data", "MISSING", "--seed", "1", "--lambda", "0.1",
     "--eps", "0.5", "--delta", "0.1"],
    ["audit", "--name", "privacy-ratio", "--data", "PRESENT", "--data2", "MISSING",
     "--seed", "1", "--lambda", "0.1", "--beta", "1"],
    ["predict", "--model", "MODEL", "--data", "MISSING"],
], ids=["train", "private-train-finite", "private-train-rff", "audit-data", "audit-data2",
        "predict"])
def test_missing_data_file_is_reported_by_name(capsys, data_file, tmp_path, argv):
    # a missing path is an OS error naming the file, never parsed as CSV text
    missing = tmp_path / "nonexistent.csv"
    model = tmp_path / "model.json"
    save_model(PrivateModel(np.zeros(2), linear_kernel(), 1.0, 0.1, n=2, dim=2), model)
    places = {"MISSING": str(missing), "PRESENT": data_file, "MODEL": str(model),
              "OUT": str(tmp_path / "out.json")}
    code, out, err = run(capsys, [places.get(a, a) for a in argv])
    assert code == 1
    assert out == ""
    assert "No such file or directory" in err and str(missing) in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("argv, code", [
    (["--name", "sensitivity", "--seed", "1", "--trials", "3", "--n", "6", "--dim", "5"], 0),
    (["--name", "separation", "--c", "1.0", "--n", "8", "--sigma", "0.3", "--dim", "6"], 2),
], ids=["sensitivity", "separation"])
def test_audit_without_grid_ignores_dim(capsys, argv, code):
    # sensitivity grids nothing, so any --dim works; separation's packing is
    # 2-D by construction and it reads no --dim, so passing one is refused
    got, out, err = run(capsys, ["audit", *argv])
    assert got == code
    if code == 0:
        assert json.loads(out)["audit"]["pass"] is True
    else:
        assert out == "" and err == "error: audit --name separation does not read --dim\n"


@pytest.mark.parametrize("argv, flag", [
    (["sensitivity", "--mechanism", "rff", "--kernel", "laplacian", "--d-hat", "50",
      "--bins", "3", "--seed", "1"], "--mechanism"),
    (["sensitivity", "--seed", "1", "--grid", "11"], "--grid"),
    (["utility", "--seed", "1", "--data", "DATA", "--lambda", "0.1", "--eps", "0.5",
      "--delta", "0.1", "--kernel", "laplacian"], "--kernel"),
    (["utility", "--mechanism", "rff", "--sigma", "1.0", "--d-hat", "4", "--seed", "1",
      "--data", "DATA", "--lambda", "0.1", "--eps", "0.5", "--delta", "0.1", "--bins", "3"],
     "--bins"),
    (["kernel-approx", "--seed", "1", "--sigma", "1.0", "--d-hat", "4", "--eps", "0.5",
      "--data", "DATA"], "--data"),
    (["privacy-ratio", "--seed", "1", "--data", "DATA", "--data2", "DATA", "--lambda", "0.1",
      "--beta", "1", "--grid", "5"], "--grid"),
    (["separation", "--c", "1.0", "--n", "8", "--sigma", "0.3", "--seed", "5", "--trials", "9",
      "--data", "nope.csv"], "--seed"),
], ids=["sensitivity-mechanism", "sensitivity", "utility", "utility-rff", "kernel-approx",
        "privacy-ratio", "separation"])
def test_audit_refuses_a_flag_it_does_not_read(capsys, data_file, argv, flag):
    # each of these used to exit 0 and ignore the flag without a word
    argv = [data_file if a == "DATA" else a for a in argv]
    code, out, err = run(capsys, ["audit", "--name", *argv])
    assert code == 2
    assert out == ""
    assert err == f"error: audit --name {argv[0]} does not read {flag}\n"


def test_audit_privacy_ratio_dim_defaults_to_and_must_match_the_data(capsys, tmp_path):
    # 3-D data: a 2-D pair would agree with the other audits' default --dim of 2
    rows = [f"{x!r},{y!r},{z!r},{l:+d}\n" for (x, y, z), l in
            zip(np.random.default_rng(4).uniform(-1, 1, (6, 3)).tolist(), (1, -1) * 3)]
    (tmp_path / "p1.csv").write_text("".join(rows))
    (tmp_path / "p2.csv").write_text("".join(rows[:-1]) + "0.5,0.5,0.5,+1\n")
    argv = ["audit", "--name", "privacy-ratio", "--seed", "3", "--trials", "200",
            "--data", str(tmp_path / "p1.csv"), "--data2", str(tmp_path / "p2.csv"),
            "--lambda", "1.0", "--beta", "1.0", "--bins", "4"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and json.loads(out)["audit"]["name"] == "privacy_ratio"
    code, out, err = run(capsys, [*argv, "--dim", "3"])
    assert code == 0
    code, out, err = run(capsys, [*argv, "--dim", "2"])
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "dimension" in err


def test_audit_table_matches_the_audit_parser():
    # every flag a row names exists, every audit flag is read by some row,
    # and every optional flag has its one default
    parser = build_parser()
    audit_parser = parser._subparsers._group_actions[0].choices["audit"]
    dests = {a.dest for a in audit_parser._actions} - {"help"}
    named = {f for _, required, optional in cli._AUDITS.values() for f in required + optional}
    optional = {f for _, _, opt in cli._AUDITS.values() for f in opt}
    assert named <= dests
    assert dests - {"name", "mechanism"} <= named
    assert optional == cli._AUDIT_DEFAULTS.keys()


def test_audit_default_grid_follows_gridded_dimension(capsys, tmp_path):
    points = np.random.default_rng(3).uniform(-1, 1, (4, 3))
    data = tmp_path / "u3.csv"
    labels = (1, -1, 1, -1)
    data.write_text("".join(f"{x},{y},{z},{l:+d}\n" for (x, y, z), l in zip(points, labels)))
    code, out, _ = run(capsys, [
        "audit", "--name", "utility", "--mechanism", "rff", "--sigma", "1.0",
        "--d-hat", "20", "--seed", "4", "--trials", "3",
        "--data", str(data), "--lambda", "0.01", "--eps", "0.5", "--delta", "0.2",
    ])
    assert code == 0
    details = json.loads(out)["audit"]["details"]
    assert details["grid_resolution"] == 11
    assert details["eval_points"] == 11**3 + 4

    approx = ["audit", "--name", "kernel-approx", "--seed", "2", "--trials", "3",
              "--sigma", "1.0", "--d-hat", "20", "--eps", "0.5"]
    code, out, _ = run(capsys, [*approx, "--dim", "3"])
    assert code == 0
    assert json.loads(out)["audit"]["details"]["grid_resolution"] == 11
    code, out, err = run(capsys, [*approx, "--dim", "5"])
    assert code == 1 and out == ""
    assert "grid resolution" in err


def test_audit_finite_utility_takes_exact_sup_in_any_dimension(capsys, tmp_path):
    # no grid: the finite release's sup over the box is exact, so d > 4 is fine
    points = np.random.default_rng(5).uniform(-1, 1, (6, 5))
    data = tmp_path / "u5.csv"
    data.write_text("".join(",".join(map(repr, x)) + f",{l:+d}\n"
                            for x, l in zip(points.tolist(), (1, -1) * 3)))
    code, out, _ = run(capsys, [
        "audit", "--name", "utility", "--seed", "4", "--trials", "3",
        "--data", str(data), "--lambda", "0.01", "--eps", "0.5", "--delta", "0.2",
    ])
    assert code == 0
    details = json.loads(out)["audit"]["details"]
    assert details["grid_resolution"] is None
    assert details["eval_points"] == 6


def test_audit_utility_takes_its_box_from_the_flags(capsys, tmp_path):
    points = np.random.default_rng(6).uniform(-1, 1, (10, 2))
    data = tmp_path / "u2.csv"
    data.write_text("".join(f"{x!r},{y!r},{l:+d}\n"
                            for (x, y), l in zip(points.tolist(), (1, -1) * 5)))
    argv = ["audit", "--name", "utility", "--seed", "8", "--trials", "200",
            "--data", str(data), "--lambda", "0.1", "--eps", "0.5", "--delta", "0.5"]
    stats = []
    for box in ([], ["--box-min", "-2", "--box-max", "2"]):
        code, out, _ = run(capsys, [*argv, *box])
        assert code == 0
        stats.append(json.loads(out)["audit"]["statistic"])
    # the sup of |mu^T x| over [-2, 2]^2 is twice that over [-1, 1]^2
    assert stats[0] < stats[1]


def test_audit_privacy_ratio_kappa_from_box(capsys, tmp_path):
    rng = np.random.default_rng(7)
    points = rng.uniform(-1, 1, (8, 2))
    labels = [1, -1] * 4
    rows = [f"{x!r},{y!r},{l:+d}\n" for (x, y), l in zip(points.tolist(), labels)]
    (tmp_path / "p1.csv").write_text("".join(rows))
    (tmp_path / "p2.csv").write_text("".join(rows[:-1]) + "0.5,0.5,+1\n")
    code, out, _ = run(capsys, [
        "audit", "--name", "privacy-ratio", "--seed", "3", "--trials", "2000",
        "--bins", "10", "--data", str(tmp_path / "p1.csv"),
        "--data2", str(tmp_path / "p2.csv"), "--c", "1.0", "--lambda", "1.0",
        "--beta", "1.0", "--box-min", "-3", "--box-max", "2",
    ])
    assert code == 0
    kappa = DomainBox(np.full(2, -3.0), np.full(2, 2.0)).max_l2_norm()
    assert kappa == pytest.approx(3.0 * math.sqrt(2.0), rel=1e-15)
    assert json.loads(out)["audit"]["details"]["lambda_required_for_beta"] == (
        calibrate_noise_privacy_finite(1.0, kappa, 2, 1.0, 8))


def test_readme_cli_lines_parse():
    # every privsvm command in README's sh blocks is accepted by the parser,
    # and every audit line by its audit's flag table
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```sh\n(.*?)```", readme.read_text(), re.DOTALL)
    commands = [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("privsvm ")]
    assert len(commands) >= 10
    parser = build_parser()
    for line in commands:
        args = parser.parse_args(shlex.split(line, comments=True)[1:])
        if args.command == "audit":
            cli._checked_audit(args)  # a flag the audit does not read is a usage error


def test_readme_audit_flag_table_matches_the_audits():
    # README's per-audit flag table says what _AUDITS says, row for row
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z-]+)(?: --mechanism (\w+))?` \| (.*) \| (.*) \|$", readme,
                      re.MULTILINE)
    listed = {}
    for name, mechanism, required, optional in rows:
        default = next(m for n, m in cli._AUDITS if n == name)
        listed[(name, mechanism or default)] = (required.replace("`", "").split(),
                                                optional.replace("`", "").split())
    assert listed == {key: ([cli._flag(f) for f in required], [cli._flag(f) for f in optional])
                      for key, (_, required, optional) in cli._AUDITS.items()}


def test_audit_utility_rff_requires_d_hat(capsys, data_file):
    code, _, err = run(capsys, [
        "audit", "--name", "utility", "--mechanism", "rff", "--sigma", "1.0",
        "--seed", "1", "--data", data_file, "--lambda", "0.1", "--eps", "0.5",
        "--delta", "0.1",
    ])
    assert code == 2
    assert "requires --d-hat" in err
