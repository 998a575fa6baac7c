import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from test_cli import assert_checksum_covers_the_rest

from privsvm.data import Database
from privsvm.kernels import laplacian_kernel, linear_kernel, rbf_kernel
from privsvm.mechanisms import train_private_finite, train_private_rff
from privsvm.model_io import (
    FORMAT_VERSION,
    load_model,
    model_from_doc,
    model_to_doc,
    save_model,
)
from privsvm.rff import RandomFeatureMap
from privsvm.solver import decision_values, solve_svm_dual


def sample_db(seed=0, n=8):
    rng = np.random.default_rng(seed)
    return Database(rng.uniform(-1, 1, (n, 2)), rng.choice([-1.0, 1.0], n))


def test_svm_model_round_trip(tmp_path):
    db = sample_db()
    model = solve_svm_dual(db, rbf_kernel(0.9), 1.5)
    path = tmp_path / "svm.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded == model
    assert np.array_equal(loaded.alphas, model.alphas)
    assert loaded.objective == model.objective
    X = np.random.default_rng(1).uniform(-1, 1, (5, 2))
    assert np.array_equal(decision_values(loaded, X), decision_values(model, X))


def test_linear_svm_doc_contains_weights(tmp_path):
    db = sample_db(2)
    model = solve_svm_dual(db, linear_kernel(), 1.0)
    doc = model_to_doc(model)
    w = db.points.T @ (model.alphas * db.labels)
    assert doc["weights"] == [float(v) for v in w]


def test_private_finite_round_trip(tmp_path):
    db = sample_db(3)
    model = train_private_finite(
        db, 1.0, 0.25, np.random.default_rng(9), claimed={"beta": 1.0}
    )
    path = tmp_path / "private.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded == model
    assert np.array_equal(loaded.weights, model.weights)
    assert loaded.claimed == {"beta": 1.0}


def test_release_with_a_stored_seed_still_loads(tmp_path):
    # files written before releases stopped recording the noise seed carry
    # a "seed" field; the reader reads named fields only and ignores it
    model = train_private_finite(sample_db(3), 1.0, 0.25, np.random.default_rng(9))
    doc = model_to_doc(model)
    doc.pop("checksum")
    doc["seed"] = 9
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    doc["checksum"] = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    assert load_model(path) == model


def test_release_with_other_claimed_keys_still_loads(tmp_path):
    # files written before releases took only beta, epsilon and delta as a
    # claim carry other keys there; loading does not re-check a claim
    model = train_private_finite(sample_db(3), 1.0, 0.25, np.random.default_rng(9))
    doc = model_to_doc(model)
    doc.pop("checksum")
    doc["claimed"] = {"beta": 1.0, "L": 1.0, "F": 2, "n": 8, "seed": 9}
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    doc["checksum"] = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    path = tmp_path / "old.json"
    path.write_text(json.dumps(doc))
    loaded = load_model(path)
    assert loaded.claimed == doc["claimed"]
    assert np.array_equal(loaded.weights, model.weights)


def test_private_finite_doc_must_name_linear_kernel():
    model = train_private_finite(sample_db(3), 1.0, 0.25, np.random.default_rng(9))
    doc = model_to_doc(model)
    doc.pop("checksum")
    assert model_from_doc(doc) == model
    doc["kernel"] = rbf_kernel(1.0).to_doc()
    with pytest.raises(ValueError, match="linear kernel"):
        model_from_doc(doc)


def test_private_rff_round_trip(tmp_path):
    db = sample_db(4)
    gen = np.random.default_rng(11)
    model = train_private_rff(
        db, RandomFeatureMap.from_rng(laplacian_kernel(), 2, 12, gen), 1.0, 0.1, gen,
        claimed={"epsilon": 0.5, "delta": 0.1},
    )
    path = tmp_path / "rff.json"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded == model
    assert np.array_equal(loaded.feature_map.omegas, model.feature_map.omegas)
    assert np.array_equal(loaded.weights, model.weights)
    X = np.random.default_rng(2).uniform(-1, 1, (4, 2))
    assert np.array_equal(loaded.decision_values(X), model.decision_values(X))


def test_private_docs_release_only_allowed_fields():
    db = sample_db(5)
    finite = train_private_finite(db, 1.0, 0.2, np.random.default_rng(0))
    gen = np.random.default_rng(0)
    rff = train_private_rff(db, RandomFeatureMap.from_rng(rbf_kernel(1.0), 2, 8, gen), 1.0, 0.2, gen)
    for model in (finite, rff):
        doc = model_to_doc(model)
        text = json.dumps(doc)
        assert "alphas" not in doc
        assert "entries" not in doc
        assert '"alphas"' not in text
        assert '"entries"' not in text


def test_version_mismatch_rejected(tmp_path):
    db = sample_db(6)
    doc = model_to_doc(solve_svm_dual(db, linear_kernel(), 1.0))
    doc.pop("checksum")
    doc["format_version"] = FORMAT_VERSION + 1
    with pytest.raises(ValueError, match="format_version"):
        model_from_doc(doc)


def test_malformed_document_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(ValueError, match="malformed"):
        load_model(path)
    with pytest.raises(ValueError, match="mechanism"):
        model_from_doc({"format_version": FORMAT_VERSION, "mechanism": "what",
                        "kernel": {"family": "linear"}})
    with pytest.raises(ValueError, match="JSON object"):
        model_from_doc([FORMAT_VERSION, "svm"])
    with pytest.raises(ValueError, match="missing required field 'entries'"):
        model_from_doc({"format_version": FORMAT_VERSION, "mechanism": "svm",
                        "kernel": {"family": "linear"}})


def test_checksum_tamper_detected(tmp_path):
    db = sample_db(7)
    model = train_private_finite(db, 1.0, 0.2, np.random.default_rng(1))
    path = tmp_path / "m.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    doc["lambda"] = 99.0
    with pytest.raises(ValueError, match="checksum"):
        model_from_doc(doc)
    # absent checksum is fine (optional field)
    doc2 = json.loads(path.read_text())
    doc2.pop("checksum")
    doc2["lambda"] = 99.0
    assert model_from_doc(doc2).lam == 99.0


def saved_models():
    db = sample_db(8, n=12)
    gen = np.random.default_rng(4)
    return {
        "svm_rbf": solve_svm_dual(db, rbf_kernel(0.9), 1.5),
        "svm_linear": solve_svm_dual(db, linear_kernel(), 2.0),
        "private_finite": train_private_finite(
            db, 1.0, 0.25, np.random.default_rng(3), claimed={"beta": 1.0, "delta": 0.1}
        ),
        "private_rff": train_private_rff(
            db, RandomFeatureMap.from_rng(rbf_kernel(1.0), 2, 6, gen), 1.0, 0.2, gen,
            claimed={"epsilon": 0.5, "delta": 0.1},
        ),
    }


@pytest.mark.parametrize("kind", ["svm_rbf", "svm_linear", "private_finite", "private_rff"])
def test_file_holds_model_to_doc(tmp_path, kind):
    model = saved_models()[kind]
    path = tmp_path / "m.json"
    save_model(model, path)
    text = path.read_text()
    doc = json.loads(text)
    assert doc == model_to_doc(model)
    assert_checksum_covers_the_rest(doc)
    # one top-level field per line, each value compact
    lines = text.splitlines()
    assert lines[0] == "{" and lines[-1] == "}" and len(lines) == len(doc) + 2
    assert not any(" " in line for line in lines)
    if kind.startswith("svm"):
        db = model.support
        assert doc["alphas"] == [float(a) for a in model.alphas]
        assert doc["entries"] == [
            [float(v) for v in db.points[i]] + [int(db.labels[i])] for i in range(db.n)
        ]
        assert all(type(row[-1]) is int for row in doc["entries"])
    else:
        assert doc["weights"] == [float(v) for v in model.weights]
    if kind == "private_rff":
        assert doc["omegas"] == [[float(v) for v in row] for row in model.feature_map.omegas]
    assert load_model(path) == model


def test_non_finite_reals_round_trip(tmp_path):
    # the checksum covers the document as written, "inf" and "nan" strings included
    fitted = solve_svm_dual(sample_db(9), linear_kernel(), 1.0)
    model = dataclasses.replace(fitted, objective=math.inf, residual=math.nan)
    path = tmp_path / "m.json"
    save_model(model, path)
    doc = json.loads(path.read_text())
    assert (doc["objective"], doc["residual"]) == ("inf", "nan")
    assert doc == model_to_doc(model)
    assert_checksum_covers_the_rest(doc)
    loaded = load_model(path)
    assert loaded == model
    assert loaded.objective == math.inf and math.isnan(loaded.residual)
