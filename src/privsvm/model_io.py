"""Versioned JSON persistence for trained models and audit reports.

Real values are written with Python's shortest round-trip repr (never more
than 17 significant digits), so save followed by load reproduces every float
bit for bit. Files for the private mechanisms contain only the released
information; writing one re-checks that no dual coefficients or training
entries leak into the document.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from .data import Database
from .kernels import KernelSpec, linear_kernel
from .mechanisms import PrivateModel
from .rff import RandomFeatureMap
from .solver import SvmModel, primal_weights

__all__ = ["FORMAT_VERSION", "model_to_doc", "model_from_doc", "save_model", "load_model", "dumps"]

FORMAT_VERSION = 1

_RELEASED_FORBIDDEN = ("alphas", "entries")


def _checksum(doc: dict) -> str:
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _scrub(obj):
    """Make a structure strict-JSON safe (non-finite floats become strings)."""
    if isinstance(obj, dict):
        return {k: _scrub(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_scrub(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def dumps(doc: dict) -> str:
    return json.dumps(_scrub(doc), indent=2)


def model_to_doc(model) -> dict:
    if isinstance(model, SvmModel):
        doc = _svm_doc(model)
    elif isinstance(model, PrivateModel):
        doc = _private_doc(model)
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    doc["checksum"] = _checksum(doc)
    return doc


def _svm_doc(model: SvmModel) -> dict:
    if not isinstance(model.kernel, KernelSpec):
        raise TypeError("only exact-kernel SVM models can be serialized")
    db = model.support
    doc = {
        "format_version": FORMAT_VERSION,
        "mechanism": "svm",
        "kernel": model.kernel.to_doc(),
        "C": float(model.C),
        "n": db.n,
        "dim": db.dim,
        "alphas": [float(a) for a in model.alphas],
        "entries": [
            [float(v) for v in db.points[i]] + [int(db.labels[i])] for i in range(db.n)
        ],
        "objective": float(model.objective),
        "residual": float(model.residual),
        "sweeps": int(model.sweeps),
    }
    if model.kernel.family == "linear":
        doc["weights"] = [float(v) for v in primal_weights(model)]
    return doc


def _private_doc(model: PrivateModel) -> dict:
    fmap = model.feature_map
    is_rff = isinstance(fmap, RandomFeatureMap)
    doc = {
        "format_version": FORMAT_VERSION,
        "kernel": (fmap.kernel if is_rff else fmap).to_doc(),
        "C": float(model.C),
        "lambda": float(model.lam),
        "weights": [float(v) for v in model.weights],
        "claimed": _scrub(model.claimed),
        "n": int(model.n),
        "dim": int(model.dim),
    }
    if model.seed is not None:
        doc["seed"] = int(model.seed)
    if is_rff:
        doc["mechanism"] = "private_rff"
        doc["d_hat"] = fmap.d_hat
        doc["omegas"] = [[float(v) for v in row] for row in fmap.omegas]
    else:
        doc["mechanism"] = "private_finite"
    for key in _RELEASED_FORBIDDEN:
        if key in doc:
            raise AssertionError(f"release contract violated: {key!r} in private model")
    return doc


class _Fields(dict):
    """A model document whose missing required field is a ValueError naming it."""

    def __missing__(self, key):
        raise ValueError(f"model document is missing required field {key!r}")


def model_from_doc(doc: dict):
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    doc = _Fields(doc)
    stored = doc.pop("checksum", None)
    if stored is not None and stored != _checksum(doc):
        raise ValueError("checksum mismatch: document was altered")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}, expected {FORMAT_VERSION}")
    mechanism = doc.get("mechanism")
    kernel = KernelSpec.from_doc(doc["kernel"])
    if mechanism == "svm":
        entries = np.asarray(doc["entries"], dtype=np.float64)
        db = Database(entries[:, :-1], entries[:, -1])
        return SvmModel(
            alphas=np.asarray(doc["alphas"], dtype=np.float64),
            support=db,
            kernel=kernel,
            C=float(doc["C"]),
            objective=float(doc["objective"]),
            residual=float(doc["residual"]),
            sweeps=int(doc["sweeps"]),
        )
    if mechanism in ("private_finite", "private_rff"):
        if mechanism == "private_rff":
            fmap = RandomFeatureMap(np.asarray(doc["omegas"], dtype=np.float64), kernel)
        elif kernel == linear_kernel():
            fmap = kernel
        else:
            raise ValueError(
                f"a private_finite model must name the linear kernel, not {kernel.family}"
            )
        return PrivateModel(
            weights=np.asarray(doc["weights"], dtype=np.float64),
            feature_map=fmap,
            C=float(doc["C"]),
            lam=float(doc["lambda"]),
            claimed=dict(doc.get("claimed", {})),
            n=int(doc["n"]),
            dim=int(doc["dim"]),
            seed=doc.get("seed"),
        )
    raise ValueError(f"unknown mechanism {mechanism!r}")


def save_model(model, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(model_to_doc(model)))
        fh.write("\n")


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed model document: {exc}") from None
    return model_from_doc(doc)
