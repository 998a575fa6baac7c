"""Versioned JSON persistence for trained models and audit reports.

A model file is a JSON object with one top-level field per line, in sorted
key order with `checksum` last, each value in compact form (no spaces).
Real values are written with Python's shortest round-trip repr (never more
than 17 significant digits), so save followed by load reproduces every
float bit for bit; a non-finite real is written as the string "inf", "-inf"
or "nan". The `checksum` field is the SHA-256 of the compact, sorted-key
UTF-8 JSON of all other fields as written, which is those same field
encodings joined. Each field is encoded once, from arrays through
`ndarray.tolist()`, and serves both the checksum and the file.

Files for the private mechanisms contain only the released information;
writing one re-checks that no dual coefficients or training entries leak
into the document.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from functools import partial

import numpy as np

from .data import Database
from .kernels import KernelSpec, linear_kernel
from .mechanisms import PrivateModel
from .rff import RandomFeatureMap
from .solver import SvmModel, primal_weights

__all__ = ["FORMAT_VERSION", "model_to_doc", "model_from_doc", "save_model", "load_model", "dumps"]

FORMAT_VERSION = 1

_RELEASED_FORBIDDEN = ("alphas", "entries")
_floats = partial(np.asarray, dtype=np.float64)
_compact = partial(json.dumps, sort_keys=True, separators=(",", ":"))


def _encode(doc: dict) -> dict:
    """Each field's compact JSON text, keyed by the field's JSON-quoted name, in sorted order."""
    return {json.dumps(key): _compact(doc[key]) for key in sorted(doc)}


def _checksum(fields: dict) -> str:
    # byte for byte json.dumps(doc, sort_keys=True, separators=(",", ":"))
    payload = "{" + ",".join(f"{key}:{value}" for key, value in fields.items()) + "}"
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


def _reals(values):
    """A real scalar or array as JSON-ready Python floats or nested lists."""
    values = np.asarray(values, dtype=np.float64)
    out = values.tolist()
    return out if np.isfinite(values).all() else _scrub(out)


def dumps(doc: dict) -> str:
    return json.dumps(_scrub(doc), indent=2)


def _document(model) -> tuple[dict, dict]:
    """The model's document and its field encodings, `checksum` included in both."""
    if isinstance(model, SvmModel):
        doc = _svm_doc(model)
    elif isinstance(model, PrivateModel):
        doc = _private_doc(model)
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    fields = _encode(doc)
    doc["checksum"] = _checksum(fields)
    fields['"checksum"'] = _compact(doc["checksum"])
    return doc, fields


def model_to_doc(model) -> dict:
    """The document `save_model` writes: `json.loads` of the file equals it."""
    return _document(model)[0]


def _svm_doc(model: SvmModel) -> dict:
    db = model.support
    labels = db.labels.astype(np.int64).tolist()
    doc = {
        "format_version": FORMAT_VERSION,
        "mechanism": "svm",
        "kernel": model.kernel.to_doc(),
        "C": _reals(model.C),
        "n": db.n,
        "dim": db.dim,
        "alphas": _reals(model.alphas),
        "entries": [row + [y] for row, y in zip(_reals(db.points), labels)],
        "objective": _reals(model.objective),
        "residual": _reals(model.residual),
        "sweeps": int(model.sweeps),
    }
    if model.kernel.family == "linear":
        doc["weights"] = _reals(primal_weights(model))
    return doc


def _private_doc(model: PrivateModel) -> dict:
    fmap = model.feature_map
    is_rff = fmap != linear_kernel()  # PrivateModel admits no third kind of map
    doc = {
        "format_version": FORMAT_VERSION,
        "kernel": (fmap.kernel if is_rff else fmap).to_doc(),
        "C": _reals(model.C),
        "lambda": _reals(model.lam),
        "weights": _reals(model.weights),
        "claimed": _scrub(model.claimed),
        "n": int(model.n),
        "dim": int(model.dim),
    }
    if model.seed is not None:
        doc["seed"] = int(model.seed)
    if is_rff:
        doc["mechanism"] = "private_rff"
        doc["d_hat"] = fmap.d_hat
        doc["omegas"] = _reals(fmap.omegas)
    else:
        doc["mechanism"] = "private_finite"
    for key in _RELEASED_FORBIDDEN:
        if key in doc:
            raise AssertionError(f"release contract violated: {key!r} in private model")
    return doc


class _Fields(dict):
    """A model document whose missing or malformed field is a ValueError naming it."""

    def __missing__(self, key):
        raise ValueError(f"model document is missing required field {key!r}")

    def read(self, key, convert, ndim=0):
        """The field passed through `convert`, which must accept it and give `ndim` dimensions."""
        value = self[key]
        try:
            out = convert(value)
            if np.ndim(out) == ndim:
                return out
        except (TypeError, ValueError):
            pass
        raise ValueError(f"model field {key!r} has the wrong type or shape")


def model_from_doc(doc: dict):
    if not isinstance(doc, dict):
        raise ValueError("model document must be a JSON object")
    doc = _Fields(doc)
    stored = doc.pop("checksum", None)
    if stored is not None and stored != _checksum(_encode(doc)):
        raise ValueError("checksum mismatch: document was altered")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}, expected {FORMAT_VERSION}")
    mechanism = doc.get("mechanism")
    kernel = KernelSpec.from_doc(doc["kernel"])
    if mechanism == "svm":
        entries = doc.read("entries", _floats, 2)
        db = Database(entries[:, :-1], entries[:, -1])
        return SvmModel(
            alphas=doc.read("alphas", _floats, 1),
            support=db,
            kernel=kernel,
            C=doc.read("C", float),
            objective=doc.read("objective", float),
            residual=doc.read("residual", float),
            sweeps=doc.read("sweeps", operator.index),
        )
    if mechanism in ("private_finite", "private_rff"):
        if mechanism == "private_rff":
            fmap = RandomFeatureMap(doc.read("omegas", _floats, 2), kernel)
            if doc.read("d_hat", operator.index) != fmap.d_hat:
                raise ValueError(f"model field 'd_hat' differs from the {fmap.d_hat} rows of 'omegas'")
        elif kernel == linear_kernel():
            fmap = kernel
        else:
            raise ValueError(
                f"a private_finite model must name the linear kernel, not {kernel.family}"
            )
        return PrivateModel(
            weights=doc.read("weights", _floats, 1),
            feature_map=fmap,
            C=doc.read("C", float),
            lam=doc.read("lambda", float),
            claimed=doc.read("claimed", dict.copy) if "claimed" in doc else {},
            n=doc.read("n", operator.index),
            dim=doc.read("dim", operator.index),
            seed=None if doc.get("seed") is None else doc.read("seed", operator.index),
        )
    raise ValueError(f"unknown mechanism {mechanism!r}")


def save_model(model, path) -> None:
    fields = _document(model)[1]
    text = "{\n" + ",\n".join(f"{key}:{value}" for key, value in fields.items()) + "\n}\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed model document: {exc}") from None
    return model_from_doc(doc)
