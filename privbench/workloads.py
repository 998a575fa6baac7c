"""The three workloads: what one op runs through the CLI, and how its outputs
are checked.

Every op calls `privsvm.cli.main(argv)` in-process with stdout captured, so
argument parsing and file I/O take the same path as for a CLI user. Inputs
are the CSV files `inputs` writes; parameters follow the library's own
calibrations, recomputed here from their closed forms so that the inputs do
not depend on the code under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys

import numpy as np

import inputs
from measure import Tracer

SIGMA = 1.0
RELEASE_C = 1.0
RELEASE_D_HAT = 300
RELEASE_BETA = 1.0
TRAIN_C = 1000.0
TRAIN_TOL = 1e-8
# The solver stops on a residual of its incrementally updated gradient and
# recomputes it once at exit; a Gram matrix formed here rounds differently
# in the last bits. Twice the tolerance covers both.
KKT_FACTOR = 2.0

SENSITIVITY = {"trials": 200, "n": 50, "c": 10.0, "dim": 2}
UTILITY_EPS = 0.5
UTILITY_DELTA = 0.1
UTILITY_FINITE_TRIALS = 500
UTILITY_RFF_TRIALS = 10
UTILITY_RFF_D_HAT = 100
KERNEL_APPROX = {"eps": 0.25, "delta": 0.25, "dim": 1, "trials": 200, "grid": 51}
SEPARATION = {"c": 1.0, "n": 8, "sigma": 0.3}
PRIVACY_RATIO = {"trials": 100_000, "bins": 40, "beta": 1.0, "c": 1.0}


def release_lambda() -> float:
    """calibrate_noise_privacy_rff(L=1, C, d_hat, beta, n): 2^2.5 L C sqrt(d_hat) / (beta n)."""
    return 2.0**2.5 * RELEASE_C * math.sqrt(RELEASE_D_HAT) / (RELEASE_BETA * inputs.BALL_N)


def utility_finite_lambda() -> float:
    """calibrate_noise_utility_finite(eps, delta, Phi=1, F=d) on [-1, 1]^d."""
    F = inputs.UTILITY_DIM
    return UTILITY_EPS / (2.0 * (F * math.log(2.0) + math.log(1.0 / UTILITY_DELTA)))


def utility_rff_lambda() -> float:
    """calibrate_noise_utility_rff(eps, delta, d_hat): the release stays within
    eps of its own noiseless classifier with probability 1 - delta."""
    root = math.sqrt(UTILITY_RFF_D_HAT)
    return min(UTILITY_EPS / (2.0**4 * math.log(2.0) * root),
               UTILITY_EPS * root / (8.0 * math.log(2.0 / UTILITY_DELTA)))


def utility_rff_eps() -> float:
    """Sup-norm gap allowed between the rff release and the exact-kernel SVM.

    Both noiseless classifiers are sums of coefficients with l1 norm at most C
    times kernel values in [-1, 1], so they differ by at most 2C everywhere;
    the noise adds at most UTILITY_EPS except with probability UTILITY_DELTA.
    """
    return 2.0 * RELEASE_C + UTILITY_EPS


def kernel_approx_d_hat() -> int:
    """calibrate_rff_dim(eps, delta, d, sigma_p, diam) for rbf(1) on [-1, 1]^d."""
    ka = KERNEL_APPROX
    d = ka["dim"]
    sigma_p = math.sqrt(d) / SIGMA
    diam = 2.0 * math.sqrt(d)
    bound = (4.0 * (d + 2) / ka["eps"] ** 2) * math.log(
        2.0**8 * (sigma_p * diam) ** 2 / (ka["delta"] * ka["eps"] ** 2))
    return max(1, math.ceil(bound))


def privacy_ratio_lambda() -> float:
    """calibrate_noise_privacy_finite(L=1, C, kappa, F, beta, n) with kappa
    the largest norm in [-1, 1]^d: 4 L C kappa sqrt(F) / (beta n)."""
    d = inputs.PAIR_DIM
    pr = PRIVACY_RATIO
    return 4.0 * pr["c"] * math.sqrt(d) * math.sqrt(d) / (pr["beta"] * inputs.PAIR_N)


def call_cli(argv) -> tuple[int, str]:
    """Run the CLI in-process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = sys.modules["privsvm.cli"].main([str(a) for a in argv])
    return code, out.getvalue()


def rbf_gram(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    sq = (A * A).sum(axis=1)[:, None] + (B * B).sum(axis=1)[None, :] - 2.0 * (A @ B.T)
    return np.exp(-np.maximum(sq, 0.0) / (2.0 * SIGMA**2))


def kkt_residual(alphas: np.ndarray, grad: np.ndarray, upper: float) -> float:
    """Largest violation of the box-constrained dual's first-order conditions."""
    interior = (alphas > 0.0) & (alphas < upper)
    worst = np.abs(grad[interior]).max(initial=0.0)
    worst = max(worst, grad[alphas <= 0.0].max(initial=0.0))
    return float(max(worst, (-grad[alphas >= upper]).max(initial=0.0)))


def parse_predictions(text: str, count: int) -> tuple[np.ndarray, list]:
    """Values of `predict` output; problems list describes malformed lines."""
    lines = text.splitlines()
    if len(lines) != count:
        return np.empty(0), [f"predict printed {len(lines)} lines, expected {count}"]
    values = np.empty(count)
    for i, line in enumerate(lines):
        value, sign = line.split()
        values[i] = float(value)
        if sign != ("+1" if values[i] >= 0 else "-1"):
            return values, [f"predict line {i}: sign {sign} does not match {value}"]
    return values, []


class ReleaseRff:
    """private-train-rff followed by predict on held-out points."""

    name = "release-rff"
    corpus = None

    def prepare(self, workdir, seed, k):
        return inputs.ball_inputs(workdir, seed, k)

    def run(self, inp):
        p = inp["paths"]
        saved = []
        capture = Tracer({"save": ("model_io", "save_model",
                                   lambda tracer, span, args, result: saved.append(args[0]))})
        with capture.installed():
            train = call_cli([
                "private-train-rff", "--data", p["train"], "--kernel", "rbf",
                "--sigma", SIGMA, "--c", RELEASE_C, "--lambda", repr(release_lambda()),
                "--d-hat", RELEASE_D_HAT, "--seed", inp["seed"], "--out", p["model"],
                "--beta", RELEASE_BETA,
            ])
        predict = call_cli(["predict", "--model", p["model"], "--data", p["heldout"]])
        return {"train": train, "predict": predict, "saved": saved}

    def check(self, inp, out):
        codes = (out["train"][0], out["predict"][0])
        if codes != (0, 0):
            return [f"exit codes {codes}"]
        with open(inp["paths"]["model"], encoding="utf-8") as fh:
            doc = json.load(fh)
        problems = [f"release file holds {key!r}" for key in ("alphas", "entries") if key in doc]
        weights = np.asarray(doc.get("weights", []), dtype=np.float64)
        if weights.shape != (2 * RELEASE_D_HAT,) or not np.all(np.isfinite(weights)):
            problems.append(f"weights shape {weights.shape} or non-finite values")
        loaded = sys.modules["privsvm.model_io"].load_model(inp["paths"]["model"])
        if len(out["saved"]) != 1 or not (loaded == out["saved"][0]):
            problems.append("loaded release differs from the model the CLI saved")
        X = inp["heldout"][0]
        values, bad = parse_predictions(out["predict"][1], X.shape[0])
        problems += bad
        if not bad and not np.array_equal(values, loaded.decision_values(X)):
            problems.append("predict output differs from decision_values of the release")
        return problems


class TrainExact:
    """train (exact rbf kernel) followed by predict on held-out points."""

    name = "train-exact"
    # Sweeps to convergence range from about 400 to over 3000 between
    # datasets, so a run draws from a fixed corpus and measures whole passes.
    corpus = 8

    def prepare(self, workdir, seed, k):
        return inputs.ball_inputs(workdir, seed, k, self.corpus)

    def run(self, inp):
        p = inp["paths"]
        train = call_cli([
            "train", "--data", p["train"], "--kernel", "rbf", "--sigma", SIGMA,
            "--c", TRAIN_C, "--tol", TRAIN_TOL, "--out", p["model"],
        ])
        predict = call_cli(["predict", "--model", p["model"], "--data", p["heldout"]])
        return {"train": train, "predict": predict}

    def check(self, inp, out):
        codes = (out["train"][0], out["predict"][0])
        if codes != (0, 0):
            return [f"exit codes {codes}"]
        with open(inp["paths"]["model"], encoding="utf-8") as fh:
            doc = json.load(fh)
        X, y = inp["train"]
        alphas = np.asarray(doc["alphas"], dtype=np.float64)
        upper = TRAIN_C / X.shape[0]
        problems = []
        if alphas.shape != y.shape or np.any(alphas < 0.0) or np.any(alphas > upper):
            return [f"alphas outside [0, C/n] = [0, {upper}]"]
        entries = np.asarray(doc["entries"], dtype=np.float64)
        if not (np.array_equal(entries[:, :-1], X) and np.array_equal(entries[:, -1], y)):
            problems.append("model entries differ from the training file")
        coef = alphas * y
        grad = 1.0 - y * (rbf_gram(X, X) @ coef)
        residual = kkt_residual(alphas, grad, upper)
        if not residual <= KKT_FACTOR * TRAIN_TOL:
            problems.append(f"KKT residual {residual:.3e} > {KKT_FACTOR} * tol")
        Xh = inp["heldout"][0]
        values, bad = parse_predictions(out["predict"][1], Xh.shape[0])
        problems += bad
        expected = rbf_gram(Xh, X) @ coef
        if not bad and not np.allclose(values, expected, rtol=1e-9, atol=1e-9):
            problems.append("predict output differs from the dual decision values")
        return problems


class AuditSuite:
    """Six audit subcommands in the configurations the acceptance checks use."""

    name = "audit-suite"
    corpus = None

    def prepare(self, workdir, seed, k):
        return inputs.audit_inputs(workdir, seed, k)

    def argvs(self, inp):
        p = inp["paths"]
        s = inp["seeds"]
        sens, ka, sep, pr = SENSITIVITY, KERNEL_APPROX, SEPARATION, PRIVACY_RATIO
        utility = ["--data", p["utility"], "--eps", UTILITY_EPS, "--delta", UTILITY_DELTA]
        return [
            ["--name", "sensitivity", "--seed", s[0], "--trials", sens["trials"],
             "--n", sens["n"], "--c", sens["c"], "--dim", sens["dim"]],
            ["--name", "utility", "--seed", s[1], "--trials", UTILITY_FINITE_TRIALS,
             "--c", RELEASE_C, "--lambda", repr(utility_finite_lambda()), *utility],
            ["--name", "utility", "--seed", s[2], "--trials", UTILITY_RFF_TRIALS,
             "--mechanism", "rff", "--kernel", "rbf", "--sigma", SIGMA,
             "--d-hat", UTILITY_RFF_D_HAT, "--c", RELEASE_C,
             "--lambda", repr(utility_rff_lambda()), "--data", p["utility"],
             "--eps", repr(utility_rff_eps()), "--delta", UTILITY_DELTA],
            ["--name", "kernel-approx", "--seed", s[3], "--trials", ka["trials"],
             "--kernel", "rbf", "--sigma", SIGMA, "--d-hat", kernel_approx_d_hat(),
             "--dim", ka["dim"], "--eps", ka["eps"], "--grid", ka["grid"]],
            ["--name", "separation", "--c", sep["c"], "--n", sep["n"], "--sigma", sep["sigma"]],
            ["--name", "privacy-ratio", "--seed", s[4], "--trials", pr["trials"],
             "--data", p["pair1"], "--data2", p["pair2"], "--c", pr["c"],
             "--lambda", repr(privacy_ratio_lambda()), "--beta", pr["beta"],
             "--bins", pr["bins"], "--coord", 0, "--dim", inputs.PAIR_DIM],
        ]

    def run(self, inp):
        return [call_cli(["audit", *argv]) for argv in self.argvs(inp)]

    def check(self, inp, out):
        problems = []
        for argv, (code, text) in zip(self.argvs(inp), out):
            name = argv[1]
            if code != 0:
                problems.append(f"audit {name}: exit code {code}")
            elif json.loads(text)["audit"]["pass"] is not True:
                problems.append(f"audit {name}: report does not pass")
        return problems


WORKLOADS = {w.name: w for w in (ReleaseRff(), TrainExact(), AuditSuite())}
