import importlib
import importlib.util
import math
import pkgutil
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import privsvm

README = Path(__file__).resolve().parents[1] / "README.md"
LAYERS = Path(__file__).resolve().parents[1] / "privbench" / "layers.py"
MODULES = sorted(m.name for m in pkgutil.iter_modules(privsvm.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    # a stale __all__ entry breaks `from privsvm.<module> import *`
    module = importlib.import_module(f"privsvm.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    rng = np.random.default_rng(5)
    points = rng.uniform(-1.0, 1.0, (30, 2))
    labels = np.where(points[:, 0] + points[:, 1] >= 0, 1, -1)
    (tmp_path / "train.csv").write_text(
        "".join(f"{x!r},{y!r},{l:+d}\n" for (x, y), l in zip(points.tolist(), labels))
    )
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    out = capsys.readouterr().out
    assert out.startswith("[") and out.count("\n") == 1


def _two_points():
    return privsvm.Database(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([1.0, -1.0]))


def _unit_box(d):
    return privsvm.DomainBox(np.full(d, -1.0), np.full(d, 1.0))


@pytest.mark.parametrize("call, name", [
    (lambda: privsvm.sensitivity_finite(math.nan, 1.0, 2, 10), "C"),
    (lambda: privsvm.sensitivity_finite(1.0, 1.0, 2, math.nan), "n"),
    (lambda: privsvm.sensitivity_rff(1.0, 10, math.nan), "n"),
    (lambda: privsvm.calibrate_noise_privacy_finite(1.0, 1.0, 2, math.nan, 10), "beta"),
    (lambda: privsvm.solve_svm_dual(_two_points(), privsvm.linear_kernel(), 1.0,
                                    tol=math.nan, max_sweeps=20000), "tol"),
    (lambda: privsvm.solve_svm_dual(_two_points(), privsvm.linear_kernel(), 1.0,
                                    max_sweeps=math.nan), "max_sweeps"),
    (lambda: privsvm.sensitivity_audit(math.nan, 10, 1.0, _unit_box(2), 1), "trials"),
    (lambda: privsvm.sample_laplace(math.nan, 3, np.random.default_rng(0)), "scale"),
    (lambda: privsvm.sample_laplace(1.0, math.nan, np.random.default_rng(0)), "count"),
    (lambda: privsvm.erlang_tail_probability(2, math.nan, 1.0), "scale"),
    (lambda: privsvm.erlang_tail_probability(2, 1.0, math.nan), "threshold"),
    (lambda: privsvm.calibrate_rff_dim(math.nan, 0.1, 1, 1.0, 2.0), "eps"),
    (lambda: privsvm.calibrate_rff_dim(0.5, 0.1, 1, 1.0, math.nan), "diam"),
    (lambda: privsvm.calibrate_rff_dim(0.5, 0.1, math.nan, 1.0, 2.0), "d"),
    (lambda: privsvm.linear_separation_pair(math.nan, 10, 0.01), "C"),
    (lambda: privsvm.rbf_packing_family(math.nan, 8, 0.3), "C"),
    (lambda: privsvm.rbf_packing_family(1.0, math.nan, 0.3), "n"),
    (lambda: privsvm.kernel_approx_audit(privsvm.rbf_kernel(1.0), 4, _unit_box(1), math.nan,
                                         2, 5, 1), "eps"),
    (lambda: privsvm.privacy_ratio_audit(_two_points(), _two_points(), 1.0, 0.1, math.nan,
                                         10, 2, 0, 1, _unit_box(2)), "beta"),
    (lambda: privsvm.privacy_ratio_audit(_two_points(), _two_points(), 1.0, math.nan, 1.0,
                                         10, 2, 0, 1, _unit_box(2)), "lam"),
    (lambda: privsvm.utility_audit(_two_points(), privsvm.linear_kernel(), 1.0, math.nan, 0.5,
                                   0.1, 2, None, 1, _unit_box(2)), "lam"),
    (lambda: privsvm.utility_audit(_two_points(), privsvm.rbf_kernel(1.0), 1.0, 0.1, 0.5,
                                   0.1, 2, 5, 1, _unit_box(2), d_hat=math.nan), "d_hat"),
    (lambda: privsvm.kernel_approx_audit(privsvm.rbf_kernel(1.0), 0, _unit_box(1), 0.5,
                                         2, 5, 1), "d_hat"),
    (lambda: privsvm.approx_failure_bound(math.nan, 10, 1, 1.0, 2.0), "eps"),
    (lambda: privsvm.approx_failure_bound(0.0, 10, 1, 1.0, 2.0), "eps"),
    (lambda: privsvm.approx_failure_bound(0.5, 10, 1, 1.0, math.nan), "diam"),
    (lambda: privsvm.approx_failure_bound(0.5, -math.inf, 1, 1.0, 2.0), "d_hat"),
    (lambda: privsvm.approx_failure_bound(0.5, 10, math.nan, 1.0, 2.0), "d"),
    (lambda: privsvm.solve_svm_dual(_two_points(), privsvm.linear_kernel(), 1.0,
                                    max_sweeps=math.inf), "max_sweeps"),
    (lambda: privsvm.solve_svm_dual(_two_points(), privsvm.linear_kernel(), 1.0,
                                    max_sweeps=2.5), "max_sweeps"),
    (lambda: privsvm.sample_laplace(1.0, math.inf, np.random.default_rng(0)), "count"),
    (lambda: privsvm.sample_laplace(1.0, 2.5, np.random.default_rng(0)), "count"),
    (lambda: privsvm.erlang_tail_probability(2.5, 1.0, 1.0), "q"),
    (lambda: privsvm.sensitivity_audit(math.inf, 10, 1.0, _unit_box(2), 1), "trials"),
    (lambda: privsvm.sensitivity_audit(2, 10.5, 1.0, _unit_box(2), 1), "n"),
    (lambda: privsvm.utility_audit(_two_points(), privsvm.rbf_kernel(1.0), 1.0, 0.1, 0.5,
                                   0.1, 2, 5, 1, _unit_box(2), d_hat=math.inf), "d_hat"),
    (lambda: privsvm.kernel_approx_audit(privsvm.rbf_kernel(1.0), 4.5, _unit_box(1), 0.5,
                                         2, 5, 1), "d_hat"),
    (lambda: privsvm.calibrate_rff_dim(0.5, 0.1, math.inf, 1.0, 2.0), "d"),
    (lambda: privsvm.calibrate_rff_dim_hinge(0.5, 0.1, 1.0, 1.5, 1.0, 2.0), "d"),
    (lambda: privsvm.calibration_report_rff(1.0, 0.5, 0.1, 1.0, 10, math.inf, 1.0, 2.0), "d"),
    (lambda: privsvm.rbf_packing_family(1.0, math.inf, 0.3), "n"),
    (lambda: privsvm.approx_failure_bound(0.5, 10, 1, -1.0, 2.0), "sigma_p2"),
    (lambda: privsvm.approx_failure_bound(0.5, 10, 1, math.nan, 2.0), "sigma_p2"),
    (lambda: privsvm.calibrate_rff_dim(0.5, 0.1, 1, 0.0, 2.0), "sigma_p"),
    (lambda: privsvm.calibrate_rff_dim(0.5, 0.1, 1, -1.0, 2.0), "sigma_p"),
], ids=["sensitivity-C", "sensitivity-n", "sensitivity-rff-n", "privacy-beta", "solver-tol",
        "solver-max-sweeps", "sensitivity-audit-trials", "laplace-scale", "laplace-count",
        "erlang-scale", "erlang-threshold", "rff-dim-eps", "rff-dim-diam", "rff-dim-d",
        "linear-pair-C", "packing-C", "packing-n", "kernel-approx-eps", "privacy-ratio-beta",
        "privacy-ratio-lam", "utility-lam", "utility-rff-d-hat", "kernel-approx-d-hat-0",
        "failure-bound-eps", "failure-bound-eps-0", "failure-bound-diam",
        "failure-bound-d-hat-minus-inf", "failure-bound-d", "solver-max-sweeps-inf",
        "solver-max-sweeps-fractional", "laplace-count-inf", "laplace-count-fractional",
        "erlang-q-fractional", "sensitivity-audit-trials-inf", "sensitivity-audit-n-fractional",
        "utility-rff-d-hat-inf", "kernel-approx-d-hat-fractional", "rff-dim-d-inf",
        "rff-dim-hinge-d-fractional", "report-rff-d-inf", "packing-n-inf",
        "failure-bound-moment-negative", "failure-bound-moment-nan", "rff-dim-sigma-p-0",
        "rff-dim-sigma-p-negative"])
def test_nan_parameter_is_rejected(call, name):
    # NaN passes every check written as x <= 0; each entry point must refuse
    # it up front, not run on (the solver used to sweep to its limit). A few
    # cases are other out-of-range values: approx_failure_bound divided by
    # eps = 0, returned inf for d_hat = -inf and a negative bound for a
    # negative moment; an infinite or fractional count was a TypeError that
    # named no parameter
    with pytest.raises(ValueError, match=f"^{name} "):
        call()


def test_each_parameter_rule_is_written_once():
    # every entry point calls privsvm._checks instead of restating a rule,
    # so no copy can drift from its NaN-safe definition
    texts = ("must be finite and positive", "must lie in (0, 1)", "must be at least",
             "must exceed {minimum}", "must be a whole number")
    sources = sorted(Path(privsvm.__file__).parent.glob("*.py"))
    where = {t: [p.name for p in sources if t in p.read_text()] for t in texts}
    assert where == {t: ["_checks.py"] for t in texts}


def test_benchmark_span_targets_resolve(monkeypatch):
    # privbench wraps library functions by name, so a rename silently zeroes
    # a per-layer metric; rff.gram and solver.gram_any are known to wrap
    # nothing, and the test fails if either comes back as well
    known_dead = {"rff.gram", "solver.gram_any"}
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("privbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    dead = {span for span, (module, name, _) in layers.targets().items()
            if not hasattr(importlib.import_module(f"privsvm.{module}"), name)}
    assert dead == known_dead
