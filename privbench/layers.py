"""The layer functions the traced run wraps, and the per-layer metrics.

Times are self times per traced op, a span's duration minus its child spans,
in reference seconds (see measure.Clock).
PER_LAYER is the source of BENCHMARK.json's "per_layer" list; each entry also
names the end-to-end metric it should move, and on which workload.
"""

from __future__ import annotations

import os

NS = 1e9

PER_LAYER = [
    # name, unit, better, which end-to-end metric it should move
    ("rff.gram.s", "s", "lower",
     "op_s.p50, ops_per_s, cold_op_s on release-rff (about 90% of the op) and audit-suite "
     "(rff utility audit); nothing on train-exact"),
    ("rff.gram.cells", "count", "lower", "as rff.gram.s"),
    ("rff.feature_matrix.s", "s", "lower", "op_s.p50 on release-rff (training weights, predict)"),
    ("solver.solve.self_s", "s", "lower",
     "op_s.p50 on train-exact; op_s.p50 on audit-suite through per-call cost"),
    ("solver.solve.calls", "count", "lower", "op_s.p50 on audit-suite (hundreds of small solves)"),
    ("solver.sweeps", "count", "lower", "op_s.p50 and ops_per_s on train-exact"),
    ("solver.sweep_us", "us", "lower", "op_s.p50 and ops_per_s on train-exact"),
    ("solver.residual_max", "1", "lower", "none; KKT residual at exit, must stay within tol"),
    ("solver.q_bytes", "bytes_computed", "lower",
     "peak_rss_mb on train-exact and release-rff; computed as twice the bytes of the Gram "
     "matrices a solve builds (Gram and Q), not measured"),
    ("kernels.gram.s", "s", "lower", "op_s.p50 on train-exact (train and predict) and audit-suite"),
    ("kernels.gram.cells", "count", "lower", "as kernels.gram.s"),
    ("kernels.sample_spectral.s", "s", "lower", "op_s.p50 on audit-suite (kernel-approx audit)"),
    ("noise.sample_laplace.s", "s", "lower", "op_s.p50 on audit-suite only"),
    ("noise.draws", "count", "lower", "as noise.sample_laplace.s"),
    ("mechanisms.train_private_rff.self_s", "s", "lower", "op_s.p50 on release-rff and audit-suite"),
    ("mechanisms.train_private_finite.self_s", "s", "lower", "op_s.p50 on audit-suite"),
    ("data.load_csv.s", "s", "lower", "cold_op_s and op_s.p50 slightly, every workload"),
    ("model_io.save_model.s", "s", "lower", "cold_op_s and op_s.p50 slightly, every workload"),
    ("model_io.load_model.s", "s", "lower", "cold_op_s and op_s.p50 slightly, every workload"),
    ("model_io.bytes_written", "bytes", "lower", "as model_io.save_model.s"),
    ("cli.main.self_s", "s", "lower",
     "cold_op_s and op_s.p50 slightly, every workload; includes predict's own CSV parser"),
    ("audit.sensitivity_audit.self_s", "s", "lower", "op_s.p50 on audit-suite"),
    ("audit.utility_audit.self_s", "s", "lower", "op_s.p50 on audit-suite"),
    ("audit.kernel_approx_audit.self_s", "s", "lower", "op_s.p50 on audit-suite"),
    ("audit.privacy_ratio_audit.self_s", "s", "lower", "op_s.p50 on audit-suite"),
    ("audit.packing_separation_audit.self_s", "s", "lower", "op_s.p50 on audit-suite"),
    ("audit.trials", "count", "higher", "none; trials the audits report, fixed by configuration"),
    ("cold_op_s", "s", "lower",
     "none directly; the first op of a fresh process, what a CLI user pays each time. "
     "A single sample per run, too noisy for a bound, so it is reported here"),
    ("trace.overhead_frac", "ratio", "higher",
     "none; traced ops_per_s over untraced ops_per_s in the same run"),
]

AUDITS = ("sensitivity_audit", "utility_audit", "kernel_approx_audit",
          "privacy_ratio_audit", "packing_separation_audit")


def _cells(tracer, span, args, result):
    tracer.count(span.name + ".cells", result.shape[0] * result.shape[1])
    if any(s.name == "solver.solve" for s in tracer.stack):
        tracer.count("solve_gram_bytes", result.nbytes)


def _solve(tracer, span, args, result):
    tracer.count("solver.solve.calls", 1)
    tracer.count("solver.sweeps", result.sweeps)
    tracer.peak("solver.residual_max", result.residual)
    tracer.peak("solver.q_bytes", 2 * tracer.counts.pop("solve_gram_bytes", 0))


def _draws(tracer, span, args, result):
    tracer.count("noise.draws", result.size)


def _bytes_written(tracer, span, args, result):
    tracer.count("model_io.bytes_written", os.path.getsize(args[1]))


def _trials(tracer, span, args, result):
    tracer.count("audit.trials", result.trials)


def targets() -> dict:
    """Span name -> (privsvm module, function, counter or None)."""
    spans = {
        "cli.main": ("cli", "main", None),
        "data.load_csv": ("data", "load_csv", None),
        "model_io.save_model": ("model_io", "save_model", _bytes_written),
        "model_io.load_model": ("model_io", "load_model", None),
        "rff.gram": ("rff", "gram", _cells),
        "rff.feature_matrix": ("rff", "feature_matrix", None),
        "kernels.gram": ("kernels", "gram", _cells),
        "kernels.sample_spectral": ("kernels", "sample_spectral", None),
        "noise.sample_laplace": ("noise", "sample_laplace", _draws),
        "solver.solve": ("solver", "solve_svm_dual", _solve),
        "solver.gram_any": ("solver", "gram_any", None),
        "solver.decision_values": ("solver", "decision_values", None),
        "mechanisms.train_private_rff": ("mechanisms", "train_private_rff", None),
        "mechanisms.train_private_finite": ("mechanisms", "train_private_finite", None),
    }
    for name in AUDITS:
        spans[f"audit.{name}"] = ("audit", name, _trials)
    return spans


def metrics(tracer, traced_ops: int, scale: float) -> dict:
    """The PER_LAYER metrics the spans give, per traced op; times are scaled
    from wall to reference seconds by `scale`. The caller adds cold_op_s and
    trace.overhead_frac."""
    from measure import self_times

    own = self_times(tracer.spans)
    counts = tracer.counts
    out = {}
    for name, unit, _, _ in PER_LAYER:
        span = name.rsplit(".", 1)[0]
        if name in ("cold_op_s", "trace.overhead_frac"):
            continue
        if unit == "s":
            value = own.get(span, 0) / NS * scale / traced_ops
        elif name in ("solver.residual_max", "solver.q_bytes"):
            value = counts.get(name, 0)
        elif name == "solver.sweep_us":
            sweeps = counts.get("solver.sweeps", 0)
            value = own.get("solver.solve", 0) / 1e3 * scale / sweeps if sweeps else 0.0
        else:
            value = counts.get(name, 0) / traced_ops
        out[name] = {"value": value, "unit": unit}
    return out
