"""Command-line interface.

Subcommands: train, private-train-finite, private-train-rff, calibrate,
audit, predict, bounds. Results are JSON on stdout (predict emits plain
"value sign" lines); diagnostics go to stderr. Exit codes: 0 success,
1 computation error, 2 usage error.

Every domain constant (kappa, Phi, the diameter, the audits' grids and
boxes) comes from the declared box --box-min/--box-max, default [-1, 1]^d,
never from the data.

Release noise comes from np.random.default_rng(), seeded from the operating
system's entropy, which nobody else can reproduce; a release file therefore
cannot be reproduced. private-train-rff's required --seed seeds only the
public feature map it writes. Every audit but separation requires --seed,
and its reports are reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import audit as audit_mod
from . import mechanisms, model_io
from .data import DomainBox, load_csv, read_rows, split_labels
from .kernels import KernelSpec, linear_kernel, spectral_second_moment
from .rff import RandomFeatureMap
from .solver import SvmModel, decision_values, solve_svm_dual

_KERNEL_CHOICES = ("linear", "rbf", "laplacian", "cauchy")


class _UsageError(Exception):
    pass


def _kernel_from_args(args) -> KernelSpec:
    if args.kernel == "rbf":
        if args.sigma is None:
            raise _UsageError("--kernel rbf requires --sigma")
        return KernelSpec("rbf", args.sigma)
    if args.sigma is not None:
        raise _UsageError("--sigma only applies to the rbf kernel")
    return KernelSpec(args.kernel)


def _claimed_from_args(args) -> dict:
    given = {"beta": args.beta, "epsilon": args.eps, "delta": args.delta}
    return {key: value for key, value in given.items() if value is not None}


def _box_from_args(args, dim: int) -> DomainBox:
    # a list, not np.full: a dim below 1 gives an empty box, which DomainBox names
    return DomainBox([args.box_min] * dim, [args.box_max] * dim)


def _grid_from_args(args, dim: int) -> int:
    return audit_mod.default_grid_resolution(dim) if args.grid is None else args.grid


def _cmd_train(args) -> int:
    db = load_csv(args.data, has_header=args.header)
    kernel = _kernel_from_args(args)
    model = solve_svm_dual(db, kernel, args.c, tol=args.tol, max_sweeps=args.max_sweeps)
    model_io.save_model(model, args.out)
    print(json.dumps({"written": args.out, "n": db.n, "dim": db.dim,
                      "objective": model.objective, "sweeps": model.sweeps,
                      "residual": model.residual,
                      "at_lower": int(np.count_nonzero(model.alphas <= 0.0)),
                      "at_upper": int(np.count_nonzero(model.alphas >= model.C / db.n))}))
    return 0


def _cmd_private_train_finite(args) -> int:
    db = load_csv(args.data, has_header=args.header)
    model = mechanisms.train_private_finite(
        db, args.c, args.lam, np.random.default_rng(), claimed=_claimed_from_args(args)
    )
    model_io.save_model(model, args.out)
    print(json.dumps({"written": args.out, "n": db.n, "dim": db.dim}))
    return 0


def _cmd_private_train_rff(args) -> int:
    db = load_csv(args.data, has_header=args.header)
    seeded = np.random.default_rng(args.seed)  # draws the public map, never the noise
    fmap = RandomFeatureMap.from_rng(_kernel_from_args(args), db.dim, args.d_hat, seeded)
    model = mechanisms.train_private_rff(
        db, fmap, args.c, args.lam, np.random.default_rng(), claimed=_claimed_from_args(args)
    )
    model_io.save_model(model, args.out)
    print(json.dumps({"written": args.out, "n": db.n, "dim": db.dim, "d_hat": args.d_hat}))
    return 0


def _cmd_calibrate(args) -> int:
    box = _box_from_args(args, args.dim)
    if args.mechanism == "rff":
        kernel = _kernel_from_args(args)
        sigma_p = spectral_second_moment(kernel, args.dim) ** 0.5
        report = mechanisms.calibration_report_rff(
            args.beta, args.eps, args.delta, args.c, args.n,
            args.dim, sigma_p, box.diameter(),
        )
    else:
        report = mechanisms.calibration_report_finite(
            args.beta, args.eps, args.delta, args.c, args.n,
            box.max_l2_norm(), box.max_abs_coordinate(), args.dim,
        )
    print(model_io.dumps(report.to_doc()))
    return 0


def _cmd_bounds(args) -> int:
    if args.lower == "linear":
        bound = mechanisms.optimal_dp_lower_bound_linear(args.delta)
        doc = {"lower": "linear", "delta": args.delta, "bound": bound}
    else:
        if args.sigma is None:
            raise _UsageError("--lower rbf requires --sigma")
        N, bound = mechanisms.optimal_dp_lower_bound_rbf(args.delta, args.sigma)
        doc = {"lower": "rbf", "delta": args.delta, "sigma": args.sigma,
               "N": N, "bound": bound}
    print(model_io.dumps(doc))
    return 0


def _cmd_predict(args) -> int:
    model = model_io.load_model(args.model)
    dim = model.support.dim if isinstance(model, SvmModel) else model.dim
    rows, line_numbers = read_rows(args.data, args.header)
    if not len(rows):
        raise ValueError("no data rows to predict on")
    if rows.shape[1] == dim + 1:
        rows, _ = split_labels(rows, line_numbers)
    if isinstance(model, SvmModel):
        values = decision_values(model, rows)
    else:
        values = model.decision_values(rows)
    sys.stdout.write("".join(f"{v!r} {'+1' if v >= 0 else '-1'}\n" for v in values.tolist()))
    return 0


def _validate_audit_args(args) -> None:
    if args.name != "separation" and args.seed is None:
        raise _UsageError(f"audit --name {args.name} is randomized and requires --seed")
    needs = {
        "utility": ("data", "lam", "eps", "delta"),
        "kernel-approx": ("d_hat", "eps"),
        "privacy-ratio": ("data", "data2", "lam", "beta"),
        "separation": ("sigma",),
    }.get(args.name, ())
    if args.name == "utility" and args.mechanism == "rff":
        needs += ("d_hat",)
    flag_names = {"lam": "--lambda", "d_hat": "--d-hat"}
    for field in needs:
        if getattr(args, field) is None:
            flag = flag_names.get(field, "--" + field)
            raise _UsageError(f"audit --name {args.name} requires {flag}")


def _cmd_audit(args) -> int:
    _validate_audit_args(args)
    name = args.name
    if name == "sensitivity":
        box = _box_from_args(args, args.dim)
        report = audit_mod.sensitivity_audit(args.trials, args.n, args.c, box, args.seed)
    elif name == "utility":
        db = load_csv(args.data, has_header=args.header)
        # --kernel defaults to rbf, so the finite mechanism must not read it
        if args.mechanism == "rff":
            kernel, d_hat = _kernel_from_args(args), args.d_hat
            grid = _grid_from_args(args, db.dim)
        else:
            kernel, d_hat, grid = linear_kernel(), None, None
        report = audit_mod.utility_audit(
            db, kernel, args.c, args.lam, args.eps, args.delta, args.trials, grid,
            args.seed, _box_from_args(args, db.dim), d_hat=d_hat,
        )
    elif name == "kernel-approx":
        kernel = _kernel_from_args(args)
        box = _box_from_args(args, args.dim)
        grid = _grid_from_args(args, args.dim)
        report = audit_mod.kernel_approx_audit(
            kernel, args.d_hat, box, args.eps, args.trials, grid, args.seed
        )
    elif name == "privacy-ratio":
        db1 = load_csv(args.data, has_header=args.header)
        db2 = load_csv(args.data2, has_header=args.header)
        report = audit_mod.privacy_ratio_audit(
            db1, db2, args.c, args.lam, args.beta, args.trials, args.bins, args.coord,
            args.seed, _box_from_args(args, db1.dim),
        )
    else:  # separation
        report = audit_mod.packing_separation_audit(args.c, args.n, args.sigma)
    print(model_io.dumps(report.to_doc()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privsvm",
        description="Differentially private SVM training, calibration, and audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_kernel_flags(p, default=None):
        p.add_argument("--kernel", choices=_KERNEL_CHOICES, default=default,
                       required=default is None)
        p.add_argument("--sigma", type=float, default=None,
                       help="rbf bandwidth (rbf kernel only)")

    def add_box_flags(p):
        p.add_argument("--box-min", type=float, default=-1.0)
        p.add_argument("--box-max", type=float, default=1.0)

    def add_release_flags(p):
        p.add_argument("--data", required=True)
        p.add_argument("--c", type=float, required=True)
        p.add_argument("--lambda", dest="lam", type=float, required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--header", action="store_true")
        p.add_argument("--beta", type=float, default=None, help="claimed privacy level")
        p.add_argument("--eps", type=float, default=None, help="claimed accuracy")
        p.add_argument("--delta", type=float, default=None)

    p = sub.add_parser("train", help="train a non-private SVM")
    p.add_argument("--data", required=True)
    add_kernel_flags(p)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--header", action="store_true")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-sweeps", type=int, default=10**6)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("private-train-finite",
                       help="train and release noisy linear weights")
    add_release_flags(p)
    p.set_defaults(func=_cmd_private_train_finite)

    p = sub.add_parser("private-train-rff",
                       help="train in a random feature space and release noisy weights")
    add_release_flags(p)
    add_kernel_flags(p)
    p.add_argument("--d-hat", type=int, required=True)
    p.add_argument("--seed", type=int, required=True, help="seeds the public feature map only")
    p.set_defaults(func=_cmd_private_train_rff)

    p = sub.add_parser("calibrate", help="compute the noise window for a target")
    p.add_argument("--mechanism", choices=("finite", "rff"), required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    add_kernel_flags(p, "rbf")
    add_box_flags(p)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("audit", help="run a seeded audit and print its report")
    p.add_argument("--name", required=True,
                   choices=("sensitivity", "utility", "kernel-approx",
                            "privacy-ratio", "separation"))
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--data", default=None)
    p.add_argument("--data2", default=None)
    p.add_argument("--header", action="store_true")
    p.add_argument("--mechanism", choices=("finite", "rff"), default="finite")
    add_kernel_flags(p, "rbf")
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--d-hat", type=int, default=None)
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--dim", type=int, default=2)
    add_box_flags(p)
    p.add_argument("--eps", type=float, default=None)
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--bins", type=int, default=40)
    p.add_argument("--coord", type=int, default=0)
    p.add_argument("--grid", type=int, default=None)
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("predict", help="decision values and signs for data rows")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--header", action="store_true")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("bounds", help="privacy lower bounds for accurate mechanisms")
    p.add_argument("--lower", choices=("linear", "rbf"), required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--sigma", type=float, default=None)
    p.set_defaults(func=_cmd_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
