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
and its reports are reproducible. Each audit reads only the flags its row of
_AUDITS names; any other flag given to it is a usage error.
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
    """[--box-min, --box-max]^d, with d from --dim where given, else `dim`."""
    dim = dim if getattr(args, "dim", None) is None else args.dim
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


def _run_utility_finite(args):
    db = load_csv(args.data, has_header=args.header)
    return audit_mod.utility_audit(db, linear_kernel(), args.c, args.lam, args.eps, args.delta,
                                   args.trials, None, args.seed, _box_from_args(args, db.dim))


def _run_utility_rff(args):
    db = load_csv(args.data, has_header=args.header)
    return audit_mod.utility_audit(
        db, _kernel_from_args(args), args.c, args.lam, args.eps, args.delta, args.trials,
        _grid_from_args(args, db.dim), args.seed, _box_from_args(args, db.dim), d_hat=args.d_hat,
    )


def _run_kernel_approx(args):
    kernel, box = _kernel_from_args(args), _box_from_args(args, 2)
    return audit_mod.kernel_approx_audit(kernel, args.d_hat, box, args.eps, args.trials,
                                         _grid_from_args(args, box.dim), args.seed)


def _run_privacy_ratio(args):
    db1, db2 = (load_csv(path, has_header=args.header) for path in (args.data, args.data2))
    # the audit refuses a box whose --dim is not the data's
    return audit_mod.privacy_ratio_audit(db1, db2, args.c, args.lam, args.beta, args.trials,
                                         args.bins, args.coord, args.seed,
                                         _box_from_args(args, db1.dim))


# (runner, required flags, optional flags) of each `audit --name`, utility's
# also by --mechanism; the first mechanism listed for a name is its default.
_BOX = ("box_min", "box_max")
_AUDITS = {
    ("sensitivity", None): (
        lambda a: audit_mod.sensitivity_audit(a.trials, a.n, a.c, _box_from_args(a, 2), a.seed),
        ("seed",), ("trials", "n", "c", "dim", *_BOX)),
    ("utility", "finite"): (_run_utility_finite, ("seed", "data", "lam", "eps", "delta"),
                            ("trials", "header", "c", *_BOX)),
    ("utility", "rff"): (_run_utility_rff, ("seed", "data", "lam", "eps", "delta", "d_hat"),
                         ("trials", "header", "c", "kernel", "sigma", "grid", *_BOX)),
    ("kernel-approx", None): (_run_kernel_approx, ("seed", "d_hat", "eps"),
                              ("trials", "kernel", "sigma", "dim", "grid", *_BOX)),
    ("privacy-ratio", None): (_run_privacy_ratio, ("seed", "data", "data2", "lam", "beta"),
                              ("trials", "header", "c", "bins", "coord", "dim", *_BOX)),
    ("separation", None): (lambda a: audit_mod.packing_separation_audit(a.c, a.n, a.sigma),
                           ("sigma",), ("c", "n")),
}
# Optional flags' defaults; None: --dim the data's (else 2), --grid default_grid_resolution
_AUDIT_DEFAULTS = {"trials": 100, "header": False, "c": 1.0, "n": 20, "dim": None,
                   "box_min": -1.0, "box_max": 1.0, "kernel": "rbf", "sigma": None,
                   "bins": 40, "coord": 0, "grid": None}


def _flag(field: str) -> str:
    return "--lambda" if field == "lam" else "--" + field.replace("_", "-")


def _checked_audit(args):
    """The runner of the audit args name, after the usage checks and with defaults set."""
    mechanisms = [m for name, m in _AUDITS if name == args.name]
    row = _AUDITS.get((args.name, getattr(args, "mechanism", mechanisms[0])))
    if row is None:
        raise _UsageError(f"audit --name {args.name} does not read --mechanism")
    run, required, optional = row
    given = [f for f in vars(args) if f not in ("command", "func", "name", "mechanism")]
    unread = [f for f in given if f not in required + optional]
    if unread:
        raise _UsageError(f"audit --name {args.name} does not read {_flag(unread[0])}")
    for field in required:
        if field not in given:
            needs = "is randomized and requires" if field == "seed" else "requires"
            raise _UsageError(f"audit --name {args.name} {needs} {_flag(field)}")
    for field in optional:
        vars(args).setdefault(field, _AUDIT_DEFAULTS[field])
    return run


def _cmd_audit(args) -> int:
    print(model_io.dumps(_checked_audit(args)(args).to_doc()))
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
        p.add_argument("--sigma", type=float, help="rbf bandwidth (rbf kernel only)")

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

    # no defaults here: _checked_audit tells a given flag from an absent one
    p = sub.add_parser("audit", help="run a seeded audit and print its report",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--name", required=True, choices=list(dict.fromkeys(n for n, _ in _AUDITS)))
    p.add_argument("--mechanism", choices=[m for _, m in _AUDITS if m])
    for flag in ("--seed", "--trials", "--n", "--dim", "--d-hat", "--bins", "--coord", "--grid"):
        p.add_argument(flag, type=int)
    for flag in ("--c", "--eps", "--delta", "--beta", "--box-min", "--box-max"):
        p.add_argument(flag, type=float)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--data")
    p.add_argument("--data2")
    p.add_argument("--header", action="store_true")
    add_kernel_flags(p, argparse.SUPPRESS)
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
