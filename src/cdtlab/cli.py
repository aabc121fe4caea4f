"""Command line front end.

Exit codes: 0 on success, 1 when a requested check or experiment fails,
2 on usage or configuration errors and on file I/O errors, each reported
as one `error:` line on stderr.  Library warnings print as one
`warning: <message>` line each.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import re
import sys
import warnings
from dataclasses import asdict

from . import betasieve, chebotarev, densities, errorterms, quadforms, verify, weights


def int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _emit(data) -> None:
    print(json.dumps(data, indent=2, default=str))


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _cmd_classnum(args) -> int:
    h = quadforms.class_number_order(args.D, args.conductor)
    cl = quadforms.class_representatives(args.D * args.conductor**2)
    _emit(
        {
            "D0": args.D,
            "conductor": args.conductor,
            "D": args.D * args.conductor**2,
            "h": h,
            "forms": [list(f) for f in cl.representatives],
        }
    )
    return 0


def _cmd_count(args) -> int:
    f = quadforms.Form(args.a, args.b, args.c)
    quadforms.check_primitive(f, "count")
    if args.csv and not args.per_class:
        args.parser.error("--csv needs --per-class")
    if args.per_class:
        report = chebotarev.equidistribution_report(f.discriminant, args.x, args.workers)
        if args.csv:
            rows = [r["form"] + [r["count"], r["expected"], r["rel_error"]] for r in report["rows"]]
            _write_csv(args.csv, ["a", "b", "c", "count", "expected", "rel_error"], rows)
        _emit(report)
        return 0
    count = chebotarev.count_prime_points(f, args.x, args.workers)
    _emit(
        {
            "form": list(f),
            "x": args.x,
            "lattice_points": count,
            "pi_class": count / quadforms.stab_order(f.discriminant),
        }
    )
    return 0


def _cmd_delta(args) -> int:
    f = quadforms.Form(args.a, args.b, args.c)
    P = densities.SievingModulus.from_int(args.modulus)
    d = densities.delta_f(f, P)
    _emit(
        {
            "form": list(f),
            "P": P.P,
            "delta": str(d),
            "delta_float": float(d),
            "obstructed": densities.represents_odd_primes_obstructed(f, P),
        }
    )
    return 0


def _cmd_sieve(args) -> int:
    spec = betasieve.SieveSpec(
        z=args.z, R=args.R, kind=args.kind, kappa=args.kappa, support=args.support
    )
    w = betasieve.beta_sieve_weights(spec)
    _emit(
        {
            "kind": w.spec.kind,
            "z": spec.z,
            "R": spec.R,
            "s": spec.s,
            "beta": spec.beta,
            "lambda": {str(d): lam for d, lam in sorted(w.lam.items())},
        }
    )
    return 0


def _cmd_weights(args) -> int:
    if (args.epsilon is None) != (args.ell is None):
        args.parser.error("--epsilon and --ell go together: give both or neither")
    if args.epsilon is not None:
        params = weights.WeightParams(x=args.x, epsilon=args.epsilon, ell=args.ell)
    else:
        params = weights.WeightParams.standard_choice(args.x, args.n_K, args.c_ZDE)
    report = weights.verify_bounds(params)
    report["params"] = {"x": params.x, "epsilon": params.epsilon, "ell": params.ell}
    _emit(report)
    return 0 if report["ok"] else 1


def _cmd_bounds(args) -> int:
    if args.beta1 is None and args.theta1 is not None:
        args.parser.error("--theta1 needs --beta1")
    theta1 = 0 if args.beta1 is None else (1 if args.theta1 is None else args.theta1)
    model = errorterms.ErrorModel(
        D_K=args.D_K, n_K=args.n_K, Qcal=args.Q_cal, beta1=args.beta1, theta1=theta1
    )
    out = {
        "Q": model.Q,
        "eta": errorterms.eta(args.x, model),
        "classical_error": errorterms.classical_error(args.x, model),
        "B1": errorterms.B1(args.x, model),
        "nu1": errorterms.nu1(model),
        "stark_floor": errorterms.stark_floor(model),
    }
    bounds = [
        ("thm11_error", errorterms.thm11_error),
        ("main_term_floor", errorterms.main_term_floor),
    ]
    if model.beta1 is not None:
        bounds.append(("siegel", errorterms.siegel_error))
    for key, bound in bounds:
        try:
            out[key] = bound(args.x, model)
        except errorterms.ConfigurationError as exc:
            out[key] = f"out of range: {exc}"
    if args.csv:
        rows = []
        k = 1
        while (x := float(f"1e{k}")) <= args.x:  # the float nearest 10^k, unlike 10.0 ** k
            e = errorterms.eta(x, model)
            rows.append([x, e, math.exp(-e), errorterms.classical_error(x, model)])
            k += 1
        _write_csv(args.csv, ["x", "eta", "exp_neg_eta", "classical_error"], rows)
    _emit(out)
    return 0


def _cmd_experiment(args) -> int:
    f = quadforms.Form(args.a, args.b, args.c)
    P = densities.SievingModulus.from_int(args.modulus)
    report = chebotarev.theorem15_experiment(
        f, P, args.x, workers=args.workers, tolerance=args.tolerance
    )
    _emit(asdict(report))
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    checks = verify.run_checks(full=args.full)
    failed = 0
    for name, ok, detail in checks:
        print(f"[{'ok' if ok else 'FAIL'}] {name}: {detail}")
        failed += not ok
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one `error: <prog>: <message>` line, and
    takes a token shaped like a negative float (-1e7, -.5, -inf, -nan)
    for a value, not an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d|\.\d|inf|nan)", re.I)

    def error(self, message: str):
        self.exit(2, f"error: {self.prog}: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: each parse_args
    returns a new namespace, so no value carries from one main to the next."""
    top = _Parser(prog="cdtlab")
    sub = top.add_subparsers(dest="command", required=True)

    def add_form(p):
        p.add_argument("a", type=int)
        p.add_argument("b", type=int)
        p.add_argument("c", type=int)

    p = sub.add_parser("classnum", help="class number and reduced forms of an order")
    p.add_argument("D", type=int, help="fundamental discriminant, negative")
    p.add_argument("--conductor", type=int, default=1)
    p.set_defaults(fn=_cmd_classnum)

    p = sub.add_parser("count", help="primes represented by a form up to x")
    add_form(p)
    p.add_argument("x", type=float)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--per-class", action="store_true")
    p.add_argument("--csv")
    p.set_defaults(fn=_cmd_count, parser=p)

    p = sub.add_parser("delta", help="coprimality density of a form")
    add_form(p)
    p.add_argument("--modulus", type=int, required=True)
    p.set_defaults(fn=_cmd_delta)

    p = sub.add_parser("sieve", help="beta-sieve weight table")
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--kind", choices=("upper", "lower"), default="upper")
    p.add_argument("--kappa", type=float, default=1.0)
    p.add_argument("--support", type=int_list, required=True, help="comma-separated primes")
    p.set_defaults(fn=_cmd_sieve)

    p = sub.add_parser("weights", help="smoothed weight transform report")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--ell", type=int)
    p.add_argument("--n-K", type=int, default=2)
    p.add_argument("--c-ZDE", type=int, default=10)
    p.set_defaults(fn=_cmd_weights, parser=p)

    p = sub.add_parser("bounds", help="analytic error bound calculus")
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--D-K", type=float, default=3.0)
    p.add_argument("--n-K", type=int, default=2)
    p.add_argument("--Q-cal", type=float, default=1.0)
    p.add_argument("--beta1", type=float)
    p.add_argument("--theta1", type=int, help="sign of the zero (default +1); needs --beta1")
    p.add_argument("--csv")
    p.set_defaults(fn=_cmd_bounds, parser=p)

    p = sub.add_parser("experiment", help="sifted prime count vs prediction")
    add_form(p)
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--tolerance", type=float, default=0.05)
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser("verify", help="run the internal invariant suites")
    p.add_argument("--full", action="store_true")
    p.set_defaults(fn=_cmd_verify)

    return top


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.fn(args)
        except (ValueError, ArithmeticError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
