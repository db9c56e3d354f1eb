"""Command-line entry point.

Subcommands: ``run`` (execute an experiment), ``oracle`` (exact flow only),
``tune`` (bound calculators), ``verify-bounds`` (inequality suite) and
``adaptive`` (adaptive run; same as ``run`` with the adaptive kind
enforced).  Exit codes: 0 all requested checks pass, 1 a bound check
failed, 2 usage, config or input error (also one met mid-run, such as a
composed potential underflowing or the increment solver not converging).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import bounds
from .config import parse_config
from .errors import BudgetExceededError, ConfigError, FkipsError
from .harness import _oracle_csv, emit_csv, run_experiment, verify_bounds

USAGE_ERROR = 2
CHECK_FAILED = 1


def _load_config(path: str, args):
    """The config at ``path``, with the given ``[run]`` flags in place of the
    file's values, built once."""
    flags = {
        "seed": args.seed,
        "n_particles": args.particles,
        "replicates": args.replicates,
        "threads": args.threads,
    }
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError([f"{path}: not UTF-8 text at byte {exc.start}"]) from exc
    return parse_config(text, {k: v for k, v in flags.items() if v is not None})


def _add_common(p):
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--particles", type=int, default=None)
    p.add_argument("--replicates", type=int, default=None)
    p.add_argument(
        "--threads", type=int, default=None, help="accepted for older scripts; has no effect"
    )
    p.add_argument("--out", default=".", help="output directory")


def _cmd_run(args, force_kind=None) -> int:
    cfg = _load_config(args.config, args)
    if force_kind and cfg.kind != force_kind:
        print(f"config algorithm kind is {cfg.kind!r}, expected {force_kind!r}", file=sys.stderr)
        return USAGE_ERROR
    files = run_experiment(cfg)
    emit_csv(files, args.out)
    print(f"wrote {', '.join(files)} to {args.out}")
    return 0


def _cmd_oracle(args) -> int:
    cfg = _load_config(args.config, args)
    flow = cfg.flow
    if flow is None:
        print("adaptive configs have no standalone exact flow", file=sys.stderr)
        return USAGE_ERROR
    units = tuple(np.eye(flow.dim))
    (path,) = emit_csv(
        {"oracle.csv": _oracle_csv(flow.trace, flow.horizon, units, column="eta")}, args.out
    )
    print(f"wrote {path}")
    return 0


def _cmd_verify(args) -> int:
    cfg = _load_config(args.config, args)
    report = verify_bounds(cfg)
    (path,) = emit_csv({"verify.csv": report.to_csv()}, args.out)
    for row in report.rows:
        print(f"{row.status:17s} {row.name} [{row.scope}] lhs={row.lhs:.6g} rhs={row.rhs:.6g}")
    print(f"wrote {path}")
    # hypothesis-unmet rows are refusals, not failures
    return CHECK_FAILED if report.failures() else 0


def _ranged(ok, rule, convert=float):
    """An argparse type: a finite number for which ``ok`` holds; anything
    else is a usage error naming the flag."""

    def parse(text):
        x = convert(text)
        if not (math.isfinite(x) and ok(x)):
            raise argparse.ArgumentTypeError(f"must be a finite number {rule}, got {text!r}")
        return x

    parse.__name__ = convert.__name__   # argparse's "invalid int value" names it
    return parse


def _tune_values(tune, args, flags, compute) -> dict:
    """The named values ``compute()`` returns.  In-range ``flags`` whose
    values float64 or the 2^63 iteration budget cannot hold are a usage
    error naming every one of them."""
    out_of_range = "a result is outside the range of float64"
    try:
        values = compute()
        why = None if all(map(math.isfinite, values.values())) else out_of_range
    except ArithmeticError:
        why = out_of_range
    except BudgetExceededError as exc:
        why = str(exc)
    if why is not None:
        named = ", ".join(f"{flag} {getattr(args, flag[2:].replace('-', '_'))}" for flag in flags)
        tune.error(f"argument {flags[0]}: {why} at {named}")
    return values


def _cmd_tune(args, tune) -> int:
    values = {}
    inputs = {"a": args.a}
    if args.g_sup is not None and args.particles is not None:
        a, g_sup = args.a, args.g_sup
        values.update(_tune_values(tune, args, ("--g-sup", "--a", "--particles"), lambda: {
            **dict(zip(("r1_star", "r2_star"), bounds.r_star_bounded(a, g_sup, args.particles))),
            **dict(zip(("rt1", "rt2"), bounds.r_tilde_bounded(a, g_sup))),
            "b_max": bounds.condition_bounded(g_sup, a),
        }))
        inputs.update({"g_sup": args.g_sup, "n_particles": args.particles})
    if args.beta is not None and args.gap is not None and args.delta is not None:
        mode = "decreasing" if args.decreasing else "bounded"
        flags = ("--beta", "--gap", "--delta", "--delta-osc", "--a")
        values.update(_tune_values(tune, args, flags, lambda: {"m_p": bounds.tune_mcmc_iters(
            args.beta,
            args.delta,
            args.gap,
            args.a,
            mode,
            increment_osc=args.delta_osc,
        )}))
        inputs.update({
            "beta": args.beta, "gap": args.gap, "delta": args.delta,
            "delta_osc": args.delta_osc, "mode": mode,
        })
    if args.osc_v is not None and args.gap is not None:
        values.update(_tune_values(tune, args, ("--osc-v", "--gap", "--a"), lambda: {
            "critical_delta_beta": bounds.critical_delta_beta(args.a, args.osc_v, args.gap)
        }))
        inputs.update({"osc_v": args.osc_v, "gap": args.gap})
    if not values:
        print("nothing to compute; see fkips tune --help", file=sys.stderr)
        return USAGE_ERROR
    # _tune_values refused every non-finite value, and none is negative
    cells = [(k, format(float(v), ".17g")) for k, v in values.items()]
    lines = ["name=tune"] + [f"in.{k}={v}" for k, v in inputs.items()]
    print("\n".join(lines + [f"{k}={v}" for k, v in cells]))
    if args.out:
        table = "name,key,value\n" + "".join(f"tune,{k},{v}\n" for k, v in cells)
        (path,) = emit_csv({"tune.csv": table}, args.out)
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="fkips", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("run", "oracle", "verify-bounds", "adaptive"):
        p = sub.add_parser(name)
        _add_common(p)

    tune = sub.add_parser("tune")
    at_least_0 = _ranged(lambda x: x >= 0, ">= 0")
    tune.add_argument("--a", type=_ranged(lambda x: 0 < x < 1, "in (0, 1)"), required=True)
    tune.add_argument("--g-sup", type=_ranged(lambda x: x >= 1, ">= 1"), default=None)
    tune.add_argument("--particles", type=_ranged(lambda x: x >= 1, ">= 1", int), default=None)
    tune.add_argument("--beta", type=at_least_0, default=None)
    unit = _ranged(lambda x: 0 < x <= 1, "in (0, 1]")
    tune.add_argument("--delta", type=unit, default=None, help="minorization mass")
    tune.add_argument("--gap", type=at_least_0, default=None, help="k0-move potential climb")
    tune.add_argument("--delta-osc", type=at_least_0, default=None, help="increment times osc(V)")
    tune.add_argument("--osc-v", type=_ranged(lambda x: x > 0, "> 0"), default=None)
    tune.add_argument("--decreasing", action="store_true")
    tune.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    if args.command == "tune":
        # flags valid alone but not together
        if args.osc_v is not None and args.gap == 0:
            tune.error("argument --gap: must be > 0 with --osc-v")
        if None not in (args.beta, args.gap, args.delta) and args.delta_osc is None:
            tune.error("argument --delta-osc: required with --beta, --gap and --delta")
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "adaptive":
            return _cmd_run(args, force_kind="adaptive")
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "verify-bounds":
            return _cmd_verify(args)
        if args.command == "tune":
            return _cmd_tune(args, tune)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return USAGE_ERROR
    except FkipsError as exc:
        # an input the checks cannot be run on, met past the parse: exit 1
        # is kept for a failed bound check
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
