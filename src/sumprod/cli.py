"""Command-line surface: gen, op, span, energy, regularize, count, verify,
search, suite."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Optional

from .counting import (bilinear_count, count_energy_equiv, f_collision_count,
                       tautological_count)
from .energy import ENERGY_OPS, dyadic_slice, energy
from .families import (FAMILY_KINDS, FamilySpec, gen_family,
                       local_search_min_ratio)
from .field import ElemSet, GroundField, read_set_file, render_set
from .regularize import (DEFAULT_SLACK_C, check_regular, default_slack,
                         xue_regularize)
from .repfn import OPS, BudgetExceeded, _parse_budget
from .report import ConstraintViolation
from .setalgebra import SpanSpec, combine, iterated_span
from .suite import ConfigError, ExperimentConfig, run_suite
from .verify import LEMMAS, LemmaParams, main_theorem_probe, run_lemma


def _budget(text: str) -> int:
    """--budget: a positive integer, as SUMPROD_BUDGET must be."""
    try:
        return _parse_budget(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _field_from_args(args) -> Optional[GroundField]:
    return GroundField.from_string(args.field) if args.field else None


def _load(path: str, args) -> ElemSet:
    if path == "-":
        text = sys.stdin.read()
        from .field import _field_from_header, parse_set
        fld = (_field_from_args(args) or _field_from_header(text)
               or GroundField.char0())
        return parse_set(text, fld)[0]
    return read_set_file(path, _field_from_args(args))[0]


def _emit(args, obj, plain: str) -> None:
    if args.json:
        if hasattr(obj, "to_dict"):
            obj = obj.to_dict()
        print(json.dumps(obj, indent=2, sort_keys=True, default=str))
    else:
        print(plain)


def _cmd_gen(args) -> int:
    fld = _field_from_args(args) or GroundField.char0()
    spec = FamilySpec(kind=args.family, n=args.n, field=fld, start=args.start,
                      step=args.step, base=args.base, ratio=args.ratio,
                      seed=args.seed or 0)
    print(render_set(gen_family(spec)), end="")
    return 0


def _cmd_op(args) -> int:
    A = _load(args.a, args)
    B = _load(args.b, args)
    print(render_set(combine(A, B, args.op, budget=args.budget)), end="")
    return 0


def _cmd_span(args) -> int:
    A = _load(args.set, args)
    print(render_set(iterated_span(A, SpanSpec(args.k, args.l),
                                   budget=args.budget)), end="")
    return 0


def _cmd_energy(args) -> int:
    A = _load(args.set, args)
    B = _load(args.other, args) if args.other else None
    if args.dyadic:
        sl = dyadic_slice(A, B, args.k, args.op, budget=args.budget)
        _emit(args, {"t": sl.t, "support_size": len(sl.support),
                     "energy": str(sl.energy_value),
                     "certificate_ok": sl.certificate_ok},
              f"t={sl.t} |D|={len(sl.support)} E_k={sl.energy_value} "
              f"cert={'ok' if sl.certificate_ok else 'VIOLATED'}")
        return 0
    m = energy(A, B, args.k, args.op, budget=args.budget)
    _emit(args, {"k": args.k, "op": args.op, "value": str(m.value),
                 "exact": m.exact}, str(m.value))
    return 0


def _cmd_regularize(args) -> int:
    A = _load(args.set, args)
    K = default_slack(len(A), args.slack_c)
    d = xue_regularize(A, args.k, args.op, budget=args.budget)
    rep = check_regular(d, A, args.k, K, budget=args.budget)
    _emit(args, rep,
          f"|B|={len(d.B)} |C|={len(d.C)} |S|={len(d.S_tau)} tau={d.tau} "
          f"rounds={d.rounds} check={'pass' if rep.passed else 'fail'}")
    return 0 if rep.passed else 1


def _cmd_count(args) -> int:
    eq = args.equation
    if eq != "energy-equiv" and (args.op, args.k) != (None, None):
        raise SystemExit(f"--op and --k are read by energy-equiv only, "
                         f"not by {eq}")
    sets = [_load(p, args) for p in args.sets]
    if eq == "kmps":
        if len(sets) != 3:
            raise SystemExit("kmps needs 3 set files (X Y Z)")
        c = f_collision_count(*sets, budget=args.budget)
    elif eq == "sdz":
        if len(sets) != 4:
            raise SystemExit("sdz needs 4 set files (A B C D)")
        c = bilinear_count(*sets, budget=args.budget)
    elif eq == "tautological":
        if len(sets) != 3:
            raise SystemExit("tautological needs 3 set files (B D P)")
        c = tautological_count(*sets, budget=args.budget)
    else:  # energy-equiv
        if len(sets) != 1:
            raise SystemExit("energy-equiv needs 1 set file")
        c = count_energy_equiv(sets[0], args.op or "add",
                               2 if args.k is None else args.k)
    _emit(args, {"equation": eq, "count": str(c)}, str(c))
    return 0


def _cmd_verify(args) -> int:
    sets = [_load(p, args) for p in args.sets]
    if args.lemma == "main" and not sets:
        res = main_theorem_probe(seed=args.seed or 0, budget=args.budget)
        text, passed = json.dumps(res, sort_keys=True), res["pass"]
        plain = (f"min_ratio={res['min_ratio']:.4f} floor={res['floor']} "
                 f"{'pass' if passed else 'fail'}")
    else:
        lemma = LEMMAS[args.lemma]
        if len(sets) != lemma.arity:
            raise SystemExit(f"lemma {args.lemma!r} needs {lemma.arity} "
                             f"set file(s), got {len(sets)}")
        # --op names the variant of cauchy-schwarz and regular
        variants = lemma.variants
        variant = args.variant or (
            args.op if args.op in variants else variants[0])
        if variant not in variants:
            raise SystemExit(f"unknown variant {variant!r} of lemma "
                             f"{args.lemma!r}; its variants: "
                             f"{', '.join(filter(None, variants)) or 'none'}")
        res = run_lemma(args.lemma, tuple(sets), variant,
                        LemmaParams(k=args.k, l=args.l, slack_c=args.slack_c,
                                    budget=args.budget))
        text, passed = res.to_json(), res.passed
        plain = (f"{res.lemma}: {'pass' if passed else 'fail'} "
                 f"fitted={res.fitted_constant:.6g} slack={res.slack:.6g}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    _emit(args, res, plain)
    return 0 if passed else 1


def _cmd_search(args) -> int:
    seed_set = _load(args.set, args)
    state = local_search_min_ratio(seed_set, args.steps,
                                   rng_seed=args.seed or 0,
                                   t0=args.t0, cooling=args.cooling,
                                   budget=args.budget)
    _emit(args, {"best_ratio": state.best_ratio,
                 "best": sorted(map(str, state.best)),
                 "steps": state.steps},
          f"best_ratio={state.best_ratio:.6f} over {state.steps} steps")
    if args.out:
        from .field import write_set_file
        write_set_file(args.out, state.best)
    return 0


def _cmd_suite(args) -> int:
    try:
        if args.config:
            with open(args.config) as fh:
                cfg = ExperimentConfig.from_json(fh.read())
        else:
            cfg = ExperimentConfig()
            cfg.validate()
        if args.out_dir:
            cfg.out_dir = args.out_dir
        if args.seed is not None:
            cfg.seed = args.seed
        manifest = run_suite(cfg)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    _emit(args, dataclasses.asdict(manifest),
          f"pass={manifest.n_pass} fail={manifest.n_fail} "
          f"skip={manifest.n_skip} -> {cfg.out_dir}/")
    return manifest.exit_code


def build_parser() -> argparse.ArgumentParser:
    # global flags accepted both before and after the subcommand; SUPPRESS
    # keeps a subparser from clobbering a value parsed at the top level
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field", default=argparse.SUPPRESS,
                        help="prime:<p> or char0 "
                        "(default: the set file's header, else char0)")
    common.add_argument("--json", action="store_true",
                        default=argparse.SUPPRESS,
                        help="machine-readable output")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--budget", type=_budget, default=argparse.SUPPRESS,
                        help="table-insertion budget (or env SUMPROD_BUDGET)")

    top = argparse.ArgumentParser(
        prog="sumprod", parents=[common],
        description="sum-product experiments over F_p and the integers")
    sub = top.add_subparsers(dest="command", required=True)

    def add_parser(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    p = add_parser("gen", help="generate a probe family")
    p.add_argument("family", choices=FAMILY_KINDS)
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--start", type=int, default=1)
    p.add_argument("--step", type=int, default=1)
    p.add_argument("--base", type=int, default=3)
    p.add_argument("--ratio", type=int, default=2)
    p.set_defaults(func=_cmd_gen)

    p = add_parser("op", help="pointwise set operation A op B")
    p.add_argument("op", choices=OPS)
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_op)

    p = add_parser("span", help="iterated span kA - lA")
    p.add_argument("set")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--l", type=int, default=1)
    p.set_defaults(func=_cmd_span)

    p = add_parser("energy", help="E_k(A,B) moments, dyadic slices")
    p.add_argument("set")
    p.add_argument("other", nargs="?")
    p.add_argument("--k", type=float, default=2.0)
    p.add_argument("--op", choices=ENERGY_OPS, default="add")
    p.add_argument("--dyadic", action="store_true",
                   help="report the dominant dyadic slice instead")
    p.set_defaults(func=_cmd_energy)

    p = add_parser("regularize", help="regular decomposition + check")
    p.add_argument("set")
    p.add_argument("--k", type=float, default=4.0)
    p.add_argument("--op", choices=ENERGY_OPS, default="add")
    p.add_argument("--slack-c", type=float, default=DEFAULT_SLACK_C)
    p.set_defaults(func=_cmd_regularize)

    p = add_parser("count", help="exact equation-solution counts")
    p.add_argument("equation", choices=("kmps", "sdz", "tautological",
                                        "energy-equiv"))
    p.add_argument("sets", nargs="+")
    p.add_argument("--op", choices=ENERGY_OPS,
                   help="energy-equiv only (default: add)")
    p.add_argument("--k", type=int, help="energy-equiv only (default: 2)")
    p.set_defaults(func=_cmd_count)

    p = add_parser("verify", help="run one lemma verifier")
    p.add_argument("--lemma", required=True, choices=tuple(LEMMAS))
    p.add_argument("sets", nargs="*",
                   help="the lemma's set files; none for main runs the sweep")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--l", type=int, default=2)
    p.add_argument("--op", choices=ENERGY_OPS, default="add")
    p.add_argument("--variant", help="default: the lemma's first variant")
    p.add_argument("--slack-c", type=float, default=DEFAULT_SLACK_C)
    p.add_argument("--out", help="write the report JSON here")
    p.set_defaults(func=_cmd_verify)

    p = add_parser("search", help="anneal toward small sum-product ratio")
    p.add_argument("set")
    p.add_argument("--steps", type=int, default=1000)
    p.add_argument("--t0", type=float, default=0.1)
    p.add_argument("--cooling", type=float, default=0.999)
    p.add_argument("--out", help="write the best set here")
    p.set_defaults(func=_cmd_search)

    p = add_parser("suite", help="run a full experiment config")
    p.add_argument("--config", help="ExperimentConfig JSON file")
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_suite)
    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # global flags default to SUPPRESS so a pre-subcommand value survives the
    # subparser pass; fill in the real defaults here
    for name, default in (("field", None), ("json", False), ("seed", None),
                          ("budget", None)):
        if not hasattr(args, name):
            setattr(args, name, default)
    try:
        return args.func(args)
    except ConstraintViolation as exc:
        print(f"constraint violated: {exc}", file=sys.stderr)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
    except (ValueError, OSError) as exc:
        # a bad input (ParseError and FieldMismatch are ValueErrors too) or
        # a set file that cannot be read; an ArithmeticError is a failed
        # exactness check and keeps its traceback
        print(f"error: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
