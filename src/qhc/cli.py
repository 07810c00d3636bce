"""Command line front-end.

    qhc normalize --algebra daha "T*T"
    qhc mul --algebra sdaha "P1" "Q1"
    qhc diamonds --algebra sdaha
    qhc hilbert --algebra inv --max 4 4
    qhc rank --algebra sdaha "Q1*P1" "R" "Q1*P1 + R"
    qhc act --gen E --algebra oq "l11"
    qhc verify --suite sdaha-diamonds
    qhc hc-check

Every command prints a JSON document with "schema": 1; identical invocations
produce byte-identical output.  --q/--t specialise the coefficients of the
word algebras at a rational point (guarded against the degenerate values);
the localised symbols detAi/detDi/detLi are only available symbolically.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import daha, dqops, hciso, invham, qgroup, suites
from .coeffring import CoeffError, QQField, coeff_str
from .exprparse import ParseError, Parser, ValueOps, WordAlgebraOps, tokenize
from .ncpoly import NcPoly
from .rewrite import (EngineError, LocElem, check_ambiguities, hilbert_table, rank_of_family,
                      specialisation_point)

ALGEBRAS = ("daha", "sdaha", "uq", "oq", "dq", "inv", "ham")


class LocOps(ValueOps):
    """Values in the localisation of spec at dens; each inverse is an atom
    under its display name, and named holds further atoms' bodies."""

    def __init__(self, spec, dens, named):
        self.spec = spec
        self.field = spec.field
        self.dens = dens
        self.named = named

    def wrap(self, body, exps=None):
        return LocElem(self.spec, self.dens, body, exps)

    def scalar(self, c):
        return self.wrap(self.spec.scalar(c))

    def atom(self, name: str):
        for i, den in enumerate(self.dens):
            if den.inverse_name == name:
                return self.wrap(self.spec.unit(), [int(j == i) for j in range(len(self.dens))])
        if name in self.named:
            return self.wrap(self.named[name]())
        if name in self.spec.alphabet.by_name:
            return self.wrap(self.spec.gen(name))
        raise KeyError(name)


#: algebras with a symbolic localisation: denominators and named elements
LOCALISED = {
    "oq": (qgroup.oq_denominators, {}),
    "dq": (dqops.dq_denominators, {"detA": dqops.det_a_body, "detD": dqops.det_d_body}),
}


class Context:
    def __init__(self, algebra: str, q0=None, t0=None):
        self.algebra = algebra
        self.specialized = q0 is not None or t0 is not None
        if self.specialized and (q0 is None or t0 is None):
            raise EngineError("give both --q and --t to specialise")
        base = {
            "daha": daha.daha_spec,
            "sdaha": daha.sdaha_spec,
            "uq": qgroup.uq_spec,
            "oq": qgroup.oq_spec,
            "dq": dqops.dq_spec,
            "inv": invham.inv_spec,
            "ham": invham.ham_spec,
        }[algebra]()
        # specialisation_point converts --q/--t and refuses malformed or
        # degenerate points
        self.spec = base.over(QQField(*specialisation_point(q0, t0))) if self.specialized else base
        if not self.specialized and algebra in LOCALISED:
            dens, named = LOCALISED[algebra]
            self.ops: ValueOps = LocOps(self.spec, dens(), named)
        else:
            self.ops = WordAlgebraOps(self.spec)

    def parse(self, src: str):
        return Parser(self.ops).parse(src)

    def normalize(self, value):
        if isinstance(value, NcPoly):
            return self.spec.nf(value)
        # localised wrappers normalise on construction; strip every
        # determinant denominator that divides the body exactly, by
        # leading-word division, for presentation
        return value.reduced()

    def terms_json(self, value):
        if isinstance(value, NcPoly):
            return [[self.spec.alphabet.word_str(w), coeff_str(c)] for w, c in value.sorted_terms()]
        return str(value)


def _emit(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise EngineError(f"cannot write --output {path}: {exc.strerror}") from None
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError as exc:
            # the exit's own flush of stdout would fail again, so stdout goes
            # to devnull (the recipe of Python's signal module documentation)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise EngineError(f"cannot write to stdout: {exc.strerror}") from None


def cmd_normalize(args) -> int:
    ctx = Context(args.algebra, args.q, args.t)
    value = ctx.normalize(ctx.parse(args.expr))
    _emit({
        "schema": 1,
        "command": "normalize",
        "algebra": args.algebra,
        "input": args.expr,
        "normal_form": str(value),
        "terms": ctx.terms_json(value),
    }, args.output)
    return 0


def cmd_mul(args) -> int:
    ctx = Context(args.algebra, args.q, args.t)
    a = ctx.parse(args.exprs[0])
    for src in args.exprs[1:]:
        # bounded like a '*' chain; a breach points at the operand's start
        a = ctx.ops.bounded_mul(a, ctx.parse(src), tokenize(src)[0])
    a = ctx.normalize(a)
    _emit({
        "schema": 1,
        "command": "mul",
        "algebra": args.algebra,
        "inputs": list(args.exprs),
        "normal_form": str(a),
        "terms": ctx.terms_json(a),
    }, args.output)
    return 0


def cmd_diamonds(args) -> int:
    ctx = Context(args.algebra, args.q, args.t)
    reports = check_ambiguities(ctx.spec)
    doc = {
        "schema": 1,
        "command": "diamonds",
        "algebra": args.algebra,
        "count": len(reports),
        "resolved": sum(1 for r in reports if r.resolved),
        "reports": [r.to_json(ctx.spec) for r in reports],
    }
    _emit(doc, args.output)
    return 0 if all(r.resolved for r in reports) else 1


def _max_bidegree(args, default=None):
    """--max as a pair, refusing negative bounds, which would check nothing."""
    if args.max is None:
        return default
    if min(args.max) < 0:
        raise EngineError(f"--max must be nonnegative, got {args.max[0]} {args.max[1]}")
    return tuple(args.max)


def cmd_hilbert(args) -> int:
    ctx = Context(args.algebra, args.q, args.t)
    tab = hilbert_table(ctx.spec, _max_bidegree(args))
    doc = {"schema": 1, "command": "hilbert"}
    doc.update(tab.to_json())
    _emit(doc, args.output)
    return 0


def cmd_rank(args) -> int:
    ctx = Context(args.algebra, args.q, args.t)
    if ctx.specialized:
        raise EngineError("rank already specialises internally; drop --q/--t")
    elems = [ctx.normalize(ctx.parse(src)) for src in args.exprs]
    for e in elems:
        if not isinstance(e, NcPoly):
            raise EngineError("rank expects word-algebra elements")
    res = rank_of_family(ctx.spec, elems)
    _emit({
        "schema": 1,
        "command": "rank",
        "algebra": args.algebra,
        "inputs": list(args.exprs),
        "rank": res.rank,
        "agreeing_points": res.agreeing,
        "per_point": list(res.per_point),
    }, args.output)
    return 0


def cmd_act(args) -> int:
    if args.algebra not in ("oq", "dq"):
        raise EngineError("the adjoint action is registered for 'oq' and 'dq'")
    if args.q is not None or args.t is not None:
        raise EngineError("act runs symbolically; drop --q/--t")
    ctx = Context(args.algebra, None, None)
    action = qgroup.oq_action() if args.algebra == "oq" else dqops.dq_action()
    value = ctx.parse(args.expr)
    out = ctx.ops.wrap(action.act(args.gen, value.body), value.exps)
    _emit({
        "schema": 1,
        "command": "act",
        "algebra": args.algebra,
        "generator": args.gen,
        "input": args.expr,
        "result": str(out),
    }, args.output)
    return 0


def cmd_verify(args) -> int:
    doc = suites.run_verify_suite(args.suite)
    doc["command"] = "verify"
    _emit(doc, args.output)
    return 0 if doc["pass"] else 1


def cmd_hc_check(args) -> int:
    rep = hciso.hc_verify(_max_bidegree(args, (4, 4)))
    _emit({"schema": 1, "command": "hc-check", **rep}, args.output)
    return 0 if rep["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qhc", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="verb", required=True)

    def common(p):
        p.add_argument("--algebra", required=True, choices=ALGEBRAS)
        p.add_argument("--q", default=None, help="specialise q at a rational, e.g. 2 or 5/3")
        p.add_argument("--t", default=None, help="specialise t at a rational")
        p.add_argument("--output", default=None, help="write the JSON report to a file")

    p = sub.add_parser("normalize", help="normal form of an expression")
    common(p)
    p.add_argument("expr")
    p.set_defaults(fn=cmd_normalize)

    p = sub.add_parser("mul", help="normal form of a product")
    common(p)
    p.add_argument("exprs", nargs="+")
    p.set_defaults(fn=cmd_mul)

    p = sub.add_parser("diamonds", help="overlap ambiguities and their resolution")
    common(p)
    p.set_defaults(fn=cmd_diamonds)

    p = sub.add_parser("hilbert", help="graded dimensions of the positive cone")
    common(p)
    p.add_argument("--max", nargs=2, type=int, required=True, metavar=("M", "N"))
    p.set_defaults(fn=cmd_hilbert)

    p = sub.add_parser("rank", help="rank of a family at rational points")
    common(p)
    p.add_argument("exprs", nargs="+")
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("act", help="adjoint action of E, F, K1, K2")
    common(p)
    p.add_argument("--gen", required=True, choices=["E", "F", "K1", "K2"])
    p.add_argument("expr")
    p.set_defaults(fn=cmd_act)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=sorted(suites.SUITES))
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("hc-check", help="relation transport and basis bijection")
    p.add_argument("--max", nargs=2, type=int, default=None, metavar=("M", "N"))
    p.add_argument("--output", default=None)
    p.set_defaults(fn=cmd_hc_check)

    return ap


#: options whose value may start with "-", as in --q -1/2
VALUE_OPTIONS = ("--q", "--t", "--output")
#: argparse's test for a negative number, which it reads as a value
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _glue_values(argv: list[str]) -> list[str]:
    """argv with a value after --q, --t or --output that starts with "-"
    glued on as --q=-1/2, which argparse would otherwise read as an option.

    Raises ValueError on any other word before "--" that argparse would
    read as an option but no option of qhc's can be: every option but -h
    is long, so a word such as -T+X1 is an expression."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        a = argv[i]
        if a == "--":
            return out + argv[i:]
        nxt = argv[i + 1] if i + 1 < len(argv) else ""
        if a in VALUE_OPTIONS and nxt.startswith("-") and not nxt.startswith("--"):
            out.append(f"{a}={nxt}")
            i += 2
            continue
        if (a.startswith("-") and not a.startswith(("--", "-h")) and len(a) > 1
                and " " not in a and not _NEGATIVE_NUMBER.match(a)):
            raise ValueError(f"{a!r} starts with '-' and reads as an option; "
                             f"put -- before the expressions")
        out.append(a)
        i += 1
    return out


def main(argv=None) -> int:
    ap = build_parser()
    try:
        argv = _glue_values(sys.argv[1:] if argv is None else list(argv))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, EngineError, CoeffError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
