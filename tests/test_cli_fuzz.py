"""Fuzzing the command line: expressions drawn from the README grammar over all
seven algebras must end in JSON (exit 0) or one error line (exit 2), never in
a traceback.  Where a request answers, its result is checked against other
paths to the same value: the free expansion reduced by the reference
reducer, the symbolic normal form evaluated at a point, localised round
trips, and normalize of the product that mul computes."""

import contextlib
import io
import json
from fractions import Fraction
from functools import cache

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhc.cli import ALGEBRAS, Context, main
from qhc.coeffring import CoeffError, coeff_str
from qhc.exprparse import Parser, ValueOps, WordAlgebraOps
from qhc.ncpoly import NcPoly
from qhc.qgroup import qdet_oq

from oracles import naive_nf

#: generator names, their inverse letters and the localised atoms
ATOMS = {alg: sorted(Context(alg).spec.alphabet.by_name) for alg in ALGEBRAS}
ATOMS["oq"].append("detLi")
ATOMS["dq"] += ["detA", "detAi", "detD", "detDi"]
#: the localised atoms are words of length two
ATOM_DEGREE = {"detLi": 2, "detA": 2, "detAi": 2, "detD": 2, "detDi": 2}

SCALARS = ("0", "1", "2", "q", "t", "q^-1", "(1+t^2)", "(q-t)")
#: denominators for rank families; q - 2 and t - 3 vanish at the first
#: default point (2, 3), q^2 - 1 at the degenerate q = 1
DENOMINATORS = ("(1+t^2)", "(q-t)", "(q-2)", "(t-3)", "(q^2-1)", "q")
POINTS = (None, ("2", "3"), ("5/3", "2"), ("1", "2"))

#: most generator degree one drawn expression may reach; keeps each run short
MAX_DEGREE = 6

#: localised round trips: each determinant's inverse times the determinant,
#: on either side of an expression X, normalises to X's normal form; oq's
#: det_q(L) is written out as its word polynomial.  Products associate to
#: the left, so a left-hand trip brackets the determinant with X, and the
#: inverse cancels it out of a product with X, not alone.  A trip on the
#: side where a denominator does not sit (detA's right, detD's left) moves
#: it across X, so it checks the denominator's q-grading
ROUND_TRIPS = {
    "dq": ("detAi*(detA*({}))", "({})*detAi*detA", "detDi*(detD*({}))", "({})*detDi*detD"),
    "oq": (f"detLi*(({qdet_oq()})*({{}}))", f"({{}})*detLi*({qdet_oq()})"),
}


def expressions(alg: str, depth: int = 3):
    """(text, degree) of an expression nested at most depth deep, where the
    degree is the length of the longest word the expression can produce."""
    leaf = st.one_of(
        st.sampled_from(ATOMS[alg]).map(lambda a: (a, ATOM_DEGREE.get(a, 1))),
        st.sampled_from(SCALARS).map(lambda s: (s, 0)),
    )
    if depth == 0:
        return leaf
    inner = expressions(alg, depth - 1)

    def binary(parts):
        (x, dx), op, (y, dy) = parts
        return f"({x}{op}{y})", dx + dy if op == "*" else max(dx, dy)

    def power(parts):
        (x, dx), n = parts
        return f"({x})^{n}", dx * abs(n)

    return st.one_of(
        leaf,
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(binary),
        st.tuples(inner, st.integers(-3, 3)).map(power),
        inner.map(lambda p: (f"-{p[0]}", p[1])),
    ).filter(lambda p: p[1] <= MAX_DEGREE)


@cache
def expression_texts(alg: str):
    """The text of expressions(alg), built once per algebra so that
    hypothesis validates each strategy once and not on every draw."""
    return expressions(alg).map(lambda p: p[0])


@st.composite
def requests(draw):
    alg = draw(st.sampled_from(ALGEBRAS))
    expr = expression_texts(alg)
    verb = draw(st.sampled_from(("normalize", "mul", "rank")))
    if verb == "normalize":
        argv = [draw(expr)]
    elif verb == "mul":
        argv = draw(st.lists(expr, min_size=2, max_size=3))
    else:
        # one word in several scalings: a homogeneous family whose
        # coefficients carry scalar denominators
        word = draw(st.lists(st.sampled_from(ATOMS[alg]), min_size=1, max_size=3))
        argv = [f"{draw(st.sampled_from(SCALARS))}*{'*'.join(word)}/{draw(st.sampled_from(DENOMINATORS))}"
                for _ in range(draw(st.integers(1, 3)))]
    # rank refuses --q/--t: it specialises at its own points
    point = None if verb == "rank" else draw(st.sampled_from(POINTS))
    opts = [] if point is None else ["--q", point[0], "--t", point[1]]
    # "--" keeps argparse from reading an expression such as -T as an option
    return [verb, "--algebra", alg, *opts, "--", *argv]


def run(argv):
    """(exit status, parsed JSON or None) of one request, checked to end in
    JSON (exit 0) or one error line (exit 2)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    if rc == 0:
        doc = json.loads(out.getvalue())
        assert doc["schema"] == 1
        assert err.getvalue() == ""
        return rc, doc
    assert rc == 2, argv
    assert out.getvalue() == ""
    assert err.getvalue().startswith("error: ")
    assert err.getvalue().count("\n") == 1
    return rc, None


def evaluated_normal_form(alg, expr, q0, t0):
    """{word: value} of the symbolic normal form of expr with each
    coefficient evaluated at (q0, t0) by RatCoeff.eval, zero values dropped;
    None for a localised value (one that keeps a denominator power) or a
    coefficient with no value there."""
    ctx = Context(alg)
    value = ctx.normalize(ctx.parse(expr))
    if not isinstance(value, NcPoly):
        if any(value.exps):
            return None
        value = value.body
    try:
        at = {w: c.eval(Fraction(q0), Fraction(t0)) for w, c in value.terms.items()}
    except CoeffError:
        return None
    return {ctx.spec.alphabet.word_str(w): v for w, v in at.items() if v}


class FreeOps(WordAlgebraOps):
    """Values over a word algebra multiplied by ValueOps.mul, the free
    product, so parsing gives an expression's free expansion."""

    mul = ValueOps.mul


def naive_terms(ctx, expr):
    """The JSON terms of expr's normal form by the reference reducer: the
    sum of c * naive_nf(w) over the terms c w of its free expansion."""
    spec = ctx.spec
    out = spec.zero()
    for w, c in Parser(FreeOps(spec)).parse(expr).terms.items():
        out = out + naive_nf(spec, w, "leftmost").scale(c)
    return [[spec.alphabet.word_str(w), coeff_str(c)] for w, c in out.sorted_terms()]


def check_round_trips(alg, expr):
    """Each of alg's ROUND_TRIPS around expr normalises to expr's own
    symbolic normal form, when expr has one."""
    rc, doc = run(["normalize", "--algebra", alg, "--", expr])
    if rc:
        return
    for wrap in ROUND_TRIPS[alg]:
        rc2, doc2 = run(["normalize", "--algebra", alg, "--", wrap.format(expr)])
        assert rc2 == 0 and doc2["normal_form"] == doc["normal_form"], (alg, wrap, expr)


#: products and powers of sums with scalar coefficients on the word
#: algebras, so that the reference reducer checks normal forms with several
#: terms: the derandomised draws are mostly atoms and scalars
STRUCTURED = (
    ("daha", "(2*T + q*Y1)*(X1 - t)"),
    ("daha", "(q*X1 + 2*Y1i)^2"),
    ("sdaha", "(2*Q1 + q*P1)*(P1 - t*R)"),
    ("uq", "(2*E + q*F)*(F - K1)"),
    ("uq", "(q*E + 2*K2i)^2"),
    ("inv", "(2*c1 + q*d1)*(d1 - t*r)"),
    ("ham", "(q*c1 + 2*d1)^2"),
)


def structured(test):
    """test with two normalize examples per STRUCTURED pair: symbolic and at
    a point."""
    for alg, expr in STRUCTURED:
        test = example(["normalize", "--algebra", alg, "--q", "5/3", "--t", "2", "--", expr])(test)
        test = example(["normalize", "--algebra", alg, "--", expr])(test)
    return test


@settings(max_examples=60, deadline=None)
@structured
@given(requests())
def test_cli_answers_json_or_one_error_line(argv):
    rc, doc = run(argv)
    # options are read before "--" only: an expression such as --q is -(-q)
    split = argv.index("--")
    opts, exprs = argv[:split], argv[split + 1:]
    alg = opts[opts.index("--algebra") + 1]
    if alg in ROUND_TRIPS:
        check_round_trips(alg, exprs[0])
    if argv[0] in ("normalize", "mul") and rc == 0:
        # a word algebra's normal form, of an expression or of the product
        # of mul's operands, is the reference reducer's on the free expansion
        ctx = Context(alg, *(opts[opts.index(opt) + 1] if opt in opts else None for opt in ("--q", "--t")))
        if isinstance(ctx.ops, WordAlgebraOps):
            assert doc["terms"] == naive_terms(ctx, "*".join(f"({x})" for x in exprs)), argv
    if argv[0] == "normalize" and "--q" in opts and rc == 0:
        # specialisation commutes with normalisation: the terms at the
        # point equal the symbolic normal form evaluated there
        q0, t0 = (opts[opts.index(opt) + 1] for opt in ("--q", "--t"))
        want = evaluated_normal_form(alg, exprs[0], q0, t0)
        if want is not None:
            assert {w: Fraction(c) for w, c in doc["terms"]} == want, argv
    if argv[0] != "mul":
        return
    # mul A B ... equals normalize "(A)*(B)*...": the same terms, or for a
    # localised result (terms one string) the same normal form
    product = "*".join(f"({x})" for x in exprs)
    rc2, doc2 = run(["normalize", *opts[1:], "--", product])
    if rc == rc2 == 0:
        key = "terms" if isinstance(doc["terms"], list) else "normal_form"
        assert doc[key] == doc2[key], argv
