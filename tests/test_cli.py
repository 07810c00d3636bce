"""Expression front-end and command dispatcher."""

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from qhc import coeffring, exprparse, rewrite
from qhc.cli import Context, main
from qhc.daha import sdaha_spec
from qhc.exprparse import ParseError, Parser, WordAlgebraOps

from oracles import is_normal


def test_parse_simple_word():
    # products reduce per factor, so T*T parses to its normal form
    ctx = Context("daha")
    v = ctx.parse("T*T")
    t = ctx.spec.gen("T")
    assert v == ctx.spec.nf(t * t)


def test_parse_two_term_poly():
    ctx = Context("sdaha")
    v = ctx.parse("(q^-2 - 1)*R + Q1*P1")
    assert len(v.terms) == 2


def test_parse_negative_generator_power():
    ctx = Context("daha")
    v = ctx.parse("X1^-2")
    ((w, c),) = v.terms.items()
    assert ctx.spec.alphabet.word_str(w) == "X1i^2"


def test_parse_scalar_powers():
    ctx = Context("sdaha")
    assert ctx.parse("(2*q)^-3") == ctx.parse("1/(8*q^3)")
    assert ctx.parse("(q - t)^0") == ctx.parse("1")


def test_parse_power_is_reduced():
    spec = sdaha_spec()
    v = Parser(WordAlgebraOps(spec)).parse("(Q1+P1)^3")
    x = spec.gen("Q1") + spec.gen("P1")
    assert is_normal(spec, v)
    assert v == spec.nf(x * x * x)


def test_long_power_matches_factorwise_fold():
    # reference: the fold nf(acc * x) over the sixteen factors
    spec = sdaha_spec()
    x = spec.gen("Q1") + spec.gen("P1")
    acc = spec.unit()
    for _ in range(16):
        acc = spec.nf(acc * x)
    v = Parser(WordAlgebraOps(spec)).parse("(Q1+P1)^16")
    assert v == acc
    assert str(v) == str(acc)


def test_product_chain_matches_power():
    # each explicit factor reduces as a power's does, so the chain prints the
    # power's normal form byte for byte
    ctx = Context("daha")
    chain = ctx.parse("*".join(["(T+X1+Y1)"] * 6))
    power = ctx.parse("(T+X1+Y1)^6")
    assert is_normal(ctx.spec, chain)
    assert chain == power
    assert str(chain) == str(power)


def test_parse_errors_carry_positions():
    ctx = Context("daha")
    with pytest.raises(ParseError, match="column 1"):
        ctx.parse("X3")
    with pytest.raises(ParseError, match="column 4"):
        ctx.parse("T* $")
    # a superscript digit is no integer; int() once raised on it uncaught
    with pytest.raises(ParseError, match="unexpected character '²' \\(line 1, column 3\\)"):
        ctx.parse("T^²")
    with pytest.raises(ParseError):
        ctx.parse("T/(X1)")


def test_parse_depth_is_bounded(monkeypatch):
    monkeypatch.setattr(exprparse, "MAX_DEPTH", 3)
    ctx = Context("daha")
    assert ctx.parse("(((T)))") == ctx.parse("T")
    assert ctx.parse("T*---T") == ctx.parse("-T*T")
    with pytest.raises(ParseError, match=r"nesting deeper than the limit of 3 \(line 1, column 5\)"):
        ctx.parse("((((T))))")
    with pytest.raises(ParseError, match="nesting deeper than the limit of 3"):
        ctx.parse("T*----T")


def test_cli_deep_nesting_exits_2(capsys):
    # 300 parentheses used to overflow the stack with an uncaught RecursionError
    n = exprparse.MAX_DEPTH
    rc = main(["normalize", "--algebra", "daha", "(" * 300 + "T" + ")" * 300])
    assert rc == 2
    assert f"nesting deeper than the limit of {n}" in capsys.readouterr().err
    assert main(["normalize", "--algebra", "daha", "(" * n + "T" + ")" * n]) == 0


def test_cli_deep_word_normalises_and_an_explosive_one_exits_2(capsys, monkeypatch):
    # p22 sinks through a12^250 one letter product per a12, inside 200
    # parentheses too: the products wait on an explicit stack, not Python's
    for expr in ["p22*a12^250", "(" * 200 + "p22*a12^250" + ")" * 200]:
        assert main(["normalize", "--algebra", "dq", expr]) == 0
        assert json.loads(capsys.readouterr().out)["normal_form"] == "a12^250*p22"
    # p11 sinks through a11^20 with results that grow at each a11; the
    # terms the request adds are charged, so it ends on the budget
    monkeypatch.setattr(rewrite, "STEP_BUDGET", 10**4)
    assert main(["normalize", "--algebra", "dq", "p11^20*a11^20"]) == 2
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "error: dq: step budget of 10000 exceeded while reducing p11*a11^20\n"


def test_roundtrip_printed_normal_forms():
    rng = random.Random(31)
    for algebra in ("daha", "sdaha", "inv", "uq"):
        ctx = Context(algebra)
        names = list(ctx.spec.alphabet.by_name)
        for _ in range(12):
            word = [rng.choice(names) for _ in range(rng.randint(1, 4))]
            p = ctx.spec.nf(ctx.spec.word_poly(*word))
            if not p:
                continue
            again = ctx.spec.nf(ctx.parse(str(p)))
            assert again == p, (algebra, word, str(p))


def test_cli_normalize_json(capsys):
    rc = main(["normalize", "--algebra", "daha", "Ti*Y1*Ti"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["schema"] == 1
    assert out["normal_form"] == "Y2"


# A, B and D: polynomials in q and t of five terms each, pairwise coprime
A = {(4, 5): 1, (1, 7): 1, (3, 0): -2, (0, 1): 1, (0, 0): 1}
B = {(5, 3): 1, (2, 7): 3, (0, 4): -1, (1, 0): 1, (0, 0): 2}
D = {(5, 6): 3, (2, 8): -1, (3, 2): 2, (1, 0): 1, (0, 0): 1}


def _normalize_daha(capsys, expr):
    rc = main(["normalize", "--algebra", "daha", expr])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    return out["normal_form"]


def _text(f):
    return f"({coeffring.p_str(f)})"


def test_cli_coprime_fractions_skip_the_prs(capsys):
    # two fractions over the same denominator D: reducing their product
    # meets one gcd of 24- and 15-term coprime polynomials, which a primitive
    # PRS took minutes over
    den = "(3*q^5*t^6 - q^2*t^8 + 2*q^3*t^2 + q + 1)"
    expr = f"(q^4*t^5 + q*t^7 - 2*q^3 + t + 1)/{den} * (q^5*t^3 + 3*q^2*t^7 - t^4 + q + 2)/{den} * T"
    p_mul = coeffring.p_mul
    assert _normalize_daha(capsys, expr) == f"{_text(p_mul(A, B))}/{_text(p_mul(D, D))}*T"


def test_cli_fractions_with_shared_factors_reduce(capsys):
    # gcds of pairs that share B or D, over which a primitive PRS took from
    # seconds to more than six minutes; the sum's reduced denominator is A*B*D
    a, b, d = _text(A), _text(B), _text(D)
    p_mul = coeffring.p_mul
    got = _normalize_daha(capsys, f"({a}*{d})/({b}*{d}*{d}) * {b} * T")
    assert got == f"{a}/{d}*T"
    got = _normalize_daha(capsys, f"{a}/({b}*{d}) + {b}/({a}*{d}) + T")
    num, den = coeffring.p_add(p_mul(A, A), p_mul(B, B)), p_mul(p_mul(A, B), D)
    assert got == f"{_text(num)}/{_text(den)} + T"


def test_cli_deterministic_output(capsys):
    main(["normalize", "--algebra", "sdaha", "R*R"])
    first = capsys.readouterr().out
    main(["normalize", "--algebra", "sdaha", "R*R"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_specialized(capsys):
    rc = main(["normalize", "--algebra", "daha", "--q", "2", "--t", "3", "T*T"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    # T^2 = (3 - 1/3) T + 1 at t = 3
    assert out["terms"] == [["1", "1"], ["T", "8/3"]]


def test_cli_rejects_degenerate_point(capsys):
    rc = main(["normalize", "--algebra", "daha", "--q", "1", "--t", "3", "T"])
    assert rc == 2
    # malformed rationals once escaped as ValueError / ZeroDivisionError
    for q in ("abc", "1/0"):
        rc = main(["normalize", "--algebra", "daha", "--q", q, "--t", "2", "T"])
        assert rc == 2
        assert "not a pair of rationals" in capsys.readouterr().err


def test_cli_unknown_generator(capsys):
    rc = main(["normalize", "--algebra", "daha", "X3"])
    assert rc == 2
    assert "unknown generator" in capsys.readouterr().err


def test_cli_diamonds(capsys):
    rc = main(["diamonds", "--algebra", "sdaha"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["count"] == 15 and out["resolved"] == 15
    assert {r["resolved"] for r in out["reports"]} == {True}


def test_cli_hilbert(capsys):
    rc = main(["hilbert", "--algebra", "inv", "--max", "2", "2"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert [2, 2, 6] in out["dims"]


def test_cli_rank(capsys):
    rc = main(["rank", "--algebra", "sdaha", "Q1*P1", "R", "Q1*P1 + R"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["rank"] == 2
    assert out["agreeing_points"] == 3


def test_cli_rank_where_the_points_disagree(capsys):
    # (q-2) vanishes at the first point and (t-7) at the third, so the one
    # elimination mod the product of the primes falls back to one per point;
    # the output is the one each point's own elimination gave
    rc = main(["rank", "--algebra", "sdaha", "(q-2)*R", "(t-7)*Q1*P1"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out == {"schema": 1, "command": "rank", "algebra": "sdaha",
                   "inputs": ["(q-2)*R", "(t-7)*Q1*P1"],
                   "rank": 2, "agreeing_points": 1, "per_point": [1, 2, 1]}


def test_cli_act(capsys):
    # detLi is invariant; its image once printed as detLi*(0)
    for expr in ("l11 + q^-2*l22", "detLi"):
        rc = main(["act", "--gen", "E", "--algebra", "oq", expr])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["result"] == "0"


def test_cli_act_refuses_a_point(capsys):
    # act has no specialised form; the point was once dropped silently
    rc = main(["act", "--q", "2", "--t", "3", "--gen", "E", "--algebra", "oq", "l11 + q^-2*l22"])
    cap = capsys.readouterr()
    assert rc == 2
    assert cap.out == ""
    assert "drop --q/--t" in cap.err


def test_cli_verify_suite(capsys):
    rc = main(["verify", "--suite", "sdaha-diamonds"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["pass"] is True
    assert out["failed"] == 0


def test_cli_hc_check(capsys):
    rc = main(["hc-check", "--max", "2", "2"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["pass"] is True
    assert len(out["relations"]) == 11


@pytest.mark.parametrize("argv", [
    ["hc-check", "--max", "-1", "-1"],
    ["hilbert", "--algebra", "inv", "--max", "-2", "1"],
], ids=["hc-check", "hilbert"])
def test_cli_rejects_negative_max(capsys, argv):
    # a negative bound once checked nothing and reported a pass or an empty table
    rc = main(argv)
    cap = capsys.readouterr()
    assert rc == 2
    assert cap.out == ""
    assert "--max must be nonnegative" in cap.err


def test_cli_rank_vanishing_denominator_exits_2(capsys):
    # 1/(q-2) has no value at the default point (2, 3); the CoeffError once
    # escaped main as a traceback with exit status 1
    rc = main(["rank", "--algebra", "daha", "1/(q-2)", "T"])
    cap = capsys.readouterr()
    assert rc == 2
    assert cap.out == ""
    assert cap.err.startswith("error: denominator factor q - 2 vanishes at (q, t) = (2, 3)")


@pytest.mark.parametrize("argv, where", [
    (["hilbert", "--algebra", "inv", "--max", "4", "4"], "inv: more than 50 words enumerated by bidegree (2, 3)"),
    # empty bidegrees are charged too: oq has one word of degree (0, *)
    (["hilbert", "--algebra", "oq", "--max", "0", "100"], "oq: more than 50 words enumerated by bidegree (0, 49)"),
    (["hc-check", "--max", "4", "4"], "ham: more than 50 words enumerated by bidegree (1, 3)"),
], ids=["hilbert", "hilbert-empty", "hc-check"])
def test_cli_word_budget_exits_2(capsys, monkeypatch, argv, where):
    # dq --max 16 16 and hc-check --max 60 60 were once bounded by --max alone
    monkeypatch.setattr(rewrite, "WORD_BUDGET", 50)
    rc = main(argv)
    cap = capsys.readouterr()
    assert rc == 2
    assert cap.out == ""
    assert f"{where}; lower --max" in cap.err


@pytest.mark.parametrize("top", ["0", "1"])
def test_cli_hilbert_uq_is_not_enumerable(capsys, top):
    # uq's K blocks have degree (0, 0) and no cap, so no bidegree bounds
    # their exponents, not even (0, 0)
    rc = main(["hilbert", "--algebra", "uq", "--max", top, top])
    cap = capsys.readouterr()
    assert rc == 2
    assert cap.out == ""
    assert cap.err == "error: block K1 has an unbounded exponent and is not enumerable\n"


def test_cli_import_skips_dataclasses():
    # dataclasses pulls in inspect, ast, dis and tokenize: more than a third of
    # what importing qhc.cli costs every cold request; a bare interpreter is
    # the baseline, so modules that .pth files load do not count
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def modules(code):
        res = subprocess.run([sys.executable, "-c", f"{code}; import sys; print(*sys.modules)"],
                             capture_output=True, text=True, env=env, timeout=60, check=True)
        return set(res.stdout.split())

    extra = modules("import qhc.cli") - modules("pass")
    assert "qhc.cli" in extra
    assert not extra & {"dataclasses", "inspect"}


def test_cli_negative_point_values(capsys):
    # argparse once read a separate -1/2 as an option and exited 2 with
    # "argument --q: expected one argument"
    outs = []
    for argv in (["--q", "-1/2", "--t", "-3"], ["--q=-1/2", "--t=-3"]):
        rc = main(["normalize", "--algebra", "daha", *argv, "q*t*T"])
        outs.append(capsys.readouterr().out)
        assert rc == 0
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["normal_form"] == "(3/2)*T"


@pytest.mark.parametrize("argv", [
    ["normalize", "--algebra", "daha", "-T+X1"],
    ["mul", "--algebra", "daha", "T", "-X1"],
], ids=["normalize", "mul"])
def test_cli_leading_minus_expression_says_to_use_dashes(capsys, argv):
    # argparse once reported "the following arguments are required: expr"
    rc = main(argv)
    cap = capsys.readouterr()
    assert rc == 2
    assert cap.out == ""
    assert cap.err.startswith("error: ") and "put -- before the expressions" in cap.err
    rc = main([*argv[:3], "--", *argv[3:]])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["normal_form"].startswith("-")


@pytest.mark.parametrize("expr", ["-3", "-T + X1"])
def test_cli_leading_minus_that_argparse_reads_as_a_value(capsys, expr):
    # a negative number, or a word with a space, never read as an option
    rc = main(["normalize", "--algebra", "daha", expr])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["input"] == expr


def test_cli_dq_localized(capsys):
    rc = main(["normalize", "--algebra", "dq", "detA*detAi"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    # detA is q-central of bidegree (2,0) so detA detAi = detAi detA = 1
    assert out["normal_form"] == "1"


def test_cli_dq_det_d_cancels_on_either_side(capsys):
    # detq(D) multiplies and is divided off from the right, and the printed
    # normal form must not depend on the order of detD and detDi
    x = "(a11+p12+a21)^3"
    outs = []
    for expr in (x, f"detDi*detD*{x}", f"detD*detDi*{x}"):
        assert main(["normalize", "--algebra", "dq", expr]) == 0
        outs.append(json.loads(capsys.readouterr().out)["normal_form"])
    assert outs[1] == outs[0] and outs[2] == outs[0]


def test_cli_oq_localized(capsys):
    for expr in ("(l11*l22 - q^2*l12*l21)*detLi", "detLi*(l11*l22 - q^2*l12*l21)"):
        rc = main(["normalize", "--algebra", "oq", expr])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["normal_form"] == "1"


def test_cli_dq_cancels_high_determinant_powers(capsys):
    # the first quotient has 680 PBW words, past the size a dense solve once
    # accepted, so this printed a 37-term detAi^8*(...)
    rc = main(["normalize", "--algebra", "dq", "detA^8*detAi^8"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["normal_form"] == "1"


def test_cli_oq_cancels_high_determinant_powers(capsys):
    rc = main(["normalize", "--algebra", "oq", "detLi^8*(l11*l22 - q^2*l12*l21)^8"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["normal_form"] == "1"


DIGITS = "1" * 5000


@pytest.mark.parametrize("expr, col", [("T^" + DIGITS, 3), (DIGITS + "*T", 1)],
                         ids=["exponent", "literal"])
def test_cli_over_long_integer_exits_2(capsys, expr, col):
    # int() refuses more digits than Python's conversion limit; the
    # ValueError once escaped as a traceback with status 1
    rc = main(["normalize", "--algebra", "daha", expr])
    assert rc == 2
    err = capsys.readouterr().err
    assert "integer literal of 5000 digits is too long to convert" in err
    assert f"(line 1, column {col})" in err


@pytest.mark.parametrize("argv", [
    ["normalize", "--algebra", "sdaha", "(9^1000)^5"],
    ["normalize", "--algebra", "sdaha", "--q", "2", "--t", "1e5000", "R*R"],
    ["diamonds", "--algebra", "sdaha", "--q", "2", "--t", "1e5000"],
    ["act", "--gen", "E", "--algebra", "oq", "(9^1000)^5*l11"],
], ids=["symbolic", "specialised", "diamonds", "act"])
def test_cli_over_long_coefficient_exits_2(capsys, argv):
    # 9^5000 and 10^10000 have more digits than CPython converts to text;
    # printing them once escaped as a ValueError with status 1, though rank
    # on the same values works, since it only takes residues
    rc = main(argv)
    cap = capsys.readouterr()
    assert rc == 2
    assert cap.out == ""
    limit = sys.get_int_max_str_digits()
    assert cap.err == f"error: a coefficient has an integer of more than {limit} digits, too long to print\n"


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_cli_unwritable_output_exits_2(capsys, tmp_path, where):
    # the OSError of an --output that cannot be opened once escaped as a
    # traceback with status 1
    path = tmp_path / "missing" / "x.json" if where == "missing" else tmp_path
    rc = main(["normalize", "--algebra", "sdaha", "R", "--output", str(path)])
    cap = capsys.readouterr()
    assert rc == 2
    assert cap.out == ""
    assert cap.err.startswith(f"error: cannot write --output {path}: ") and cap.err.count("\n") == 1


def test_cli_rejects_huge_exponent(capsys):
    # a scalar power once multiplied in a loop (hang) and, specialised,
    # overflowed the int-to-str limit when printed (uncaught ValueError)
    for argv in (["normalize", "--algebra", "sdaha", "q^100000000"],
                 ["normalize", "--algebra", "sdaha", "--q", "5/3", "--t", "2", "q^20000"]):
        rc = main(argv)
        assert rc == 2
        assert "exceeds the limit" in capsys.readouterr().err


@pytest.mark.parametrize("expr, col", [("(Q1+P1)^24", 8), ("*".join(["(Q1+P1)"] * 24), 8 * 17)],
                         ids=["power", "chain"])
def test_cli_product_chain_coefficients_are_bounded(capsys, expr, col):
    # both forms once ran past 20 s: after 17 factors the terms number 554
    # but their coefficients hold about 81,000 monomials, so the next
    # factor is refused at its '^' or '*'
    t0 = time.perf_counter()
    rc = main(["normalize", "--algebra", "sdaha", expr])
    assert time.perf_counter() - t0 < 20
    cap = capsys.readouterr()
    assert rc == 2
    assert cap.out == ""
    assert cap.err == (f"error: sdaha: a product's coefficients exceed the limit of "
                       f"{exprparse.MAX_COEFF_MONOMIALS} monomials (line 1, column {col})\n")


def test_cli_mul_products_are_bounded(capsys):
    # 24 operands once ran past a 15 s timeout: mul bounds the product of
    # the operands so far before each further one, as a '*' chain does, so
    # the 18th is refused; one product of two large operands is bounded by
    # MAX_PRODUCT_SIZE, see the test below
    t0 = time.perf_counter()
    rc = main(["mul", "--algebra", "sdaha", *["(Q1+P1)"] * 24])
    assert time.perf_counter() - t0 < 15
    cap = capsys.readouterr()
    assert rc == 2
    assert cap.out == ""
    assert cap.err == (f"error: sdaha: a product's coefficients exceed the limit of "
                       f"{exprparse.MAX_COEFF_MONOMIALS} monomials (line 1, column 1)\n")


@pytest.mark.parametrize("argv, col", [
    (["normalize", "--algebra", "sdaha", "((Q1+P1)^12)*((Q1+P1)^12)"], 13),
    (["mul", "--algebra", "sdaha", "(Q1+P1)^12", "(Q1+P1)^12"], 1),
], ids=["normalize", "mul"])
def test_cli_one_product_of_two_large_operands_is_bounded(capsys, argv, col):
    # both once ran past 20 s: each operand is under MAX_COEFF_MONOMIALS, but
    # their counts, 12,113 each, multiply past MAX_PRODUCT_SIZE
    t0 = time.perf_counter()
    rc = main(argv)
    assert time.perf_counter() - t0 < 10
    cap = capsys.readouterr()
    assert rc == 2
    assert cap.out == ""
    assert cap.err == (f"error: sdaha: a product of operands with 12113 and 12113 coefficient monomials "
                       f"exceeds the limit of {exprparse.MAX_PRODUCT_SIZE} (line 1, column {col})\n")


def test_cli_product_bound_is_a_bound_on_the_size_product(monkeypatch, capsys):
    # the step from (Q1+P1)^8, of 1,427 monomials, to ^9 has a size product
    # of 2,854: a bound of 2,853 refuses it at the '^', one of 2,854 admits it
    monkeypatch.setattr(exprparse, "MAX_PRODUCT_SIZE", 2853)
    assert main(["normalize", "--algebra", "sdaha", "(Q1+P1)^9"]) == 2
    assert capsys.readouterr().err == ("error: sdaha: a product of operands with 1427 and 2 coefficient "
                                       "monomials exceeds the limit of 2853 (line 1, column 8)\n")
    monkeypatch.setattr(exprparse, "MAX_PRODUCT_SIZE", 2854)
    assert main(["normalize", "--algebra", "sdaha", "(Q1+P1)^9"]) == 0
    assert json.loads(capsys.readouterr().out)["normal_form"]


def test_cli_closed_stdout_exits_2_with_one_error_line():
    # a reader that closes the pipe once left a BrokenPipeError traceback and
    # status 1; the read end is closed before the child writes
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    r, w = os.pipe()
    os.close(r)
    try:
        res = subprocess.run([sys.executable, "-m", "qhc", "hilbert", "--algebra", "inv", "--max", "4", "4"],
                             stdout=w, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(w)
    assert res.returncode == 2
    assert res.stderr == "error: cannot write to stdout: Broken pipe\n"
