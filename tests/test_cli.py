"""Expression front-end and command dispatcher."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from qhc import exprparse, rewrite
from qhc.cli import Context, main
from qhc.daha import sdaha_spec
from qhc.exprparse import ParseError, Parser, WordAlgebraOps


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
    assert spec.is_normal(v)
    assert v == spec.nf(x * x * x)


def test_long_power_matches_factorwise_fold():
    # the fold power_step replaced: nf(acc * a) after each factor
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
    assert ctx.spec.is_normal(chain)
    assert chain == power
    assert str(chain) == str(power)


def test_parse_errors_carry_positions():
    ctx = Context("daha")
    with pytest.raises(ParseError, match="column 1"):
        ctx.parse("X3")
    with pytest.raises(ParseError, match="column 4"):
        ctx.parse("T* $")
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


def test_cli_dq_localized(capsys):
    rc = main(["normalize", "--algebra", "dq", "detA*detAi"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    # detA is q-central of bidegree (2,0) so detA detAi = detAi detA = 1
    assert out["normal_form"] == "1"


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


def test_cli_rejects_huge_exponent(capsys):
    # a scalar power once multiplied in a loop (hang) and, specialised,
    # overflowed the int-to-str limit when printed (uncaught ValueError)
    for argv in (["normalize", "--algebra", "sdaha", "q^100000000"],
                 ["normalize", "--algebra", "sdaha", "--q", "5/3", "--t", "2", "q^20000"]):
        rc = main(argv)
        assert rc == 2
        assert "exceeds the limit" in capsys.readouterr().err
