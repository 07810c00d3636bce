"""Expression front-end and command dispatcher."""

import json
import random

import pytest

from qhc.cli import Context, main
from qhc.exprparse import ParseError


def test_parse_simple_word():
    ctx = Context("daha")
    v = ctx.parse("T*T")
    assert set(v.terms) == {ctx.spec.alphabet.word("T", "T")}


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


def test_parse_errors_carry_positions():
    ctx = Context("daha")
    with pytest.raises(ParseError, match="column 1"):
        ctx.parse("X3")
    with pytest.raises(ParseError, match="column 4"):
        ctx.parse("T* $")
    with pytest.raises(ParseError):
        ctx.parse("T/(X1)")


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
    rc = main(["act", "--gen", "E", "--algebra", "oq", "l11 + q^-2*l22"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["result"] == "0"


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


def test_cli_rejects_huge_exponent(capsys):
    # a scalar power once multiplied in a loop (hang) and, specialised,
    # overflowed the int-to-str limit when printed (uncaught ValueError)
    for argv in (["normalize", "--algebra", "sdaha", "q^100000000"],
                 ["normalize", "--algebra", "sdaha", "--q", "5/3", "--t", "2", "q^20000"]):
        rc = main(argv)
        assert rc == 2
        assert "exceeds the limit" in capsys.readouterr().err
