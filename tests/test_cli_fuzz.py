"""Fuzzing the command line: expressions drawn from the README grammar over all
seven algebras must end in JSON (exit 0) or one error line (exit 2), never in
a traceback."""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from qhc.cli import ALGEBRAS, Context, main

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


@st.composite
def requests(draw):
    alg = draw(st.sampled_from(ALGEBRAS))
    expr = expressions(alg).map(lambda p: p[0])
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


@settings(max_examples=60, deadline=None)
@given(requests())
def test_cli_answers_json_or_one_error_line(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    if rc == 0:
        assert json.loads(out.getvalue())["schema"] == 1
        assert err.getvalue() == ""
    else:
        assert rc == 2, argv
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
