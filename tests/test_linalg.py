"""The sparse echelon kernel behind every rank and solve in qhc.linalg."""

from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qhc.coeffring import RC_ZERO, RatCoeff
from qhc.linalg import dense_rank, frac_rank, frac_solve, solve_dense
from qhc.rewrite import DEFAULT_POINTS, eval_rows

# small integer entries, zero half of the time, so ranks drop often
entries = st.one_of(st.just(0), st.integers(-3, 3))


@st.composite
def matrices(draw, max_rows=5, max_cols=5):
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    return [[Fraction(draw(entries)) for _ in range(n)] for _ in range(m)]


def sparse(rows):
    return [{j: v for j, v in enumerate(r) if v} for r in rows]


def times(rows, x):
    return [sum((a * b for a, b in zip(r, x)), Fraction(0)) for r in rows]


def pivot_columns(rows):
    """Columns j where the rank of the first j+1 columns exceeds that of the
    first j: the leading columns of the row space."""
    ranks = [frac_rank(sparse([r[:j] for r in rows])) for j in range(len(rows[0]) + 1)]
    return {j for j in range(len(rows[0])) if ranks[j + 1] > ranks[j]}


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_of_transpose(a):
    at = [list(col) for col in zip(*a)]
    assert frac_rank(sparse(a)) == frac_rank(sparse(at))


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_solve_consistent(a, data):
    n = len(a[0])
    x0 = [Fraction(data.draw(entries)) for _ in range(n)]
    b = times(a, x0)
    status, x = frac_solve(sparse(a), b, n)
    assert times(a, x) == b
    pivots = pivot_columns(a)
    assert all(x[j] == 0 for j in range(n) if j not in pivots)
    assert status == ("unique" if len(pivots) == n else "underdetermined")


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_solve_inconsistent(a, data):
    n = len(a[0])
    b = times(a, [Fraction(data.draw(entries)) for _ in range(n)])
    # repeat the first equation with another right-hand side
    assert frac_solve(sparse(a + [a[0]]), b + [b[0] + 1], n) == ("none", None)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_dense_rank_matches_sparse(a):
    assert dense_rank(a, Fraction(0)) == frac_rank(sparse(a))


monos = st.tuples(st.integers(-2, 2), st.integers(-1, 2), st.integers(0, 2))


@st.composite
def coeffs(draw):
    acc = RC_ZERO
    for c, eq, et in draw(st.lists(monos, max_size=2)):
        acc = acc + RatCoeff.monomial(c, eq, et)
    return acc


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(st.lists(st.lists(coeffs(), min_size=n, max_size=n), min_size=n, max_size=n),
                        st.lists(coeffs(), min_size=n, max_size=n))),
       st.sampled_from(DEFAULT_POINTS))
def test_symbolic_solve_specialises(system, point):
    a, b = system
    n = len(a)
    status, x = solve_dense(a, b, RC_ZERO)
    assume(status == "unique")
    q0, t0 = point
    *rows_at, b_at = eval_rows(sparse(a) + [dict(enumerate(b))], q0, t0)
    status_at, x_at = frac_solve(rows_at, [b_at.get(i, 0) for i in range(n)], n)
    assume(status_at == "unique")
    assert [c.eval(q0, t0) for c in x] == x_at
