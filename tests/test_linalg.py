"""The two elimination kernels of qhc.linalg: the one mod P behind every
specialised rank and solve, and the one over any field behind symbolic
solves."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qhc.coeffring import RC_ZERO, CoeffError, RatCoeff
from qhc.linalg import P, _echelon_mod, dense_rank, frac_rank, frac_solve, solve_dense
from qhc.rewrite import DEFAULT_POINTS, eval_rows


def entries(bound):
    """Small integer entries, zero half of the time, so ranks drop often."""
    return st.one_of(st.just(0), st.integers(-bound, bound))


@st.composite
def matrices(draw, max_rows=5, max_cols=5, bound=3):
    m = draw(st.integers(1, max_rows))
    n = draw(st.integers(1, max_cols))
    return [[draw(entries(bound)) for _ in range(n)] for _ in range(m)]


def sparse(rows):
    """Integer rows as sparse rows of residues mod P."""
    return [{j: v % P for j, v in enumerate(r) if v % P} for r in rows]


def times(rows, x):
    return [sum(a * b for a, b in zip(r, x)) % P for r in rows]


def pivot_columns(rows):
    """Columns j where the rank of the first j+1 columns exceeds that of the
    first j: the leading columns of the row space."""
    ranks = [frac_rank(sparse([r[:j] for r in rows])) for j in range(len(rows[0]) + 1)]
    return {j for j in range(len(rows[0])) if ranks[j + 1] > ranks[j]}


def is_prime(n):
    """Miller-Rabin with the first twelve primes as bases, deterministic for
    n < 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % b == 0 for b in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_prime_suits_the_default_points():
    assert is_prime(P)
    assert not is_prime(561) and not is_prime((2**31 - 1) * (2**29 - 3))  # Carmichael, product
    # -1 is no square mod P, so t0^2 + 1 vanishes at no point
    assert P % 4 == 3
    # q0 is no root of unity of order up to 10^4 mod P; 2 has order 61 mod 2^61 - 1
    for q0, _ in DEFAULT_POINTS:
        r = q0.numerator * pow(q0.denominator, -1, P) % P
        x = 1
        for _ in range(10**4):
            x = x * r % P
            assert x != 1
    assert pow(2, 61, 2**61 - 1) == 1


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_of_transpose(a):
    at = [list(col) for col in zip(*a)]
    assert frac_rank(sparse(a)) == frac_rank(sparse(at))


@st.composite
def sparse_rows(draw):
    """Sparse rows of residues, tall, wide or square, with empty and
    duplicate rows mixed in."""
    m, n = draw(st.sampled_from([(9, 3), (3, 9), (6, 6), (12, 5), (1, 1)]))
    value = st.one_of(st.integers(1, 3), st.integers(1, P - 1))
    rows = [draw(st.dictionaries(st.integers(0, n - 1), value, max_size=3)) for _ in range(m)]
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), {})
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), dict(draw(st.sampled_from(rows))))
    return rows


@settings(max_examples=300, deadline=None)
@given(sparse_rows())
def test_rank_ignores_elimination_order(rows):
    # frac_rank drops empty rows and permutes rows and columns before
    # eliminating; the kernel on the rows as given is the reference
    assert frac_rank(rows) == len(_echelon_mod(rows))


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_solve_consistent(a, data):
    n = len(a[0])
    x0 = [data.draw(entries(3)) for _ in range(n)]
    b = times(a, x0)
    status, x = frac_solve(sparse(a), b, n)
    assert all(0 <= v < P for v in x)
    assert times(a, x) == b
    pivots = pivot_columns(a)
    assert all(x[j] == 0 for j in range(n) if j not in pivots)
    assert status == ("unique" if len(pivots) == n else "underdetermined")


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_solve_inconsistent(a, data):
    n = len(a[0])
    b = times(a, [data.draw(entries(3)) for _ in range(n)])
    # repeat the first equation with another right-hand side
    assert frac_solve(sparse(a + [a[0]]), b + [(b[0] + 1) % P], n) == ("none", None)


@settings(max_examples=200, deadline=None)
@given(matrices(max_rows=6, max_cols=6, bound=9))
def test_dense_rank_matches_sparse(a):
    # every minor is at most (9 * sqrt(6))^6 < 1.2 * 10^8 < P in absolute
    # value (Hadamard), so the rank mod P is the rank over Q
    assert dense_rank([[Fraction(v) for v in r] for r in a], Fraction(0)) == frac_rank(sparse(a))


def test_denominator_vanishing_mod_p_raises():
    # q + (P - 2) is P at q0 = 2: nonzero over Q, zero mod P
    c = RatCoeff({(0, 0): 1}, {(1, 0): 1, (0, 0): P - 2})
    q0, t0 = DEFAULT_POINTS[0]
    assert q0 == 2 and c.eval(q0, t0) == Fraction(1, P)
    with pytest.raises(CoeffError, match=rf"q \+ {P - 2} vanishes .* mod {P}"):
        eval_rows([{0: RatCoeff.from_int(1), 1: c}], q0, t0)
    assert eval_rows([{0: c}], *DEFAULT_POINTS[1]) == [{0: pow(3 + P - 2, -1, P)}]


def test_eval_rows_evaluates_each_distinct_coefficient_once(monkeypatch):
    calls = []
    eval_mod = RatCoeff.eval_mod

    def counted(self, q0, t0, p):
        calls.append(self)
        return eval_mod(self, q0, t0, p)

    monkeypatch.setattr(RatCoeff, "eval_mod", counted)
    a = RatCoeff.monomial(1, 1, 0) + RatCoeff.from_int(1)
    b = RatCoeff.monomial(1, 1, 0) + RatCoeff.from_int(1)
    assert a is not b and a == b
    q0, t0 = DEFAULT_POINTS[0]
    rows = eval_rows([{0: a, 1: b}, {2: b}, {0: RatCoeff.from_int(-3)}], q0, t0)
    assert rows == [{0: 3, 1: 3}, {2: 3}, {0: P - 3}]
    assert len(calls) == 2


def test_vanishing_denominator_raises_through_the_memo():
    # a residue is memoised only once it is computed, so a vanishing
    # coefficient raises whichever of its entries (or equal copies) comes first
    q0, t0 = DEFAULT_POINTS[0]
    c = RatCoeff({(0, 0): 1}, {(1, 0): 1, (0, 0): P - 2})
    d = RatCoeff({(0, 0): 1}, {(1, 0): 1, (0, 0): P - 2})
    for rows in ([{0: c, 1: c}], [{0: RatCoeff.from_int(1)}, {0: c}, {1: d, 2: c}]):
        with pytest.raises(CoeffError, match=rf"q \+ {P - 2} vanishes .* mod {P}"):
            eval_rows(rows, q0, t0)


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
    *rows_at, b_at = eval_rows([dict(enumerate(r)) for r in a] + [dict(enumerate(b))], q0, t0)
    status_at, x_at = frac_solve(rows_at, [b_at.get(i, 0) for i in range(n)], n)
    assume(status_at == "unique")
    assert [c.eval_mod(q0, t0, P) for c in x] == x_at
