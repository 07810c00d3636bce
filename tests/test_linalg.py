"""The two elimination kernels of qhc.linalg: the one mod m behind every
specialised rank and solve, and the one over any field behind symbolic
solves.  Also the table of specialisation points rewrite.POINTS, each with
its prime, and rewrite.Residues, its one reader: the evaluation at the
points, the join into residues mod the product of the primes, and the one
elimination that ranks at every point."""

import itertools
from fractions import Fraction
from math import prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qhc import invham, linalg, rewrite
from qhc.coeffring import RAT, RC_ONE, RC_Q, RC_T, RC_ZERO, CoeffError, QQField, RatCoeff
from qhc.daha import _phi_bodies, daha_spec, idempotent_body, phi_ranks, sdaha_spec, spherical_dimensions
from qhc.dqops import dq_spec
from qhc.linalg import _echelon_mod, dense_rank, frac_rank, frac_solve, solve_dense
from qhc.ncpoly import NcPoly
from qhc.rewrite import POINTS, AlgebraSpec, EngineError, Residues, RewriteRule, carry

from oracles import naive_nf, ranks_at_points, spherical_rows, t_free_part

P = POINTS[0][2]


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
    ranks = [frac_rank(sparse([r[:j] for r in rows]), P) for j in range(len(rows[0]) + 1)]
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
    assert tuple(p for _, _, p in POINTS) == (2**61 - 45, 2**61 - 229, 2**61 - 465)
    assert not is_prime(561) and not is_prime((2**31 - 1) * (2**29 - 3))  # Carmichael, product
    for _, _, p in POINTS:
        assert is_prime(p)
        # -1 is no square mod p, so t0^2 + 1 vanishes at no point
        assert p % 4 == 3
        # no q0 is a root of unity of order up to 10^4 mod p, at any point
        for q0, _, _ in POINTS:
            r = q0.numerator * pow(q0.denominator, -1, p) % p
            x = 1
            for _ in range(10**4):
                x = x * r % p
                assert x != 1, (p, q0)
    # 2 has order 61 mod 2^61 - 1, which is why that prime is passed over
    assert pow(2, 61, 2**61 - 1) == 1


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rank_of_transpose(a):
    at = [list(col) for col in zip(*a)]
    assert frac_rank(sparse(a), P) == frac_rank(sparse(at), P)


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
    assert frac_rank(rows, P) == len(_echelon_mod(rows, P))


# the delayed kernel: entries are reduced mod m only when they lead

SMALL_PRIMES = [2, 3, 5, 7, 101]
COMPOSITE = 101 * 103 * 107


@st.composite
def unreduced_rows(draw, m):
    """Rows of small ints lifted by random multiples of m, so they hold
    negatives and nonzero multiples of m, with rows that are integer
    combinations of others, lifted apart, so their entries cancel only mod m."""
    ncols = draw(st.integers(1, 5))
    base = draw(st.lists(st.lists(st.integers(-5, 5), min_size=ncols, max_size=ncols), min_size=1, max_size=5))
    for _ in range(draw(st.integers(0, 3))):
        ks = draw(st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base)))
        base.insert(draw(st.integers(0, len(base))),
                    [sum(k * r[j] for k, r in zip(ks, base)) for j in range(ncols)])
    lift = st.integers(-3, 3).map(lambda k: k * m)
    return [{j: v + draw(lift) for j, v in enumerate(r) if v or draw(st.booleans())} for r in base]


def reduced(rows, m):
    return [{j: r for j, v in row.items() if (r := v % m)} for row in rows]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SMALL_PRIMES + [COMPOSITE]).flatmap(lambda m: st.tuples(st.just(m), unreduced_rows(m))))
def test_delayed_kernel_pivots_equal_those_of_the_reduced_rows(case):
    # every entry stays congruent mod m to the one the reduced rows carry,
    # so the same columns lead with the same residues, and the pivot rows,
    # stored reduced, are the same, or both stop at the same non-unit
    m, rows = case
    assert _echelon_mod(rows, m) == _echelon_mod(reduced(rows, m), m)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SMALL_PRIMES + [COMPOSITE]).flatmap(lambda m: st.tuples(st.just(m), unreduced_rows(m))))
def test_rank_of_unreduced_rows_is_the_rank_of_the_reduced_ones(case):
    # frac_rank orders by nonzero counts, which a nonzero multiple of m
    # changes; the rank mod a prime does not depend on the order, and mod
    # the composite one a rank it returns is the rank mod each of its primes
    m, rows = case
    got = frac_rank(rows, m)
    if m in SMALL_PRIMES:
        assert got == frac_rank(reduced(rows, m), m)
    elif got is not None:
        assert {frac_rank(reduced(rows, p), p) for p in (101, 103, 107)} == {got}


def test_delayed_kernel_refuses_a_leading_entry_that_is_no_unit_mod_a_composite():
    m = COMPOSITE
    # 101 + 5m leads as given; 102 + 2m leads as 101 + 2m once the first
    # row's pivot is taken off, unreduced
    assert frac_rank([{0: 101 + 5 * m}], m) is None
    assert frac_rank([{0: -101 - m, 1: 1}], m) is None
    assert _echelon_mod([{0: 1, 1: 1}, {0: 1 + m, 1: 102 + 2 * m}], m) is None
    # a leading entry that is a nonzero multiple of m is skipped, not refused
    assert frac_rank([{0: 3 * m, 1: 7}], m) == 1
    assert _echelon_mod([{0: 3 * m, 1: 7}], m) == {1: {}}


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_solve_consistent(a, data):
    n = len(a[0])
    x0 = [data.draw(entries(3)) for _ in range(n)]
    b = times(a, x0)
    status, x = frac_solve(sparse(a), b, n, P)
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
    assert frac_solve(sparse(a + [a[0]]), b + [(b[0] + 1) % P], n, P) == ("none", None)


@settings(max_examples=200, deadline=None)
@given(matrices(max_rows=6, max_cols=6, bound=9))
def test_dense_rank_matches_sparse(a):
    # every minor is at most (9 * sqrt(6))^6 < 1.2 * 10^8 < P in absolute
    # value (Hadamard), so the rank mod P is the rank over Q
    rows = [{j: Fraction(v) for j, v in enumerate(r) if v} for r in a]
    assert dense_rank(rows, Fraction(0)) == frac_rank(sparse(a), P)


def test_denominator_vanishing_mod_p_raises():
    # q + (P - 2) is P at q0 = 2: nonzero over Q, zero mod P
    c = RatCoeff({(0, 0): 1}, {(1, 0): 1, (0, 0): P - 2})
    q0, t0, _ = POINTS[0]
    assert q0 == 2 and c.eval(q0, t0) == Fraction(1, P)
    with pytest.raises(CoeffError, match=rf"q \+ {P - 2} vanishes .* mod {P}"):
        Residues([(q0, t0, P)]).row({0: RatCoeff.from_int(1), 1: c})
    q1, t1, _ = POINTS[1]
    assert Residues([(q1, t1, P)]).row({0: c}) == {0: pow(3 + P - 2, -1, P)}


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
    res = Residues([POINTS[0]])
    rows = [res.row(r) for r in ({0: a, 1: b}, {2: b}, {0: RatCoeff.from_int(-3)})]
    assert rows == [{0: 3, 1: 3}, {2: 3}, {0: P - 3}]
    assert len(calls) == 2


def test_vanishing_denominator_raises_through_the_memo():
    # a residue is memoised only once it is computed, so a vanishing
    # coefficient raises whichever of its entries (or equal copies) comes first
    c = RatCoeff({(0, 0): 1}, {(1, 0): 1, (0, 0): P - 2})
    d = RatCoeff({(0, 0): 1}, {(1, 0): 1, (0, 0): P - 2})
    for rows in ([{0: c, 1: c}], [{0: RatCoeff.from_int(1)}, {0: c}, {1: d, 2: c}]):
        res = Residues([POINTS[0]])
        with pytest.raises(CoeffError, match=rf"q \+ {P - 2} vanishes .* mod {P}"):
            [res.row(r) for r in rows]


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
       st.sampled_from(POINTS))
def test_symbolic_solve_specialises(system, point):
    a, b = system
    n = len(a)
    status, x = solve_dense(a, b, RC_ZERO)
    assume(status == "unique")
    q0, t0, _ = point
    res = Residues([(q0, t0, P)])
    *rows_at, b_at = [res.row(dict(enumerate(r))) for r in a + [b]]
    status_at, x_at = frac_solve(rows_at, [b_at.get(i, 0) for i in range(n)], n, P)
    assume(status_at == "unique")
    assert [c.eval_mod(q0, t0, P) for c in x] == x_at


def separate_point_ranks(rows):
    """The rank at each default point by its own elimination mod its prime."""
    return tuple(frac_rank([res.row(r) for r in rows], res.n) for res in (Residues([pt]) for pt in POINTS))


def n(k):
    return RatCoeff.from_int(k)


# each of the first six vanishes at exactly one default point: (2, 3), (3, 2)
# or (5, 7); the rest vanish at none
ENTRIES = [RC_Q - n(2), RC_Q - n(3), RC_Q - n(5), RC_T - n(3), RC_T - n(2), RC_T - n(7),
           RC_ONE, n(-2), RC_Q, RC_T, RC_Q * RC_T - n(1), (RC_Q - n(2)) * (RC_T - n(7)),
           RC_ONE / (RC_Q + RC_T), RC_Q - RC_T + n(1)]


@settings(max_examples=150, deadline=None)
@given(st.lists(st.dictionaries(st.integers(0, 4), st.sampled_from(ENTRIES), max_size=4),
                max_size=7))
def test_point_ranks_equal_separate_eliminations(rows):
    assert ranks_at_points(rows) == separate_point_ranks(rows)


def test_point_ranks_eliminate_once_unless_a_leading_entry_is_no_unit(monkeypatch):
    calls = []

    def counted(rows, m):
        calls.append(m)
        return frac_rank(rows, m)

    monkeypatch.setattr(linalg, "frac_rank", counted)
    primes = [p for _, _, p in POINTS]
    N = prod(primes)
    assert ranks_at_points([{0: RC_Q, 1: RC_T}, {1: RC_Q - RC_T}]) == (2, 2, 2)
    assert calls == [N]
    # (q - 5) leads its row and is zero mod the third prime only: one try
    # mod N, then one elimination per point
    calls.clear()
    assert ranks_at_points([{0: RC_Q - n(5)}, {1: RC_Q}]) == (2, 2, 1)
    assert calls == [N, *primes]


def with_primes(primes):
    """POINTS with each point's prime replaced, in order, by one of primes."""
    return tuple((q0, t0, p) for (q0, t0, _), p in zip(POINTS, primes, strict=True))


def test_point_ranks_read_the_primes_at_call_time(monkeypatch):
    rows = [{0: n(103)}, {0: n(1), 1: n(1)}]
    assert ranks_at_points(rows) == (2, 2, 2)
    monkeypatch.setattr(rewrite, "POINTS", with_primes((101, 103, 107)))
    assert ranks_at_points(rows) == (2, 1, 2)
    # 1/(q + 99) has no value mod 101 at q = 2
    with pytest.raises(CoeffError, match=r"q \+ 99 vanishes at \(q, t\) = \(2, 3\) mod 101$"):
        ranks_at_points([{0: RC_ONE / (RC_Q + n(99))}])


def test_residues_refuse_a_table_whose_primes_repeat(monkeypatch):
    # the residues mod N join the points' residues by the Chinese remainder
    # theorem, which needs distinct primes
    monkeypatch.setattr(rewrite, "POINTS", with_primes((P, P, 11)))
    with pytest.raises(EngineError, match=rf"^the specialisation points' primes repeat: \[{P}, {P}, 11\]$"):
        ranks_at_points([{0: RC_ONE}])
    with pytest.raises(EngineError, match="primes repeat"):
        Residues(POINTS[:1] * 2)


def test_vanishing_denominator_names_its_points_prime():
    # q + (p_2 - 3) vanishes at the second point mod its prime p_2 only
    p = POINTS[1][2]
    c = RC_ONE / (RC_Q + n(p - 3))
    with pytest.raises(CoeffError, match=rf"q \+ {p - 3} vanishes at \(q, t\) = \(3, 2\) mod {p}$"):
        ranks_at_points([{0: RC_ONE}, {0: c}])
    # at the other two points it has a nonzero value mod their primes
    assert Residues(POINTS[::2]).row({0: c})[0] != 0


def test_point_ranks_equal_separate_eliminations_on_the_suite_families(monkeypatch):
    # every family ranks its residue rows through Residues.ranks: each
    # result must equal one elimination mod each point's prime apart
    checked = []
    ranks = Residues.ranks

    def checking(self, rows):
        got = ranks(self, rows)
        assert got == tuple(frac_rank([{k: r for k, v in row.items() if (r := v % p)} for row in rows], p)
                            for p in self.primes)
        checked.append(got)
        return got

    monkeypatch.setattr(Residues, "ranks", checking)
    bidegrees = [(m, n) for m in range(4) for n in range(4)]
    spherical_dimensions(bidegrees)
    phi_ranks(bidegrees)
    invham.psibar_ranks(bidegrees)
    for d in bidegrees:
        invham.invariant_dimension(*d)
    # one family per bidegree for each of the four
    assert len(checked) == 4 * len(bidegrees)


# ---------------------------------------------------------------------------
# the residue path: rows built mod N from the symbolic normal-form cache
# ---------------------------------------------------------------------------

def _residue_rows(monkeypatch, family, bidegrees):
    """{(M, N): the residue rows family ranks there}, read off Residues.ranks."""
    seen = []
    ranks = Residues.ranks

    def recording(self, rows):
        seen.append(rows)
        return ranks(self, rows)

    with monkeypatch.context() as m:
        m.setattr(Residues, "ranks", recording)
        family(bidegrees)
    return dict(zip(dict.fromkeys(bidegrees), seen, strict=True))


def _evaluated(polys):
    res = Residues()
    return [res.row(p.terms) for p in polys]


BIDEGREES_33 = [(m, n) for m in range(4) for n in range(4)]
BIDEGREES_44 = [(m, n) for m in range(5) for n in range(5)]


def test_sandwich_residue_rows_equal_the_exact_rows_evaluated(monkeypatch):
    # each exact row is C + t T C (test_daha's split test), and only its
    # T-free part C is ranked
    got = _residue_rows(monkeypatch, spherical_dimensions, BIDEGREES_33)
    assert got == {d: _evaluated(map(t_free_part, rows)) for d, rows in spherical_rows(BIDEGREES_33)}


def test_phi_residue_rows_equal_the_exact_bodies_evaluated(monkeypatch):
    got = _residue_rows(monkeypatch, phi_ranks, BIDEGREES_33)
    body = _phi_bodies(daha_spec()._acts, idempotent_body())
    enumerate_words = sdaha_spec().pbw.enumerate
    assert got == {d: _evaluated([body(w) for w in enumerate_words(*d)]) for d in BIDEGREES_33}


def test_psibar_residue_rows_equal_the_exact_images_evaluated(monkeypatch):
    got = _residue_rows(monkeypatch, invham.psibar_ranks, BIDEGREES_44)
    B = invham.inv_spec()
    want = {}
    for d in BIDEGREES_44:
        images = invham.psibar_words(B.alphabet, list(B.pbw.enumerate(*d)))
        assert not any(any(img.exps) for img in images)
        want[d] = _evaluated([img.body for img in images])
    assert got == want


def test_kernel_of_e_residue_rows_equal_the_exact_images_evaluated(monkeypatch):
    got = _residue_rows(monkeypatch, invham.invariant_dimensions, BIDEGREES_33)
    act = invham.dq_action()
    assert got == {d: _evaluated(act.images("E", invham.weight_zero_words(*d))) for d in BIDEGREES_33}


SCALARS = [RC_ONE, n(-2), RC_Q, RC_T, RC_Q - RC_T, RC_ONE / (RC_ONE + RC_T * RC_T), RC_ONE / RC_Q]


@st.composite
def elements(draw, spec):
    """Sums of up to three words of up to three letters of spec, with small
    coefficients, some of them not Laurent."""
    letters = st.integers(0, len(spec.alphabet) - 1)
    terms = draw(st.lists(st.tuples(st.lists(letters, max_size=3), st.sampled_from(SCALARS)),
                          min_size=1, max_size=3))
    out = spec.zero()
    for w, c in terms:
        out = out + NcPoly.from_word(spec.alphabet, tuple(w), c)
    return out


@pytest.mark.parametrize("spec", [daha_spec(), dq_spec()], ids=lambda s: s.algebra_id)
def test_residue_product_equals_the_residues_of_mul(spec):
    @settings(max_examples=25, deadline=None)
    @given(elements(spec), elements(spec))
    def check(a, b):
        R = spec.at_points()
        assert R._acts(carry(spec.nf(b), R.field))(carry(a, R.field)).terms == R.field.row(spec.mul(a, b).terms)

    check()


def test_residues_follow_primes_bound_between_two_calls(monkeypatch):
    H = daha_spec()
    a, b = H.gen("T") + H.scalar(RC_Q), H.nf(H.word_poly("Y1", "X1"))
    exact = H.mul(a, b).terms
    for primes in (tuple(p for _, _, p in POINTS), (101, 103, 107)):
        points = with_primes(primes)
        monkeypatch.setattr(rewrite, "POINTS", points)
        R = H.at_points()
        res = R.field
        assert res.primes == primes and res.n == prod(primes)
        got = R._acts(carry(b, res))(carry(a, res)).terms
        assert set(got) == set(exact)
        for w, c in exact.items():
            assert [got[w] % p for p in primes] == [c.eval_mod(q0, t0, p) for q0, t0, p in points], w


def test_residue_product_names_the_prime_a_denominator_vanishes_mod():
    # q + (p_2 - 3) vanishes at the second point mod its prime p_2 only
    p = POINTS[1][2]
    H = daha_spec()
    R = H.at_points()
    times_x1 = R._acts(R.gen("X1"))
    with pytest.raises(CoeffError, match=rf"q \+ {p - 3} vanishes at \(q, t\) = \(3, 2\) mod {p}$"):
        times_x1(carry(H.gen("Y1").scale(RC_ONE / (RC_Q + n(p - 3))), R.field))


# ---------------------------------------------------------------------------
# the residue specs: normal forms over Z/N against the symbolic ones
# ---------------------------------------------------------------------------

def short_words(spec, length=3):
    """Every word of spec of at most length letters."""
    letters = range(len(spec.alphabet))
    return [w for k in range(length + 1) for w in itertools.product(letters, repeat=k)]


def residue_mismatches(spec, R, words):
    """The words whose normal form in R, a residue spec of spec, differs
    from the residues of the symbolic normal form, or from naive_nf run over
    R's own rules."""
    return [w for w in words
            if R.nf_word(w).terms != R.field.row(spec.nf_word(w).terms)
            or R.nf_word(w) != naive_nf(R, w, "leftmost")]


RESIDUE_SPECS = {"dq": dq_spec, "sdaha": sdaha_spec, "daha": daha_spec}


@pytest.mark.parametrize("primes", [None, (101, 103, 107)], ids=["POINTS", "small-primes"])
@pytest.mark.parametrize("name", sorted(RESIDUE_SPECS))
def test_residue_normal_forms_are_the_residues_of_the_symbolic_ones(monkeypatch, name, primes):
    # the diamond lemma over Z/N (see rewrite.POINTS): every word of up to
    # three letters, so each rule and each overlap of two rules is reached
    if primes is not None:
        monkeypatch.setattr(rewrite, "POINTS", with_primes(primes))
    spec = RESIDUE_SPECS[name]()
    R = spec.at_points()
    assert R.field.primes == tuple(p for _, _, p in rewrite.POINTS)
    assert R is spec.at_points() and R.field is not spec.field
    assert residue_mismatches(spec, R, short_words(spec)) == []


@pytest.mark.parametrize("name", sorted(RESIDUE_SPECS))
def test_a_changed_rule_coefficient_breaks_the_residue_normal_forms(name):
    # the fault: the residue spec's first core rule with a coefficient
    # other than 1 gets that coefficient plus 1
    spec = RESIDUE_SPECS[name]()
    R = spec.at_points()
    rules, k = list(R.rules), next(i for i, r in enumerate(R.rules) if any(c != 1 for c in r.rhs.terms.values()))
    terms = dict(rules[k].rhs.terms)
    w = next(v for v, c in terms.items() if c != 1)
    terms[w] = terms[w] + 1
    rules[k] = RewriteRule(rules[k].lhs, NcPoly(R.alphabet, terms, R.field), rules[k].tag)
    faulted = AlgebraSpec(R.alphabet, rules, R.pbw, R.q_central, field=R.field)
    assert residue_mismatches(spec, faulted, short_words(spec, 2))


def test_a_rule_coefficient_without_a_residue_raises_when_the_residue_spec_is_built(monkeypatch):
    # 1/(q + 99) in a core rule has no value mod 101 at q = 2
    monkeypatch.setattr(rewrite, "POINTS", with_primes((101, 103, 107)))
    H = daha_spec()
    rule = H.rules[0]
    bad = RewriteRule(rule.lhs, rule.rhs.scale(RC_ONE / (RC_Q + n(99))), rule.tag)
    spec = AlgebraSpec(H.alphabet, [bad, *H.rules[1:]], H.pbw, H.q_central)
    with pytest.raises(CoeffError, match=r"q \+ 99 vanishes at \(q, t\) = \(2, 3\) mod 101$"):
        spec.at_points()


@pytest.mark.parametrize("name", ["daha", "dq"])
def test_residue_values_are_plain_ints_in_range(name):
    # Z/N values are plain ints; the engine reduces them once per normal
    # form, before it caches one, and NcPoly's arithmetic reduces too, so
    # every value handed out or kept lies in (0, N)
    spec = RESIDUE_SPECS[name]()
    R = spec.at_points()
    polys = [R.nf_word(w) for w in short_words(spec)]
    if name == "daha":
        a, b = spec.gen("T") + spec.scalar(RC_Q), spec.nf(spec.word_poly("Y1", "X1", "T"))
        polys.append(R._acts(carry(b, R.field))(carry(a, R.field)))
    else:
        polys += invham.dq_action().over(R).images("E", invham.weight_zero_words(2, 2))
    x, y = max(polys, key=lambda p: len(p.terms)), polys[-1]
    polys += [x + y, -x, x - y, x.scale(R.field.q_power(3)), x * y]
    values = [c for p in polys for c in p.terms.values()]
    values += [c for terms in R._nf_cache.values() for _, c in terms]
    assert len(values) > 100
    assert all(type(c) is int and 0 < c < R.field.n for c in values)
    assert RAT.reduce is None and QQField(2, 3).reduce is None


@pytest.mark.parametrize("name", sorted(RESIDUE_SPECS))
def test_unreduced_residue_normal_forms_are_caught(monkeypatch, name):
    # the fault: a reduce that leaves its terms as they are, so values pass
    # N or are 0 mod N and stay; a residue spec built under it must fail
    monkeypatch.setattr(Residues, "reduce", lambda self, terms: terms)
    spec = RESIDUE_SPECS[name]()
    assert residue_mismatches(spec, spec.over(Residues()), short_words(spec))
