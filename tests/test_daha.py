"""Double affine Hecke algebra: derived relations, the idempotent, phi,
spherical diamonds, and graded dimensions."""

import random
from fractions import Fraction

import pytest

from qhc import coeffring, daha, rewrite
from qhc.coeffring import RAT, RC_ONE, RC_T
from qhc.daha import (
    BETA,
    T2P1,
    _phi_bodies,
    daha_spec,
    defining_relation_residuals,
    hplus_words,
    idempotent,
    idempotent_body,
    idempotent_sandwich,
    phi_apply,
    phi_rank,
    phi_ranks,
    phi_relation_residuals,
    reordering_residuals,
    sdaha_spec,
    spherical_dimension,
    spherical_dimensions,
)
from qhc.ncpoly import NcPoly
from qhc.rewrite import (
    EngineError,
    RewriteRule,
    check_ambiguities,
    hilbert_table,
    q_central_residual,
    rank_of_family,
    straighten_trace,
)

from oracles import aplus_words, fold_phi_body, spherical_positive_series, spherical_rows, t_free_part


@pytest.fixture(scope="module")
def H():
    return daha_spec()


@pytest.fixture(scope="module")
def A():
    return sdaha_spec()


def test_defining_relations_reduce_to_zero(H):
    for tag, r in defining_relation_residuals(H):
        assert not r, f"{tag}: {r}"


def test_reorderings_reduce_to_zero(H):
    for tag, r in reordering_residuals(H):
        assert not r, f"{tag}: {r}"


def test_conjugation_normal_forms(H):
    assert H.nf(H.word_poly("Ti", "Y1", "Ti")) == H.gen("Y2")
    assert H.nf(H.word_poly("X1", "X1i")) == H.unit()
    # X1*Y1 -> q^-2 (1 + beta^2) Y1X1 - q^-2 beta T Y1 X1, beta = t - 1/t
    qm2 = RAT.q_power(-2)
    expected = (H.word_poly("Y1", "X1").scale(qm2 * (RC_ONE + BETA * BETA))
                - H.word_poly("T", "Y1", "X1").scale(qm2 * BETA))
    assert H.nf(H.word_poly("X1", "Y1")) == expected


def test_partial_specs_hold_only_rules_of_the_final_spec(monkeypatch):
    # a partial spec's rules must decrease the order like any others, but
    # it gets no aux rules and skips the PBW check, which its missing rules
    # would fail; every rule it holds is in the final spec, checked there
    built = []
    real = daha.AlgebraSpec

    def recording(*args, **kwargs):
        spec = real(*args, **kwargs)
        built.append(spec)
        return spec

    monkeypatch.setattr(daha, "AlgebraSpec", recording)
    final = daha._DahaBuilder().build()
    partial = [spec for spec in built if spec.partial]
    assert partial and built == partial + [final] and not final.partial
    held = {id(r) for r in final.rules}
    assert all(id(r) in held for spec in partial for r in spec.rules)


def test_every_rule_has_a_normal_right_hand_side(H):
    # with the relation residuals and the diamonds, this pins each derived rhs
    assert len(H.rules) == 42
    assert [r.tag for r in H.rules if H.nf(r.rhs) != r.rhs] == []


class _QSquaredAsQ4:
    """RAT, but with q^2 read as q^4."""

    def __getattr__(self, name):
        return getattr(RAT, name)

    def q_power(self, e):
        return RAT.q_power(4 if e == 2 else e)


def test_a_wrong_q_power_fails_the_signed_xy_certificate(monkeypatch):
    monkeypatch.setattr(daha, "RAT", _QSquaredAsQ4())
    with pytest.raises(EngineError, match=r"daha bootstrap: residual of X1\*Y1i is nonzero"):
        daha._DahaBuilder().build()


def test_all_daha_diamonds_resolve(H):
    reports = check_ambiguities(H)
    assert reports, "expected a nonempty ambiguity set"
    bad = [r for r in reports if not r.resolved]
    assert not bad, [H.alphabet.word_str(r.monomial) for r in bad]


def test_inner_grading(H):
    # Y1 Y2 h = q^{2N} h Y1 Y2 and X1 X2 h = q^{-2M} h X1 X2
    rng = random.Random(11)
    letters = ["T", "Y1", "Y2", "X1", "X2", "Y1i", "X2i"]
    lam = H.word_poly("Y1", "Y2")
    xi = H.word_poly("X1", "X2")
    for _ in range(12):
        w = [rng.choice(letters) for _ in range(rng.randint(1, 5))]
        h = H.nf(H.word_poly(*w))
        if not h:
            continue
        M, N = h.bidegree()
        assert not H.nf(lam * h - (h * lam).scale(RAT.q_power(2 * N)))
        assert not H.nf(xi * h - (h * xi).scale(RAT.q_power(-2 * M)))


def test_idempotent(H):
    e = idempotent()
    assert H.nf(H.mul(e, e) - e) == H.zero()
    assert idempotent_sandwich(H.unit()) == e
    assert idempotent_sandwich(H.gen("T")) == e.scale(RC_T)
    assert idempotent_sandwich(H.gen("Ti")) == e.scale(RC_T.inverse())
    x = H.gen("X1") + H.gen("X2")
    assert idempotent_sandwich(x) == H.mul(x, e)


def test_sdaha_normal_forms(A):
    assert A.nf(A.word_poly("P1", "Q1")) == (
        A.word_poly("Q1", "P1") + A.gen("R").scale(RAT.q_power(-2) - RC_ONE)
    )
    assert A.nf(A.word_poly("R", "Q2")) == A.word_poly("Q2", "R").scale(RAT.q_power(-2))
    r2 = A.nf(A.word_poly("R", "R"))
    coeff = T2P1 * (RAT.q_power(-2) + (RC_T * RC_T).inverse())
    expected = (A.word_poly("Q2", "P2").scale(coeff)
                - A.word_poly("Q2", "P1", "P1").scale(RAT.q_power(-2))
                - A.word_poly("Q1", "Q1", "P2").scale(RAT.q_power(-2))
                + A.word_poly("Q1", "R", "P1").scale(RAT.q_power(-2)))
    assert r2 == expected


def test_sdaha_diamonds_exactly_fifteen(A):
    reports = check_ambiguities(A)
    assert len(reports) == 15
    assert all(r.resolved for r in reports)
    monos = {A.alphabet.word_str(r.monomial) for r in reports}
    assert monos == {
        "P2*P1*R", "P2*P1*Q2", "P2*P1*Q1", "P2*R*Q2", "P2*R*Q1",
        "P2*Q2*Q1", "P1*R*Q2", "R^2*Q2", "P1*Q2*Q1", "R*Q2*Q1",
        "P2*R^2", "P1*R*Q1", "P1*R^2", "R^2*Q1", "R^3",
    }


def test_straighten_trace_p1rq1(A):
    # q^-4 Q1 R P1 + q^-2(1-q^-2) Q2 P1^2 + q^-2(q^-2-1) R^2 + q^-2(1-q^-2) Q1^2 P2
    qm2, qm4 = RAT.q_power(-2), RAT.q_power(-4)
    coeff = qm2 * (RC_ONE - qm2)
    expected = (A.word_poly("Q1", "R", "P1").scale(qm4)
                + A.word_poly("Q2", "P1", "P1").scale(coeff)
                - A.word_poly("R", "R").scale(coeff)
                + A.word_poly("Q1", "Q1", "P2").scale(coeff))
    w = A.alphabet.word("P1", "R", "Q1")
    assert straighten_trace(A, w, "leftmost") == expected
    assert straighten_trace(A, w, "rightmost") == expected


def test_q_centrality_declared(A):
    rng = random.Random(3)
    letters = ["Q1", "Q2", "R", "P1", "P2", "Q2i", "P2i"]
    kappas = {qc.name: qc.kappa for qc in A.q_central}
    for name in ("P2", "Q2"):
        for _ in range(8):
            w = [rng.choice(letters) for _ in range(rng.randint(1, 4))]
            h = A.nf(A.word_poly(*w))
            if h and h.bidegree() not in (None, "any"):
                assert not q_central_residual(A, A.gen(name), kappas[name], h)


def test_phi_homomorphism_relations():
    for tag, r in phi_relation_residuals():
        assert not r, f"phi fails on {tag}"


def test_phi_examples(H, A):
    e = idempotent()
    assert phi_apply(A.gen("Q2")) == H.mul(H.word_poly("Y1", "Y2"), e)
    assert H.mul(phi_apply(A.gen("P2")), phi_apply(A.gen("P2i"))) == e
    p = A.word_poly("P1", "Q1") - A.word_poly("Q1", "P1") - A.gen("R").scale(RAT.q_power(-2) - RC_ONE)
    assert not H.nf(phi_apply(p))


def test_phi_is_multiplicative(A, H):
    rng = random.Random(5)
    names = ["Q1", "Q2", "R", "P1", "P2"]
    for _ in range(6):
        x = A.word_poly(*(rng.choice(names) for _ in range(rng.randint(1, 2))))
        y = A.word_poly(*(rng.choice(names) for _ in range(rng.randint(1, 2))))
        assert phi_apply(A.nf(x * y)) == H.nf(H.mul(phi_apply(x), phi_apply(y)))


def test_hilbert_aplus_matches_series(A):
    tab = hilbert_table(A, (4, 4))
    series = spherical_positive_series(4, 4)
    for m in range(5):
        for n in range(5):
            assert tab.dim(m, n) == series.get((m, n), 0), (m, n)
    assert tab.dim(2, 2) == 5


def test_spherical_dimension_matches_series():
    series = spherical_positive_series(3, 3)
    for m in range(4):
        for n in range(4):
            assert spherical_dimension(m, n) == series.get((m, n), 0), (m, n)


def test_hplus_words_are_the_pbw_words():
    # T^eps Y1^a Y2^(M-a) X1^b X2^(N-b), the nonnegative cone's PBW basis
    H = daha_spec()
    for m in range(7):
        for n in range(7):
            want = [H.alphabet.word(*(["T"] * eps + ["Y1"] * a + ["Y2"] * (m - a)
                                      + ["X1"] * b + ["X2"] * (n - b)))
                    for eps in (0, 1) for a in range(m + 1) for b in range(n + 1)]
            got = [w for p in hplus_words(m, n) for w in p.terms]
            assert sorted(got) == sorted(want), (m, n)


def test_phi_rank_matches_dimension():
    series = spherical_positive_series(3, 3)
    for m, n in [(1, 1), (2, 2), (3, 2), (2, 3)]:
        want = series.get((m, n), 0)
        assert len(aplus_words(m, n)) == want
        assert phi_rank(m, n) == want


def test_rank_families_equal_the_per_bidegree_calls():
    # each family call shares one map over all its bidegrees, here shuffled
    # with three repeated; the result lists each bidegree once, in the order
    # it first appears
    rng = random.Random(11)
    for family, single, bidegrees in (
            (spherical_dimensions, spherical_dimension, [(m, n) for m in range(4) for n in range(4)]),
            (phi_ranks, phi_rank, [(1, 1), (2, 2), (3, 2), (2, 3), (0, 1), (1, 0)])):
        request = bidegrees + rng.sample(bidegrees, 3)
        rng.shuffle(request)
        got = family(request)
        assert list(got) == list(dict.fromkeys(request))
        assert got == {(m, n): single(m, n) for m, n in bidegrees}, family.__name__


# ---------------------------------------------------------------------------
# the body 1 + t T against the exact idempotent
# ---------------------------------------------------------------------------

BIDEGREES_33 = [(m, n) for m in range(4) for n in range(4)]


def _exact_phi_images(H):
    """e * b * e for each generator body b, with the scalar inside the rewriting."""
    e = idempotent()
    bodies = {
        "P1": H.word_poly("X1") + H.word_poly("X2"),
        "Q1": H.word_poly("Y1") + H.word_poly("Y2"),
        "P2": H.word_poly("X1", "X2"),
        "Q2": H.word_poly("Y1", "Y2"),
        "P2i": H.word_poly("X1i", "X2i"),
        "Q2i": H.word_poly("Y1i", "Y2i"),
        "R": H.word_poly("Y1", "X1").scale((RC_T * RC_T).inverse()) + H.word_poly("Y2", "X2"),
    }
    return {name: H.mul(e, b, e) for name, b in bodies.items()}


def _exact_phi_apply(H, A, x, images):
    """phi by the fold acc = e; acc = mul(acc, e b e) over each word."""
    out = H.zero()
    for w, c in x.terms.items():
        acc = idempotent()
        for i in w:
            acc = H.mul(acc, images[A.alphabet.gens[i].name])
        out = out + acc.scale(c)
    return H.nf(out)


def _nonzero(polys):
    return [p for p in polys if p]


def test_sandwich_and_phi_ranks_make_no_gcd(H, A, monkeypatch):
    idempotent()
    calls = []
    gcd = coeffring.p_gcd

    def counting(f, g):
        calls.append(1)
        return gcd(f, g)

    monkeypatch.setattr(coeffring, "p_gcd", counting)
    for m, n in BIDEGREES_33:
        spherical_dimension(m, n)
        assert not calls, f"spherical_dimension({m}, {n}) made {len(calls)} gcds"
    phi_rank(2, 2)
    assert not calls, f"phi_rank(2, 2) made {len(calls)} gcds"


def test_idempotent_body_squares_to_its_scalar_multiple(H):
    body = idempotent_body()
    assert H.mul(body, body) == body.scale(T2P1)
    c = T2P1.inverse()
    assert idempotent() == H.unit().scale(c) + H.gen("T").scale(RC_T * c)


def test_sandwich_is_exact(H):
    e = idempotent()
    for m, n in BIDEGREES_33:
        for w in hplus_words(m, n):
            assert idempotent_sandwich(w) == H.mul(e, w, e), (m, n, w)


def test_phi_apply_is_exact(H, A):
    images = _exact_phi_images(H)
    for m in range(3):
        for n in range(3):
            for x in aplus_words(m, n):
                assert phi_apply(x) == _exact_phi_apply(H, A, x, images), (m, n, x)
    x = A.word_poly("Q1", "R").scale(T2P1.inverse()) - A.word_poly("Q2", "P1") + A.unit()
    assert phi_apply(x) == _exact_phi_apply(H, A, x, images)


def test_body_ranks_equal_exact_ranks_pointwise(H):
    body = idempotent_body()
    for m, n in BIDEGREES_33:
        words = hplus_words(m, n)
        bodies = _nonzero(H.mul(body, w, body) for w in words)
        exact = _nonzero(idempotent_sandwich(w) for w in words)
        assert len(bodies) == len(exact)
        if exact:
            assert (rank_of_family(H, bodies).per_point
                    == rank_of_family(H, exact).per_point), (m, n)


def test_phi_bodies_match_the_word_fold_on_sdaha_words_up_to_3_3(H, A):
    # one map over every word, so later words read the tails earlier ones left
    body = _phi_bodies(H._acts, idempotent_body())
    words = [w for m in range(4) for n in range(4) for w in A.pbw.enumerate(m, n)]
    assert len(words) == 52
    for w in words:
        assert body(w) == fold_phi_body(w), w


def test_phi_body_ranks_equal_exact_ranks_pointwise(H, A):
    for m in range(1, 4):
        for n in range(1, 4):
            words = list(A.pbw.enumerate(m, n))
            body = _phi_bodies(H._acts, idempotent_body())
            bodies = _nonzero(body(w) for w in words)
            exact = _nonzero(phi_apply(NcPoly.from_word(A.alphabet, w)) for w in words)
            assert len(bodies) == len(exact)
            assert (rank_of_family(H, bodies).per_point
                    == rank_of_family(H, exact).per_point), (m, n)


# ---------------------------------------------------------------------------
# spherical_dimension's rows: T-free words, right body first
# ---------------------------------------------------------------------------

def _t_free_words(H, m, n):
    T = H.alphabet.index("T")
    return [p for p in hplus_words(m, n) if next(iter(p.terms))[:1] != (T,)]


def test_spherical_rows_equal_the_sandwiched_bodies(H):
    # one call over every bidegree, so later bidegrees read the tails
    # earlier ones left
    body = idempotent_body()
    rows = dict(spherical_rows(BIDEGREES_33))
    assert list(rows) == BIDEGREES_33
    for m, n in BIDEGREES_33:
        words = _t_free_words(H, m, n)
        assert 2 * len(words) == len(hplus_words(m, n)), (m, n)
        want = [H.nf(body * w * body) for w in words]
        assert rows[m, n] == want, (m, n)


def test_family_ranks_name_the_point_where_t_squares_to_minus_one(monkeypatch):
    # the paper's other excluded case: 5^2 + 1 = 26 is 0 mod 13, so at
    # t0 = 5 mod 13 the body 1 + t T squares to zero and the sandwich of 1
    # and the phi images vanish there; the error names that point
    (_, _, P1), _, (_, _, P3) = rewrite.POINTS
    monkeypatch.setattr(rewrite, "POINTS",
                        ((Fraction(2), Fraction(3), P1), (Fraction(3), Fraction(5), 13), (Fraction(5), Fraction(7), P3)))
    with pytest.raises(EngineError, match=(
            rf"^daha: sandwich rank at \(0, 0\) disagrees across points: \[1, 0, 1\], "
            rf"from rank 1 at \(q, t\) = \(2, 3\) mod {P1}, rank 0 at \(q, t\) = \(3, 5\) mod 13, "
            rf"rank 1 at \(q, t\) = \(5, 7\) mod {P3}$")):
        spherical_dimensions([(1, 1), (0, 0)])
    with pytest.raises(EngineError, match=r"^daha: phi rank at \(1, 1\) disagrees across points: \[2, 0, 2\], "):
        phi_ranks([(1, 1)])


def test_body_absorbs_t_on_the_right(H):
    body = idempotent_body()
    T = H.gen("T")
    for m, n in BIDEGREES_33:
        for w in _t_free_words(H, m, n):
            assert H.mul(body, T * w, body) == H.mul(body, w, body).scale(RC_T), (m, n, w)


def test_t_free_rows_keep_every_per_point_rank(H):
    body = idempotent_body()
    for m, n in BIDEGREES_33:
        full = _nonzero(H.mul(body, w, body) for w in hplus_words(m, n))
        ((_, rows),) = spherical_rows([(m, n)])
        t_free = _nonzero(rows)
        assert bool(full) == bool(t_free), (m, n)
        if full:
            assert (rank_of_family(H, t_free).per_point
                    == rank_of_family(H, full).per_point), (m, n)


def test_exact_rows_split_as_their_t_free_part_and_t_times_t_it(H):
    # T (1 + t T) = t (1 + t T): each exact row is C + t T C, C its T-free
    # part, which _left_idempotent reads off nf(w (1 + t T)) as A + t B
    body = idempotent_body()
    T = H.gen("T")
    t_free = daha._left_idempotent(H, body)
    right = H._acts(body)
    for (m, n), rows in spherical_rows(BIDEGREES_33):
        words = _t_free_words(H, m, n)
        assert len(rows) == len(words), (m, n)
        for w, row in zip(words, rows):
            c = t_free_part(row)
            assert row == c + (T * c).scale(RC_T), (m, n, w)
            assert t_free(right(w)) == c, (m, n, w)


@pytest.fixture
def fresh_residue_specs():
    # a residue spec built from a faulted daha must not reach another test
    daha_spec()._at_points.clear()
    yield
    daha_spec()._at_points.clear()


@pytest.mark.parametrize("blocks", [
    lambda b: [b[0][:2] + (2,)] + b[1:],
    lambda b: [b[1], b[0]] + b[2:],
], ids=["cap-2", "t-second"])
def test_sandwich_shortcut_refuses_t_off_the_first_block_of_cap_1(H, monkeypatch, fresh_residue_specs, blocks):
    monkeypatch.setattr(H.pbw, "blocks", blocks(H.pbw.blocks))
    with pytest.raises(EngineError, match=r"^daha: the sandwich identity needs T as the first PBW block, with cap 1$"):
        spherical_dimensions([(1, 1)])


def test_sandwich_shortcut_refuses_another_t_squared_rule(H, monkeypatch, fresh_residue_specs):
    # T^2 = (1/t - t) T + 1, the Hecke rule at t -> 1/t, carried to the
    # residue spec that at_points builds afresh
    T = H.alphabet.index("T")
    rules = [RewriteRule(r.lhs, H.gen("T").scale(-BETA) + H.unit(), r.tag) if r.lhs == (T, T) else r
             for r in H.rules]
    monkeypatch.setattr(H, "rules", rules)
    with pytest.raises(EngineError, match=r"^daha: the sandwich identity needs the rule T\*T -> \(t - 1/t\) T \+ 1$"):
        spherical_dimensions([(1, 1)])
