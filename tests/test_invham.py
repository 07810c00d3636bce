"""Invariant algebra, the psibar identification, invariant dimensions, and
the Hamiltonian reduction with its moment ideal congruences."""

import random

import pytest

from qhc.coeffring import RAT, RC_ONE, RC_T
from qhc.dqops import dq_elem, dq_spec, moment_zt
from qhc.invham import (
    bplus_words,
    find_ideal_multiplier,
    ham_relation_congruences,
    ham_spec,
    inv_spec,
    invariant_dimension,
    moment_zt_in_invariant_coordinates,
    psi_congruent_zero,
    psibar_apply,
    psibar_rank,
    psibar_relation_residuals,
    quotient_w_image,
)
from qhc.ncpoly import NcPoly
from qhc.rewrite import check_ambiguities, hilbert_table, q_central_residual, straighten_trace

from oracles import invariants_positive_series, spherical_positive_series


@pytest.fixture(scope="module")
def B():
    return inv_spec()


@pytest.fixture(scope="module")
def H():
    return ham_spec()


def test_inv_normal_forms(B):
    assert B.nf(B.word_poly("w", "d2")) == B.word_poly("d2", "w").scale(RAT.q_power(4))
    assert B.nf(B.word_poly("d1", "c1")) == (
        B.word_poly("c1", "d1") + B.gen("r").scale(RAT.q_power(-2) - RC_ONE)
    )


def test_inv_diamonds_exactly_twentysix(B):
    reports = check_ambiguities(B)
    assert len(reports) == 26
    assert all(r.resolved for r in reports)
    monos = {B.alphabet.word_str(r.monomial) for r in reports}
    assert monos == {
        "w*d2*d1", "w*d2*r", "w*d2*c2", "w*d2*c1", "w*d1*r", "w*d1*c2", "w*d1*c1",
        "w*r*c2", "w*r*c1", "w*c2*c1",
        "d2*d1*r", "d2*d1*c2", "d2*d1*c1", "d2*r*c2", "d2*r*c1", "d2*c2*c1",
        "d1*r*c2", "r^2*c2", "d1*c2*c1", "r*c2*c1",
        "w*r^2", "d2*r^2", "d1*r^2", "d1*r*c1", "r^2*c1", "r^3",
    }


def test_straighten_trace_r2c1(B):
    # q^-6 c1^2 r d1 - q^-8 c1 c2 d1^2 - q^-8 c1^3 d2 + q^-8 c1 w
    #   + (q^-4 - q^-8) c2 r d1 + (2 q^-10 - q^-8 + q^-6) c1 c2 d2
    q = RAT.q_power
    expected = (B.word_poly("c1", "c1", "r", "d1").scale(q(-6))
                - B.word_poly("c1", "c2", "d1", "d1").scale(q(-8))
                - B.word_poly("c1", "c1", "c1", "d2").scale(q(-8))
                + B.word_poly("c1", "w").scale(q(-8))
                + B.word_poly("c2", "r", "d1").scale(q(-4) - q(-8))
                + B.word_poly("c1", "c2", "d2").scale(q(-10) + q(-10) - q(-8) + q(-6)))
    w = B.alphabet.word("r", "r", "c1")
    assert straighten_trace(B, w, "leftmost") == expected
    assert straighten_trace(B, w, "rightmost") == expected


def test_hilbert_bplus_matches_series(B):
    tab = hilbert_table(B, (4, 4))
    series = invariants_positive_series(4, 4)
    for m in range(5):
        for n in range(5):
            assert tab.dim(m, n) == series.get((m, n), 0), (m, n)
    assert tab.dim(2, 2) == 6


def test_w_is_q_central_element(B):
    # w h = q^{-2M+2N} h w for homogeneous h, as a rewrite consequence
    rng = random.Random(17)
    names = ["c1", "c2", "r", "d1", "d2", "c2i", "d2i"]
    wgen = B.gen("w")
    for _ in range(10):
        word = [rng.choice(names) for _ in range(rng.randint(1, 4))]
        h = B.nf(B.word_poly(*word))
        if not h:
            continue
        M, N = h.bidegree()
        resid = B.nf(wgen * h - (h * wgen).scale(RAT.q_power(-2 * M + 2 * N)))
        assert not resid
    for name in ("c2", "d2"):
        h = B.nf(B.word_poly("c1", "r", "d1"))
        assert not q_central_residual(B, name, h)


def test_psibar_is_homomorphism():
    for tag, resid in psibar_relation_residuals():
        assert not resid, tag


def test_psibar_examples(B):
    # d1 c1 - c1 d1 - (q^-2 - 1) r maps to zero
    p = (B.word_poly("d1", "c1") - B.word_poly("c1", "d1")
         - B.gen("r").scale(RAT.q_power(-2) - RC_ONE))
    assert not psibar_apply(p)
    # c2 * c2^-1 maps to 1
    assert psibar_apply(B.word_poly("c2", "c2i")) == dq_elem(dq_spec().unit())
    # the w image is invariant
    from qhc.dqops import dq_elem_invariant
    assert dq_elem_invariant(psibar_apply(B.gen("w")))


def test_psibar_rank_small_bidegrees():
    series = invariants_positive_series(3, 3)
    for m, n in [(1, 1), (2, 2), (2, 1), (3, 3)]:
        want = series.get((m, n), 0)
        assert len(bplus_words(m, n)) == want
        assert psibar_rank(m, n) == want


def test_invariant_dimension_spot_values():
    assert invariant_dimension(1, 0) == 1
    assert invariant_dimension(1, 1) == 2
    assert invariant_dimension(2, 2) == 6


def test_invariant_dimension_matches_hilbert(B):
    series = invariants_positive_series(3, 3)
    for m in range(4):
        for n in range(4):
            assert invariant_dimension(m, n) == series.get((m, n), 0), (m, n)


def test_triangular_basis_change(B):
    # c1^a1 c2^a2 r^eps d1^b1 d2^b2 w^c = q^e c1^a1 c2^a2 r^{2c+eps} d1^b1 d2^b2
    #   + lower w-order terms, with e = c (4 - 2 b1 - 4 b2); at c = 1 this is
    #   the familiar -2 b1 - 4 b2 + 4.  The change of basis stays triangular
    #   with q-power diagonal.
    cases = [(1, 0, 0, 1, 0, 1), (0, 0, 1, 0, 0, 1), (0, 1, 0, 2, 1, 1), (1, 0, 1, 1, 0, 2)]
    for a1, a2, eps, b1, b2, c in cases:
        names = (["c1"] * a1 + ["c2"] * a2 + ["r"] * (2 * c + eps)
                 + ["d1"] * b1 + ["d2"] * b2)
        expanded = B.nf(B.word_poly(*names))
        target = tuple(
            B.alphabet.index(n)
            for n in ["c1"] * a1 + ["c2"] * a2 + ["r"] * eps
            + ["d1"] * b1 + ["d2"] * b2 + ["w"] * c
        )
        coeff = expanded.terms.get(target)
        assert coeff is not None
        assert coeff.inverse() == RAT.q_power(c * (4 - 2 * b1 - 4 * b2)), (a1, a2, eps, b1, b2, c)
        w_idx = B.alphabet.index("w")
        for word in expanded.terms:
            assert sum(1 for i in word if i == w_idx) <= c


def test_ham_presentation(H):
    reports = check_ambiguities(H)
    assert len(reports) == 15 and all(r.resolved for r in reports)
    # r^2 -> q^-4 (1+t^2)(q^-2 + 1/t^2) c2 d2 - q^-4 c2 d1^2 - q^-4 c1^2 d2
    #        + q^-2 c1 r d1
    coeff = RAT.q_power(-4) * (RC_ONE + RC_T * RC_T) * (RAT.q_power(-2) + (RC_T * RC_T).inverse())
    expected = (H.word_poly("c2", "d2").scale(coeff)
                - H.word_poly("c2", "d1", "d1").scale(RAT.q_power(-4))
                - H.word_poly("c1", "c1", "d2").scale(RAT.q_power(-4))
                + H.word_poly("c1", "r", "d1").scale(RAT.q_power(-2)))
    assert H.nf(H.word_poly("r", "r")) == expected


def test_quotient_w_image(B):
    img = quotient_w_image()
    assert img == B.word_poly("c2", "d2").scale((RC_T * RC_T).inverse() + RAT.q_power(-2) * RC_T * RC_T)


def test_ham_counts_match_spherical_counts(H):
    tab = hilbert_table(H, (4, 4))
    series = spherical_positive_series(4, 4)
    for m in range(5):
        for n in range(5):
            assert tab.dim(m, n) == series.get((m, n), 0), (m, n)
    assert tab.dim(2, 2) == 5


def test_moment_zt_in_invariant_coordinates():
    assert moment_zt_in_invariant_coordinates()


def test_ham_relation_congruences():
    statuses = dict(ham_relation_congruences())
    assert statuses.pop("r*r") == "ideal"
    assert set(statuses.values()) == {"exact"}


def test_r2_multiplier_is_determinant_pair(H):
    # psi(r^2 residual) = q^-4 (w image - trq(Xt) c2 d2 image); clearing the
    # denominators of mu(Z_t) leaves the multiplier q^-8 detq(A) detq(D),
    # homogeneous of localised bidegree (2,2) as it must be
    (rule,) = [r for r in H.rules if r.tag == "r*r"]
    resid = NcPoly.from_word(H.alphabet, rule.lhs) - rule.rhs
    status, s = psi_congruent_zero(resid)
    assert status == "ideal"
    assert s.exps == (0, 0)
    D = dq_spec()
    from qhc.dqops import det_a_body, det_d_body

    want = dq_elem(D.nf(det_a_body() * det_d_body())).scale(RAT.q_power(-8))
    assert s == want
    assert s * moment_zt() == psibar_apply(resid)


def test_psi_zero_and_exact_relation(H):
    assert psi_congruent_zero(H.zero())[0] == "exact"
    p = H.word_poly("d2", "c1") - H.word_poly("c1", "d2").scale(RAT.q_power(-2))
    assert psi_congruent_zero(p)[0] == "exact"


def test_find_ideal_multiplier_detects_nonmembers():
    z = moment_zt()
    probe = dq_elem(dq_spec().gen("a11"))
    assert find_ideal_multiplier(probe) is None
