"""Invariant algebra, the psibar identification, invariant dimensions, and
the Hamiltonian reduction with its moment ideal congruences."""

import gc
import random
import tracemalloc
from fractions import Fraction

import pytest

from qhc import dqops, invham, rewrite, suites
from qhc.coeffring import RAT, RC_ONE, RC_T
from qhc.daha import phi_ranks, spherical_dimensions
from qhc.dqops import dq_action, dq_elem, dq_spec, moment_zt
from qhc.invham import (
    find_ideal_multiplier,
    ham_relation_congruences,
    ham_spec,
    inv_spec,
    invariant_dimension,
    invariant_dimensions,
    moment_zt_in_invariant_coordinates,
    psi_congruent_zero,
    psibar_apply,
    psibar_images,
    psibar_rank,
    psibar_ranks,
    psibar_relation_residuals,
    psibar_words,
    quotient_w_image,
    weight_zero_words,
)
from qhc.ncpoly import NcPoly
from qhc.qgroup import AdjointAction
from qhc.rewrite import (
    POINTS,
    EngineError,
    LocElem,
    check_ambiguities,
    hilbert_table,
    q_central_residual,
    straighten_trace,
)

from oracles import (
    invariants_positive_series,
    joint_kernel_dims,
    left_fold_psibar,
    spherical_positive_series,
)


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
    for qc in B.q_central:
        h = B.nf(B.word_poly("c1", "r", "d1"))
        assert not q_central_residual(B, B.gen(qc.name), qc.kappa, h)


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


def test_psibar_rank_small_bidegrees(B):
    series = invariants_positive_series(3, 3)
    for m, n in [(1, 1), (2, 2), (2, 1), (3, 3)]:
        want = series.get((m, n), 0)
        assert len(list(B.pbw.enumerate(m, n))) == want
        assert psibar_rank(m, n) == want


def test_psibar_ranks_equal_the_per_bidegree_calls():
    # one psibar_words map over all the bidegrees; the result lists each
    # bidegree once, in the order it first appears
    bidegrees = [(m, n) for m in range(4) for n in range(4)]
    rng = random.Random(13)
    request = bidegrees + rng.sample(bidegrees, 3)
    rng.shuffle(request)
    got = psibar_ranks(request)
    assert list(got) == list(dict.fromkeys(request))
    assert got == {(m, n): psibar_rank(m, n) for m, n in bidegrees}


def _live_loc_elems():
    gc.collect()
    return sum(isinstance(o, LocElem) for o in gc.get_objects())


def test_psibar_ranks_keep_no_image_map():
    # once a first call has filled the normal-form caches, a second one
    # allocates only what it frees again: no image map outlives the call.
    # A process-wide memo of the images, filled by the first call, would
    # allocate nothing in the second, so the first must leave no image alive
    bidegrees = [(m, n) for m in range(4) for n in range(4)]
    psibar_images()
    live = _live_loc_elems()
    first = psibar_ranks(bidegrees)
    assert _live_loc_elems() == live
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert psibar_ranks(bidegrees) == first
        gc.collect()
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert abs(after - before) < 50_000, after - before


def test_invariant_dimension_spot_values():
    assert invariant_dimension(1, 0) == 1
    assert invariant_dimension(1, 1) == 2
    assert invariant_dimension(2, 2) == 6


def test_invariant_dimension_matches_hilbert(B):
    series = invariants_positive_series(3, 3)
    for m in range(4):
        for n in range(4):
            assert invariant_dimension(m, n) == series.get((m, n), 0), (m, n)


def test_weight_zero_words_are_the_filtered_enumeration():
    # each A-word paired with the P-words of opposite weight gives the
    # weight-zero normal words of (m, n), each once
    D, act = dq_spec(), dq_action()
    for m in range(5):
        for n in range(5):
            words = weight_zero_words(m, n)
            assert len(set(words)) == len(words), (m, n)
            assert set(words) == {w for w in D.pbw.enumerate(m, n) if act._word_weight(w) == (0, 0)}, (m, n)


def test_invariant_dimensions_match_one_bidegree_at_a_time():
    # one tail map across the bidegrees gives each the value it gets alone,
    # keyed in the order the bidegrees first appear
    bidegrees = [(2, 2), (0, 0), (3, 1), (2, 2), (1, 3)]
    got = invariant_dimensions(bidegrees)
    assert list(got) == [(2, 2), (0, 0), (3, 1), (1, 3)]
    assert got == {d: invariant_dimension(*d) for d in got}


def test_invariant_dimension_equals_the_joint_kernel_at_each_point():
    # the kernel of E alone against the joint kernel of E and F;
    # invariant_dimension raises unless its points agree, so one value equal
    # to each of the oracle's means equal dims at every point
    for m, n in [(m, n) for m in range(4) for n in range(4)] + [(4, 4)]:
        assert joint_kernel_dims(m, n) == (invariant_dimension(m, n),) * len(POINTS), (m, n)


def _faulted_action(gen: str, letters, image=lambda act, name: act.spec.zero()) -> AdjointAction:
    """A fresh copy of dq_action() in which gen > x is image(act, x), zero
    unless image is given, for each letter x of letters, gen E or F."""
    act = dq_action()
    gens = act.spec.alphabet.gens
    weights, e_images, f_images = ({gens[i].name: p for i, p in table.items()}
                                   for table in (act.weights, act.e_images, act.f_images))
    for name in letters:
        (e_images if gen == "E" else f_images)[name] = image(act, name)
    return AdjointAction(act.spec, weights, e_images, f_images)


def test_invariant_dimension_sees_an_e_action_that_loses_rank(monkeypatch):
    # with E > a11 = E > a22 = 0, E has rank 0 on the weight-zero words of
    # bidegree (1,0), so the kernel of E overshoots the series.  A zero E
    # image for one letter alone goes unseen here: E stays onto the weight
    # (1,-1) words, so its kernel keeps its dimension
    faulty = _faulted_action("E", ["a11", "a22"])
    monkeypatch.setattr(invham, "dq_action", lambda: faulty)
    series = suites.invariant_series(2, 2)
    assert any(invariant_dimension(m, n) > series.get((m, n), 0) for m in range(3) for n in range(3))


def test_e_rows_from_their_factors_equal_the_images_of_the_whole_words():
    # E > (u v) = q^(w1(v) - w2(v)) (E > u) v + u (E > v), term for term
    # against the coproduct rule applied letter by letter over whole words
    act = dq_action()
    bidegrees = [(m, n) for m in range(4) for n in range(4)]
    got = list(invham._weight_zero_e_images(act, bidegrees))
    assert [d for d, _ in got] == bidegrees
    for (m, n), rows in got:
        words = weight_zero_words(m, n)
        assert [row.terms for row in rows] == [img.terms for img in act.images("E", words)], (m, n)
    # (1, 1) has a P-factor with w1 != w2, whose q-power is not 1
    assert any(a != b for a, b in (act._word_weight(w[1:]) for w in weight_zero_words(1, 1)))


@pytest.fixture
def fresh_e_split():
    # a residue action built from a faulted dq must not reach another test
    for clear in (dq_action.cache_clear, dq_spec()._at_points.clear):
        clear()
    yield
    for clear in (dq_action.cache_clear, dq_spec()._at_points.clear):
        clear()


def test_e_split_refuses_a_p_block_before_an_a_block(monkeypatch, fresh_e_split):
    D = dq_spec()
    block_of = dict(D.pbw.block_of)
    block_of[D.alphabet.index("p22")] = -1
    monkeypatch.setattr(D.pbw, "block_of", block_of)
    with pytest.raises(EngineError, match=(r"^dq: the E split needs A- and P-letters only, "
                                           r"every A-block before every P-block$")):
        invariant_dimension(1, 1)


@pytest.mark.parametrize("letter, other", [("a12", "p12"), ("p21", "a21")])
def test_e_split_refuses_an_e_image_across_the_factors(monkeypatch, fresh_e_split, letter, other):
    faulty = _faulted_action("E", [letter], lambda act, name: act.e_images[act.spec.alphabet.index(name)]
                             + act.spec.gen(other))
    monkeypatch.setattr(invham, "dq_action", lambda: faulty)
    with pytest.raises(EngineError, match=(r"^dq: the E split needs E images of A-letters in A-letters "
                                           r"and of P-letters in P-letters$")):
        invariant_dimension(1, 1)


def test_invariant_dimension_raises_where_one_prime_makes_q_a_root_of_unity(monkeypatch):
    # q0 = 3 at the second point has order 3 mod 13, so the kernel of E
    # grows there from total degree 3 on; the points must not be reconciled
    (q1, t1, P1), (q2, t2, _), (q3, t3, P3) = POINTS
    monkeypatch.setattr(rewrite, "POINTS", ((q1, t1, P1), (q2, t2, 13), (q3, t3, P3)))
    assert invariant_dimension(1, 1) == 2
    # the message names the algebra, the bidegree, and each point with its
    # prime and its rank: 26 weight-zero words, so kernels 6, 9, 6
    want = (rf"^dq: invariant dimension at \(2, 2\) disagrees across points: \[6, 9, 6\], "
            rf"from rank 20 at \(q, t\) = \(2, 3\) mod {P1}, "
            rf"rank 17 at \(q, t\) = \(3, 2\) mod 13, "
            rf"rank 20 at \(q, t\) = \(5, 7\) mod {P3}$")
    with pytest.raises(EngineError, match=want):
        invariant_dimension(2, 2)


#: the Mersenne prime 2^61 - 1; P61 - 1 = 2 * 3^2 * 5^2 * 7 * 11 * 13 * ...,
#: so it has primitive roots of unity of orders 3 and 5
P61 = 2**61 - 1


def _root_of_unity(order):
    """A primitive root of unity of the prime order mod P61."""
    return next(r for x in range(2, 50) if (r := pow(x, (P61 - 1) // order, P61)) != 1)


@pytest.mark.parametrize("order, at_order", [
    (3, {(0, 3): 3, (1, 2): 4, (2, 1): 4, (3, 0): 3}),
    (5, {(0, 5): 4, (1, 4): 6, (2, 3): 8, (3, 2): 8, (4, 1): 6, (5, 0): 4}),
])
def test_at_a_root_of_unity_only_the_kernel_of_e_leaves_the_series(monkeypatch, order, at_order):
    # the paper's excluded case: q0 a primitive root of unity mod P61, at
    # t0 = 3.  The psibar, sandwich and phi ranks, lower bounds, stay at
    # their series.  The kernel of E, an upper bound, equals the invariants
    # only while U_q(sl2)-modules are semisimple, and it leaves the series
    # at total degree `order`, where the certificate's one generic-q step
    # fails
    monkeypatch.setattr(rewrite, "POINTS", ((Fraction(_root_of_unity(order)), Fraction(3), P61),))
    bidegrees = [(m, n) for m in range(6) for n in range(6 - m)]
    series = invariants_positive_series(5, 5)
    assert psibar_ranks(bidegrees) == {d: series.get(d, 0) for d in bidegrees}
    to_33 = [(m, n) for m in range(4) for n in range(4)]
    spherical = spherical_positive_series(3, 3)
    assert spherical_dimensions(to_33) == {d: spherical.get(d, 0) for d in to_33}
    assert phi_ranks(to_33) == {d: spherical.get(d, 0) for d in to_33}
    for m, n in bidegrees:
        dim, want = invariant_dimension(m, n), series.get((m, n), 0)
        if m + n < order:
            assert dim == want, (m, n)
        elif m + n == order:
            assert dim == at_order[m, n] > want, (m, n)


@pytest.mark.parametrize("gen", ["E", "F"])
def test_moment_suite_sees_a_one_letter_action_fault(monkeypatch, gen):
    # the invariance check on mu(Z_t) applies E and F, so it catches a fault
    # in either, the F images that the kernel of E no longer reads included
    faulty = _faulted_action(gen, ["a11"])
    monkeypatch.setattr(dqops, "dq_action", lambda: faulty)
    items = {item["name"]: item["pass"] for item in suites.suite_moment()}
    assert items["mu(Z_t) invariant"] is False


@pytest.mark.parametrize("name", sorted(psibar_images()))
def test_psibar_generator_image_is_invariant(name):
    # psibar lands in the invariants, so E and F kill each generator image
    assert dqops.dq_elem_invariant(psibar_images()[name]), name


@pytest.mark.parametrize("gen", ["E", "F"])
def test_psibar_image_invariance_sees_a_one_letter_action_fault(monkeypatch, gen):
    faulty = _faulted_action(gen, ["a11"])
    monkeypatch.setattr(dqops, "dq_action", lambda: faulty)
    failing = []
    for name in sorted(psibar_images()):
        try:
            test_psibar_generator_image_is_invariant(name)
        except AssertionError:
            failing.append(name)
    assert failing


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


def test_every_ham_rule_has_a_normal_right_hand_side(H):
    assert len(H.rules) == 11
    assert [r.tag for r in H.rules if H.nf(r.rhs) != r.rhs] == []


def test_ham_substitutes_the_class_quotient_w_image_gives(B, monkeypatch):
    monkeypatch.setattr(invham, "quotient_w_image", lambda: B.word_poly("c2", "d2"))
    (r2,) = [r for r in invham.ham_spec.__wrapped__().rules if r.tag == "r*r"]
    qm4 = RAT.q_power(-4)
    assert r2.rhs.terms[r2.rhs.alphabet.word("c2", "d2")] == qm4 + qm4 + RAT.q_power(-6)


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
    assert not moment_zt_in_invariant_coordinates()


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


@pytest.mark.parametrize("exps", [(1, 1), (1, 0), (0, 0)], ids=["detA-detD", "detA", "none"])
def test_find_ideal_multiplier_recovers_the_multiplier(exps):
    # s over detq(A)^-la detq(D)^-ld, two words of different bidegrees and a
    # coefficient with a non-Laurent denominator
    D = dq_spec()
    body = D.word_poly("a12", "p21") + D.word_poly("a11", "a22", "p11").scale(
        RC_ONE / (RC_ONE + RC_T))
    s = dq_elem(body, *exps)
    assert find_ideal_multiplier(s * moment_zt()) == s


def test_find_ideal_multiplier_refuses_a_nonmember_with_denominators():
    D = dq_spec()
    assert find_ideal_multiplier(dq_elem(D.word_poly("a11", "p12"), 1, 1)) is None


def r2_residual(H):
    (rule,) = [r for r in H.rules if r.tag == "r*r"]
    return NcPoly.from_word(H.alphabet, rule.lhs) - rule.rhs


@pytest.fixture
def fresh_ham_caches():
    # a faulty value cached by one case must not reach another test
    cached = (ham_relation_congruences, dqops.moment_zt)
    for f in cached:
        f.cache_clear()
    yield
    for f in cached:
        f.cache_clear()


def test_r2_membership_divides_once_at_its_own_level(H, monkeypatch):
    # the r*r image has no denominators, so beta divides its 25-term body
    # as it stands and no determinant product is made
    img = psibar_apply(r2_residual(H))
    calls = []

    def recording(spec, factor, p, right=False):
        calls.append(p)
        return rewrite.divide(spec, factor, p, right=right)

    monkeypatch.setattr(invham, "divide", recording)
    assert find_ideal_multiplier(img) is not None
    assert calls == [img.body]


def test_faulty_division_leaves_the_r2_residual_unverified(H, monkeypatch, fresh_ham_caches):
    # a division that returns its quotient off by q^2 is caught only by the
    # identity x == Q * beta
    resid = r2_residual(H)
    assert psi_congruent_zero(resid)[0] == "ideal"

    def scaled(spec, factor, p, right=False):
        quo = rewrite.divide(spec, factor, p, right=right)
        return None if quo is None else quo.scale(RAT.q_power(2))

    monkeypatch.setattr(invham, "divide", scaled)
    assert find_ideal_multiplier(psibar_apply(resid)) is None
    assert psi_congruent_zero(resid) == ("unverified", None)
    assert dict(ham_relation_congruences())["r*r"] == "unverified"


@pytest.mark.parametrize("pick", [0, -1], ids=["first", "last"])
def test_changed_moment_body_leaves_the_r2_residual_unverified(H, monkeypatch, fresh_ham_caches, pick):
    z = moment_zt()
    w = sorted(z.body.terms, key=dq_spec().pbw.order_key)[pick]
    bad = z._new(z.exps, z.body + NcPoly.from_word(z.body.alphabet, w).scale(RC_T))
    monkeypatch.setattr(invham, "moment_zt", lambda: bad)
    resid = r2_residual(H)
    assert find_ideal_multiplier(psibar_apply(resid)) is None
    assert psi_congruent_zero(resid) == ("unverified", None)


@pytest.mark.parametrize("exps", [(1, 1), (1, 0), (0, 0)], ids=["detA-detD", "detA", "none"])
def test_find_ideal_multiplier_ignores_a_spare_determinant_pair(exps):
    # the same member written over one more detq(A) detq(D) pair than it
    # needs gives a multiplier equal to the one it was built from
    D = dq_spec()
    s = dq_elem(D.word_poly("p12", "a21") + D.word_poly("a22").scale(RC_T), *exps)
    x = s * moment_zt()
    e1 = [e + 1 for e in x.exps]
    spare = x._new(e1, x._at_loc(e1))
    assert spare.exps == tuple(e1) and spare == x
    assert find_ideal_multiplier(spare) == s


def test_r2_multiplier_survives_a_spare_determinant_pair(H):
    img = psibar_apply(r2_residual(H))
    s = find_ideal_multiplier(img)
    spare = img._new((1, 1), img._at_loc((1, 1)))
    assert find_ideal_multiplier(spare) == s


def test_psibar_words_match_left_fold_up_to_3_3(B):
    # one call over every PBW word up to (3,3), each image against the
    # left-to-right product of its letters' images
    words = [w for m in range(4) for n in range(4) for w in B.pbw.enumerate(m, n)]
    for w, img in zip(words, psibar_words(B.alphabet, words)):
        assert img == left_fold_psibar(NcPoly.from_word(B.alphabet, w)), w


def test_psibar_apply_matches_left_fold_on_localised_ham_words(H):
    # words with c2i and d2i, in and out of PBW order, and one sum of them
    rng = random.Random(7)
    names = [g.name for g in H.alphabet.gens]
    words = [("c2i", "r", "d2i"), ("d2i", "c1", "c2i", "d1"), ("r", "c2i", "c2", "d2i", "r")]
    words += [tuple(rng.choice(names) for _ in range(rng.randint(1, 4))) for _ in range(6)]
    x = H.zero()
    for k, w in enumerate(words):
        p = H.word_poly(*w)
        assert psibar_apply(p) == left_fold_psibar(p), w
        x = x + p.scale(RAT.q_power(k) - RC_T)
    assert psibar_apply(x) == left_fold_psibar(x)
