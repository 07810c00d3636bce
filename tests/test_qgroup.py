"""U_q(gl2), the vector R-matrix, O_q(GL2), the embedding, and the action."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhc.coeffring import RAT, RC_ONE, RC_Q, RC_T, RatCoeff
from qhc.dqops import dq_action
from qhc.linalg import dense_rank
from qhc.ncpoly import NcPoly
from qhc.qgroup import (
    QMQI,
    AdjointAction,
    adjoint_in_uq,
    antipode_lminus,
    embed_phi,
    lmatrices,
    lmatrix_check,
    mat_mul,
    on_legs,
    oq_action,
    oq_spec,
    phi_images,
    phi_matches_lmatrix_product,
    qdet_oq,
    qtrace_oq,
    reflection_equation_entries,
    rmatrix_21_inverse,
    rmatrix_vector,
    uq_spec,
    yang_baxter_residual,
)
from qhc.rewrite import EngineError, check_ambiguities

from oracles import fold_embed_phi, positional_act


@pytest.fixture(scope="module")
def U():
    return uq_spec()


@pytest.fixture(scope="module")
def O():
    return oq_spec()


def test_uq_normal_forms(U):
    assert U.nf(U.word_poly("K1", "E")) == U.word_poly("E", "K1").scale(RC_Q)
    assert U.nf(U.word_poly("K2", "E")) == U.word_poly("E", "K2").scale(RC_Q.inverse())
    assert U.nf(U.word_poly("K1", "F")) == U.word_poly("F", "K1").scale(RC_Q.inverse())
    com = U.nf(U.word_poly("E", "F") - U.word_poly("F", "E"))
    inv = QMQI.inverse()
    assert com == U.word_poly("K1", "K2i").scale(inv) - U.word_poly("K1i", "K2").scale(inv)
    assert all(r.resolved for r in check_ambiguities(U))


def test_rmatrix_entries():
    R = rmatrix_vector()
    q = RC_Q
    zero = RatCoeff.from_int(0)
    # diagonal (q, 1, 1, q); single off-diagonal entry q - 1/q sending
    # e_- x e_+ to e_+ x e_-
    assert [R[i][i] for i in range(4)] == [q, RC_ONE, RC_ONE, q]
    assert R[2][1] == QMQI
    for i in range(4):
        for j in range(4):
            if i != j and (i, j) != (2, 1):
                assert R[i][j] == zero


def test_yang_baxter():
    assert yang_baxter_residual()


def test_rmatrix_invertible():
    # the closed form R - (q - 1/q) P inverts R21 on both sides
    zero = RatCoeff.from_int(0)
    R21, R21i = on_legs(rmatrix_vector(), (1, 0), 2, zero), rmatrix_21_inverse()
    eye = [[RC_ONE if i == j else zero for j in range(4)] for i in range(4)]
    assert mat_mul(R21, R21i) == eye
    assert mat_mul(R21i, R21) == eye


def _kron(*ms):
    out = [[1]]
    for m in ms:
        out = [[a * b for a in ra for b in rb] for ra in out for rb in m]
    return out


def test_on_legs_places_an_operator_on_its_legs():
    # integer stand-ins for operators on one and two legs, so each placement
    # is a Kronecker product with the identity, legs read big-endian
    A, B, eye = [[1, 2], [3, 4]], [[5, 6], [7, 8]], [[1, 0], [0, 1]]
    AB = _kron(A, B)
    assert on_legs(A, (0,), 2, 0) == _kron(A, eye)
    assert on_legs(B, (1,), 2, 0) == _kron(eye, B)
    assert on_legs(AB, (0, 1), 2, 0) == AB
    assert on_legs(AB, (1, 0), 2, 0) == _kron(B, A)
    assert on_legs(AB, (0, 2), 3, 0) == _kron(A, eye, B)
    assert on_legs(AB, (2, 1), 3, 0) == _kron(eye, B, A)
    assert on_legs(A, (1,), 3, 0) == _kron(eye, A, eye)


def test_lmatrix_presentation_holds():
    for tag, ok in lmatrix_check():
        assert ok, tag


def test_antipode_inverts_lminus(U):
    _, lm = lmatrices()
    sl = antipode_lminus()
    prod = mat_mul(lm, sl)
    for i in range(2):
        for j in range(2):
            want = U.unit() if i == j else U.zero()
            assert not U.nf(prod[i][j] - want)


def test_oq_normal_forms(O):
    assert O.nf(O.word_poly("l22", "l12")) == O.word_poly("l12", "l22").scale(RAT.q_power(2))
    reports = check_ambiguities(O)
    assert reports and all(r.resolved for r in reports)


def test_detq_central(O):
    det = qdet_oq()
    for name in ("l11", "l12", "l21", "l22"):
        g = O.gen(name)
        assert not O.nf(det * g - g * det)


def test_reflection_equation_gives_exactly_the_six_relations(O):
    entries = reflection_equation_entries(O, ("l11", "l12", "l21", "l22"))
    # every entry reduces to zero under the six rules
    assert all(not O.nf(e) for e in entries)
    # and conversely the six rules lie in the span of the entries: the rank
    # over the 16 length-two words does not grow when a rule is added
    zero = RatCoeff.from_int(0)
    base = [e.terms for e in entries if e]
    rk = dense_rank(base, zero)
    assert rk == 6
    for rule in O.rules:
        resid = NcPoly.from_word(O.alphabet, rule.lhs) - rule.rhs
        assert dense_rank(base + [resid.terms], zero) == rk, rule.tag


def test_phi_embedding(O, U):
    img = phi_images()
    # l22 -> K2^-2 and l21 -> (q - 1/q) K2^-2 F
    assert img["l22"] == U.word_poly("K2i", "K2i")
    assert img["l21"] == U.word_poly("K2i", "K2i", "F").scale(QMQI)
    for rule in O.rules:
        resid = NcPoly.from_word(O.alphabet, rule.lhs) - rule.rhs
        assert not embed_phi(resid), rule.tag
    assert embed_phi(qdet_oq()) == U.word_poly("K1i", "K1i", "K2i", "K2i")
    assert phi_matches_lmatrix_product()


def test_adjoint_action_values(O):
    act = oq_action()
    assert act.act("K1", O.gen("l12")) == O.gen("l12").scale(RC_Q)
    assert act.act("E", O.gen("l11")) == O.gen("l12")
    assert act.act("E", O.gen("l22")) == O.gen("l12").scale(-RAT.q_power(2))
    assert not act.act("E", qtrace_oq())
    assert not act.act("F", qtrace_oq())


def test_action_well_defined(O):
    assert all(ok for _, _, ok in oq_action().kills_defining_relations())


def test_invariants(O):
    act = oq_action()
    assert act.is_invariant(qtrace_oq())
    assert act.is_invariant(qdet_oq())
    assert not act.is_invariant(O.gen("l12"))
    assert not act.is_invariant(O.gen("l11"))


def test_action_compatible_with_phi(O):
    act = oq_action()
    for name in ("l11", "l12", "l21", "l22"):
        for g in ("E", "F", "K1", "K2"):
            lhs = embed_phi(act.act(g, O.gen(name)))
            rhs = adjoint_in_uq(g, embed_phi(O.gen(name)))
            assert not uq_spec().nf(lhs - rhs), (name, g)


def test_module_algebra_coassociativity(O):
    # (EF - FE) acts like (K1 K2i - K1i K2)/(q - 1/q)
    act = oq_action()
    rng = random.Random(23)
    names = ("l11", "l12", "l21", "l22")
    inv = QMQI.inverse()
    for _ in range(8):
        w = [rng.choice(names) for _ in range(rng.randint(1, 3))]
        x = O.nf(O.word_poly(*w))
        lhs = act.act("E", act.act("F", x)) - act.act("F", act.act("E", x))
        k = act.act("K1", act.act("K2i", x)) - act.act("K1i", act.act("K2", x))
        assert not O.nf(lhs - k.scale(inv))


ACT_COEFFS = (RC_ONE, RatCoeff.from_int(-2), RC_Q, RC_Q.inverse() * RC_T,
              RC_ONE + RC_Q * RC_Q, (RC_ONE + RC_T * RC_T).inverse())


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_act_matches_term_by_term_reference(data):
    action = data.draw(st.sampled_from([oq_action(), dq_action()]), label="action")
    spec = action.spec
    letters = range(len(spec.alphabet))
    x = spec.zero()
    for _ in range(data.draw(st.integers(1, 4), label="terms")):
        w = tuple(data.draw(st.lists(st.sampled_from(letters), max_size=3), label="word"))
        x = x + NcPoly.from_word(spec.alphabet, w, data.draw(st.sampled_from(ACT_COEFFS)))
    if data.draw(st.booleans(), label="normal"):
        x = spec.nf(x)
    for g in ("E", "F", "K1", "K2", "K1i", "K2i"):
        assert action.act(g, x) == positional_act(action, g, x), g


def test_embed_phi_matches_the_word_fold_on_all_oq_words_up_to_length_4(O):
    # each word alone, then all of them in one element, whose words share
    # tails in one map
    words = [w for n in range(5) for w in itertools.product(range(4), repeat=n)]
    assert len(words) == 341
    for w in words:
        x = NcPoly.from_word(O.alphabet, w)
        assert embed_phi(x) == fold_embed_phi(x), w
    x = NcPoly(O.alphabet, {w: RAT.q_power(k % 5 - 2) for k, w in enumerate(words)}, O.field)
    assert embed_phi(x) == fold_embed_phi(x)


def _image_check(action, words):
    # one images call over all the words, each image against the sum over
    # positions of its word alone
    spec = action.spec
    for g in ("E", "F"):
        got = action.images(g, words)
        for w, img in zip(words, got):
            assert img == positional_act(action, g, NcPoly.from_word(spec.alphabet, w)), (g, w)


def test_images_match_positional_sum_on_dq_words_up_to_2_2():
    D = dq_action().spec
    words = [w for m in range(3) for n in range(3) for w in D.pbw.enumerate(m, n)]
    assert len(words) == 225
    _image_check(dq_action(), words)


def test_images_match_positional_sum_on_all_oq_words_up_to_length_4():
    # every word over the four letters, most of them not normal
    words = [w for n in range(5) for w in itertools.product(range(4), repeat=n)]
    assert len(words) == 341
    _image_check(oq_action(), words)


@pytest.mark.parametrize("which", ["oq", "dq"])
def test_act_matches_positional_sum_on_rule_residuals(which):
    action = oq_action() if which == "oq" else dq_action()
    spec = action.spec
    for rule in spec.rules + spec.aux_rules:
        for x in (NcPoly.from_word(spec.alphabet, rule.lhs), rule.rhs,
                  NcPoly.from_word(spec.alphabet, rule.lhs) - rule.rhs):
            for g in ("E", "F"):
                assert action.act(g, x) == positional_act(action, g, x), (rule.tag, g)


def test_action_requires_every_letter_image():
    O = oq_spec()
    names = ("l11", "l12", "l21", "l22")
    weights = {n: (0, 0) for n in names}
    images = {n: O.gen(n) for n in names}
    for drop in ("E", "F"):
        partial = {n: p for n, p in images.items() if n != "l21"}
        e, f = (partial, images) if drop == "E" else (images, partial)
        with pytest.raises(EngineError, match=f"no {drop} image for letter l21"):
            AdjointAction(O, weights, e, f)
    with pytest.raises(EngineError, match="unknown action generator"):
        oq_action().images("K1", [()])
