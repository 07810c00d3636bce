"""D_q(GL2): the 28 relations, localisation, cofactors, q-traces, moment map."""

import pytest

from qhc.coeffring import RAT, RC_ONE, RC_T
from qhc.dqops import (
    claimed_cofactor_display,
    cofactor,
    cofactor_display_mismatches,
    cofactor_identity_residuals,
    det_a_body,
    det_d_body,
    det_qcommutation_residuals,
    dq_action,
    dq_denominators,
    dq_elem,
    dq_elem_invariant,
    dq_spec,
    matrix_relation_entries,
    moment_det,
    moment_relation_residuals,
    moment_zt,
    qmat_a,
    qmat_d,
    qmat_mul,
    qtrace,
    trq_xt,
)
from qhc.linalg import dense_rank
from qhc.ncpoly import NcPoly
from qhc.qgroup import oq_denominators, oq_spec
from qhc.rewrite import LocElem, check_ambiguities, hilbert_table

from oracles import diffops_positive_dims


@pytest.fixture(scope="module")
def D():
    return dq_spec()


def test_normal_form_examples(D):
    assert D.nf(D.word_poly("p22", "a12")) == D.word_poly("a12", "p22")
    assert D.nf(D.word_poly("a22", "a21")) == D.word_poly("a21", "a22").scale(RAT.q_power(-2))


def test_diamonds_all_resolve(D):
    reports = check_ambiguities(D)
    assert len(reports) == 56
    assert all(r.resolved for r in reports)


def test_hilbert_counts(D):
    tab = hilbert_table(D, (2, 2))
    for m in range(3):
        for n in range(3):
            assert tab.dim(m, n) == diffops_positive_dims(m, n)
    assert tab.dim(1, 1) == 16


def test_det_qcommutations(D):
    for tag, r in det_qcommutation_residuals():
        assert not r, tag


def test_matrix_equations_reduce_and_span(D):
    ents = matrix_relation_entries()
    assert {len(v) for v in ents.values()} == {16}
    for block, vs in ents.items():
        for v in vs:
            assert not D.nf(v), block
    # the entry residuals span exactly the straightening rules of each block
    def rows_of(polys, words):
        col = {w: i for i, w in enumerate(words)}
        zero = RAT.from_int(0)
        out = []
        for p in polys:
            r = [zero] * len(words)
            for w, c in p.terms.items():
                r[col[w]] = c
            out.append(r)
        return out

    a_idx = [D.alphabet.index(n) for n in ("a11", "a12", "a21", "a22")]
    p_idx = [D.alphabet.index(n) for n in ("p11", "p12", "p21", "p22")]
    cases = {
        "coordinates": ([(i, j) for i in a_idx for j in a_idx],
                        [r for r in D.rules if r.tag[0] == "a"]),
        "derivatives": ([(i, j) for i in p_idx for j in p_idx],
                        [r for r in D.rules if r.tag[0] == "p" and r.tag[4] == "p"]),
        "cross": ([(i, j) for i in p_idx + a_idx for j in p_idx + a_idx
                   if (i in p_idx) != (j in p_idx)],
                  [r for r in D.rules if r.tag[0] == "p" and r.tag[4] == "a"]),
    }
    for block, (words, rules) in cases.items():
        base = rows_of([e for e in ents[block] if e], words)
        rk = dense_rank(base, RC_ONE)
        assert rk == len(rules), block
        for rule in rules:
            resid = NcPoly.from_word(D.alphabet, rule.lhs) - rule.rhs
            assert dense_rank(base + rows_of([resid], words), RC_ONE) == rk, rule.tag


def test_cofactors_solved_and_identities(D):
    adj = cofactor("A")
    assert adj[0][0] == D.gen("a22")
    assert adj[0][1] == D.gen("a12").scale(-RAT.q_power(2))
    assert adj[1][0] == D.gen("a21").scale(-RAT.q_power(2))
    assert adj[1][1] == D.gen("a11").scale(RAT.q_power(2)) + D.gen("a22").scale(RC_ONE - RAT.q_power(2))
    for tag, r in cofactor_identity_residuals("A") + cofactor_identity_residuals("D"):
        assert not r, tag


def test_cofactor_display_erratum(D):
    for which in ("A", "D"):
        mism = cofactor_display_mismatches(which)
        assert [pos for pos, _, _ in mism] == [(2, 2)]
        claimed = claimed_cofactor_display(which)
        # the claimed bottom-right entry collapses to a single letter
        assert len(claimed[1][1].terms) == 1


@pytest.mark.parametrize("spec, dens", [(dq_spec, dq_denominators), (oq_spec, oq_denominators)])
def test_denominator_kappas(spec, dens):
    # den * g = q^<kappa, deg g> g * den for every generator g
    S = spec()
    for den in dens():
        for g in S.alphabet.gens:
            h = S.gen(g.name)
            e = den.kappa[0] * g.bidegree[0] + den.kappa[1] * g.bidegree[1]
            assert not S.nf(den.body * h - (h * den.body).scale(RAT.q_power(e))), (den.inverse_name, g.name)


def test_loc_mul_examples(D):
    # detA^-1 p11 = q^-2 p11 detA^-1 (inverting p11 detA = q^-2 detA p11)
    p11 = dq_elem(D.gen("p11"))
    det_a_inv = dq_elem(D.unit(), 1, 0)
    lhs = det_a_inv * p11
    rhs = (p11 * det_a_inv).scale(RAT.q_power(-2))
    assert lhs == rhs
    # in the left-denominator representation the body stays p11
    assert lhs.body == D.gen("p11") and lhs.exps == (1, 0)
    # x * x^-1 = 1 for x = detA detD; the inverse is detD^-1 detA^-1, which
    # in left-ordered form is q^-4 detA^-1 detD^-1
    x = dq_elem(D.nf(det_a_body() * det_d_body()))
    xi = (det_a_inv * dq_elem(D.unit(), 0, 1)).scale(RAT.q_power(-4))
    one = dq_elem(D.unit())
    assert xi * x == one
    assert x * xi == one


def test_loc_mul_associative(D):
    x, y, z = (
        dq_elem(D.gen("p11"), 1, 0),
        dq_elem(D.gen("a12") + D.gen("a21"), 0, 1),
        dq_elem(D.word_poly("a11", "p22")),
    )
    assert (x * y) * z == x * (y * z)
    O = oq_spec()

    def oq(body, e=0):
        return LocElem(O, oq_denominators(), body, (e,))

    x, y, z = oq(O.gen("l12"), 1), oq(O.gen("l21") + O.gen("l11"), 2), oq(O.word_poly("l22", "l12"))
    assert (x * y) * z == x * (y * z)


def test_qtrace_values(D):
    A = qmat_a()
    assert qtrace(A) == dq_elem(D.gen("a11") + D.gen("a22").scale(RAT.q_power(-2)))
    assert trq_xt() == (RC_T * RC_T).inverse() + RAT.q_power(-2) * RC_T * RC_T


def test_qtrace_da_explicit(D):
    # q^2 tr_q(D A) in PBW order:
    # a11 p11 + (q^-2 - 1) a11 p22 + q^2 a12 p21 + a21 p12
    #   + (q^-2 - 1) a22 p11 + (1 - q^-2 + q^-4) a22 p22
    da = qmat_mul(qmat_d(), qmat_a())
    r_img = qtrace(da).scale(RAT.q_power(2))
    qm2 = RAT.q_power(-2)
    expected = (D.word_poly("a11", "p11")
                + D.word_poly("a11", "p22").scale(qm2 - RC_ONE)
                + D.word_poly("a12", "p21").scale(RAT.q_power(2))
                + D.word_poly("a21", "p12")
                + D.word_poly("a22", "p11").scale(qm2 - RC_ONE)
                + D.word_poly("a22", "p22").scale(RC_ONE - qm2 + RAT.q_power(-4)))
    assert r_img == dq_elem(expected)


def test_trace_commutator_gives_r(D):
    # tr_q(A) tr_q(D) - tr_q(D) tr_q(A) = (1 - q^-2) q^2 tr_q(DA)
    ta, td = qtrace(qmat_a()), qtrace(qmat_d())
    r_img = qtrace(qmat_mul(qmat_d(), qmat_a())).scale(RAT.q_power(2))
    lhs = ta * td - td * ta
    assert lhs == r_img.scale(RC_ONE - RAT.q_power(-2))


def test_moment_map_entries_satisfy_coordinate_relations():
    for tag, r in moment_relation_residuals():
        assert not r, tag


def test_moment_det_is_q8(D):
    assert moment_det() == dq_elem(D.scalar(RAT.q_power(8)))


def test_moment_zt_invariant():
    zt = moment_zt()
    assert dq_elem_invariant(zt)
    assert zt.exps == (1, 1)


def test_action_kills_dq_relations():
    assert all(ok for _, _, ok in dq_action().kills_defining_relations())


def test_dq_invariant_examples(D):
    act = dq_action()
    assert act.is_invariant(qtrace(qmat_a()).body)
    assert act.is_invariant(det_a_body())
    assert act.is_invariant(D.nf(qtrace(qmat_mul(qmat_d(), qmat_a())).body))
    assert not act.is_invariant(D.gen("a12"))
