"""D_q(GL2): the 28 relations, localisation, cofactors, q-traces, moment map."""

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qhc import dqops
from qhc.cli import main
from qhc.coeffring import RAT, RC_ONE, RC_T, RatCoeff
from qhc.dqops import (
    MOMENT_TABLE,
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
    moment_matrix,
    moment_sums,
    moment_zt,
    qmat_a,
    qmat_d,
    qtrace,
    trq_xt,
)
from qhc.invham import ham_spec, psibar_apply
from qhc.linalg import dense_rank
from qhc.ncpoly import NcPoly
from qhc.qgroup import QMQI, mat_mul, oq_denominators, oq_spec, rmatrix_vector
from qhc.rewrite import LocElem, _on_right, check_ambiguities, hilbert_table
from qhc.suites import run_verify_suite

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
    cases = {
        "coordinates": [r for r in D.rules if r.tag[0] == "a"],
        "derivatives": [r for r in D.rules if r.tag[0] == "p" and r.tag[4] == "p"],
        "cross": [r for r in D.rules if r.tag[0] == "p" and r.tag[4] == "a"],
    }
    for block, rules in cases.items():
        base = [e.terms for e in ents[block] if e]
        rk = dense_rank(base, RAT.zero)
        assert rk == len(rules), block
        for rule in rules:
            resid = NcPoly.from_word(D.alphabet, rule.lhs) - rule.rhs
            assert dense_rank(base + [resid.terms], RAT.zero) == rk, rule.tag


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


def test_cofactor_suite_catches_a_wrong_adjugate(monkeypatch, capsys):
    # the suite's exact checks are the adjugate's certificate: the displayed
    # matrix, with its erratum in the (2,2) entry, fails M*adj and adj*M in
    # the second column or row, and matches the display it should not
    monkeypatch.setattr(dqops, "cofactor", claimed_cofactor_display)
    report = run_verify_suite("cofactor")
    failed = [item["name"] for item in report["items"] if not item["pass"]]
    assert failed == [f"{m}:{tag}" for m in "AD" for tag in
                      ("M*adj[12]", "M*adj[22]", "adj*M[21]", "adj*M[22]",
                       " display matches except the known erratum")]
    assert main(["verify", "--suite", "cofactor"]) == 1
    assert json.loads(capsys.readouterr().out)["failed"] == 10


def test_dq_relations_suite_catches_a_wrong_r21_inverse(monkeypatch, capsys):
    # R + (q - 1/q) P, the closed form with its sign flipped, inverts no R21:
    # only the cross relations read R21^-1, and they then fail both to reduce
    # and to span exactly the cross rules
    R = rmatrix_vector()
    wrong = [[R[i][j] + QMQI if j == 2 * (i % 2) + i // 2 else R[i][j] for j in range(4)] for i in range(4)]
    monkeypatch.setattr(dqops, "rmatrix_21_inverse", lambda: wrong)
    report = run_verify_suite("dq-relations")
    failed = [item["name"] for item in report["items"] if not item["pass"]]
    assert failed == ["matrix equation entries reduce: cross", "entries span exactly the cross rules"]
    assert main(["verify", "--suite", "dq-relations"]) == 1
    assert json.loads(capsys.readouterr().out)["failed"] == 2


def test_dq_relations_suite_catches_a_wrong_determinant_kappa(monkeypatch, capsys):
    # detA's kappa read (0, 4) in place of (0, 2): the suite checks the kappas
    # LocElem moves the determinants with, so the four p-letters, of bidegree
    # (0, 1), fail; the a-letters, of bidegree (1, 0), do not see the change
    dA, dD = dq_denominators()
    monkeypatch.setattr(dqops, "dq_denominators", lambda: (dA._replace(kappa=(0, 4)), dD))
    report = run_verify_suite("dq-relations")
    failed = [item["name"] for item in report["items"] if not item["pass"]]
    assert failed == [f"det commutation {n}*detA" for n in ("p11", "p12", "p21", "p22")]
    assert main(["verify", "--suite", "dq-relations"]) == 1
    assert json.loads(capsys.readouterr().out)["failed"] == 4


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


def free_product_reference(x, y):
    """(body, exps) of x * y by the free-product formula: nf(c w * y.body)
    for each term c w of x.body, scaled by the q-power of moving y's
    denominators left past w and past x's denominators."""
    spec = x.spec
    acc = spec.zero()
    for w, c in x.body.terms.items():
        d = spec.alphabet.word_bidegree(w)
        e = sum(f * (den.kappa[0] * d[0] + den.kappa[1] * d[1]) for f, den in zip(y.exps, y.dens))
        acc = acc + spec.nf(NcPoly.from_word(spec.alphabet, w, c) * y.body).scale(RAT.q_power(e))
    acc = acc.scale(RAT.q_power(x._cross(x.exps, y.exps)))
    return acc, tuple(a + b for a, b in zip(x.exps, y.exps))


def free_at_loc_reference(x, exps):
    """x's body over den^-exps by d calls of nf(den.body * out) per denominator,
    last denominator first.  That order keeps dq's free products small, as
    detq(D) then meets the body before detq(A) has raised its a-degree, and
    den_k^d_k ... den_1^d_1 = q^_cross(d, d) den_1^d_1 ... den_k^d_k puts it
    right."""
    delta = [g - e for g, e in zip(exps, x.exps)]
    out = x.body
    for den, d in reversed(list(zip(x.dens, delta))):
        for _ in range(d):
            out = x.spec.nf(den.body * out)
    return out.scale(RAT.q_power(x._cross(x.exps, delta) + x._cross(delta, delta)))


laurent = st.builds(RatCoeff.monomial, st.integers(-3, 3).filter(bool), st.integers(-2, 2), st.integers(-2, 2))


def loc_elems(name, least=1):
    """Random localised elements with exponents from least to 2 and bodies
    of up to three words of up to four letters, which mix dq's a- and
    p-letters in both orders."""
    if name == "dq":
        spec, ndens = dq_spec(), 2
        make = lambda body, exps: dq_elem(body, *exps)
    else:
        spec, ndens = oq_spec(), 1
        make = lambda body, exps: LocElem(spec, oq_denominators(), body, exps)
    words = st.lists(st.integers(0, len(spec.alphabet) - 1), max_size=4).map(tuple)
    bodies = st.dictionaries(words, laurent, min_size=1, max_size=3).map(lambda t: NcPoly(spec.alphabet, t))
    exps = st.lists(st.integers(least, 2), min_size=ndens, max_size=ndens)
    return st.builds(make, bodies, exps)


@pytest.mark.parametrize("name", ["dq", "oq"])
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_loc_products_match_free_product_reference(name, data):
    x, y = data.draw(loc_elems(name)), data.draw(loc_elems(name))
    body, exps = free_product_reference(x, y)
    ref = LocElem(x.spec, x.dens, body, exps)
    prod = x * y
    assert (prod.body, prod.exps) == (ref.body, ref.exps)
    shift = data.draw(st.lists(st.integers(0, 2), min_size=len(x.exps), max_size=len(x.exps)))
    target = tuple(e + s for e, s in zip(x.exps, shift))
    assert x._at_loc(target) == free_at_loc_reference(x, target)


@pytest.mark.parametrize("name", ["dq", "oq"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_products_match_one_product_at_a_time(name, data):
    right = data.draw(loc_elems(name, least=0))
    lefts = data.draw(st.lists(loc_elems(name, least=0), min_size=1, max_size=3))
    got = [(p.body, p.exps) for p in LocElem.products(lefts, right)]
    assert got == [((x * right).body, (x * right).exps) for x in lefts]


def test_denominator_sides():
    # a denominator multiplies from the right only when its letters rank
    # after every other letter: detq(D)'s p-letters follow the a-letters,
    # detq(A)'s come first, and oq's detq(L) uses every letter
    assert [_on_right(dq_spec(), den) for den in dq_denominators()] == [False, True]
    assert [_on_right(oq_spec(), den) for den in oq_denominators()] == [False]


@pytest.mark.parametrize("exps", [(1, 1), (2, 2)])
def test_ham_square_residual_at_loc_matches_left_products(exps):
    # find_ideal_multiplier divides the psibar image of the r*r residual at
    # its own level (0, 0); (1, 1) and (2, 2) are the levels it tries next
    # for an element over no denominators when that finds no quotient
    H = ham_spec()
    (rule,) = [r for r in H.rules if r.tag == "r*r"]
    img = psibar_apply(NcPoly.from_word(H.alphabet, rule.lhs) - rule.rhs)
    assert img.exps == (0, 0) and len(img.body.terms) == 25
    assert img._at_loc(exps) == free_at_loc_reference(img, exps)


def test_qtrace_values(D):
    A = qmat_a()
    assert qtrace(A) == dq_elem(D.gen("a11") + D.gen("a22").scale(RAT.q_power(-2)))
    assert trq_xt() == (RC_T * RC_T).inverse() + RAT.q_power(-2) * RC_T * RC_T


def test_qtrace_da_explicit(D):
    # q^2 tr_q(D A) in PBW order:
    # a11 p11 + (q^-2 - 1) a11 p22 + q^2 a12 p21 + a21 p12
    #   + (q^-2 - 1) a22 p11 + (1 - q^-2 + q^-4) a22 p22
    da = mat_mul(qmat_d(), qmat_a())
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
    r_img = qtrace(mat_mul(qmat_d(), qmat_a())).scale(RAT.q_power(2))
    lhs = ta * td - td * ta
    assert lhs == r_img.scale(RC_ONE - RAT.q_power(-2))


def test_moment_map_entries_satisfy_coordinate_relations():
    relations = {tag: row for tag, row in MOMENT_TABLE.items() if tag != "detq"}
    sums = moment_sums(relations)
    assert list(sums) == list(relations) and len(sums) == 6
    for tag, r in sums.items():
        assert not r, tag


def _entry(ij):
    i, j = divmod(ij, 10)
    return moment_matrix()[i - 1][j - 1]


ENTRIES = (11, 12, 21, 22)


def test_moment_sums_match_each_single_product():
    # every m_ij * m_kl, none of them zero, from one table
    table = {f"m{ij}*m{kl}": [(RC_ONE, ij, kl)] for ij in ENTRIES for kl in ENTRIES}
    sums = moment_sums(table)
    assert list(sums) == list(table)
    for tag, row in table.items():
        (_, ij, kl), = row
        prod = _entry(ij) * _entry(kl)
        assert prod and sums[tag] == prod, tag


@settings(max_examples=4, deadline=None)
@given(terms=st.lists(st.tuples(laurent, st.sampled_from(ENTRIES), st.sampled_from(ENTRIES)),
                      min_size=2, max_size=2))
def test_moment_sums_match_a_two_term_combination(terms):
    (c, ij, kl), (d, ij2, kl2) = terms
    first = (_entry(ij) * _entry(kl)).scale(c)
    mix = first + (_entry(ij2) * _entry(kl2)).scale(d)
    assume(mix)
    got = moment_sums({"mix": terms, "first": terms[:1]})
    assert got == {"mix": mix, "first": first}


def test_moment_det_is_q8(D):
    assert moment_sums({"detq": MOMENT_TABLE["detq"]})["detq"] == dq_elem(D.scalar(RAT.q_power(8)))


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
    assert act.is_invariant(D.nf(qtrace(mat_mul(qmat_d(), qmat_a())).body))
    assert not act.is_invariant(D.gen("a12"))


@pytest.mark.parametrize("name", ["dq", "oq"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_reduced_keeps_the_element_and_lowers_exponents(name, data):
    # v = den^-e den^k x; reduced() strips what divides exactly
    x = data.draw(loc_elems(name))
    spec, dens = x.spec, x.dens
    ks = data.draw(st.lists(st.integers(0, 2), min_size=len(dens), max_size=len(dens)))
    es = data.draw(st.lists(st.integers(0, 2), min_size=len(dens), max_size=len(dens)))
    body = x.body
    for den, k in reversed(list(zip(dens, ks))):
        for _ in range(k):
            body = spec.mul(den.body, body)
    v = LocElem(spec, dens, body, es)
    r = v.reduced()
    assert r == v
    assert all(a <= b for a, b in zip(r.exps, v.exps))


def test_new_matches_the_constructor_on_moment_products(monkeypatch):
    # LocElem._new skips the constructor's normal form: every element the
    # moment map's products, sums and scalings build equals the one the
    # public constructor builds from the same body and exponents
    new, seen = LocElem._new, []

    def checked(self, exps, body):
        out = new(self, exps, body)
        ref = LocElem(self.spec, self.dens, body, exps)
        assert (out.body, out.exps) == (ref.body, ref.exps)
        seen.append(out)
        return out

    monkeypatch.setattr(LocElem, "_new", checked)
    sums = moment_sums(MOMENT_TABLE)
    assert sums.pop("detq") == dq_elem(dq_spec().scalar(RAT.q_power(8)))
    for tag, r in sums.items():
        assert not r, tag
    assert len(seen) > 40 and any(not x for x in seen)
