"""The graded identification between the reduction and the spherical algebra."""

import random

import pytest

from qhc.coeffring import RAT
from qhc.daha import phi_apply, sdaha_spec
from qhc.hciso import (
    hc_apply,
    hc_basis_bijection,
    hc_relation_residuals,
    hc_verify,
)
from qhc.invham import ham_spec, psi_congruent_zero
from qhc.ncpoly import NcPoly

from oracles import hc_inverse_apply, spherical_positive_series


@pytest.fixture(scope="module")
def H():
    return ham_spec()


@pytest.fixture(scope="module")
def A():
    return sdaha_spec()


def test_generator_dictionary(H, A):
    assert hc_apply(H.gen("d1")) == A.gen("P1")
    assert hc_apply(H.gen("d2")) == A.gen("P2").scale(RAT.q_power(2))
    assert hc_apply(H.gen("r")) == A.gen("R")
    assert hc_apply(H.word_poly("c1", "d1")) == A.word_poly("Q1", "P1")
    assert hc_apply(H.word_poly("c2", "d2")) == A.word_poly("Q2", "P2").scale(RAT.q_power(4))


def test_inverse_on_generators(H, A):
    for name in ("c1", "c2", "c2i", "r", "d1", "d2", "d2i"):
        g = H.gen(name)
        assert hc_inverse_apply(hc_apply(g)) == g


def test_all_relations_transport(H):
    for tag, r in hc_relation_residuals():
        assert not r, tag


def test_d1r_transport_lands_on_spherical_relation(H, A):
    # d1 r - q^-2 r d1 - (1-q^-2) q^-2 c1 d2 transports to
    # P1 R - q^-2 R P1 - (1-q^-2) Q1 P2
    from qhc.coeffring import RC_ONE

    resid = (H.word_poly("d1", "r") - H.word_poly("r", "d1").scale(RAT.q_power(-2))
             - H.word_poly("c1", "d2").scale((RC_ONE - RAT.q_power(-2)) * RAT.q_power(-2)))
    img = hc_apply(resid)
    assert not img
    direct = (A.word_poly("P1", "R") - A.word_poly("R", "P1").scale(RAT.q_power(-2))
              - A.word_poly("Q1", "P2").scale(RC_ONE - RAT.q_power(-2)))
    assert not A.nf(direct)


def test_graded_bijection(H):
    series = spherical_positive_series(4, 4)
    for rec in hc_basis_bijection((4, 4)):
        assert rec["bijective"], rec
        m, n = rec["bidegree"]
        assert rec["count"] == series.get((m, n), 0)
        for s in rec["scalars"]:
            assert s.lstrip("q^*0123456789/1") == "" or s == "1"


def test_hc_verify_report():
    rep = hc_verify((3, 3))
    assert rep["pass"]
    assert len(rep["relations"]) == 11


def test_hc_is_homomorphism_on_products(H, A):
    rng = random.Random(29)
    names = ["c1", "c2", "r", "d1", "d2"]
    for _ in range(10):
        x = H.word_poly(*(rng.choice(names) for _ in range(rng.randint(1, 3))))
        y = H.word_poly(*(rng.choice(names) for _ in range(rng.randint(1, 3))))
        assert hc_apply(H.nf(x * y)) == A.nf(hc_apply(x) * hc_apply(y))


def test_end_to_end_composite(H):
    """Both realisations agree on the defining relations: the transport into
    the spherical algebra is killed by phi's normal form, and the reduction
    map sends each relation into the moment ideal (exactly, or as an explicit
    multiple of mu(Z_t) for the r^2 relation)."""
    from qhc.daha import daha_spec

    D = daha_spec()
    for rule in H.rules:
        resid = NcPoly.from_word(H.alphabet, rule.lhs) - rule.rhs
        assert not D.nf(phi_apply(hc_apply(resid))), rule.tag
        status, _ = psi_congruent_zero(resid)
        assert status in ("exact", "ideal"), rule.tag
