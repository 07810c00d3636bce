"""Named verification suites behind `qhc verify --suite <name>`.

Each suite returns a list of items {"name": ..., "pass": bool, "detail":
optional string}.  Items are computed against the symbolic presentations;
everything is exact, so "pass" means an identity holds on the nose.

An identity item is a residual that must vanish (_zero): it passes exactly
when the residual is zero, and a failing one shows the residual's text, cut
at DETAIL_CHARS characters.  Counts, ranks and predicates are plain _item
checks with their own details.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import daha, dqops, hciso, invham, qgroup
from .coeffring import RAT, RC_ONE, RC_T
from .linalg import dense_rank
from .rewrite import check_ambiguities, hilbert_table, straighten_trace


#: most characters of a failing identity's residual that its detail shows
DETAIL_CHARS = 400


def _item(name: str, ok: bool, detail: Optional[str] = None) -> dict:
    out = {"name": name, "pass": bool(ok)}
    if detail:
        out["detail"] = detail
    return out


def _zero(name: str, residual) -> dict:
    """The item of an identity: it passes exactly when residual is zero (an
    element, or a list of nonzero entries), and a failing one carries the
    residual's text, cut at DETAIL_CHARS characters."""
    return _item(name, not residual, str(residual)[:DETAIL_CHARS] if residual else None)


# ---------------------------------------------------------------------------
# graded dimension series used as verification targets
# ---------------------------------------------------------------------------

def series_expand(numerator: dict, denominators: list[tuple[int, int]], M: int, N: int) -> dict:
    acc = {k: v for k, v in numerator.items() if k[0] <= M and k[1] <= N}
    for mu, nu in denominators:
        geo = {}
        k = 0
        while k * mu <= M and k * nu <= N:
            geo[(k * mu, k * nu)] = 1
            k += 1
        new = {}
        for (m1, n1), c1 in acc.items():
            for (m2, n2), c2 in geo.items():
                m, n = m1 + m2, n1 + n2
                if m <= M and n <= N:
                    new[(m, n)] = new.get((m, n), 0) + c1 * c2
        acc = new
    return acc


def spherical_series(M: int, N: int) -> dict:
    return series_expand({(0, 0): 1, (1, 1): 1}, [(1, 0), (2, 0), (0, 1), (0, 2)], M, N)


def invariant_series(M: int, N: int) -> dict:
    return series_expand({(0, 0): 1}, [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)], M, N)


# ---------------------------------------------------------------------------
# the suites
# ---------------------------------------------------------------------------

def suite_daha_derived() -> list[dict]:
    spec = daha.daha_spec()
    items = [_zero(f"defining:{tag}", r) for tag, r in daha.defining_relation_residuals(spec)]
    items += [_zero(f"reordering:{tag}", r) for tag, r in daha.reordering_residuals(spec)]
    items.append(_zero("nf(Ti*Y1*Ti) = Y2", spec.nf(spec.word_poly("Ti", "Y1", "Ti")) - spec.gen("Y2")))
    items.append(_zero("nf(X1*X1i) = 1", spec.nf(spec.word_poly("X1", "X1i")) - spec.unit()))
    return items


def _diamond_items(spec, expected_count: Optional[int]) -> list[dict]:
    reports = check_ambiguities(spec)
    items = []
    if expected_count is not None:
        items.append(_item(
            f"ambiguity count = {expected_count}",
            len(reports) == expected_count,
            f"found {len(reports)}",
        ))
    for r in reports:
        items.append(_zero(f"diamond {spec.alphabet.word_str(r.monomial)}", r.left_first - r.right_first))
    return items


def _sdaha_trace_expected():
    A = daha.sdaha_spec()
    q = RAT.q_power
    coeff = q(-2) * (RC_ONE - q(-2))
    return (A.word_poly("Q1", "R", "P1").scale(q(-4))
            + A.word_poly("Q2", "P1", "P1").scale(coeff)
            - A.word_poly("R", "R").scale(coeff)
            + A.word_poly("Q1", "Q1", "P2").scale(coeff))


def suite_sdaha_diamonds() -> list[dict]:
    A = daha.sdaha_spec()
    items = _diamond_items(A, 15)
    w = A.alphabet.word("P1", "R", "Q1")
    expected = _sdaha_trace_expected()
    for d in ("leftmost", "rightmost"):
        items.append(_zero(f"trace P1*R*Q1 ({d})", straighten_trace(A, w, d) - expected))
    return items


def _inv_trace_expected():
    B = invham.inv_spec()
    q = RAT.q_power
    return (B.word_poly("c1", "c1", "r", "d1").scale(q(-6))
            - B.word_poly("c1", "c2", "d1", "d1").scale(q(-8))
            - B.word_poly("c1", "c1", "c1", "d2").scale(q(-8))
            + B.word_poly("c1", "w").scale(q(-8))
            + B.word_poly("c2", "r", "d1").scale(q(-4) - q(-8))
            + B.word_poly("c1", "c2", "d2").scale(q(-10) + q(-10) - q(-8) + q(-6)))


def suite_inv_diamonds() -> list[dict]:
    B = invham.inv_spec()
    items = _diamond_items(B, 26)
    w = B.alphabet.word("r", "r", "c1")
    expected = _inv_trace_expected()
    for d in ("leftmost", "rightmost"):
        items.append(_zero(f"trace r^2*c1 ({d})", straighten_trace(B, w, d) - expected))
    return items


def suite_phi() -> list[dict]:
    items = [_zero(f"phi kills {tag}", r) for tag, r in daha.phi_relation_residuals()]
    spec = daha.daha_spec()
    e = daha.idempotent()
    items.append(_zero("e*e = e", spec.nf(spec.mul(e, e) - e)))
    items.append(_zero("e T = t e", daha.idempotent_sandwich(spec.gen("T")) - e.scale(RC_T)))
    return items


def suite_lmatrix() -> list[dict]:
    items = [_zero(f"lmatrix {tag}", r) for tag, r in qgroup.lmatrix_check()]
    items.append(_zero("Yang-Baxter", qgroup.yang_baxter_residual()))
    items.append(_zero("phi = L+ S(L-)", qgroup.phi_matches_lmatrix_product()))
    return items


def suite_oq_action() -> list[dict]:
    O = qgroup.oq_spec()
    act = qgroup.oq_action()
    items = []
    for tag, g, ok in act.kills_defining_relations():
        items.append(_item(f"{g} kills {tag}", ok))
    items.append(_item("tr_q invariant", act.is_invariant(qgroup.qtrace_oq())))
    items.append(_item("det_q invariant", act.is_invariant(qgroup.qdet_oq())))
    items.append(_item("l12 not invariant", not act.is_invariant(O.gen("l12"))))
    items += [_zero(f"phi kills {rule.tag}", qgroup.embed_phi(rule.residual)) for rule in O.rules]
    U = qgroup.uq_spec()
    items.append(_zero("phi(det_q) = K1^-2 K2^-2",
                       qgroup.embed_phi(qgroup.qdet_oq()) - U.word_poly("K1i", "K1i", "K2i", "K2i")))
    for name in ("l11", "l12", "l21", "l22"):
        for g in ("E", "F", "K1", "K2"):
            lhs = qgroup.embed_phi(act.act(g, O.gen(name)))
            rhs = qgroup.adjoint_in_uq(g, qgroup.embed_phi(O.gen(name)))
            items.append(_zero(f"phi({g} > {name}) matches", U.nf(lhs - rhs)))
    return items


def suite_dq_relations() -> list[dict]:
    D = dqops.dq_spec()
    items = _diamond_items(D, 56)
    ents = dqops.matrix_relation_entries()
    for block, vs in sorted(ents.items()):
        items.append(_zero(f"matrix equation entries reduce: {block}", [r for r in map(D.nf, vs) if r]))
    # a block's entries span exactly its printed rules when their rank is the
    # number of rules and adding every rule's residual leaves it unchanged
    a = {D.alphabet.index(n) for n in ("a11", "a12", "a21", "a22")}
    p = {D.alphabet.index(n) for n in ("p11", "p12", "p21", "p22")}
    blocks = {"coordinates": (a, a), "derivatives": (p, p), "cross": (p, a)}
    zero = RAT.from_int(0)
    for block in sorted(blocks):
        first, second = blocks[block]
        rules = [r for r in D.rules if r.lhs[0] in first and r.lhs[1] in second]
        base = [e.terms for e in ents[block] if e]
        rk = dense_rank(base, zero)
        ok = rk == len(rules) == dense_rank(base + [r.residual.terms for r in rules], zero)
        items.append(_item(f"entries span exactly the {block} rules", ok,
                           f"rank {rk}, rules {len(rules)}"))
    items += [_zero(f"det commutation {tag}", r) for tag, r in dqops.det_qcommutation_residuals()]
    return items


def suite_cofactor() -> list[dict]:
    items = []
    for which in ("A", "D"):
        items += [_zero(tag, r) for tag, r in dqops.cofactor_identity_residuals(which)]
        mism = dqops.cofactor_display_mismatches(which)
        ok = [pos for pos, _, _ in mism] == [(2, 2)]
        detail = "; ".join(
            f"entry {pos}: solved {s}, displayed {c} (erratum)" for pos, s, c in mism
        )
        items.append(_item(f"{which}: display matches except the known erratum", ok, detail))
    return items


def suite_moment() -> list[dict]:
    sums = dqops.moment_sums(dqops.MOMENT_TABLE)
    detq = sums.pop("detq")
    items = [_zero(f"mu(L) satisfies {tag}", r) for tag, r in sums.items()]
    items.append(_zero("det_q(mu(L)) = q^8",
                       detq - dqops.dq_elem(dqops.dq_spec().scalar(RAT.q_power(8)))))
    items.append(_item("mu(Z_t) invariant", dqops.dq_elem_invariant(dqops.moment_zt())))
    items.append(_zero("mu(Z_t) = psibar(c2^-1 d2^-1 (w - trq(Xt) c2 d2))",
                       invham.moment_zt_in_invariant_coordinates()))
    return items


def suite_psibar() -> list[dict]:
    items = [_zero(f"psibar kills {tag}", r) for tag, r in invham.psibar_relation_residuals()]
    series = invariant_series(4, 4)
    ranks = invham.psibar_ranks([(m, n) for m in range(5) for n in range(5)])
    for (m, n), got in ranks.items():
        want = series.get((m, n), 0)
        items.append(_item(f"psibar rank ({m},{n}) = {want}", got == want, f"got {got}"))
    B = invham.inv_spec()
    tab = hilbert_table(B, (4, 4))
    kernels = invham.invariant_dimensions([(m, n) for m in range(5) for n in range(5)])
    for (m, n), inv_dim in kernels.items():
        items.append(_item(
            f"hilbert = invariant dimension at ({m},{n})",
            tab.dim(m, n) == inv_dim == series.get((m, n), 0),
            f"table {tab.dim(m, n)}, kernel {inv_dim}",
        ))
    return items


def suite_ham() -> list[dict]:
    H = invham.ham_spec()
    items = _diamond_items(H, 15)
    coeff = RAT.q_power(-4) * (RC_ONE + RC_T * RC_T) * (RAT.q_power(-2) + (RC_T * RC_T).inverse())
    expected = (H.word_poly("c2", "d2").scale(coeff)
                - H.word_poly("c2", "d1", "d1").scale(RAT.q_power(-4))
                - H.word_poly("c1", "c1", "d2").scale(RAT.q_power(-4))
                + H.word_poly("c1", "r", "d1").scale(RAT.q_power(-2)))
    items.append(_zero("r^2 normal form", H.nf(H.word_poly("r", "r")) - expected))
    B = invham.inv_spec()
    items.append(_zero("w class is trq(Xt) c2 d2",
                       invham.quotient_w_image() - B.word_poly("c2", "d2").scale(dqops.trq_xt())))
    tab = hilbert_table(H, (6, 6))
    series = spherical_series(6, 6)
    ok = all(tab.dim(m, n) == series.get((m, n), 0) for m in range(7) for n in range(7))
    items.append(_item("PBW counts match the spherical counts up to (6,6)", ok))
    for tag, status in invham.ham_relation_congruences():
        items.append(_item(f"psi({tag}) in the moment ideal", status in ("exact", "ideal"), status))
    return items


def suite_hilbert_all() -> list[dict]:
    items = []
    A = daha.sdaha_spec()
    series = spherical_series(6, 6)
    tab = hilbert_table(A, (6, 6))
    ok = all(tab.dim(m, n) == series.get((m, n), 0) for m in range(7) for n in range(7))
    items.append(_item("spherical positive cone counts match the series up to (6,6)", ok))
    items.append(_item("dim (1,1) = 2", tab.dim(1, 1) == 2))
    items.append(_item("dim (2,2) = 5", tab.dim(2, 2) == 5))
    sandwich = daha.spherical_dimensions([(m, n) for m in range(7) for n in range(7)])
    for (m, n), got in sandwich.items():
        want = series.get((m, n), 0)
        items.append(_item(f"sandwich rank ({m},{n}) = {want}", got == want, f"got {got}"))
    for (m, n), got in daha.phi_ranks([(1, 1), (2, 2), (3, 3), (4, 4)]).items():
        want = series.get((m, n), 0)
        items.append(_item(f"phi rank ({m},{n}) = {want}", got == want, f"got {got}"))
    binv = invariant_series(2, 2)
    tabB = hilbert_table(invham.inv_spec(), (2, 2))
    items.append(_item("invariant cone (2,2) = 6", tabB.dim(2, 2) == binv.get((2, 2), 0) == 6))
    tabD = hilbert_table(dqops.dq_spec(), (1, 1))
    items.append(_item("operator cone (1,1) = 16", tabD.dim(1, 1) == 16))
    tabH = hilbert_table(invham.ham_spec(), (2, 2))
    items.append(_item("reduction cone (2,2) = 5", tabH.dim(2, 2) == 5))
    return items


def suite_hc() -> list[dict]:
    items = [_zero(f"transport {tag}", r) for tag, r in hciso.hc_relation_residuals()]
    for b in hciso.hc_basis_bijection((4, 4)):
        m, n = b["bidegree"]
        items.append(_item(
            f"basis bijection ({m},{n}), {b['count']} words",
            b["bijective"],
            "scalars " + ", ".join(b["scalars"]) if b["scalars"] else None,
        ))
    return items


SUITES: dict[str, Callable[[], list[dict]]] = {
    "daha-derived": suite_daha_derived,
    "sdaha-diamonds": suite_sdaha_diamonds,
    "phi": suite_phi,
    "lmatrix": suite_lmatrix,
    "oq-action": suite_oq_action,
    "dq-relations": suite_dq_relations,
    "cofactor": suite_cofactor,
    "moment": suite_moment,
    "psibar": suite_psibar,
    "inv-diamonds": suite_inv_diamonds,
    "ham": suite_ham,
    "hilbert-all": suite_hilbert_all,
    "hc": suite_hc,
}


def run_verify_suite(name: str) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    items = SUITES[name]()
    return {
        "schema": 1,
        "suite": name,
        "items": items,
        "passed": sum(1 for it in items if it["pass"]),
        "failed": sum(1 for it in items if not it["pass"]),
        "pass": all(it["pass"] for it in items),
    }
