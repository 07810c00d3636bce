"""Named verification suites behind `qhc verify --suite <name>`.

Each suite returns a list of items {"name": ..., "pass": bool, "detail":
optional string}.  Items are computed against the symbolic presentations;
everything is exact, so "pass" means an identity holds on the nose.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import daha, dqops, hciso, invham, qgroup
from .coeffring import RAT, RC_ONE, RC_T
from .linalg import dense_rank
from .ncpoly import NcPoly
from .rewrite import check_ambiguities, hilbert_table, straighten_trace


def _item(name: str, ok: bool, detail: Optional[str] = None) -> dict:
    out = {"name": name, "pass": bool(ok)}
    if detail:
        out["detail"] = detail
    return out


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
    items = []
    for tag, resid in daha.defining_relation_residuals(spec):
        items.append(_item(f"defining:{tag}", not resid, None if not resid else str(resid)))
    for tag, resid in daha.reordering_residuals(spec):
        items.append(_item(f"reordering:{tag}", not resid, None if not resid else str(resid)))
    items.append(_item("nf(Ti*Y1*Ti) = Y2", spec.nf(spec.word_poly("Ti", "Y1", "Ti")) == spec.gen("Y2")))
    items.append(_item("nf(X1*X1i) = 1", spec.nf(spec.word_poly("X1", "X1i")) == spec.unit()))
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
        items.append(_item(
            f"diamond {spec.alphabet.word_str(r.monomial)}",
            r.resolved,
        ))
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
        items.append(_item(f"trace P1*R*Q1 ({d})", straighten_trace(A, w, d) == expected))
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
        items.append(_item(f"trace r^2*c1 ({d})", straighten_trace(B, w, d) == expected))
    return items


def suite_phi() -> list[dict]:
    items = []
    for tag, resid in daha.phi_relation_residuals():
        items.append(_item(f"phi kills {tag}", not resid, None if not resid else str(resid)))
    spec = daha.daha_spec()
    e = daha.idempotent()
    items.append(_item("e*e = e", not spec.nf(spec.mul(e, e) - e)))
    items.append(_item("e T = t e", daha.idempotent_sandwich(spec.gen("T")) == e.scale(RC_T)))
    return items


def suite_lmatrix() -> list[dict]:
    items = [_item(f"lmatrix {tag}", ok) for tag, ok in qgroup.lmatrix_check()]
    items.append(_item("Yang-Baxter", qgroup.yang_baxter_residual()))
    items.append(_item("phi = L+ S(L-)", qgroup.phi_matches_lmatrix_product()))
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
    for rule in O.rules:
        resid = NcPoly.from_word(O.alphabet, rule.lhs) - rule.rhs
        items.append(_item(f"phi kills {rule.tag}", not qgroup.embed_phi(resid)))
    U = qgroup.uq_spec()
    items.append(_item(
        "phi(det_q) = K1^-2 K2^-2",
        qgroup.embed_phi(qgroup.qdet_oq()) == U.word_poly("K1i", "K1i", "K2i", "K2i"),
    ))
    for name in ("l11", "l12", "l21", "l22"):
        for g in ("E", "F", "K1", "K2"):
            lhs = qgroup.embed_phi(act.act(g, O.gen(name)))
            rhs = qgroup.adjoint_in_uq(g, qgroup.embed_phi(O.gen(name)))
            items.append(_item(f"phi({g} > {name}) matches", not U.nf(lhs - rhs)))
    return items


def suite_dq_relations() -> list[dict]:
    D = dqops.dq_spec()
    items = _diamond_items(D, 56)
    ents = dqops.matrix_relation_entries()
    for block, vs in sorted(ents.items()):
        ok = all(not D.nf(v) for v in vs)
        items.append(_item(f"matrix equation entries reduce: {block}", ok))
    # span agreement between entries and printed rules
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
    zero = RAT.from_int(0)
    for block in sorted(cases):
        words, rules = cases[block]
        col = {w: i for i, w in enumerate(words)}

        def row(p):
            r = [zero] * len(words)
            for w, c in p.terms.items():
                r[col[w]] = c
            return r

        base = [row(e) for e in ents[block] if e]
        rk = dense_rank(base, RC_ONE)
        ok = rk == len(rules)
        for rule in rules:
            resid = NcPoly.from_word(D.alphabet, rule.lhs) - rule.rhs
            if dense_rank(base + [row(resid)], RC_ONE) != rk:
                ok = False
        items.append(_item(f"entries span exactly the {block} rules", ok,
                           f"rank {rk}, rules {len(rules)}"))
    for tag, resid in dqops.det_qcommutation_residuals():
        items.append(_item(f"det commutation {tag}", not resid))
    return items


def suite_cofactor() -> list[dict]:
    items = []
    for which in ("A", "D"):
        for tag, resid in dqops.cofactor_identity_residuals(which):
            items.append(_item(tag, not resid))
        mism = dqops.cofactor_display_mismatches(which)
        ok = [pos for pos, _, _ in mism] == [(2, 2)]
        detail = "; ".join(
            f"entry {pos}: solved {s}, displayed {c} (erratum)" for pos, s, c in mism
        )
        items.append(_item(f"{which}: display matches except the known erratum", ok, detail))
    return items


def suite_moment() -> list[dict]:
    items = []
    for tag, resid in dqops.moment_relation_residuals():
        items.append(_item(f"mu(L) satisfies {tag}", not resid))
    items.append(_item("det_q(mu(L)) = q^8",
                       dqops.moment_det() == dqops.dq_elem(dqops.dq_spec().scalar(RAT.q_power(8)))))
    items.append(_item("mu(Z_t) invariant", dqops.dq_elem_invariant(dqops.moment_zt())))
    items.append(_item("mu(Z_t) = psibar(c2^-1 d2^-1 (w - trq(Xt) c2 d2))",
                       invham.moment_zt_in_invariant_coordinates()))
    return items


def suite_psibar() -> list[dict]:
    items = []
    for tag, resid in invham.psibar_relation_residuals():
        items.append(_item(f"psibar kills {tag}", not resid))
    series = invariant_series(4, 4)
    for m in range(5):
        for n in range(5):
            want = series.get((m, n), 0)
            got = invham.psibar_rank(m, n)
            items.append(_item(f"psibar rank ({m},{n}) = {want}", got == want, f"got {got}"))
    B = invham.inv_spec()
    tab = hilbert_table(B, (4, 4))
    for m in range(5):
        for n in range(5):
            inv_dim = invham.invariant_dimension(m, n)
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
    items.append(_item("r^2 normal form", H.nf(H.word_poly("r", "r")) == expected))
    B = invham.inv_spec()
    items.append(_item(
        "w class is trq(Xt) c2 d2",
        invham.quotient_w_image() == B.word_poly("c2", "d2").scale(dqops.trq_xt()),
    ))
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
    for m in range(7):
        for n in range(7):
            want = series.get((m, n), 0)
            got = daha.spherical_dimension(m, n)
            items.append(_item(f"sandwich rank ({m},{n}) = {want}", got == want, f"got {got}"))
    for m, n in ((1, 1), (2, 2), (3, 3), (4, 4)):
        want = series.get((m, n), 0)
        got = daha.phi_rank(m, n)
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
    rep = hciso.hc_verify((4, 4))
    items = [
        _item(f"transport {r['relation']}", r["residual_zero"]) for r in rep["relations"]
    ]
    for b in rep["bijection"]:
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
