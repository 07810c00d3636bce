"""The invariant subalgebra of D_q(GL2) and its Hamiltonian reduction.

The invariants are presented on c1, c2^+-, d1, d2^+-, r, w with sixteen
straightening relations; the identification sends

    c1 -> tr_q(A)    c2 -> det_q(A)    r -> q^2 tr_q(D A)
    d1 -> tr_q(D)    d2 -> det_q(D)    w -> tr_q(D adj(A) adj(D) A).

The Hamiltonian reduction quotients by the principal ideal generated by
w - (1/t^2 + q^-2 t^2) c2 d2: eliminating w from the r^2 relation turns its
constant block into q^-4 (1+t^2)(q^-2 + 1/t^2) c2 d2, and the quotient is
presented on c1, c2^+-, d1, d2^+-, r alone.

The r c1 relation is sometimes transcribed with a misplaced parenthesis;
the reading r c1 = q^-2 c1 r + (1 - q^-2) q^-2 c2 d1 used here is the one
confirmed by the diamond check and by the identification above.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache

from .coeffring import RAT, RC_ONE, RatCoeff
from .dqops import (
    cofactor,
    det_a_body,
    det_d_body,
    dq_action,
    dq_elem,
    dq_spec,
    moment_zt,
    qmat_a,
    qmat_d,
    qmat_mul,
    qtrace,
    trq_xt,
)
from .linalg import frac_rank, frac_solve, solve_dense
from .ncpoly import Alphabet, NcPoly
from .rewrite import (
    DEFAULT_POINTS,
    AlgebraSpec,
    EngineError,
    LocElem,
    PowerBlocksPbw,
    QCentralGen,
    RewriteRule,
    WordOrder,
    agreed_rank,
)


def _q(k: int) -> RatCoeff:
    return RAT.q_power(k)


_INV_GENS = [
    ("c1", (1, 0), None),
    ("c2", (2, 0), None),
    ("c2i", (-2, 0), "c2"),
    ("r", (1, 1), None),
    ("d1", (0, 1), None),
    ("d2", (0, 2), None),
    ("d2i", (0, -2), "d2"),
    ("w", (2, 2), None),
]


def _inv_rules_common(alph, order):
    """The straightening rules shared by the invariant algebra and its
    Hamiltonian reduction (all except the r^2 relation and the w block)."""

    def W(*names):
        return NcPoly.from_word(alph, alph.word(*names))

    one = RC_ONE
    qm2 = _q(-2)
    rules = [
        RewriteRule(alph.word("c2", "c1"), W("c1", "c2"), "c2*c1", order),
        RewriteRule(alph.word("d2", "d1"), W("d1", "d2"), "d2*d1", order),
        RewriteRule(alph.word("d2", "c2"), W("c2", "d2").scale(_q(-4)), "d2*c2", order),
        RewriteRule(alph.word("d2", "c1"), W("c1", "d2").scale(qm2), "d2*c1", order),
        RewriteRule(alph.word("d1", "c2"), W("c2", "d1").scale(qm2), "d1*c2", order),
        RewriteRule(alph.word("d1", "c1"), W("c1", "d1") + W("r").scale(qm2 - one), "d1*c1", order),
        RewriteRule(alph.word("d2", "r"), W("r", "d2").scale(qm2), "d2*r", order),
        RewriteRule(alph.word("r", "c2"), W("c2", "r").scale(qm2), "r*c2", order),
        RewriteRule(
            alph.word("d1", "r"),
            W("r", "d1").scale(qm2) + W("c1", "d2").scale((one - qm2) * qm2),
            "d1*r", order,
        ),
        RewriteRule(
            alph.word("r", "c1"),
            W("c1", "r").scale(qm2) + W("c2", "d1").scale((one - qm2) * qm2),
            "r*c1", order,
        ),
    ]
    return rules


@cache
def inv_spec() -> AlgebraSpec:
    """The sixteen-relation presentation of the invariant subalgebra."""
    alph = Alphabet("inv", _INV_GENS)
    order = WordOrder(ranks=[0, 1, 1, 2, 3, 4, 4, 5], heavy=[alph.index("r")])

    def W(*names):
        return NcPoly.from_word(alph, alph.word(*names))

    qm2, qm4 = _q(-2), _q(-4)
    rules = _inv_rules_common(alph, order)
    rules.append(RewriteRule(
        alph.word("r", "r"),
        W("w").scale(qm4)
        + W("c2", "d2").scale(qm4 + _q(-6))
        - W("c2", "d1", "d1").scale(qm4)
        - W("c1", "c1", "d2").scale(qm4)
        + W("c1", "r", "d1").scale(qm2),
        "r*r", order,
    ))
    rules += [
        RewriteRule(alph.word("w", "r"), W("r", "w"), "w*r", order),
        RewriteRule(alph.word("w", "c1"), W("c1", "w").scale(qm2), "w*c1", order),
        RewriteRule(alph.word("w", "c2"), W("c2", "w").scale(qm4), "w*c2", order),
        RewriteRule(alph.word("w", "d1"), W("d1", "w").scale(_q(2)), "w*d1", order),
        RewriteRule(alph.word("w", "d2"), W("d2", "w").scale(_q(4)), "w*d2", order),
    ]
    pbw = PowerBlocksPbw(alph, [
        ("c1", None, None),
        ("c2", "c2i", None),
        ("r", None, 1),
        ("d1", None, None),
        ("d2", "d2i", None),
        ("w", None, None),
    ])
    return AlgebraSpec(
        alph, rules, order, pbw,
        q_central=[QCentralGen("c2", (0, 2)), QCentralGen("d2", (-2, 0))],
    )


def quotient_w_image() -> NcPoly:
    """The class of w in the reduction: (1/t^2 + q^-2 t^2) c2 d2."""
    B = inv_spec()
    return B.word_poly("c2", "d2").scale(trq_xt())


@cache
def ham_spec() -> AlgebraSpec:
    """The Hamiltonian reduction: substitute w by its class in the r^2 rule."""
    gens = [g for g in _INV_GENS if g[0] != "w"]
    alph = Alphabet("ham", gens)
    order = WordOrder(ranks=[0, 1, 1, 2, 3, 4, 4], heavy=[alph.index("r")])

    def W(*names):
        return NcPoly.from_word(alph, alph.word(*names))

    B = inv_spec()
    (r2_rule,) = [r for r in B.rules if r.tag == "r*r"]
    w_idx = B.alphabet.index("w")
    subs = trq_xt()
    rhs = NcPoly.zero(alph)
    for word, c in r2_rule.rhs.terms.items():
        names = []
        coeff = c
        for i in word:
            nm = B.alphabet.gens[i].name
            if nm == "w":
                names += ["c2", "d2"]
                coeff = coeff * subs
            else:
                names.append(nm)
        rhs = rhs + W(*names).scale(coeff)
    rules = _inv_rules_common(alph, order)
    rules.append(RewriteRule(alph.word("r", "r"), rhs, "r*r", order))
    pbw = PowerBlocksPbw(alph, [
        ("c1", None, None),
        ("c2", "c2i", None),
        ("r", None, 1),
        ("d1", None, None),
        ("d2", "d2i", None),
    ])
    return AlgebraSpec(
        alph, rules, order, pbw,
        q_central=[QCentralGen("c2", (0, 2)), QCentralGen("d2", (-2, 0))],
    )


# ---------------------------------------------------------------------------
# the identification with the invariants of D_q
# ---------------------------------------------------------------------------

@cache
def psibar_images() -> dict[str, LocElem]:
    D = dq_spec()
    adj_a = cofactor("A")
    adj_d = cofactor("D")
    Am, Dm = qmat_a(), qmat_d()
    adj_a_m = [[dq_elem(x) for x in row] for row in adj_a]
    adj_d_m = [[dq_elem(x) for x in row] for row in adj_d]
    w_mat = qmat_mul(qmat_mul(qmat_mul(Dm, adj_a_m), adj_d_m), Am)
    return {
        "c1": qtrace(Am),
        "c2": dq_elem(det_a_body()),
        "c2i": dq_elem(D.unit(), 1, 0),
        "d1": qtrace(Dm),
        "d2": dq_elem(det_d_body()),
        "d2i": dq_elem(D.unit(), 0, 1),
        "r": qtrace(qmat_mul(Dm, Am)).scale(_q(2)),
        "w": qtrace(w_mat),
    }


def psibar_apply(x: NcPoly) -> LocElem:
    """Image inside D_q (localised) of an element of the invariant algebra,
    or of the reduction, whose letters are a subset of the invariant ones;
    for the reduction the image is a coset representative modulo the left
    ideal of mu(Z_t)."""
    if x.alphabet is not inv_spec().alphabet and x.alphabet is not ham_spec().alphabet:
        raise EngineError("psibar_apply expects an element of the invariant algebra or the reduction")
    img = psibar_images()
    gens = x.alphabet.gens
    out = None
    for word, c in x.terms.items():
        acc = dq_elem(dq_spec().unit())
        for i in word:
            acc = acc * img[gens[i].name]
        acc = acc.scale(c)
        out = acc if out is None else out + acc
    return out if out is not None else dq_elem(dq_spec().zero())


def psibar_relation_residuals() -> list[tuple[str, LocElem]]:
    B = inv_spec()
    out = []
    for rule in B.rules:
        lhs = NcPoly.from_word(B.alphabet, rule.lhs)
        out.append((rule.tag, psibar_apply(lhs) - psibar_apply(rule.rhs)))
    return out


def bplus_words(M: int, N: int) -> list[NcPoly]:
    B = inv_spec()
    return [NcPoly.from_word(B.alphabet, w) for w in B.pbw.enumerate(M, N)]


def psibar_rank(M: int, N: int) -> int:
    """Rank of the psibar images of the positive-cone basis in bidegree (M,N)."""
    bodies = []
    for wp in bplus_words(M, N):
        img = psibar_apply(wp)
        if any(img.exps):
            raise EngineError("positive-cone image unexpectedly localised")
        bodies.append(img.body)
    return agreed_rank(dq_spec(), bodies)


# ---------------------------------------------------------------------------
# invariant dimensions by exact linear algebra at rational points
# ---------------------------------------------------------------------------

def invariant_dimension(M: int, N: int) -> int:
    """dim of the U-invariants of D_q^+[M,N]: the joint kernel of the E and F
    actions inside the K-weight-zero subspace, at DEFAULT_POINTS, which must
    agree (the action carries no t, so only their q values matter)."""
    D = dq_spec()
    act = dq_action()
    words = list(D.pbw.enumerate(M, N))
    zero_words = [w for w in words if act._word_weight(w) == (0, 0)]
    if not zero_words:
        return 0
    img_polys = []
    for w in zero_words:
        p = NcPoly.from_word(D.alphabet, w)
        img_polys.append((act.act("E", p), act.act("F", p)))
    cols_e: dict = {}
    cols_f: dict = {}
    dims = []
    for q0, t0 in DEFAULT_POINTS:
        rows = []
        for j, (pe, pf) in enumerate(img_polys):
            for p, cols, off in ((pe, cols_e, 0), (pf, cols_f, 1)):
                for word, c in p.terms.items():
                    key = cols.setdefault(word, len(cols))
                    while len(rows) <= 2 * key + off:
                        rows.append({})
                    v = c.eval(q0, t0)
                    if v:
                        rows[2 * key + off][j] = v
        dims.append(len(zero_words) - frac_rank(rows))
    if len(set(dims)) != 1:
        raise EngineError(f"invariant dimension disagrees across points: {dims}")
    return dims[0]


# ---------------------------------------------------------------------------
# the reduction map and congruence modulo the moment ideal
# ---------------------------------------------------------------------------

def find_ideal_multiplier(x: LocElem):
    """Find s with x = s * mu(Z_t), homogeneous of the same localised
    bidegree as x; returns the multiplier or None.

    The solve runs over candidate PBW words for the numerator of s, over no
    denominator or over one detq(A) detq(D) pair.  The candidate set is
    pruned by first solving the specialised system at rational points, then
    the surviving columns are solved exactly.
    """
    if not x:
        return dq_elem(dq_spec().zero())
    z = moment_zt()
    deg = x.bidegree()
    if deg in (None, "any"):
        raise EngineError("ideal membership needs a homogeneous element")
    D = dq_spec()
    for k in (0, 1):
        wdeg = (deg[0] + 2 * k, deg[1] + 2 * k)
        if wdeg[0] < 0 or wdeg[1] < 0:
            continue
        words = list(D.pbw.enumerate(*wdeg))
        if not words:
            continue
        cands = [dq_elem(NcPoly.from_word(D.alphabet, w), k, k) for w in words]
        prods = [s * z for s in cands]
        exps = tuple(map(max, x.exps, *(p.exps for p in prods)))
        target = x._at_loc(exps)
        bodies = [p._at_loc(exps) for p in prods]
        cols: dict = {}
        for b in bodies + [target]:
            for word in b.terms:
                cols.setdefault(word, len(cols))
        # prune over rational points
        support = set()
        consistent = True
        for q0, t0 in DEFAULT_POINTS:
            rows = [dict() for _ in range(len(cols))]
            rhs = [Fraction(0)] * len(cols)
            for j, b in enumerate(bodies):
                for word, c in b.terms.items():
                    v = c.eval(q0, t0)
                    if v:
                        rows[cols[word]][j] = v
            for word, c in target.terms.items():
                rhs[cols[word]] = c.eval(q0, t0)
            status, sol = frac_solve(rows, rhs, len(bodies))
            if status == "none":
                consistent = False
                break
            support |= {j for j, v in enumerate(sol) if v}
        if not consistent:
            continue
        support = sorted(support) or [0]
        # exact solve on the surviving columns
        zero = RAT.zero
        rows = []
        rhs = []
        for word, ci in cols.items():
            row = [bodies[j].terms.get(word, zero) for j in support]
            rows.append(row)
            rhs.append(target.terms.get(word, zero))
        status, sol = solve_dense(rows, rhs, zero, RAT.one)
        if status == "none" or sol is None:
            continue
        s = None
        for j, lam in zip(support, sol):
            if lam:
                term = cands[j].scale(lam)
                s = term if s is None else s + term
        if s is None:
            s = dq_elem(D.zero())
        if x == s * z:
            return s
    return None


@lru_cache(maxsize=128)
def psi_congruent_zero(x: NcPoly):
    """Check psi(x) = 0 modulo the left ideal of mu(Z_t).

    Returns ('exact', None), ('ideal', multiplier), or ('unverified', None).
    """
    img = psibar_apply(x)
    if not img:
        return ("exact", None)
    s = find_ideal_multiplier(img)
    if s is not None:
        return ("ideal", s)
    return ("unverified", None)


@cache
def ham_relation_congruences() -> list[tuple[str, str]]:
    """Each reduction relation, checked in D_q modulo the moment ideal."""
    H = ham_spec()
    out = []
    for rule in H.rules:
        resid = NcPoly.from_word(H.alphabet, rule.lhs) - rule.rhs
        status, _ = psi_congruent_zero(resid)
        out.append((rule.tag, status))
    return out


def moment_zt_in_invariant_coordinates() -> bool:
    """mu(Z_t) = psibar(c2^-1 d2^-1 (w - (1/t^2 + q^-2 t^2) c2 d2))."""
    B = inv_spec()
    elem = B.word_poly("c2i", "d2i", "w") - B.word_poly("c2i", "d2i", "c2", "d2").scale(trq_xt())
    return psibar_apply(elem) == moment_zt()
