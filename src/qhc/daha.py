"""The double affine Hecke algebra of GL2 and its spherical subalgebra.

The Hecke generator T and the invertible lattice generators X1, X2, Y1, Y2
satisfy

    T X1 T = X2        Ti Y1 Ti = Y2        X1 X2 = X2 X1
    Y1 Y2 = Y2 Y1      Y1 X1 X2 = q^2 X1 X2 Y1
    X1i Y2 = Y2 X1i Ti^2            (T + 1/t)(T - t) = 0

with normal-form words T^eps Y1^a1 Y2^a2 X1^b1 X2^b2 (eps in {0,1}, signed
exponents).  Only reorderings of positive generator pairs are written down
explicitly anywhere; the full signed rule table is derived here mechanically
by conjugating with the q-central products X1*X2 and Y1*Y2 and eliminating
Ti through Ti = T - (t - 1/t).  Every derived rule is accepted only after an
inverse-clearing residual reduces to zero against the rules already trusted.

The spherical subalgebra e*H*e, with e = (1 + t T)/(1 + t^2), is presented on
generators P1, P2^+-, Q1, Q2^+-, R and accessed through the map phi and the
idempotent sandwich; it is never materialised as a separate quotient.
"""

from __future__ import annotations

from functools import cache

from .coeffring import RAT, RC_ONE, RC_T, RatCoeff
from .ncpoly import Alphabet, NcPoly
from .rewrite import (
    AlgebraSpec,
    EngineError,
    PowerBlocksPbw,
    QCentralGen,
    RewriteRule,
    WordOrder,
    agreed_rank,
)

BETA = RC_T - RC_T.inverse()          # t - 1/t
T2P1 = RC_ONE + RC_T * RC_T           # 1 + t^2


def _q(k: int) -> RatCoeff:
    return RAT.q_power(k)


# ---------------------------------------------------------------------------
# the DAHA presentation
# ---------------------------------------------------------------------------

_DAHA_GENS = [
    ("T", (0, 0), None),
    ("Ti", (0, 0), "T"),
    ("Y1", (1, 0), None),
    ("Y1i", (-1, 0), "Y1"),
    ("Y2", (1, 0), None),
    ("Y2i", (-1, 0), "Y2"),
    ("X1", (0, 1), None),
    ("X1i", (0, -1), "X1"),
    ("X2", (0, 1), None),
    ("X2i", (0, -1), "X2"),
]

_DAHA_RANKS = [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]


class _DahaBuilder:
    """Bootstraps the 42-rule signed table from the defining relations."""

    def __init__(self):
        self.alph = Alphabet("daha", _DAHA_GENS)
        ti = self.alph.index("Ti")
        self.order = WordOrder(ranks=_DAHA_RANKS, tiebreak={ti: 1})
        self.pbw = PowerBlocksPbw(self.alph, [
            ("T", None, 1),
            ("Y1", "Y1i", None),
            ("Y2", "Y2i", None),
            ("X1", "X1i", None),
            ("X2", "X2i", None),
        ])
        self.rules: list[RewriteRule] = []

    # small helpers -----------------------------------------------------------

    def gen(self, name: str) -> NcPoly:
        return NcPoly.gen(self.alph, name)

    def word(self, *names: str) -> NcPoly:
        return NcPoly.from_word(self.alph, self.alph.word(*names))

    def rule(self, lhs_names: tuple[str, ...], rhs: NcPoly, tag: str) -> RewriteRule:
        return RewriteRule(self.alph.word(*lhs_names), rhs, tag, self.order)

    def partial(self, rules) -> AlgebraSpec:
        return AlgebraSpec(
            self.alph, rules, self.order, self.pbw,
            validate_pbw=False, aux_rules=[],
        )

    def assert_zero(self, spec: AlgebraSpec, p: NcPoly, what: str):
        r = spec.nf(p)
        if r:
            raise EngineError(f"daha bootstrap: residual of {what} is nonzero: {r}")

    # the build ----------------------------------------------------------------

    def build(self) -> AlgebraSpec:
        a = self.alph
        one = NcPoly.unit(a)
        T, Ti = self.gen("T"), self.gen("Ti")
        beta_s = NcPoly.unit(a).scale(BETA)

        # Hecke relations: T^2 = (t - 1/t) T + 1 and Ti = T - (t - 1/t)
        r_T2 = self.rule(("T", "T"), T.scale(BETA) + one, "T*T")
        ti_rhs = T - beta_s
        r_Ti = self.rule(("Ti",), ti_rhs, "Ti")
        cancels = []
        for g in ("X1", "X2", "Y1", "Y2"):
            gi = g + "i"
            cancels.append(self.rule((g, gi), one, f"cancel:{g}*{gi}"))
            cancels.append(self.rule((gi, g), one, f"cancel:{gi}*{g}"))
        base = [r_T2, r_Ti] + cancels
        s0 = self.partial(base)

        # conjugation scaffolding: X2 = T X1 T and Y1 = T Y2 T, with the
        # inverse-letter versions obtained by inverting those words
        self.assert_zero(s0, self.word("T", "X1", "T", "Ti", "X1i", "Ti") - one, "X2*X2i seed")
        self.assert_zero(s0, self.word("T", "Ti", "Y1", "Ti", "T") - self.gen("Y1"), "Y1 seed")
        temps = [
            self.rule(("T", "X1", "T"), self.gen("X2"), "seed:TX1T"),
            self.rule(("T", "Y2", "T"), self.gen("Y1"), "seed:TY2T"),
            self.rule(("T", "X2i", "T"), self.gen("X1i"), "seed:TX2iT"),
            self.rule(("T", "Y1i", "T"), self.gen("Y2i"), "seed:TY1iT"),
        ]
        s1 = self.partial(base + temps)

        # rules z*T for all signed z, derived by conjugation
        zt_plan = [
            ("X1", Ti * self.gen("X2"), "left"),
            ("X2", self.word("T", "X1", "T", "T"), "right"),
            ("Y1", self.word("T", "Y2", "T", "T"), "right"),
            ("Y2", Ti * self.gen("Y1"), "left"),
            ("X1i", self.word("T", "X2i", "T", "T"), "right"),
            ("X2i", Ti * self.gen("X1i"), "left"),
            ("Y1i", Ti * self.gen("Y2i"), "left"),
            ("Y2i", self.word("T", "Y1i", "T", "T"), "right"),
        ]
        zt_rules = []
        for z, seed, side in zt_plan:
            rhs = s1.nf(seed, "rightmost" if side == "right" else "leftmost")
            r = self.rule((z, "T"), rhs, f"{z}*T")
            check = self.partial(base + temps + zt_rules)
            lhs_p = self.word(z, "T")
            resid = lhs_p - rhs
            cleared = (T * resid) if side == "left" else (resid * T)
            self.assert_zero(check, cleared, f"{z}*T")
            zt_rules.append(r)
        trusted = base + zt_rules

        # lattice sorting rules, positive pair from the commutation relations,
        # signed pairs validated by clearing the inverse letter
        sorts = []
        for hi, lo in (("X2", "X1"), ("Y2", "Y1")):
            for sh in ("", "i"):
                for sl in ("", "i"):
                    x, y = hi + sh, lo + sl
                    r = self.rule((x, y), self.word(y, x), f"{x}*{y}")
                    if sh or sl:
                        # derived from the positive commutation; validate by
                        # clearing an inverse letter against trusted rules
                        check = self.partial(trusted + sorts)
                        resid = self.word(x, y) - self.word(y, x)
                        if sh == "i":
                            resid = self.gen(hi) * resid
                        else:
                            resid = resid * self.gen(lo)
                        self.assert_zero(check, resid, f"{x}*{y}")
                    sorts.append(r)
        trusted += sorts

        # the four positive X.Y reorderings, with negative powers of T
        # eliminated through Ti = T - (t - 1/t)
        tm1 = ti_rhs
        tm2 = s0.nf(tm1 * tm1)
        y1x1, y2x1 = self.word("Y1", "X1"), self.word("Y2", "X1")
        y1x2 = self.word("Y1", "X2")
        xy_pos = {
            ("X1", "Y1"): self.partial(trusted).nf(tm2 * y1x1).scale(_q(-2)),
            ("X1", "Y2"): self.word("Y2", "X1") + self.partial(trusted).nf(tm1 * y1x1).scale(BETA),
            ("X2", "Y1"): self.word("Y1", "X2") + self.partial(trusted).nf(tm1 * y1x1).scale(BETA * _q(-2)),
            ("X2", "Y2"): self.partial(trusted).nf(self.word("Y2", "X2") * tm2).scale(_q(-2)),
        }
        xy_rules = [self.rule(k, v, f"{k[0]}*{k[1]}") for k, v in xy_pos.items()]
        trusted += xy_rules

        # signed X.Y pairs by conjugation with the q-central products
        # Xi = (X1 X2)^-1 Xother and Yi = Yother (Y1 Y2)^-1
        x_im = {a.index("X1"): a.index("X2i"), a.index("X2"): a.index("X1i")}
        y_im = {a.index("Y1"): a.index("Y2i"), a.index("Y2"): a.index("Y1i")}
        rule_map = {tuple(a.gens[i].name for i in r.lhs): r for r in trusted}
        for r in xy_rules:
            rule_map[tuple(a.gens[i].name for i in r.lhs)] = r

        def conj_terms(rhs: NcPoly, image: dict[int, int], pos: str, mfun):
            out = NcPoly.zero(a)
            for w, c in rhs.terms.items():
                if pos == "last":
                    neww = w[:-1] + (image[w[-1]],)
                else:
                    body = [image.get(x, x) if a.gens[x].name.startswith("Y") else x for x in w]
                    neww = tuple(body)
                out = out + NcPoly.from_word(a, neww, c * mfun(w))
            return out

        def m_factor(w):
            return _q(2 * a.word_bidegree(w)[0])

        def n_factor_of_x(w):
            xl = w[-1]
            return _q(2 * (1 if a.gens[xl].inverse_of is None else -1))

        partner = {"X1": "X2", "X2": "X1", "Y1": "Y2", "Y2": "Y1"}

        # x * Yi from x * Yother, multiplying by (Y1 Y2)^-1 on the right
        for x in ("X1", "X2"):
            for yb in ("Y1", "Y2"):
                src = rule_map[(x, partner[yb])]
                rhs = conj_terms(src.rhs, y_im, "ymap", n_factor_of_x)
                r = self.rule((x, yb + "i"), rhs, f"{x}*{yb}i")
                check = self.partial(trusted)
                self.assert_zero(check, (self.word(x, yb + "i") - rhs) * self.gen(yb), f"{x}*{yb}i")
                trusted.append(r)
                rule_map[(x, yb + "i")] = r

        # Xi * y from Xother * y, multiplying by (X1 X2)^-1 on the left
        for xb in ("X1", "X2"):
            for y in ("Y1", "Y2", "Y1i", "Y2i"):
                src = rule_map[(partner[xb], y)]
                rhs = conj_terms(src.rhs, x_im, "last", m_factor)
                r = self.rule((xb + "i", y), rhs, f"{xb}i*{y}")
                check = self.partial(trusted)
                self.assert_zero(check, self.gen(xb) * (self.word(xb + "i", y) - rhs), f"{xb}i*{y}")
                trusted.append(r)
                rule_map[(xb + "i", y)] = r

        return AlgebraSpec(self.alph, trusted, self.order, self.pbw, field=RAT)


@cache
def daha_spec() -> AlgebraSpec:
    """The DAHA of GL2 as a confluent rewriting system, 42 rules."""
    return _DahaBuilder().build()


def defining_relation_residuals(spec: AlgebraSpec | None = None) -> list[tuple[str, NcPoly]]:
    """Residuals of the defining relations; all must normalise to zero."""
    spec = spec or daha_spec()
    w = spec.word_poly
    g = spec.gen
    beta = NcPoly.unit(spec.alphabet).scale(BETA)
    tinv = g("T") - beta
    items = [
        ("TX1T=X2", spec.nf(w("T", "X1", "T") - g("X2"))),
        ("TiY1Ti=Y2", spec.nf(w("Ti", "Y1", "Ti") - g("Y2"))),
        ("X1X2=X2X1", spec.nf(w("X1", "X2") - w("X2", "X1"))),
        ("Y1Y2=Y2Y1", spec.nf(w("Y1", "Y2") - w("Y2", "Y1"))),
        ("Y1X1X2=q2X1X2Y1", spec.nf(w("Y1", "X1", "X2") - w("X1", "X2", "Y1").scale(_q(2)))),
        ("X1iY2=Y2X1iTi2", spec.nf(w("X1i", "Y2") - spec.mul(w("Y2", "X1i"), w("Ti", "Ti")))),
        ("hecke", spec.nf(spec.mul(g("T") + spec.scalar(RC_T.inverse()),
                                   g("T") - spec.scalar(RC_T)))),
        ("T2", spec.nf(w("T", "T") - g("T").scale(BETA) - spec.unit())),
        ("Tinv", spec.nf(spec.mul(g("T"), tinv) - spec.unit())),
    ]
    return items


def reordering_residuals(spec: AlgebraSpec | None = None) -> list[tuple[str, NcPoly]]:
    """The four X.Y reorderings written with explicit Ti powers."""
    spec = spec or daha_spec()
    w = spec.word_poly
    tm2 = w("Ti", "Ti")
    items = [
        ("X1Y1", spec.nf(w("X1", "Y1") - spec.mul(tm2, w("Y1", "X1")).scale(_q(-2)))),
        ("X1Y2", spec.nf(w("X1", "Y2") - w("Y2", "X1")
                         - spec.mul(w("Ti"), w("Y1", "X1")).scale(BETA))),
        ("X2Y1", spec.nf(w("X2", "Y1") - w("Y1", "X2")
                         - spec.mul(w("Ti"), w("Y1", "X1")).scale(BETA * _q(-2)))),
        ("X2Y2", spec.nf(w("X2", "Y2") - spec.mul(w("Y2", "X2"), tm2).scale(_q(-2)))),
        ("Ti=T-(t-1/t)", spec.nf(w("Ti") - spec.gen("T") + spec.unit().scale(BETA))),
    ]
    return items


# ---------------------------------------------------------------------------
# idempotent and the spherical generators
# ---------------------------------------------------------------------------

@cache
def idempotent() -> NcPoly:
    """e = (1 + t T) / (1 + t^2); requires 1 + t^2 invertible."""
    spec = daha_spec()
    c = T2P1.inverse()
    return spec.unit().scale(c) + spec.gen("T").scale(RC_T * c)


def idempotent_sandwich(h: NcPoly) -> NcPoly:
    """normal_form(e * h * e)."""
    spec = daha_spec()
    e = idempotent()
    return spec.mul(e, h, e)


# ---------------------------------------------------------------------------
# the spherical presentation
# ---------------------------------------------------------------------------

_SDAHA_GENS = [
    ("Q1", (1, 0), None),
    ("Q2", (2, 0), None),
    ("Q2i", (-2, 0), "Q2"),
    ("R", (1, 1), None),
    ("P1", (0, 1), None),
    ("P2", (0, 2), None),
    ("P2i", (0, -2), "P2"),
]


@cache
def sdaha_spec() -> AlgebraSpec:
    """Presentation of the spherical DAHA on Q1, Q2^+-, R, P1, P2^+-."""
    alph = Alphabet("sdaha", _SDAHA_GENS)
    order = WordOrder(ranks=[0, 1, 1, 2, 3, 4, 4], heavy=[alph.index("R")])

    def W(*names):
        return NcPoly.from_word(alph, alph.word(*names))

    one = RC_ONE
    qm2 = _q(-2)
    r2_coeff = T2P1 * (_q(-2) + (RC_T * RC_T).inverse())
    rules_src = [
        (("P2", "P1"), W("P1", "P2"), "P2*P1"),
        (("Q2", "Q1"), W("Q1", "Q2"), "Q2*Q1"),
        (("P2", "Q2"), W("Q2", "P2").scale(_q(-4)), "P2*Q2"),
        (("P2", "Q1"), W("Q1", "P2").scale(qm2), "P2*Q1"),
        (("P1", "Q2"), W("Q2", "P1").scale(qm2), "P1*Q2"),
        (("P1", "Q1"), W("Q1", "P1") + W("R").scale(qm2 - one), "P1*Q1"),
        (("P2", "R"), W("R", "P2").scale(qm2), "P2*R"),
        (("R", "Q2"), W("Q2", "R").scale(qm2), "R*Q2"),
        (("P1", "R"), W("R", "P1").scale(qm2) + W("Q1", "P2").scale(one - qm2), "P1*R"),
        (("R", "Q1"), W("Q1", "R").scale(qm2) + W("Q2", "P1").scale(one - qm2), "R*Q1"),
        (("R", "R"),
         W("Q2", "P2").scale(r2_coeff)
         + W("Q2", "P1", "P1").scale(-qm2)
         + W("Q1", "Q1", "P2").scale(-qm2)
         + W("Q1", "R", "P1").scale(qm2),
         "R*R"),
    ]
    rules = [RewriteRule(alph.word(*lhs), rhs, tag, order) for lhs, rhs, tag in rules_src]
    pbw = PowerBlocksPbw(alph, [
        ("Q1", None, None),
        ("Q2", "Q2i", None),
        ("R", None, 1),
        ("P1", None, None),
        ("P2", "P2i", None),
    ])
    return AlgebraSpec(
        alph, rules, order, pbw,
        q_central=[QCentralGen("P2", (-2, 0)), QCentralGen("Q2", (0, 2))],
    )


_PHI_WORDS = {
    "P1": (("X1",), ("X2",)),
    "Q1": (("Y1",), ("Y2",)),
    "P2": (("X1", "X2"),),
    "Q2": (("Y1", "Y2"),),
    "P2i": (("X1i", "X2i"),),
    "Q2i": (("Y1i", "Y2i"),),
}


@cache
def _phi_images() -> dict[str, NcPoly]:
    spec = daha_spec()
    e = idempotent()
    out = {}
    for name, words in _PHI_WORDS.items():
        body = spec.zero()
        for wnames in words:
            body = body + spec.word_poly(*wnames)
        out[name] = spec.mul(e, body, e)
    r_body = spec.word_poly("Y1", "X1").scale((RC_T * RC_T).inverse()) + spec.word_poly("Y2", "X2")
    out["R"] = spec.mul(e, r_body, e)
    return out


def phi_apply(x: NcPoly) -> NcPoly:
    """The presentation map into e*H*e, extended multiplicatively; phi(1) = e."""
    sd = sdaha_spec()
    if x.alphabet is not sd.alphabet:
        raise EngineError("phi_apply expects a spherical element")
    spec = daha_spec()
    images = _phi_images()
    out = spec.zero()
    for w, c in x.terms.items():
        acc = idempotent()
        for i in w:
            acc = spec.mul(acc, images[sd.alphabet.gens[i].name])
        out = out + acc.scale(c)
    return spec.nf(out)


def phi_relation_residuals() -> list[tuple[str, NcPoly]]:
    """phi(lhs) - phi(rhs) for the eleven spherical relations."""
    sd = sdaha_spec()
    out = []
    for rule in sd.rules:
        lhs = NcPoly.from_word(sd.alphabet, rule.lhs)
        out.append((rule.tag, daha_spec().nf(phi_apply(lhs) - phi_apply(rule.rhs))))
    return out


# ---------------------------------------------------------------------------
# graded dimensions on the Hecke side
# ---------------------------------------------------------------------------

def hplus_words(M: int, N: int) -> list[NcPoly]:
    """PBW basis of the nonnegative cone of the DAHA in bidegree (M, N)."""
    spec = daha_spec()
    out = []
    for eps in (0, 1):
        for a in range(M + 1):
            for b in range(N + 1):
                names = (["T"] * eps + ["Y1"] * a + ["Y2"] * (M - a)
                         + ["X1"] * b + ["X2"] * (N - b))
                out.append(spec.word_poly(*names))
    return out


def spherical_dimension(M: int, N: int) -> int:
    """dim e H^+[M,N] e computed as the rank of the sandwiched PBW basis."""
    return agreed_rank(daha_spec(), [idempotent_sandwich(w) for w in hplus_words(M, N)])


def aplus_words(M: int, N: int) -> list[NcPoly]:
    sd = sdaha_spec()
    return [NcPoly.from_word(sd.alphabet, w) for w in sd.pbw.enumerate(M, N)]


def phi_rank(M: int, N: int) -> int:
    """Rank of the phi images of the positive-cone spherical basis."""
    return agreed_rank(daha_spec(), [phi_apply(wp) for wp in aplus_words(M, N)])
