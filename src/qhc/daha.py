"""The double affine Hecke algebra of GL2 and its spherical subalgebra.

The Hecke generator T and the invertible lattice generators X1, X2, Y1, Y2
satisfy

    T X1 T = X2        Ti Y1 Ti = Y2        X1 X2 = X2 X1
    Y1 Y2 = Y2 Y1      Y1 X1 X2 = q^2 X1 X2 Y1
    X1i Y2 = Y2 X1i Ti^2            (T + 1/t)(T - t) = 0

with normal-form words T^eps Y1^a1 Y2^a2 X1^b1 X2^b2 (eps in {0,1}, signed
exponents).  Only reorderings of positive generator pairs are written down
explicitly anywhere; the full signed rule table is derived here mechanically.
Each signed X.Y rule is a normal form of a product with (X1 X2)^-1 or
(Y1 Y2)^-1, the q-central units, in the partial spec of the rules trusted so
far, and Ti is eliminated through Ti = T - (t - 1/t).  Every derived rule is
accepted only after an inverse-clearing residual reduces to zero against the
rules already trusted.

The spherical subalgebra e*H*e, with e = (1 + t T)/(1 + t^2), is presented on
generators P1, P2^+-, Q1, Q2^+-, R and accessed through the map phi and the
idempotent sandwich; it is never materialised as a separate quotient.

The scalar 1/(1 + t^2) is the only non-Laurent coefficient in the picture, so it
is kept out of the rewriting: products run on the body 1 + t T, whose rules and
coefficients are all Laurent, and the scalar is applied once at the end where
an exact value is asked for (idempotent, idempotent_sandwich, phi_apply).  The
rank checks (spherical_dimensions, phi_ranks) skip it altogether: each exact
row is its row of bodies times a power of 1/(1 + t^2), a nonzero scalar, and
scaling rows by nonzero scalars changes no rank, over Frac(Z[q,t]) or at a
point.  At each point 1 + t0^2 is also nonzero mod that point's prime in
rewrite.POINTS, since each is 3 (mod 4), which leaves -1 without a square
root.

The body absorbs T up to a scalar on either side: T^2 = (t - 1/t) T + 1
gives (1 + t T) T = t (1 + t T) and T (1 + t T) = t (1 + t T).  So
spherical_dimensions ranks only the T-free PBW words: the row of T w is t
times the row of w, and t0 is a unit mod each point's prime, so every
per-point rank is unchanged.  And the left factor of each row costs no
product: T is the first PBW block, with cap 1, so a normal form is
X = A + T B with A and B T-free, T u is normal for every T-free normal
word u, and nf((1 + t T) X) = C + t T C with C = A + t B.
"""

from __future__ import annotations

from functools import cache

from .coeffring import RAT, RC_ONE, RC_T
from .ncpoly import Alphabet, NcPoly
from .rewrite import (
    AlgebraSpec,
    EngineError,
    PowerBlocksPbw,
    QCentralGen,
    RewriteRule,
    carry,
    tail_map,
)

BETA = RC_T - RC_T.inverse()          # t - 1/t
T2P1 = RC_ONE + RC_T * RC_T           # 1 + t^2


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

class _DahaBuilder:
    """Bootstraps the 42-rule signed table from the defining relations."""

    def __init__(self):
        self.alph = Alphabet("daha", _DAHA_GENS)
        self.pbw = PowerBlocksPbw(self.alph, [
            ("T", None, 1),
            ("Y1", "Y1i", None),
            ("Y2", "Y2i", None),
            ("X1", "X1i", None),
            ("X2", "X2i", None),
        ])

    # small helpers -----------------------------------------------------------

    def rule(self, lhs_names: tuple[str, ...], rhs: NcPoly, tag: str) -> RewriteRule:
        return RewriteRule(self.alph.word(*lhs_names), rhs, tag)

    def partial(self, rules) -> AlgebraSpec:
        return AlgebraSpec(self.alph, rules, self.pbw, partial=True)

    def assert_zero(self, spec: AlgebraSpec, p: NcPoly, what: str):
        r = spec.nf(p)
        if r:
            raise EngineError(f"daha bootstrap: residual of {what} is nonzero: {r}")

    # the build ----------------------------------------------------------------

    def build(self) -> AlgebraSpec:
        a = self.alph
        one = NcPoly.unit(a)
        T, Ti = a.poly("T"), a.poly("Ti")
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
        self.assert_zero(s0, a.poly("T", "X1", "T", "Ti", "X1i", "Ti") - one, "X2*X2i seed")
        self.assert_zero(s0, a.poly("T", "Ti", "Y1", "Ti", "T") - a.poly("Y1"), "Y1 seed")

        # rules z*T for all signed z, derived by conjugation: each seed
        # zc = T z T gives z*T = Ti zc, and then zc*T = T z T T, reduced
        # with T^2 first
        seeds = (("X1", "X2"), ("Y2", "Y1"), ("X2i", "X1i"), ("Y1i", "Y2i"))
        zt = {}
        for z, zc in seeds:
            rhs = s0.nf(Ti * a.poly(zc))
            self.assert_zero(s0, T * rhs - a.poly(zc), f"{z}*T")
            zt[z] = self.rule((z, "T"), rhs, f"{z}*T")
        s1 = self.partial(base + list(zt.values()))
        for z, zc in seeds:
            rhs = s1.nf(a.poly("T", z, "T", "T"), "rightmost")
            self.assert_zero(s1, (a.poly(zc, "T") - rhs) * T, f"{zc}*T")
            zt[zc] = self.rule((zc, "T"), rhs, f"{zc}*T")
        trusted = base + [zt[z] for z in ("X1", "X2", "Y1", "Y2", "X1i", "X2i", "Y1i", "Y2i")]

        # lattice sorting rules: the positive pair from the commutation
        # relations, each signed pair certified by clearing an inverse letter
        # against the rules trusted so far
        for hi, lo in (("X2", "X1"), ("Y2", "Y1")):
            for x, y in ((hi, lo), (hi, lo + "i"), (hi + "i", lo), (hi + "i", lo + "i")):
                r = self.rule((x, y), a.poly(y, x), f"{x}*{y}")
                if x != hi:
                    self.assert_zero(self.partial(trusted), a.poly(hi) * r.residual, r.tag)
                elif y != lo:
                    self.assert_zero(self.partial(trusted), r.residual * a.poly(lo), r.tag)
                trusted.append(r)

        # the four positive X.Y reorderings, with negative powers of T
        # eliminated through Ti = T - (t - 1/t)
        tm1 = ti_rhs
        tm2 = s0.nf(tm1 * tm1)
        y1x1 = a.poly("Y1", "X1")
        s2 = self.partial(trusted)
        xy_pos = {
            ("X1", "Y1"): s2.nf(tm2 * y1x1).scale(RAT.q_power(-2)),
            ("X1", "Y2"): a.poly("Y2", "X1") + s2.nf(tm1 * y1x1).scale(BETA),
            ("X2", "Y1"): a.poly("Y1", "X2") + s2.nf(tm1 * y1x1).scale(BETA * RAT.q_power(-2)),
            ("X2", "Y2"): s2.nf(a.poly("Y2", "X2") * tm2).scale(RAT.q_power(-2)),
        }
        trusted += [self.rule(k, v, f"{k[0]}*{k[1]}") for k, v in xy_pos.items()]

        # signed X.Y pairs as products with the q-central units: an h of
        # bidegree (M, N) has h (Y1 Y2)^-1 = q^2N (Y1 Y2)^-1 h and
        # (X1 X2)^-1 h = q^2M h (X1 X2)^-1, so x Yb^-1 = x Yother (Y1 Y2)^-1
        # (N = 1) and Xb^-1 y = (X1 X2)^-1 Xother y (M = +-1, y's Y-degree)
        # are normal forms in the partial spec of the rules trusted so far,
        # each certified by clearing its inverse letter
        partner = {"X1": "X2", "X2": "X1", "Y1": "Y2", "Y2": "Y1"}
        check = self.partial(trusted)
        for x in ("X1", "X2"):
            for yb in ("Y1", "Y2"):
                rhs = check.nf(a.poly("Y1i", "Y2i", x, partner[yb])).scale(RAT.q_power(2))
                r = self.rule((x, yb + "i"), rhs, f"{x}*{yb}i")
                self.assert_zero(check, r.residual * a.poly(yb), r.tag)
                trusted.append(r)
        check = self.partial(trusted)
        for xb in ("X1", "X2"):
            for y in ("Y1", "Y2", "Y1i", "Y2i"):
                M = a.gens[a.index(y)].bidegree[0]
                rhs = check.nf(a.poly(partner[xb], y, "X1i", "X2i")).scale(RAT.q_power(2 * M))
                r = self.rule((xb + "i", y), rhs, f"{xb}i*{y}")
                self.assert_zero(check, a.poly(xb) * r.residual, r.tag)
                trusted.append(r)

        return AlgebraSpec(self.alph, trusted, self.pbw, field=RAT)


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
        ("Y1X1X2=q2X1X2Y1", spec.nf(w("Y1", "X1", "X2") - w("X1", "X2", "Y1").scale(RAT.q_power(2)))),
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
        ("X1Y1", spec.nf(w("X1", "Y1") - spec.mul(tm2, w("Y1", "X1")).scale(RAT.q_power(-2)))),
        ("X1Y2", spec.nf(w("X1", "Y2") - w("Y2", "X1")
                         - spec.mul(w("Ti"), w("Y1", "X1")).scale(BETA))),
        ("X2Y1", spec.nf(w("X2", "Y1") - w("Y1", "X2")
                         - spec.mul(w("Ti"), w("Y1", "X1")).scale(BETA * RAT.q_power(-2)))),
        ("X2Y2", spec.nf(w("X2", "Y2") - spec.mul(w("Y2", "X2"), tm2).scale(RAT.q_power(-2)))),
        ("Ti=T-(t-1/t)", spec.nf(w("Ti") - spec.gen("T") + spec.unit().scale(BETA))),
    ]
    return items


# ---------------------------------------------------------------------------
# idempotent and the spherical generators
# ---------------------------------------------------------------------------

E_SCALE = T2P1.inverse()              # e = E_SCALE * idempotent_body()


@cache
def idempotent_body() -> NcPoly:
    """1 + t T, the idempotent without its scalar: its square is (1 + t^2)
    times itself."""
    spec = daha_spec()
    return spec.unit() + spec.gen("T").scale(RC_T)


@cache
def idempotent() -> NcPoly:
    """e = (1 + t T) / (1 + t^2); requires 1 + t^2 invertible."""
    return idempotent_body().scale(E_SCALE)


def idempotent_sandwich(h: NcPoly) -> NcPoly:
    """normal_form(e * h * e), exact: the product of bodies, rewritten with
    Laurent coefficients, scaled once by 1/(1 + t^2)^2."""
    body = idempotent_body()
    return daha_spec().mul(body, h, body).scale(E_SCALE * E_SCALE)


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
    pbw = PowerBlocksPbw(alph, [
        ("Q1", None, None),
        ("Q2", "Q2i", None),
        ("R", None, 1),
        ("P1", None, None),
        ("P2", "P2i", None),
    ])

    one = RC_ONE
    qm2 = RAT.q_power(-2)
    r2_coeff = T2P1 * (RAT.q_power(-2) + (RC_T * RC_T).inverse())
    rules_src = [
        (("P2", "P1"), alph.poly("P1", "P2"), "P2*P1"),
        (("Q2", "Q1"), alph.poly("Q1", "Q2"), "Q2*Q1"),
        (("P2", "Q2"), alph.poly("Q2", "P2").scale(RAT.q_power(-4)), "P2*Q2"),
        (("P2", "Q1"), alph.poly("Q1", "P2").scale(qm2), "P2*Q1"),
        (("P1", "Q2"), alph.poly("Q2", "P1").scale(qm2), "P1*Q2"),
        (("P1", "Q1"), alph.poly("Q1", "P1") + alph.poly("R").scale(qm2 - one), "P1*Q1"),
        (("P2", "R"), alph.poly("R", "P2").scale(qm2), "P2*R"),
        (("R", "Q2"), alph.poly("Q2", "R").scale(qm2), "R*Q2"),
        (("P1", "R"), alph.poly("R", "P1").scale(qm2) + alph.poly("Q1", "P2").scale(one - qm2), "P1*R"),
        (("R", "Q1"), alph.poly("Q1", "R").scale(qm2) + alph.poly("Q2", "P1").scale(one - qm2), "R*Q1"),
        (("R", "R"),
         alph.poly("Q2", "P2").scale(r2_coeff)
         + alph.poly("Q2", "P1", "P1").scale(-qm2)
         + alph.poly("Q1", "Q1", "P2").scale(-qm2)
         + alph.poly("Q1", "R", "P1").scale(qm2),
         "R*R"),
    ]
    rules = [RewriteRule(alph.word(*lhs), rhs, tag) for lhs, rhs, tag in rules_src]
    return AlgebraSpec(
        alph, rules, pbw,
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
    """nf(body * b) for each generator body b; phi of a generator is
    e * b * e = E_SCALE^2 * body * b * body."""
    spec = daha_spec()
    body_e = idempotent_body()
    out = {}
    for name, words in _PHI_WORDS.items():
        body = spec.zero()
        for wnames in words:
            body = body + spec.word_poly(*wnames)
        out[name] = spec.mul(body_e, body)
    r_body = spec.word_poly("Y1", "X1").scale((RC_T * RC_T).inverse()) + spec.word_poly("Y2", "X2")
    out["R"] = spec.mul(body_e, r_body)
    return out


def _phi_bodies(acts, body):
    """The map w -> (body b1) ... (body bk) body on spherical words
    w = x1...xk, which is phi(w) / E_SCALE^(k+1) since e * e = e: a
    rewrite.tail_map from body, each letter's image, carried into body's
    field, acting on its tail's through acts(tail), the map
    a -> nf(a * tail), so words that end alike share their tails' bodies.
    phi_apply passes daha_spec()._acts and the body 1 + t T, phi_ranks the
    same in daha's residue spec."""
    alph = sdaha_spec().alphabet
    images = {alph.index(name): carry(p, body.field) for name, p in _phi_images().items()}
    return tail_map(lambda x, u, tail: acts(tail)(images[x]), body)


def phi_apply(x: NcPoly) -> NcPoly:
    """The presentation map into e*H*e, extended multiplicatively; phi(1) = e.
    Exact: each word's body (one _phi_bodies map over x's words) is scaled
    once by E_SCALE^(k+1)."""
    sd = sdaha_spec()
    if x.alphabet is not sd.alphabet:
        raise EngineError("phi_apply expects a spherical element")
    spec = daha_spec()
    body = _phi_bodies(spec._acts, idempotent_body())
    return spec._sum_scaled((body(w), c * E_SCALE ** (len(w) + 1)) for w, c in x.terms.items())


def phi_relation_residuals() -> list[tuple[str, NcPoly]]:
    """phi(lhs - rhs) for the eleven spherical relations: phi_apply is linear
    and exact, so this one image is phi(lhs) - phi(rhs)."""
    return [(rule.tag, phi_apply(rule.residual)) for rule in sdaha_spec().rules]


# ---------------------------------------------------------------------------
# graded dimensions on the Hecke side
# ---------------------------------------------------------------------------

def hplus_words(M: int, N: int) -> list[NcPoly]:
    """PBW basis of the nonnegative cone of the DAHA in bidegree (M, N)."""
    H = daha_spec()
    return [NcPoly.from_word(H.alphabet, w) for w in H.pbw.enumerate(M, N)]


def _left_idempotent(spec: AlgebraSpec, body: NcPoly):
    """The map X -> C = A + t B on spec's normal forms X = A + T B, A and B
    T-free, for spec daha's or its residue spec and body 1 + t T carried to
    its field: nf(body X) = C + t T C (the module docstring).  It checks, once,
    the facts that identity rests on, raising EngineError on the first that
    fails: T is spec's first PBW block, with cap 1, and its rule T*T is
    (t - 1/t) T + 1 carried to spec's field."""
    alph, field = spec.alphabet, spec.field
    T = alph.index("T")
    first, _, cap = spec.pbw.blocks[0]
    if (first, cap) != (T, 1):
        raise EngineError(f"{spec.algebra_id}: the sandwich identity needs T as the first PBW block, with cap 1")
    hecke = carry(NcPoly.gen(alph, "T").scale(BETA) + NcPoly.unit(alph), field)
    if [r.rhs for r in spec.rules if r.lhs == (T, T)] != [hecke]:
        raise EngineError(f"{spec.algebra_id}: the sandwich identity needs the rule T*T -> (t - 1/t) T + 1")
    t = body.terms[(T,)]

    def t_free(x: NcPoly) -> NcPoly:
        out: dict = {}
        for w, c in x.terms.items():
            if w[:1] == (T,):
                w, c = w[1:], c * t
            s = out.get(w)
            out[w] = c if s is None else s + c
        return NcPoly(alph, out, field)

    return t_free


def spherical_dimensions(bidegrees) -> dict[tuple[int, int], int]:
    """{(M, N): dim e H^+[M,N] e} for the requested bidegrees, in the order
    they first appear: the rank of the sandwiched PBW basis at
    rewrite.POINTS, which must agree (Residues.rank), a lower bound on the
    generic dimension.  The rows are the bodies (1 + t T) w (1 + t T), each
    the exact sandwich times (1 + t^2)^2, a nonzero scalar at every point
    mod its prime (see the module docstring), so the rank is the same.

    The two identities of the module docstring shrink the rows without
    changing a per-point rank, t0 being a unit mod each prime.  By
    (1 + t T) T = t (1 + t T) the row of T w is t times the row of w, so
    only the T-free words w are ranked.  By T (1 + t T) = t (1 + t T) the
    row of w is C + t T C, C = A + t B for A + T B = nf(w (1 + t T)), so
    only C is ranked and the left factor is never multiplied out
    (_left_idempotent, which checks T's PBW block and the rule T*T once per
    call).  The phi suite's "e T = t e" and the daha suite's "hecke" and
    "T2" residuals certify the relation both rest on.

    The products w (1 + t T) are made in daha's residue spec
    (AlgebraSpec.at_points; see rewrite.POINTS) one letter at a time
    (AlgebraSpec._letter_times), along one tail_map over the words of every
    bidegree, so words that end alike share their tails' products across
    the bidegrees.  Each bidegree's rows are ranked and dropped before the
    next are made."""
    spec = daha_spec().at_points()
    body = carry(idempotent_body(), spec.field)
    T = spec.alphabet.index("T")
    right = tail_map(lambda x, u, img: spec._letter_times(x, img), body)
    t_free = _left_idempotent(spec, body)
    out = {}
    for M, N in dict.fromkeys(bidegrees):
        rows = [t_free(right(w)).terms for w in spec.pbw.enumerate(M, N) if w[:1] != (T,)]
        out[M, N] = spec.field.rank(rows, f"{spec.algebra_id}: sandwich rank at ({M}, {N})")
    return out


def spherical_dimension(M: int, N: int) -> int:
    """dim e H^+[M,N] e, as spherical_dimensions computes it."""
    return spherical_dimensions([(M, N)])[M, N]


def phi_ranks(bidegrees) -> dict[tuple[int, int], int]:
    """{(M, N): rank of the phi images of the positive-cone spherical basis}
    for the requested bidegrees, in the order they first appear, each taken
    at rewrite.POINTS, which must agree (Residues.rank): a lower bound on
    the generic rank.  The rows are the word bodies, each phi(w) times
    (1 + t^2)^(k+1) for a word of length k, a nonzero scalar at every point
    mod its prime, so the rank is the same.  One _phi_bodies map in daha's
    residue spec (AlgebraSpec.at_points) makes them all."""
    spec, sd = daha_spec().at_points(), sdaha_spec()
    body = _phi_bodies(spec._acts, carry(idempotent_body(), spec.field))
    return {(M, N): spec.field.rank([body(w).terms for w in sd.pbw.enumerate(M, N)],
                                    f"{spec.algebra_id}: phi rank at ({M}, {N})")
            for M, N in dict.fromkeys(bidegrees)}


def phi_rank(M: int, N: int) -> int:
    """The rank of phi on A^+[M,N], as phi_ranks computes it."""
    return phi_ranks([(M, N)])[M, N]
