"""The quantum enveloping algebra of gl2, its vector R-matrix, the L-matrix
presentation, the reflection-equation coordinate algebra O_q(GL2), the
embedding into U_q, and the adjoint action.

U_q(gl2) is generated by E, F, K1^+-, K2^+- with

    K1 E = q E K1      K2 E = 1/q E K2      K1 K2 = K2 K1
    K1 F = 1/q F K1    K2 F = q F K2
    E F - F E = (K1 K2i - K1i K2) / (q - 1/q)

and PBW basis F^a E^b K1^c K2^d.  The K commutations are exactly the
q-centrality of K1, K2 for the weight grading deg E = (1,-1), deg F = (-1,1),
so only the EF relation is a core straightening rule.

O_q(GL2) is generated by the entries of a 2x2 matrix L subject to the
reflection equation R21 L1 R L2 = L2 R21 L1 R; its q-trace and q-determinant
generate the center and the subalgebra of invariants for the adjoint action.
Its localisation at det_q(L) is rewrite.LocElem over oq_denominators().
Where a matrix sits on the tensor legs of these equations is stated once, by
on_legs, and R21^-1 is the closed form rmatrix_21_inverse.

This module states that quantum 2x2 matrix once, for any four letters named
n11, n12, n21, n22 (row-major): its six reflection-equation rules
(_re_rules), letter_matrix, qtrace, qdet and the closed-form adjugate
qadjugate.  O_q, both matrix copies in D_q (dqops) and the moment-map
relations (dqops.MOMENT_TABLE) all read them.
"""

from __future__ import annotations

from functools import cache, reduce

from .coeffring import RAT, RC_ONE, RC_Q, RatCoeff
from .ncpoly import Alphabet, NcPoly
from .rewrite import (
    AlgebraSpec,
    Denominator,
    EngineError,
    PowerBlocksPbw,
    QCentralGen,
    RewriteRule,
    _add_scaled,
    carry,
    tail_map,
)


QMQI = RC_Q - RC_Q.inverse()          # q - 1/q


# ---------------------------------------------------------------------------
# U_q(gl2)
# ---------------------------------------------------------------------------

_UQ_GENS = [
    ("F", (-1, 1), None),
    ("E", (1, -1), None),
    ("K1", (0, 0), None),
    ("K1i", (0, 0), "K1"),
    ("K2", (0, 0), None),
    ("K2i", (0, 0), "K2"),
]


@cache
def uq_spec() -> AlgebraSpec:
    alph = Alphabet("uq", _UQ_GENS)
    pbw = PowerBlocksPbw(alph, [
        ("F", None, None),
        ("E", None, None),
        ("K1", "K1i", None),
        ("K2", "K2i", None),
    ])
    inv = QMQI.inverse()
    ef_rhs = alph.poly("F", "E") + alph.poly("K1", "K2i").scale(inv) - alph.poly("K1i", "K2").scale(inv)
    rules = [RewriteRule(alph.word("E", "F"), ef_rhs, "E*F")]
    return AlgebraSpec(
        alph, rules, pbw,
        q_central=[QCentralGen("K1", (1, 0)), QCentralGen("K2", (0, 1))],
    )


# ---------------------------------------------------------------------------
# the vector representation and its R-matrix
# ---------------------------------------------------------------------------

# matrices over scalars are plain 2x2 / 4x4 nested lists of RatCoeff
RHO_E = ((0, 0), (1, 0))
RHO_F = ((0, 1), (0, 0))
#: exponent of q in K_m acting on basis vector e_j (columns of rho(K_m))
WEIGHTS = ((-1, 0), (0, -1))


@cache
def rmatrix_vector() -> tuple[tuple[RatCoeff, ...], ...]:
    """(rho x rho) of the universal R-matrix on V x V.

    rho(E)^2 = 0 kills all terms of the power series beyond n = 1, so the
    matrix is q^{H(x)H} * (1 + (q - 1/q) rho(E) x rho(F)) exactly.
    """
    rows = []
    for i in range(2):
        for k in range(2):
            hh = WEIGHTS[i][0] * WEIGHTS[k][0] + WEIGHTS[i][1] * WEIGHTS[k][1]
            scal = RAT.q_power(hh)
            row = []
            for j in range(2):
                for l in range(2):
                    c = RC_ONE if (i == j and k == l) else RatCoeff.from_int(0)
                    if RHO_E[i][j] and RHO_F[k][l]:
                        c = c + QMQI * RatCoeff.from_int(RHO_E[i][j] * RHO_F[k][l])
                    row.append(scal * c)
            rows.append(tuple(row))
    return tuple(rows)


def mat_mul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    return [[_dot(A[i], [B[k][j] for k in range(m)]) for j in range(p)] for i in range(n)]


def _dot(row, col):
    acc = None
    for a, b in zip(row, col):
        v = a * b
        acc = v if acc is None else acc + v
    return acc


def chain_residual(lhs, rhs) -> list:
    """The entries, row by row, of the product of the matrices lhs less the
    product of the matrices rhs, each product taken left to right."""
    left, right = reduce(mat_mul, lhs), reduce(mat_mul, rhs)
    return [a - b for ra, rb in zip(left, right) for a, b in zip(ra, rb)]


def on_legs(m, legs, n, zero):
    """m acting on the given legs of (C^2)^(x n), in that order, and as the
    identity on the others: entry (I, J) is m's entry at the bits of I and J
    on legs where I and J agree off legs, else zero.  Indexes are read
    big-endian, leg 0 first: L1 = on_legs(L, (0,), 2, zero), L2 on (1,),
    R21 = on_legs(R, (1, 0), 2, zero), R13 = on_legs(R, (0, 2), 3, zero)."""
    rest = [leg for leg in range(n) if leg not in legs]

    def bits(i, which):
        return sum((i >> (n - 1 - leg) & 1) << (len(which) - 1 - k) for k, leg in enumerate(which))

    return [[m[bits(i, legs)][bits(j, legs)] if bits(i, rest) == bits(j, rest) else zero
             for j in range(1 << n)] for i in range(1 << n)]


def rmatrix_21_inverse() -> list[list[RatCoeff]]:
    """R21^-1 = R - (q - 1/q) P, P the flip of the two legs, whose row i has
    its 1 in the column of i with its two bits swapped.

    The vector R-matrix satisfies the Hecke relation (PR - q)(PR + 1/q) = 0
    (Faddeev, Reshetikhin & Takhtajan 1990), so (PR)^-1 = PR - (q - 1/q),
    R^-1 = R21 - (q - 1/q) P and R21^-1 = P R^-1 P is the closed form."""
    R = rmatrix_vector()
    return [[R[i][j] - QMQI if j == 2 * (i % 2) + i // 2 else R[i][j] for j in range(4)] for i in range(4)]


def yang_baxter_residual() -> list[RatCoeff]:
    """The nonzero entries of R12 R13 R23 - R23 R13 R12 as 8x8 scalar
    matrices; empty when the Yang-Baxter equation holds."""
    R = rmatrix_vector()
    zero = RatCoeff.from_int(0)
    R12, R13, R23 = (on_legs(R, legs, 3, zero) for legs in ((0, 1), (0, 2), (1, 2)))
    return [c for c in chain_residual((R12, R13, R23), (R23, R13, R12)) if c]


# ---------------------------------------------------------------------------
# the L-matrix presentation under the standard identification
# ---------------------------------------------------------------------------

@cache
def lmatrices() -> tuple[list[list[NcPoly]], list[list[NcPoly]]]:
    """L+ and L- with entries in U_q: l^{+-i}_i = K_i^{-+1},
    l^{+1}_2 = (q - 1/q) K1i E, l^{-2}_1 = -(q - 1/q) F K1."""
    U = uq_spec()
    zero = U.zero()
    lp = [
        [U.gen("K1i"), U.word_poly("K1i", "E").scale(QMQI)],
        [zero, U.gen("K2i")],
    ]
    lm = [
        [U.gen("K1"), zero],
        [U.word_poly("F", "K1").scale(-QMQI), U.gen("K2")],
    ]
    return lp, lm


def lmatrix_check() -> list[tuple[str, object]]:
    """All printed relations of the L-matrix presentation in U_q, as (tag,
    residual): the normal form of lhs - rhs for each explicit relation, and
    the list of nonzero normal entries of lhs - rhs for each RTT equation.
    Every residual is zero or empty when the presentation holds."""
    U = uq_spec()
    lp, lm = lmatrices()
    q1 = RAT.q_power(1)
    qm1 = RAT.q_power(-1)
    l11p, l12p, l22p = lp[0][0], lp[0][1], lp[1][1]
    l11m, l21m, l22m = lm[0][0], lm[1][0], lm[1][1]
    explicit = [
        ("l+11 l-11 = 1", U.mul(l11p, l11m) - U.unit()),
        ("l+22 l-22 = 1", U.mul(l22p, l22m) - U.unit()),
        ("l+11 l+22 commute", U.mul(l11p, l22p) - U.mul(l22p, l11p)),
        ("l-11 l-22 commute", U.mul(l11m, l22m) - U.mul(l22m, l11m)),
        ("l+11 l+12 = 1/q l+12 l+11", U.mul(l11p, l12p) - U.mul(l12p, l11p).scale(qm1)),
        ("l+22 l+12 = q l+12 l+22", U.mul(l22p, l12p) - U.mul(l12p, l22p).scale(q1)),
        ("l+11 l-21 = q l-21 l+11", U.mul(l11p, l21m) - U.mul(l21m, l11p).scale(q1)),
        ("l+22 l-21 = 1/q l-21 l+22", U.mul(l22p, l21m) - U.mul(l21m, l22p).scale(qm1)),
        ("cross commutator",
         U.mul(l21m, l12p) - U.mul(l12p, l21m)
         - (U.mul(l22p, l11m) - U.mul(l11p, l22m)).scale(QMQI)),
    ]
    results = [(tag, U.nf(resid)) for tag, resid in explicit]
    R = _scalar_mat_for(rmatrix_vector(), U)
    eqs = [
        ("L1+ L2+ R = R L2+ L1+", lp, lp),
        ("L1- L2- R = R L2- L1-", lm, lm),
        ("L1- L2+ R = R L2+ L1-", lm, lp),
    ]
    for tag, A, B in eqs:
        A1, B2 = on_legs(A, (0,), 2, U.zero()), on_legs(B, (1,), 2, U.zero())
        results.append((tag, [x for x in map(U.nf, chain_residual((A1, B2, R), (R, B2, A1))) if x]))
    return results


def antipode_lminus() -> list[list[NcPoly]]:
    """S(L-) = (L-)^{-1}, inverted as a lower triangular 2x2 over U_q."""
    U = uq_spec()
    _, lm = lmatrices()
    a, c, d = lm[0][0], lm[1][0], lm[1][1]
    ai, di = U.gen("K1i"), U.gen("K2i")
    if U.nf(U.mul(a, ai) - U.unit()) or U.nf(U.mul(d, di) - U.unit()):
        raise EngineError("diagonal entries of L- are not inverted by K1i, K2i")
    lower = U.nf(U.mul(di, c, ai).scale(RatCoeff.from_int(-1)))
    return [[ai, U.zero()], [lower, di]]


# ---------------------------------------------------------------------------
# O_q(GL2)
# ---------------------------------------------------------------------------

_L_NAMES = ("l11", "l12", "l21", "l22")
_OQ_GENS = [(n, (1, 0), None) for n in _L_NAMES]


def _re_rules(alph: Alphabet, n11, n12, n21, n22) -> list[RewriteRule]:
    """The six reflection-equation straightening rules on a 2x2 matrix of
    generators named n11..n22 (shared by O_q, both matrix copies in D_q and
    the moment-map relations of dqops.MOMENT_TABLE)."""
    one = RC_ONE
    c = one - RAT.q_power(-2)
    return [
        RewriteRule(alph.word(n12, n11), alph.poly(n11, n12) + alph.poly(n12, n22).scale(c), f"{n12}*{n11}"),
        RewriteRule(alph.word(n22, n11), alph.poly(n11, n22), f"{n22}*{n11}"),
        RewriteRule(alph.word(n21, n11), alph.poly(n11, n21) - alph.poly(n22, n21).scale(c), f"{n21}*{n11}"),
        RewriteRule(alph.word(n22, n12), alph.poly(n12, n22).scale(RAT.q_power(2)), f"{n22}*{n12}"),
        RewriteRule(
            alph.word(n21, n12),
            alph.poly(n12, n21) + (alph.poly(n11, n22) - alph.poly(n22, n22)).scale(c),
            f"{n21}*{n12}",
        ),
        RewriteRule(alph.word(n22, n21), alph.poly(n21, n22).scale(RAT.q_power(-2)), f"{n22}*{n21}"),
    ]


def letter_matrix(spec: AlgebraSpec, names) -> list[list[NcPoly]]:
    """The 2x2 matrix of the generators named n11, n12, n21, n22."""
    return [[spec.gen(names[2 * i + j]) for j in range(2)] for i in range(2)]


def qtrace(m):
    """tr_q = (1,1) entry + q^-2 (2,2) entry, for entries that scale."""
    return m[0][0] + m[1][1].scale(RAT.q_power(-2))


def qdet(alph: Alphabet, names) -> NcPoly:
    """det_q = n11 n22 - q^2 n12 n21, a free polynomial over alph."""
    n11, n12, n21, n22 = names
    return alph.poly(n11, n22) - alph.poly(n12, n21).scale(RAT.q_power(2))


def qadjugate(m):
    """((m22, -q^2 m12), (-q^2 m21, q^2 m11 + (1 - q^2) m22)), the adjugate of
    a matrix m whose entries satisfy _re_rules: m adj = adj m = det_q(m) I
    (checked exactly by the cofactor suite)."""
    q2 = RAT.q_power(2)
    return ((m[1][1], m[0][1].scale(-q2)),
            (m[1][0].scale(-q2), m[0][0].scale(q2) + m[1][1].scale(RC_ONE - q2)))


@cache
def oq_spec() -> AlgebraSpec:
    alph = Alphabet("oq", _OQ_GENS)
    # the bidegree weights, all 1, already make divide complete (see dq_spec)
    pbw = PowerBlocksPbw(alph, [(g.name, None, None) for g in alph.gens])
    return AlgebraSpec(alph, _re_rules(alph, *_L_NAMES), pbw)


def qtrace_oq() -> NcPoly:
    """tr_q(L) = l11 + q^-2 l22."""
    return qtrace(letter_matrix(oq_spec(), _L_NAMES))


def qdet_oq() -> NcPoly:
    """det_q(L) = l11 l22 - q^2 l12 l21."""
    return qdet(oq_spec().alphabet, _L_NAMES)


@cache
def oq_denominators() -> tuple[Denominator]:
    """O_q(GL2) is localised at det_q(L), which is central (kappa 0)."""
    return (Denominator("detLi", qdet_oq(), (0, 0)),)


def reflection_equation_entries(spec: AlgebraSpec, names: tuple[str, str, str, str]):
    """Entry residuals of R21 L1 R L2 - L2 R21 L1 R as free polynomials."""
    L = letter_matrix(spec, names)
    R = _scalar_mat_for(rmatrix_vector(), spec)
    z = spec.zero()
    R21, L1, L2 = on_legs(R, (1, 0), 2, z), on_legs(L, (0,), 2, z), on_legs(L, (1,), 2, z)
    return chain_residual((R21, L1, R, L2), (L2, R21, L1, R))


def _scalar_mat_for(R, spec):
    return [[spec.scalar(c) for c in row] for row in R]


# ---------------------------------------------------------------------------
# embedding of O_q into U_q
# ---------------------------------------------------------------------------

@cache
def phi_images() -> dict[str, NcPoly]:
    """The embedding on generators:

    l11 -> K1^-2 + 1/q (q - 1/q)^2 K1i K2i E F     l12 -> 1/q (q - 1/q) K1i K2i E
    l21 -> (q - 1/q) K2^-2 F                        l22 -> K2^-2
    """
    U = uq_spec()
    c = QMQI
    return {
        "l11": U.word_poly("K1i", "K1i")
        + U.word_poly("K1i", "K2i", "E", "F").scale(RAT.q_power(-1) * c * c),
        "l12": U.word_poly("K1i", "K2i", "E").scale(RAT.q_power(-1) * c),
        "l21": U.word_poly("K2i", "K2i", "F").scale(c),
        "l22": U.word_poly("K2i", "K2i"),
    }


def embed_phi(x: NcPoly) -> NcPoly:
    """Apply the embedding O_q -> U_q to a coordinate-algebra element.

    The embedding is an algebra map, so each word's image is its first
    letter's image acting on its tail's (one rewrite.tail_map over x's
    words, so words that end alike share their tails' images), and x's
    image is the sum of c times the image of each term c w."""
    O = oq_spec()
    if x.alphabet is not O.alphabet:
        raise EngineError("embed_phi expects an O_q element")
    U = uq_spec()
    img = phi_images()
    gens = O.alphabet.gens
    image = tail_map(lambda x, u, tail: U._act(img[gens[x].name], tail), U.unit())
    return U._sum_scaled((image(w), c) for w, c in x.terms.items())


def phi_matches_lmatrix_product() -> list[NcPoly]:
    """The nonzero normal entries of L+ S(L-) less the generator images;
    empty when the images coincide with the entries of L+ S(L-)."""
    U = uq_spec()
    lp, _ = lmatrices()
    prod = mat_mul(lp, antipode_lminus())
    img = phi_images()
    resid = (U.nf(prod[i][j] - img[_L_NAMES[2 * i + j]]) for i in range(2) for j in range(2))
    return [r for r in resid if r]


# ---------------------------------------------------------------------------
# the adjoint action
# ---------------------------------------------------------------------------

class AdjointAction:
    """Adjoint U_q-action on a module algebra given per-letter data.

    Letters carry a K-weight (w1, w2) and images under the E and F actions;
    words are acted on through the coproduct rule

        E > (x y) = (E > x)(K1 K2i > y) + x (E > y)
        F > (x y) = (F > x) y + (K1i K2 > x)(F > y)
        K > (x y) = (K > x)(K > y).
    """

    def __init__(self, spec: AlgebraSpec, weights: dict[str, tuple[int, int]],
                 e_images: dict[str, NcPoly], f_images: dict[str, NcPoly]):
        self.spec = spec
        alph = spec.alphabet
        self.weights = {alph.index(n): w for n, w in weights.items()}
        self.e_images = {alph.index(n): p for n, p in e_images.items()}
        self.f_images = {alph.index(n): p for n, p in f_images.items()}
        for i in range(len(alph)):
            for what, table in (("action data", self.weights), ("E image", self.e_images),
                                ("F image", self.f_images)):
                if i not in table:
                    raise EngineError(f"no {what} for letter {alph.gens[i].name}")

    def _word_weight(self, w) -> tuple[int, int]:
        a = b = 0
        for i in w:
            wa, wb = self.weights[i]
            a += wa
            b += wb
        return (a, b)

    def images(self, gen: str, words) -> list[NcPoly]:
        """[nf(gen > w) for w in words], gen E or F, each word's image built
        from its tail's by the coproduct rule, for x a letter and u a word:

            E > (x u) = q^(w1(u) - w2(u)) (E > x) u + x (E > u)
            F > (x u) = (F > x) u + q^(w2(x) - w1(x)) x (F > u),

        the q-powers taken in spec.field.  Every term is an image word of x
        in front of u, or x in front of a normal word, and one nf per tail
        reduces them (one rewrite.tail_map over all the words, so words that
        end alike share their tails' images).  Normal forms are unique, so
        each image is the nf of the sum over positions."""
        if gen not in ("E", "F"):
            raise EngineError(f"unknown action generator {gen!r}")
        spec, weights = self.spec, self.weights
        alph, field = spec.alphabet, spec.field
        table = self.e_images if gen == "E" else self.f_images

        def step(x, u, tail):
            (a, b), img_u = tail
            wa, wb = weights[x]
            s_img = field.q_power(a - b) if gen == "E" else field.one
            s_x = field.one if gen == "E" else field.q_power(wb - wa)
            terms = {(x,) + v: c * s_x for v, c in img_u.terms.items()}
            _add_scaled(terms, [(iw + u, c) for iw, c in table[x].terms.items()], s_img)
            return (a + wa, b + wb), spec.nf(NcPoly(alph, terms, field, _clean=True))

        image = tail_map(step, ((0, 0), spec.zero()))
        return [image(w)[1] for w in words]

    def over(self, spec: AlgebraSpec) -> "AdjointAction":
        """This action on spec, this action's spec carried into another field
        (AlgebraSpec.over), its image tables carried with it (carry)."""
        names = [g.name for g in spec.alphabet.gens]
        return AdjointAction(spec, {names[i]: w for i, w in self.weights.items()},
                             {names[i]: carry(p, spec.field) for i, p in self.e_images.items()},
                             {names[i]: carry(p, spec.field) for i, p in self.f_images.items()})

    def act(self, gen: str, x: NcPoly) -> NcPoly:
        """gen > x in normal form.  For E and F it is the sum of c times the
        image of each term c w of x (images); for a K it scales each term by
        the q-power of its word's weight."""
        spec = self.spec
        if gen in ("K1", "K2", "K1i", "K2i"):
            m = 0 if gen.startswith("K1") else 1
            sgn = -1 if gen.endswith("i") else 1
            out = {w: c * spec.field.q_power(sgn * self._word_weight(w)[m]) for w, c in x.terms.items()}
            return spec.nf(NcPoly(spec.alphabet, out, spec.field, _clean=True))
        return spec._sum_scaled(zip(self.images(gen, list(x.terms)), x.terms.values()))

    def is_invariant(self, x: NcPoly) -> bool:
        x = self.spec.nf(x)
        if self.act("E", x) or self.act("F", x):
            return False
        return self.act("K1", x) == x and self.act("K2", x) == x

    def kills_defining_relations(self) -> list[tuple[str, str, bool]]:
        return [(rule.tag, g, not self.act(g, rule.residual))
                for rule in self.spec.rules for g in ("E", "F", "K1", "K2")]


def _oq_like_action_tables(spec: AlgebraSpec, names):
    """Weight and E, F image tables for a 2x2 matrix of coordinate letters
    named n11, n12, n21, n22."""
    m = letter_matrix(spec, names)
    weights = {}
    e_im = {}
    f_im = {}
    z = spec.zero()
    for i in range(2):
        for j in range(2):
            n = names[2 * i + j]
            weights[n] = (int(i == 0) - int(j == 0), int(i == 1) - int(j == 1))
            e = z
            if j == 0:
                e = e + m[i][1]
            if i == 1:
                e = e - m[0][j].scale(RAT.q_power(2 * j))
            e_im[n] = e
            f = z
            if j == 1:
                f = f + m[i][0].scale(RAT.q_power(2 * i - 1))
            if i == 0:
                f = f - m[1][j].scale(RAT.q_power(-1))
            f_im[n] = f
    return weights, e_im, f_im


@cache
def oq_action() -> AdjointAction:
    O = oq_spec()
    return AdjointAction(O, *_oq_like_action_tables(O, _L_NAMES))


def adjoint_in_uq(gen: str, y: NcPoly) -> NcPoly:
    """x > y = x_(1) y S(x_(2)) computed inside U_q for x in {E, F, K1, K2}."""
    U = uq_spec()
    if gen == "E":
        return U.nf(U.mul(U.gen("E"), y, U.word_poly("K1i", "K2"))
                    - U.mul(y, U.word_poly("E", "K1i", "K2")))
    if gen == "F":
        return U.nf(U.mul(U.gen("F"), y)
                    - U.mul(U.word_poly("K1i", "K2"), y, U.word_poly("K1", "K2i", "F")))
    if gen in ("K1", "K2"):
        return U.nf(U.mul(U.gen(gen), y, U.gen(gen + "i")))
    raise EngineError(f"unknown generator {gen!r}")
