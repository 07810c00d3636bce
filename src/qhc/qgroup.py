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
"""

from __future__ import annotations

from functools import cache

from .coeffring import RAT, RC_ONE, RC_Q, RatCoeff
from .ncpoly import Alphabet, NcPoly
from .rewrite import (
    AlgebraSpec,
    Denominator,
    EngineError,
    PowerBlocksPbw,
    QCentralGen,
    RewriteRule,
    SortedBlocksPbw,
    WordOrder,
)


def _q(k: int) -> RatCoeff:
    return RAT.q_power(k)


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
    order = WordOrder(ranks=[0, 1, 2, 2, 3, 3])
    inv = QMQI.inverse()
    ef_rhs = (
        NcPoly.from_word(alph, alph.word("F", "E"))
        + NcPoly.from_word(alph, alph.word("K1", "K2i"), inv)
        - NcPoly.from_word(alph, alph.word("K1i", "K2"), inv)
    )
    rules = [RewriteRule(alph.word("E", "F"), ef_rhs, "E*F", order)]
    pbw = PowerBlocksPbw(alph, [
        ("F", None, None),
        ("E", None, None),
        ("K1", "K1i", None),
        ("K2", "K2i", None),
    ])
    return AlgebraSpec(
        alph, rules, order, pbw,
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
            scal = _q(hh)
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


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def scalar_inverse_4x4(R):
    """Inverse of a 4x4 scalar matrix by Gauss-Jordan over the field."""
    n = 4
    a = [list(R[i]) + [RC_ONE if i == j else RatCoeff.from_int(0) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next(i for i in range(c, n) if a[i][c])
        a[c], a[piv] = a[piv], a[c]
        inv = a[c][c].inverse()
        a[c] = [x * inv for x in a[c]]
        for i in range(n):
            if i != c and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [row[n:] for row in a]


def yang_baxter_residual() -> bool:
    """R12 R13 R23 = R23 R13 R12 as 8x8 scalar matrices; True when it holds."""
    R = rmatrix_vector()
    zero = RatCoeff.from_int(0)

    def emb(which):
        out = [[zero for _ in range(8)] for _ in range(8)]
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for i2 in range(2):
                        for j2 in range(2):
                            for k2 in range(2):
                                if which == "12":
                                    c = R[2 * i + j][2 * i2 + j2] if k == k2 else zero
                                elif which == "23":
                                    c = R[2 * j + k][2 * j2 + k2] if i == i2 else zero
                                else:
                                    c = R[2 * i + k][2 * i2 + k2] if j == j2 else zero
                                out[4 * i + 2 * j + k][4 * i2 + 2 * j2 + k2] = c
        return out

    lhs = mat_mul(mat_mul(emb("12"), emb("13")), emb("23"))
    rhs = mat_mul(mat_mul(emb("23"), emb("13")), emb("12"))
    return all(not c for row in mat_sub(lhs, rhs) for c in row)


# ---------------------------------------------------------------------------
# the L-matrix presentation under the standard identification
# ---------------------------------------------------------------------------

def _uq_scalar(c: RatCoeff) -> NcPoly:
    return uq_spec().scalar(c)


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


def _leg1(L, U):
    """L x id on V x V with entries in U_q."""
    zero = U.zero()
    return [[L[i][j] if k == l else zero for j in range(2) for l in range(2)]
            for i in range(2) for k in range(2)]


def _leg2(L, U):
    zero = U.zero()
    return [[L[k][l] if i == j else zero for j in range(2) for l in range(2)]
            for i in range(2) for k in range(2)]


def _scalar_mat(R, U):
    return [[U.scalar(c) for c in row] for row in R]


def lmatrix_check() -> list[tuple[str, bool]]:
    """All printed relations of the L-matrix presentation, checked in U_q."""
    U = uq_spec()
    lp, lm = lmatrices()
    g = U.gen
    q1 = _q(1)
    qm1 = _q(-1)
    results: list[tuple[str, bool]] = []

    def nfz(p):
        return not U.nf(p)

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
    for tag, resid in explicit:
        results.append((tag, nfz(resid)))

    R = _scalar_mat(rmatrix_vector(), U)
    eqs = [
        ("L1+ L2+ R = R L2+ L1+", lp, lp),
        ("L1- L2- R = R L2- L1-", lm, lm),
        ("L1- L2+ R = R L2+ L1-", lm, lp),
    ]
    for tag, A, B in eqs:
        lhs = mat_mul(mat_mul(_leg1(A, U), _leg2(B, U)), R)
        rhs = mat_mul(mat_mul(R, _leg2(B, U)), _leg1(A, U))
        ok = all(nfz(x) for row in mat_sub(lhs, rhs) for x in row)
        results.append((tag, ok))
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

_OQ_GENS = [
    ("l11", (1, 0), None),
    ("l12", (1, 0), None),
    ("l21", (1, 0), None),
    ("l22", (1, 0), None),
]


def _re_rules(alph: Alphabet, n11, n12, n21, n22, order) -> list[RewriteRule]:
    """The six reflection-equation straightening rules on a 2x2 matrix of
    generators named n11..n22 (shared by O_q and both matrix copies in D_q)."""
    one = RC_ONE
    c = one - _q(-2)

    def W(*names):
        return NcPoly.from_word(alph, alph.word(*names))

    return [
        RewriteRule(alph.word(n12, n11), W(n11, n12) + W(n12, n22).scale(c), f"{n12}*{n11}", order),
        RewriteRule(alph.word(n22, n11), W(n11, n22), f"{n22}*{n11}", order),
        RewriteRule(alph.word(n21, n11), W(n11, n21) - W(n22, n21).scale(c), f"{n21}*{n11}", order),
        RewriteRule(alph.word(n22, n12), W(n12, n22).scale(_q(2)), f"{n22}*{n12}", order),
        RewriteRule(
            alph.word(n21, n12),
            W(n12, n21) + (W(n11, n22) - W(n22, n22)).scale(c),
            f"{n21}*{n12}", order,
        ),
        RewriteRule(alph.word(n22, n21), W(n21, n22).scale(_q(-2)), f"{n22}*{n21}", order),
    ]


@cache
def oq_spec() -> AlgebraSpec:
    alph = Alphabet("oq", _OQ_GENS)
    order = WordOrder(ranks=[0, 1, 2, 3])
    rules = _re_rules(alph, "l11", "l12", "l21", "l22", order)
    pbw = SortedBlocksPbw(alph, [("l11", "l12", "l21", "l22")])
    return AlgebraSpec(alph, rules, order, pbw)


def qtrace_oq() -> NcPoly:
    """tr_q(L) = l11 + q^-2 l22."""
    O = oq_spec()
    return O.gen("l11") + O.gen("l22").scale(_q(-2))


def qdet_oq() -> NcPoly:
    """det_q(L) = l11 l22 - q^2 l12 l21."""
    O = oq_spec()
    return O.word_poly("l11", "l22") - O.word_poly("l12", "l21").scale(_q(2))


@cache
def oq_denominators() -> tuple[Denominator]:
    """O_q(GL2) is localised at det_q(L), which is central (kappa 0)."""
    return (Denominator("detLi", qdet_oq(), (0, 0)),)


def reflection_equation_entries(spec: AlgebraSpec, names: tuple[str, str, str, str]):
    """Entry residuals of R21 L1 R L2 - L2 R21 L1 R as free polynomials."""
    n11, n12, n21, n22 = names
    L = [[spec.gen(n11), spec.gen(n12)], [spec.gen(n21), spec.gen(n22)]]
    R = _scalar_mat_for(rmatrix_vector(), spec)
    R21 = _swap_legs(R)
    L1, L2 = _leg1(L, spec), _leg2(L, spec)
    lhs = mat_mul(mat_mul(mat_mul(R21, L1), R), L2)
    rhs = mat_mul(mat_mul(mat_mul(L2, R21), L1), R)
    return [x for row in mat_sub(lhs, rhs) for x in row]


def _scalar_mat_for(R, spec):
    return [[spec.scalar(c) for c in row] for row in R]


def _swap_legs(R):
    """R21 from R: conjugate by the flip of tensor legs."""
    n = len(R)
    out = [[None] * n for _ in range(n)]
    for i in range(2):
        for k in range(2):
            for j in range(2):
                for l in range(2):
                    out[2 * k + i][2 * l + j] = R[2 * i + k][2 * j + l]
    return out


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
        + U.word_poly("K1i", "K2i", "E", "F").scale(_q(-1) * c * c),
        "l12": U.word_poly("K1i", "K2i", "E").scale(_q(-1) * c),
        "l21": U.word_poly("K2i", "K2i", "F").scale(c),
        "l22": U.word_poly("K2i", "K2i"),
    }


def embed_phi(x: NcPoly) -> NcPoly:
    """Apply the embedding O_q -> U_q to a coordinate-algebra element."""
    O = oq_spec()
    if x.alphabet is not O.alphabet:
        raise EngineError("embed_phi expects an O_q element")
    U = uq_spec()
    img = phi_images()
    out = U.zero()
    for w, c in x.terms.items():
        acc = U.unit()
        for i in w:
            acc = U.mul(acc, img[O.alphabet.gens[i].name])
        out = out + acc.scale(c)
    return U.nf(out)


def phi_matches_lmatrix_product() -> bool:
    """The generator images coincide with the entries of L+ S(L-)."""
    U = uq_spec()
    lp, _ = lmatrices()
    sl = antipode_lminus()
    prod = mat_mul(lp, sl)
    img = phi_images()
    names = (("l11", "l12"), ("l21", "l22"))
    for i in range(2):
        for j in range(2):
            if U.nf(prod[i][j] - img[names[i][j]]):
                return False
    return True


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
            if i not in self.weights:
                raise EngineError(f"no action data for letter {alph.gens[i].name}")

    def _word_weight(self, w) -> tuple[int, int]:
        a = b = 0
        for i in w:
            wa, wb = self.weights[i]
            a += wa
            b += wb
        return (a, b)

    def act(self, gen: str, x: NcPoly) -> NcPoly:
        spec = self.spec
        if gen in ("K1", "K2", "K1i", "K2i"):
            m = 0 if gen.startswith("K1") else 1
            sgn = -1 if gen.endswith("i") else 1
            out = spec.zero()
            for w, c in x.terms.items():
                out = out + NcPoly.from_word(spec.alphabet, w, c * _q(sgn * self._word_weight(w)[m]))
            return spec.nf(out)
        if gen == "E":
            images, pre_scale = self.e_images, False
        elif gen == "F":
            images, pre_scale = self.f_images, True
        else:
            raise EngineError(f"unknown action generator {gen!r}")
        out = spec.zero()
        for w, c in x.terms.items():
            for i in range(len(w)):
                img = images[w[i]]
                if not img:
                    continue
                if pre_scale:
                    w1, w2 = self._word_weight(w[:i])
                    scal = _q(w2 - w1)
                else:
                    w1, w2 = self._word_weight(w[i + 1:])
                    scal = _q(w1 - w2)
                pre = NcPoly.from_word(spec.alphabet, w[:i], c * scal)
                post = NcPoly.from_word(spec.alphabet, w[i + 1:])
                out = out + pre * img * post
        return spec.nf(out)

    def is_invariant(self, x: NcPoly) -> bool:
        x = self.spec.nf(x)
        if self.act("E", x) or self.act("F", x):
            return False
        return self.act("K1", x) == x and self.act("K2", x) == x

    def kills_defining_relations(self) -> list[tuple[str, str, bool]]:
        out = []
        for rule in self.spec.rules:
            resid = NcPoly.from_word(self.spec.alphabet, rule.lhs) - rule.rhs
            for g in ("E", "F", "K1", "K2"):
                r = self.act(g, resid)
                out.append((rule.tag, g, not r))
        return out


def _oq_like_action_tables(spec: AlgebraSpec, names: dict[tuple[int, int], str]):
    """Weight and E, F image tables for a 2x2 matrix of coordinate letters."""
    weights = {}
    e_im = {}
    f_im = {}
    z = spec.zero()
    for (i, j), n in names.items():
        weights[n] = (
            (1 if i == 1 else 0) - (1 if j == 1 else 0),
            (1 if i == 2 else 0) - (1 if j == 2 else 0),
        )
        e = z
        if j == 1:
            e = e + spec.gen(names[(i, 2)])
        if i == 2:
            e = e - spec.gen(names[(1, j)]).scale(_q(2 if j == 2 else 0))
        e_im[n] = e
        f = z
        if j == 2:
            f = f + spec.gen(names[(i, 1)]).scale(_q((2 if i == 2 else 0) - 1))
        if i == 1:
            f = f - spec.gen(names[(2, j)]).scale(_q(-1))
        f_im[n] = f
    return weights, e_im, f_im


@cache
def oq_action() -> AdjointAction:
    O = oq_spec()
    names = {(1, 1): "l11", (1, 2): "l12", (2, 1): "l21", (2, 2): "l22"}
    return AdjointAction(O, *_oq_like_action_tables(O, names))


def is_invariant(x: NcPoly, action: AdjointAction | None = None) -> bool:
    return (action or oq_action()).is_invariant(x)


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
