"""Quantum differential operators on GL2.

Two reflection-equation copies of O_q(GL2) --- coordinates a^i_j and
derivatives d^i_j, written a11..a22 and p11..p22 --- interact through sixteen
cross relations; together with the six relations inside each copy this gives
the 28 straightening rules of D_q^+(GL2).  Normal-form words are row-major
sorted a-monomials followed by row-major sorted p-monomials.

The localisation at the q-determinants is rewrite.LocElem over
dq_denominators(), whose kappas are read off the inner grading

    detq(A) h = q^{2N} h detq(A)      detq(D) h = q^{-2M} h detq(D)

for h of bidegree (M, N); dq_elem(body, la, ld) is detq(A)^-la detq(D)^-ld body.

The quantum cofactor matrices are not transcribed: they are solved from the
eight linear conditions A adj(A) = adj(A) A = detq(A) I (and the D analogue),
then compared against the conventional display entries, where the bottom
right entries are known to disagree with the solved value (the display has
q^2 a22 + (1 - q^2) a22 where the cofactor identity forces
q^2 a11 + (1 - q^2) a22).
"""

from __future__ import annotations

from functools import cache

from .coeffring import RAT, RC_ONE, RC_T, RatCoeff
from .linalg import solve_dense
from .ncpoly import Alphabet, NcPoly
from .qgroup import (
    AdjointAction,
    _leg1,
    _leg2,
    _oq_like_action_tables,
    _re_rules,
    _scalar_mat_for,
    _swap_legs,
    mat_mul,
    mat_sub,
    rmatrix_vector,
    scalar_inverse_4x4,
)
from .rewrite import AlgebraSpec, Denominator, EngineError, LocElem, SortedBlocksPbw, WordOrder


def _q(k: int) -> RatCoeff:
    return RAT.q_power(k)


_A_NAMES = ("a11", "a12", "a21", "a22")
_P_NAMES = ("p11", "p12", "p21", "p22")

_DQ_GENS = [(n, (1, 0), None) for n in _A_NAMES] + [(n, (0, 1), None) for n in _P_NAMES]


@cache
def dq_spec() -> AlgebraSpec:
    """The 28-relation presentation of D_q^+(GL2)."""
    alph = Alphabet("dq", _DQ_GENS)
    order = WordOrder(ranks=list(range(8)))

    def W(*names):
        return NcPoly.from_word(alph, alph.word(*names))

    one = RC_ONE
    qm2, qm4, q2 = _q(-2), _q(-4), _q(2)
    qq2 = (RAT.q_power(1) - RAT.q_power(-1)) ** 2      # (q - 1/q)^2
    rules = _re_rules(alph, *_A_NAMES, order) + _re_rules(alph, *_P_NAMES, order)
    cross = [
        ("p11", "a11", -(one - qm2), ("p12", "a21"), [(qm2, ("a11", "p11")), (qm2 - qm4, ("a12", "p21"))]),
        ("p11", "a12", qm2 - one, ("p12", "a22"), [(qm2, ("a12", "p11"))]),
        ("p11", "a21", one - q2, ("p21", "a11"), [(-qq2, ("p22", "a21")), (one, ("a21", "p11")), (one - qm2, ("a22", "p21"))]),
        ("p11", "a22", one - q2, ("p21", "a12"), [(-qq2, ("p22", "a22")), (one, ("a22", "p11"))]),
        ("p12", "a11", None, None, [(one, ("a11", "p12")), (one - qm2, ("a12", "p22")), (qm2 - one, ("a12", "p11"))]),
        ("p12", "a12", None, None, [(qm2, ("a12", "p12"))]),
        ("p12", "a21", qm2 - one, ("p22", "a11"), [(one, ("a21", "p12")), (qm2 - one, ("a22", "p11")), (one - qm2, ("a22", "p22"))]),
        ("p12", "a22", qm2 - one, ("p22", "a12"), [(qm2, ("a22", "p12"))]),
        ("p21", "a11", -(one - qm2), ("p22", "a21"), [(qm2, ("a11", "p21"))]),
        ("p21", "a12", qm2 - one, ("p22", "a22"), [(one, ("a12", "p21"))]),
        ("p21", "a21", None, None, [(qm2, ("a21", "p21"))]),
        ("p21", "a22", None, None, [(one, ("a22", "p21"))]),
        ("p22", "a11", None, None, [(one, ("a11", "p22")), (one - q2, ("a12", "p21"))]),
        ("p22", "a12", None, None, [(one, ("a12", "p22"))]),
        ("p22", "a21", None, None, [(qm2, ("a21", "p22")), (qm2 - one, ("a22", "p21"))]),
        ("p22", "a22", None, None, [(qm2, ("a22", "p22"))]),
    ]
    from .rewrite import RewriteRule

    for lhs1, lhs2, pc, pw, sorted_terms in cross:
        rhs = NcPoly.zero(alph)
        if pw is not None:
            rhs = rhs + W(*pw).scale(pc)
        for c, wnames in sorted_terms:
            rhs = rhs + W(*wnames).scale(c)
        rules.append(RewriteRule(alph.word(lhs1, lhs2), rhs, f"{lhs1}*{lhs2}", order))

    pbw = SortedBlocksPbw(alph, [_A_NAMES, _P_NAMES])
    return AlgebraSpec(alph, rules, order, pbw)


# ---------------------------------------------------------------------------
# q-determinants and localisation
# ---------------------------------------------------------------------------

def _det_body(names) -> NcPoly:
    D = dq_spec()
    n11, n12, n21, n22 = names
    return D.word_poly(n11, n22) - D.word_poly(n12, n21).scale(_q(2))


@cache
def det_a_body() -> NcPoly:
    return _det_body(_A_NAMES)


@cache
def det_d_body() -> NcPoly:
    return _det_body(_P_NAMES)


@cache
def dq_denominators() -> tuple[Denominator, Denominator]:
    return (Denominator("detAi", det_a_body(), (0, 2)),
            Denominator("detDi", det_d_body(), (-2, 0)))


# perfbench/tracer.py wraps the localised product, _at_loc and reduced under
# this name, so it stays bound to the one localisation class
DqElem = LocElem


def dq_elem(body: NcPoly, la: int = 0, ld: int = 0) -> LocElem:
    """detq(A)^-la detq(D)^-ld * body."""
    return LocElem(dq_spec(), dq_denominators(), body, (la, ld))


# ---------------------------------------------------------------------------
# 2x2 matrices over the localisation
# ---------------------------------------------------------------------------

def qmat_mul(a, b):
    return [
        [a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)]
        for i in range(2)
    ]


def qmat_a() -> list[list[LocElem]]:
    D = dq_spec()
    return [[dq_elem(D.gen(_A_NAMES[2 * i + j])) for j in range(2)] for i in range(2)]


def qmat_d() -> list[list[LocElem]]:
    D = dq_spec()
    return [[dq_elem(D.gen(_P_NAMES[2 * i + j])) for j in range(2)] for i in range(2)]


def qtrace(m) -> LocElem:
    """tr_q = (1,1) entry + q^-2 (2,2) entry."""
    return m[0][0] + m[1][1].scale(_q(-2))


def trq_xt() -> RatCoeff:
    """tr_q of the defining diagonal matrix diag(1/t^2, t^2)."""
    t2 = RC_T * RC_T
    return t2.inverse() + _q(-2) * t2


# ---------------------------------------------------------------------------
# cofactors by solving the adjugate conditions
# ---------------------------------------------------------------------------

def _letter_matrix(names):
    D = dq_spec()
    return [[D.gen(names[2 * i + j]) for j in range(2)] for i in range(2)]


@cache
def cofactor(which: str) -> tuple[tuple[NcPoly, ...], ...]:
    """Solve M * adj = adj * M = detq(M) * I for adj, entrywise linear in the
    degree-one span.  Raises if the system were inconsistent or ambiguous."""
    D = dq_spec()
    names = _A_NAMES if which == "A" else _P_NAMES
    M = _letter_matrix(names)
    det = _det_body(names)
    letters = [D.gen(n) for n in names]
    basis = sorted(
        {w for k in range(4) for l in range(4) for w in D.nf(letters[k] * letters[l]).terms}
        | set(det.terms)
    )
    col = {w: k for k, w in enumerate(basis)}
    zero = RatCoeff.from_int(0)
    nunk = 16  # adj[m][c] = sum_k x[m][c][k] * letter_k

    def unk(m, c, k):
        return 4 * (2 * m + c) + k

    rows, rhs = [], []
    prods_left = [[D.nf(M[r][m] * letters[k]) for k in range(4)] for r in range(2) for m in range(2)]
    prods_right = [[D.nf(letters[k] * M[m][c]) for k in range(4)] for m in range(2) for c in range(2)]
    for r in range(2):
        for c in range(2):
            want = det if r == c else D.zero()
            for w in basis:
                row = [zero] * nunk
                for m in range(2):
                    for k in range(4):
                        coeff = prods_left[2 * r + m][k].terms.get(w)
                        if coeff:
                            row[unk(m, c, k)] = row[unk(m, c, k)] + coeff
                rows.append(row)
                rhs.append(want.terms.get(w, zero))
    for m in range(2):
        for c in range(2):
            want = det if m == c else D.zero()
            for w in basis:
                row = [zero] * nunk
                for mm in range(2):
                    for k in range(4):
                        coeff = prods_right[2 * mm + c][k].terms.get(w)
                        if coeff:
                            row[unk(m, mm, k)] = row[unk(m, mm, k)] + coeff
                rows.append(row)
                rhs.append(want.terms.get(w, zero))
    status, sol = solve_dense(rows, rhs, zero, RC_ONE)
    if status != "unique":
        raise EngineError(f"cofactor conditions for {which} are {status}")
    out = []
    for m in range(2):
        outrow = []
        for c in range(2):
            p = D.zero()
            for k in range(4):
                p = p + letters[k].scale(sol[unk(m, c, k)])
            outrow.append(p)
        out.append(tuple(outrow))
    return tuple(out)


def claimed_cofactor_display(which: str) -> tuple[tuple[NcPoly, ...], ...]:
    """Conventional display of the adjugates; the (2,2) entries are a known
    erratum (they repeat the 22 letter where the solved value needs the 11)."""
    D = dq_spec()
    n11, n12, n21, n22 = _A_NAMES if which == "A" else _P_NAMES
    q2 = _q(2)
    return (
        (D.gen(n22), D.gen(n12).scale(-q2)),
        (D.gen(n21).scale(-q2), D.gen(n22).scale(q2) + D.gen(n22).scale(RC_ONE - q2)),
    )


def cofactor_display_mismatches(which: str):
    """Entries where the solved adjugate differs from the claimed display."""
    D = dq_spec()
    solved = cofactor(which)
    claimed = claimed_cofactor_display(which)
    out = []
    for i in range(2):
        for j in range(2):
            if D.nf(solved[i][j] - claimed[i][j]):
                out.append(((i + 1, j + 1), solved[i][j], claimed[i][j]))
    return out


def cofactor_identity_residuals(which: str) -> list[tuple[str, NcPoly]]:
    """M adj - det I and adj M - det I entrywise; all must be zero."""
    D = dq_spec()
    names = _A_NAMES if which == "A" else _P_NAMES
    M = _letter_matrix(names)
    adj = cofactor(which)
    det = _det_body(names)
    out = []
    for tag, prod in (("M*adj", (M, adj)), ("adj*M", (adj, M))):
        L, R = prod
        for i in range(2):
            for j in range(2):
                entry = D.nf(L[i][0] * R[0][j] + L[i][1] * R[1][j])
                want = det if i == j else D.zero()
                out.append((f"{which}:{tag}[{i + 1}{j + 1}]", D.nf(entry - want)))
    return out


def inverse_matrix(which: str) -> list[list[LocElem]]:
    """A^{-1} = detq(A)^{-1} adj(A), and likewise for D."""
    adj = cofactor(which)
    la, ld = (1, 0) if which == "A" else (0, 1)
    return [[dq_elem(adj[i][j], la, ld) for j in range(2)] for i in range(2)]


# ---------------------------------------------------------------------------
# inner grading and matrix-form checks
# ---------------------------------------------------------------------------

def det_qcommutation_residuals() -> list[tuple[str, NcPoly]]:
    """detq(A) a = a detq(A),  p detq(A) = q^-2 detq(A) p,
    detq(D) a = q^-2 a detq(D),  p detq(D) = detq(D) p."""
    D = dq_spec()
    dA, dD = det_a_body(), det_d_body()
    out = []
    for n in _A_NAMES:
        g = D.gen(n)
        out.append((f"detA*{n}", D.nf(dA * g - g * dA)))
        out.append((f"detD*{n}", D.nf(dD * g - (g * dD).scale(_q(-2)))))
    for n in _P_NAMES:
        g = D.gen(n)
        out.append((f"{n}*detA", D.nf(g * dA - (dA * g).scale(_q(-2)))))
        out.append((f"{n}*detD", D.nf(g * dD - dD * g)))
    return out


def matrix_relation_entries() -> dict[str, list[NcPoly]]:
    """Free entry residuals of the three defining matrix equations."""
    D = dq_spec()
    A = _letter_matrix(_A_NAMES)
    Dm = _letter_matrix(_P_NAMES)
    R = _scalar_mat_for(rmatrix_vector(), D)
    R21 = _swap_legs(rmatrix_vector())
    R21m = _scalar_mat_for(R21, D)
    R21i = _scalar_mat_for(scalar_inverse_4x4(R21), D)
    A1, A2 = _leg1(A, D), _leg2(A, D)
    D1, D2 = _leg1(Dm, D), _leg2(Dm, D)
    out = {}
    lhs = mat_mul(mat_mul(mat_mul(R21m, A1), R), A2)
    rhs = mat_mul(mat_mul(mat_mul(A2, R21m), A1), R)
    out["coordinates"] = [x for row in mat_sub(lhs, rhs) for x in row]
    lhs = mat_mul(mat_mul(mat_mul(R21m, D1), R), D2)
    rhs = mat_mul(mat_mul(mat_mul(D2, R21m), D1), R)
    out["derivatives"] = [x for row in mat_sub(lhs, rhs) for x in row]
    lhs = mat_mul(mat_mul(mat_mul(R21m, D1), R), A2)
    rhs = mat_mul(mat_mul(mat_mul(A2, R21m), D1), R21i)
    out["cross"] = [x for row in mat_sub(lhs, rhs) for x in row]
    return out


# ---------------------------------------------------------------------------
# the quantum moment map
# ---------------------------------------------------------------------------

@cache
def moment_matrix() -> tuple[tuple[LocElem, ...], ...]:
    """mu(L) = D A^{-1} D^{-1} A as a matrix over the localisation."""
    Dm = [[dq_elem(x) for x in row] for row in _letter_matrix(_P_NAMES)]
    Am = [[dq_elem(x) for x in row] for row in _letter_matrix(_A_NAMES)]
    Ai = inverse_matrix("A")
    Di = inverse_matrix("D")
    prod = qmat_mul(qmat_mul(qmat_mul(Dm, Ai), Di), Am)
    return tuple(tuple(row) for row in prod)


@cache
def moment_zt() -> LocElem:
    """mu(Z_t) = tr_q(mu(L)) - q^4 (1/t^2 + q^-2 t^2)."""
    m = moment_matrix()
    return qtrace([list(m[0]), list(m[1])]) - dq_elem(dq_spec().scalar(_q(4) * trq_xt()))


def moment_relation_residuals() -> list[tuple[str, LocElem]]:
    """The six coordinate-algebra relations on the entries of mu(L)."""
    m = moment_matrix()
    one = RC_ONE
    c = one - _q(-2)

    def e(i, j):
        return m[i - 1][j - 1]

    items = [
        ("m12*m11", e(1, 2) * e(1, 1) - e(1, 1) * e(1, 2) - (e(1, 2) * e(2, 2)).scale(c)),
        ("m22*m11", e(2, 2) * e(1, 1) - e(1, 1) * e(2, 2)),
        ("m21*m11", e(2, 1) * e(1, 1) - e(1, 1) * e(2, 1) + (e(2, 2) * e(2, 1)).scale(c)),
        ("m22*m12", e(2, 2) * e(1, 2) - (e(1, 2) * e(2, 2)).scale(_q(2))),
        ("m21*m12", e(2, 1) * e(1, 2) - e(1, 2) * e(2, 1)
         - (e(1, 1) * e(2, 2) - e(2, 2) * e(2, 2)).scale(c)),
        ("m22*m21", e(2, 2) * e(2, 1) - (e(2, 1) * e(2, 2)).scale(_q(-2))),
    ]
    return items


def moment_det() -> LocElem:
    """detq of mu(L); equals q^8 identically."""
    m = moment_matrix()
    return m[0][0] * m[1][1] - (m[0][1] * m[1][0]).scale(_q(2))


# ---------------------------------------------------------------------------
# the adjoint action on D_q
# ---------------------------------------------------------------------------

@cache
def dq_action() -> AdjointAction:
    D = dq_spec()
    a_names = {(1, 1): "a11", (1, 2): "a12", (2, 1): "a21", (2, 2): "a22"}
    p_names = {(1, 1): "p11", (1, 2): "p12", (2, 1): "p21", (2, 2): "p22"}
    w1, e1, f1 = _oq_like_action_tables(D, a_names)
    w2, e2, f2 = _oq_like_action_tables(D, p_names)
    return AdjointAction(D, {**w1, **w2}, {**e1, **e2}, {**f1, **f2})


def dq_elem_invariant(x: LocElem) -> bool:
    """Invariance of a localised element; the determinant denominators are
    themselves invariant, so the body decides."""
    return dq_action().is_invariant(x.body)
