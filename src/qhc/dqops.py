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
The dq-relations suite certifies these kappas as dq_denominators() declares
them, the ones LocElem moves the determinants with.
By that grading a determinant may multiply a body on either side, with the
q-power fixed by the body's bidegree, and the element is the same.  LocElem
multiplies and divides by detq(D) on the right, where its p-letters only
sort among themselves, and by detq(A) on the left, where its a-letters do;
detq(D) on the left would move its p-letters past every a-letter of the body
through the sixteen cross relations.

Both matrix copies are the one quantum 2x2 matrix qgroup states: their
relations are qgroup._re_rules, their q-determinants qgroup.qdet and their
adjugates qgroup.qadjugate, in closed form.  The cofactor suite certifies
each adjugate exactly (M adj = adj M = detq(M) I), then compares it against
the conventional display entries, where the bottom right entries are known
to disagree (the display has q^2 a22 + (1 - q^2) a22 where the cofactor
identity forces q^2 a11 + (1 - q^2) a22).  The relations of the moment map's
entries, MOMENT_TABLE, are read off the same rules and qdet.
"""

from __future__ import annotations

from functools import cache

from .coeffring import RAT, RC_ONE, RC_T, RatCoeff
from .ncpoly import Alphabet, NcPoly
from .qgroup import (
    AdjointAction,
    _oq_like_action_tables,
    _re_rules,
    _scalar_mat_for,
    letter_matrix,
    mat_mul,
    mat_sub,
    on_legs,
    qadjugate,
    qdet,
    qtrace,
    reflection_equation_entries,
    rmatrix_21_inverse,
    rmatrix_vector,
)
from .rewrite import (AlgebraSpec, Denominator, LocElem, PowerBlocksPbw, RewriteRule,
                      q_central_residual)


_A_NAMES = ("a11", "a12", "a21", "a22")
_P_NAMES = ("p11", "p12", "p21", "p22")

_DQ_GENS = [(n, (1, 0), None) for n in _A_NAMES] + [(n, (0, 1), None) for n in _P_NAMES]


@cache
def dq_spec() -> AlgebraSpec:
    """The 28-relation presentation of D_q^+(GL2)."""
    alph = Alphabet("dq", _DQ_GENS)
    # order_key's letter weights: under them each nf(x_i * x_j) leads with
    # e_i + e_j, so divide is complete, as under unit weights it is not
    weights = dict(zip(_A_NAMES + _P_NAMES, (8, 3, 7, 1, 5, 5, 2, 1)))
    pbw = PowerBlocksPbw(alph, [(g.name, None, None) for g in alph.gens], weights=weights)

    one = RC_ONE
    qm2, qm4, q2 = RAT.q_power(-2), RAT.q_power(-4), RAT.q_power(2)
    qq2 = (RAT.q_power(1) - RAT.q_power(-1)) ** 2      # (q - 1/q)^2
    rules = _re_rules(alph, *_A_NAMES) + _re_rules(alph, *_P_NAMES)
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
    for lhs1, lhs2, pc, pw, sorted_terms in cross:
        rhs = NcPoly.zero(alph)
        if pw is not None:
            rhs = rhs + alph.poly(*pw).scale(pc)
        for c, wnames in sorted_terms:
            rhs = rhs + alph.poly(*wnames).scale(c)
        rules.append(RewriteRule(alph.word(lhs1, lhs2), rhs, f"{lhs1}*{lhs2}"))

    return AlgebraSpec(alph, rules, pbw)


# ---------------------------------------------------------------------------
# q-determinants and localisation
# ---------------------------------------------------------------------------

@cache
def det_a_body() -> NcPoly:
    return qdet(dq_spec().alphabet, _A_NAMES)


@cache
def det_d_body() -> NcPoly:
    return qdet(dq_spec().alphabet, _P_NAMES)


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

def qmat_a() -> list[list[LocElem]]:
    return [[dq_elem(x) for x in row] for row in letter_matrix(dq_spec(), _A_NAMES)]


def qmat_d() -> list[list[LocElem]]:
    return [[dq_elem(x) for x in row] for row in letter_matrix(dq_spec(), _P_NAMES)]


def trq_xt() -> RatCoeff:
    """tr_q of the defining diagonal matrix diag(1/t^2, t^2)."""
    t2 = RC_T * RC_T
    return t2.inverse() + RAT.q_power(-2) * t2


# ---------------------------------------------------------------------------
# cofactors in closed form, certified by the cofactor suite
# ---------------------------------------------------------------------------

def _names(which: str):
    return _A_NAMES if which == "A" else _P_NAMES


@cache
def cofactor(which: str) -> tuple[tuple[NcPoly, ...], ...]:
    """adj(M) for M = A or D, the closed form qgroup.qadjugate.

    The certificate is the cofactor suite's M*adj and adj*M items
    (cofactor_identity_residuals), checked exactly: M adj = adj M =
    detq(M) I.  They also make adj the only such matrix: detq(M) is
    invertible in the localisation, so M is, and M X = detq(M) I forces
    X = M^-1 detq(M)."""
    return qadjugate(letter_matrix(dq_spec(), _names(which)))


def claimed_cofactor_display(which: str) -> tuple[tuple[NcPoly, ...], ...]:
    """Conventional display of the adjugates; the (2,2) entries are a known
    erratum (they repeat the 22 letter where the solved value needs the 11)."""
    D = dq_spec()
    n11, n12, n21, n22 = _names(which)
    q2 = RAT.q_power(2)
    return (
        (D.gen(n22), D.gen(n12).scale(-q2)),
        (D.gen(n21).scale(-q2), D.gen(n22).scale(q2) + D.gen(n22).scale(RC_ONE - q2)),
    )


def cofactor_display_mismatches(which: str):
    """Entries where the certified adjugate differs from the claimed display."""
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
    M = letter_matrix(D, _names(which))
    adj = cofactor(which)
    det = qdet(D.alphabet, _names(which))
    out = []
    for tag, prod in (("M*adj", mat_mul(M, adj)), ("adj*M", mat_mul(adj, M))):
        for i in range(2):
            for j in range(2):
                want = det if i == j else D.zero()
                out.append((f"{which}:{tag}[{i + 1}{j + 1}]", D.nf(prod[i][j] - want)))
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
    """den*g - q^<kappa, deg g> g*den for each of dq_denominators(), by the
    kappa LocElem moves it with, and each generator g; all must be zero."""
    D, dens = dq_spec(), list(zip(("detA", "detD"), dq_denominators()))
    return [(f"{tag}*{n}" if n in _A_NAMES else f"{n}*{tag}",
             q_central_residual(D, den.body, den.kappa, D.gen(n)))
            for n in _A_NAMES + _P_NAMES for tag, den in dens]


def matrix_relation_entries() -> dict[str, list[NcPoly]]:
    """Free entry residuals of the three defining matrix equations."""
    D = dq_spec()
    z = D.zero()
    R = _scalar_mat_for(rmatrix_vector(), D)
    R21, R21i = on_legs(R, (1, 0), 2, z), _scalar_mat_for(rmatrix_21_inverse(), D)
    D1 = on_legs(letter_matrix(D, _P_NAMES), (0,), 2, z)
    A2 = on_legs(letter_matrix(D, _A_NAMES), (1,), 2, z)
    lhs = mat_mul(mat_mul(mat_mul(R21, D1), R), A2)
    rhs = mat_mul(mat_mul(mat_mul(A2, R21), D1), R21i)
    return {
        "coordinates": reflection_equation_entries(D, _A_NAMES),
        "derivatives": reflection_equation_entries(D, _P_NAMES),
        "cross": [x for row in mat_sub(lhs, rhs) for x in row],
    }


# ---------------------------------------------------------------------------
# the quantum moment map
# ---------------------------------------------------------------------------

@cache
def moment_matrix() -> tuple[tuple[LocElem, ...], ...]:
    """mu(L) = D A^{-1} D^{-1} A as a matrix over the localisation."""
    prod = mat_mul(mat_mul(mat_mul(qmat_d(), inverse_matrix("A")), inverse_matrix("D")), qmat_a())
    return tuple(tuple(row) for row in prod)


@cache
def moment_zt() -> LocElem:
    """mu(Z_t) = tr_q(mu(L)) - q^4 (1/t^2 + q^-2 t^2)."""
    return qtrace(moment_matrix()) - dq_elem(dq_spec().scalar(RAT.q_power(4) * trq_xt()))


def _moment_table() -> dict[str, list[tuple[RatCoeff, int, int]]]:
    """The six coordinate-algebra relations on the entries m_ij of mu(L),
    lhs - rhs of qgroup._re_rules, and detq(mu(L)), qgroup.qdet: each row a
    sum of terms c * m_ij * m_kl, written (c, ij, kl)."""
    names = ("m11", "m12", "m21", "m22")
    alph = Alphabet("mu", [(n, (1, 0), None) for n in names])
    rows = [(r.tag, r.residual) for r in _re_rules(alph, *names)]
    rows.append(("detq", qdet(alph, names)))
    return {tag: [(c, int(names[i][1:]), int(names[j][1:])) for (i, j), c in p.terms.items()]
            for tag, p in rows}


MOMENT_TABLE = _moment_table()


def moment_sums(table) -> dict[str, LocElem]:
    """{tag: sum of c * m_ij * m_kl over the row's (c, ij, kl) terms} for a
    table of rows like MOMENT_TABLE's.

    Each distinct product is made once.  The products that share a right
    factor m_kl come in turn from one LocElem.products call, so they share
    its suffix images; each is added into every sum that uses it and is
    not kept."""
    m = moment_matrix()

    def entry(ij):
        i, j = divmod(ij, 10)
        return m[i - 1][j - 1]

    uses: dict[int, dict[int, list]] = {}  # kl -> ij -> [(tag, c)]
    for tag, row in table.items():
        for c, ij, kl in row:
            uses.setdefault(kl, {}).setdefault(ij, []).append((tag, c))
    sums: dict[str, LocElem] = {}
    for kl, lefts in uses.items():
        for terms, prod in zip(lefts.values(), LocElem.products([entry(ij) for ij in lefts], entry(kl))):
            for tag, c in terms:
                term = prod.scale(c)
                sums[tag] = sums[tag] + term if tag in sums else term
    return {tag: sums[tag] for tag in table}


# ---------------------------------------------------------------------------
# the adjoint action on D_q
# ---------------------------------------------------------------------------

@cache
def dq_action() -> AdjointAction:
    D = dq_spec()
    w1, e1, f1 = _oq_like_action_tables(D, _A_NAMES)
    w2, e2, f2 = _oq_like_action_tables(D, _P_NAMES)
    return AdjointAction(D, {**w1, **w2}, {**e1, **e2}, {**f1, **f2})


def dq_elem_invariant(x: LocElem) -> bool:
    """Invariance of a localised element; the determinant denominators are
    themselves invariant, so the body decides."""
    return dq_action().is_invariant(x.body)
