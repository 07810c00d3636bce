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

from functools import cache

from .coeffring import RAT, RC_ONE
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
    qtrace,
    trq_xt,
)
from .ncpoly import Alphabet, NcPoly, Word
from .qgroup import mat_mul
from .rewrite import (
    AlgebraSpec,
    EngineError,
    LocElem,
    PowerBlocksPbw,
    QCentralGen,
    RewriteRule,
    _add_scaled,
    carry,
    divide,
    tail_map,
)


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

# the PBW blocks and q-central letters shared by inv and ham; inv appends w
_INV_BLOCKS = [
    ("c1", None, None),
    ("c2", "c2i", None),
    ("r", None, 1),
    ("d1", None, None),
    ("d2", "d2i", None),
]
_INV_QCENTRAL = (QCentralGen("c2", (0, 2)), QCentralGen("d2", (-2, 0)))


def _inv_rules_common(alph):
    """The straightening rules shared by the invariant algebra and its
    Hamiltonian reduction (all except the r^2 relation and the w block)."""
    one = RC_ONE
    qm2 = RAT.q_power(-2)
    rules = [
        RewriteRule(alph.word("c2", "c1"), alph.poly("c1", "c2"), "c2*c1"),
        RewriteRule(alph.word("d2", "d1"), alph.poly("d1", "d2"), "d2*d1"),
        RewriteRule(alph.word("d2", "c2"), alph.poly("c2", "d2").scale(RAT.q_power(-4)), "d2*c2"),
        RewriteRule(alph.word("d2", "c1"), alph.poly("c1", "d2").scale(qm2), "d2*c1"),
        RewriteRule(alph.word("d1", "c2"), alph.poly("c2", "d1").scale(qm2), "d1*c2"),
        RewriteRule(alph.word("d1", "c1"), alph.poly("c1", "d1") + alph.poly("r").scale(qm2 - one), "d1*c1"),
        RewriteRule(alph.word("d2", "r"), alph.poly("r", "d2").scale(qm2), "d2*r"),
        RewriteRule(alph.word("r", "c2"), alph.poly("c2", "r").scale(qm2), "r*c2"),
        RewriteRule(
            alph.word("d1", "r"),
            alph.poly("r", "d1").scale(qm2) + alph.poly("c1", "d2").scale((one - qm2) * qm2),
            "d1*r",
        ),
        RewriteRule(
            alph.word("r", "c1"),
            alph.poly("c1", "r").scale(qm2) + alph.poly("c2", "d1").scale((one - qm2) * qm2),
            "r*c1",
        ),
    ]
    return rules


@cache
def inv_spec() -> AlgebraSpec:
    """The sixteen-relation presentation of the invariant subalgebra."""
    alph = Alphabet("inv", _INV_GENS)
    pbw = PowerBlocksPbw(alph, _INV_BLOCKS + [("w", None, None)])

    qm2, qm4 = RAT.q_power(-2), RAT.q_power(-4)
    rules = _inv_rules_common(alph)
    rules.append(RewriteRule(
        alph.word("r", "r"),
        alph.poly("w").scale(qm4)
        + alph.poly("c2", "d2").scale(qm4 + RAT.q_power(-6))
        - alph.poly("c2", "d1", "d1").scale(qm4)
        - alph.poly("c1", "c1", "d2").scale(qm4)
        + alph.poly("c1", "r", "d1").scale(qm2),
        "r*r",
    ))
    rules += [
        RewriteRule(alph.word("w", "r"), alph.poly("r", "w"), "w*r"),
        RewriteRule(alph.word("w", "c1"), alph.poly("c1", "w").scale(qm2), "w*c1"),
        RewriteRule(alph.word("w", "c2"), alph.poly("c2", "w").scale(qm4), "w*c2"),
        RewriteRule(alph.word("w", "d1"), alph.poly("d1", "w").scale(RAT.q_power(2)), "w*d1"),
        RewriteRule(alph.word("w", "d2"), alph.poly("d2", "w").scale(RAT.q_power(4)), "w*d2"),
    ]
    return AlgebraSpec(alph, rules, pbw, q_central=_INV_QCENTRAL)


def quotient_w_image() -> NcPoly:
    """The class of w in the reduction: (1/t^2 + q^-2 t^2) c2 d2."""
    B = inv_spec()
    return B.word_poly("c2", "d2").scale(trq_xt())


@cache
def ham_spec() -> AlgebraSpec:
    """The Hamiltonian reduction: inv's rules but w's, with w replaced in
    the r^2 rule by its class, quotient_w_image(), and each word moved to
    ham's alphabet by its letters' names."""
    gens = [g for g in _INV_GENS if g[0] != "w"]
    alph = Alphabet("ham", gens)
    pbw = PowerBlocksPbw(alph, _INV_BLOCKS)

    B = inv_spec()
    (r2,) = [r for r in B.rules if r.tag == "r*r"]
    rhs = r2.rhs + (quotient_w_image() - B.gen("w")).scale(r2.rhs.terms[B.alphabet.word("w")])
    inv_gens = B.alphabet.gens
    rules = _inv_rules_common(alph)
    rules.append(RewriteRule(alph.word("r", "r"), NcPoly(alph, {
        alph.word(*(inv_gens[i].name for i in u)): c for u, c in rhs.terms.items()}), "r*r"))
    return AlgebraSpec(alph, rules, pbw, q_central=_INV_QCENTRAL)


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
    w_mat = mat_mul(mat_mul(mat_mul(Dm, adj_a_m), adj_d_m), Am)
    return {
        "c1": qtrace(Am),
        "c2": dq_elem(det_a_body()),
        "c2i": dq_elem(D.unit(), 1, 0),
        "d1": qtrace(Dm),
        "d2": dq_elem(det_d_body()),
        "d2i": dq_elem(D.unit(), 0, 1),
        "r": qtrace(mat_mul(Dm, Am)).scale(RAT.q_power(2)),
        "w": qtrace(w_mat),
    }


def psibar_words(alphabet: Alphabet, words) -> list[LocElem]:
    """[psibar(w) for w in words], the words over inv's or ham's alphabet.

    psibar is an algebra map, so psibar(x u) = psibar(x) * psibar(u): each
    word's image is its first letter's image times its tail's, a LocElem
    product (one rewrite.tail_map over all the words, so words that end
    alike share their tails' images).  Normal forms are unique, so this
    right-to-left order gives the images the left-to-right fold gave."""
    img = psibar_images()
    gens = alphabet.gens
    image = tail_map(lambda x, u, tail: img[gens[x].name] * tail, dq_elem(dq_spec().unit()))
    return [image(w) for w in words]


def psibar_apply(x: NcPoly) -> LocElem:
    """Image inside D_q (localised) of an element of the invariant algebra,
    or of the reduction, whose letters are a subset of the invariant ones;
    for the reduction the image is a coset representative modulo the left
    ideal of mu(Z_t).  It is the sum of c * psibar_words' image of w over
    the terms c w of x."""
    if x.alphabet is not inv_spec().alphabet and x.alphabet is not ham_spec().alphabet:
        raise EngineError("psibar_apply expects an element of the invariant algebra or the reduction")
    out = None
    for im, c in zip(psibar_words(x.alphabet, list(x.terms)), x.terms.values()):
        out = im.scale(c) if out is None else out + im.scale(c)
    return out if out is not None else dq_elem(dq_spec().zero())


def psibar_relation_residuals() -> list[tuple[str, LocElem]]:
    """psibar(lhs - rhs) for the sixteen relations of inv: psibar_apply is
    linear and exact, so this one image is psibar(lhs) - psibar(rhs)."""
    return [(rule.tag, psibar_apply(rule.residual)) for rule in inv_spec().rules]


def psibar_ranks(bidegrees) -> dict[tuple[int, int], int]:
    """{(M, N): rank of the psibar images of the positive-cone basis} for the
    requested bidegrees, in the order they first appear, each taken at
    rewrite.POINTS, which must agree (Residues.rank): a lower bound on the
    generic rank.

    Each image is its first letter's image acting on its tail's, as
    psibar_words builds it from LocElem products, but by _acts in dq's
    residue spec (AlgebraSpec.at_points; see rewrite.POINTS).  Every
    positive-cone letter's image has no denominator, so the product of two
    such images is the normal form of the product of their bodies.  One
    tail_map makes the images of every requested bidegree's PBW words, so
    words that end alike share their tails' products across the
    bidegrees."""
    B, D = inv_spec(), dq_spec().at_points()
    bodies = {B.alphabet.index(name): carry(im.body, D.field)
              for name, im in psibar_images().items() if not any(im.exps)}

    def step(x, u, tail):
        if x not in bodies:
            raise EngineError("positive-cone image unexpectedly localised")
        return D._acts(tail)(bodies[x])

    image = tail_map(step, D.unit())
    return {(M, N): D.field.rank([image(w).terms for w in B.pbw.enumerate(M, N)],
                                 f"{D.algebra_id}: psibar rank at ({M}, {N})")
            for M, N in dict.fromkeys(bidegrees)}


def psibar_rank(M: int, N: int) -> int:
    """The rank of psibar on B^+[M,N], as psibar_ranks computes it."""
    return psibar_ranks([(M, N)])[M, N]


# ---------------------------------------------------------------------------
# invariant dimensions by linear algebra mod primes at rational points
# ---------------------------------------------------------------------------

def weight_zero_words(M: int, N: int) -> list[Word]:
    """The normal words of dq of bidegree (M, N) and K-weight (0, 0).

    dq's PBW blocks are single letters, every a (bidegree (1, 0)) before
    every p (0, 1), so each normal word of (M, N) is a normal (M, 0)-word
    followed by a normal (0, N)-word, and the K-weight adds: each A-word is
    paired with the P-words of the opposite weight."""
    pbw, act = dq_spec().pbw, dq_action()
    p_words: dict[tuple[int, int], list[Word]] = {}
    for v in pbw.enumerate(0, N):
        p_words.setdefault(act._word_weight(v), []).append(v)
    return [u + v for u in pbw.enumerate(M, 0)
            for v in p_words.get(tuple(-x for x in act._word_weight(u)), ())]


def _weight_zero_e_images(act, bidegrees):
    """((M, N), the E images of weight_zero_words(M, N)) for each requested
    bidegree once, in the order they first appear, for dq's action act over
    any field; each bidegree's images are made when it is reached.

    Each image comes from its word's factors w = u v, u an A-word of (M, 0)
    and v a P-word of (0, N), by the coproduct step AdjointAction.images
    applies letter by letter:

        E > (u v) = q^(w1(v) - w2(v)) (E > u) v + u (E > v).

    E > u holds only A-words and E > v only P-words, and an A-word followed
    by a P-word is normal, so the image is two concatenations of the images
    from one images call over the A-words and one over the P-words.  The
    facts this rests on are checked once, and EngineError names the first
    that fails: every letter is an A-letter, of bidegree (1, 0), or a
    P-letter, of (0, 1), and every A-block precedes every P-block; the E
    image of each A-letter holds only A-letters, of each P-letter only
    P-letters (the rules keep bidegree, so the normal forms of A-words are
    A-words)."""
    spec = act.spec
    alph, field, block_of = spec.alphabet, spec.field, spec.pbw.block_of
    a_letters = {g.index for g in alph.gens if g.bidegree == (1, 0)}
    p_letters = {g.index for g in alph.gens if g.bidegree == (0, 1)}
    if (len(a_letters) + len(p_letters) != len(alph)
            or max(block_of[x] for x in a_letters) > min(block_of[x] for x in p_letters)):
        raise EngineError(f"{spec.algebra_id}: the E split needs A- and P-letters only, "
                          f"every A-block before every P-block")
    for letters in (a_letters, p_letters):
        if any(not letters.issuperset(iw) for x in letters for iw in act.e_images[x].terms):
            raise EngineError(f"{spec.algebra_id}: the E split needs E images of A-letters in A-letters "
                              f"and of P-letters in P-letters")
    words = {(M, N): weight_zero_words(M, N) for M, N in dict.fromkeys(bidegrees)}
    a_words = list(dict.fromkeys(w[:M] for (M, _), ws in words.items() for w in ws))
    p_words = list(dict.fromkeys(w[M:] for (M, _), ws in words.items() for w in ws))
    e_a = dict(zip(a_words, act.images("E", a_words)))
    e_p = dict(zip(p_words, act.images("E", p_words)))
    for (M, N), ws in words.items():
        rows = []
        for w in ws:
            u, v = w[:M], w[M:]
            a, b = act._word_weight(v)
            s = field.q_power(a - b)
            terms = {x + v: c * s for x, c in e_a[u].terms.items()}
            _add_scaled(terms, [(u + y, c) for y, c in e_p[v].terms.items()], field.one)
            rows.append(NcPoly(alph, terms, field))
        yield (M, N), rows


def invariant_dimensions(bidegrees) -> dict[tuple[int, int], int]:
    """{(M, N): an upper bound on dim of the U-invariants of D_q^+[M,N]} for
    the requested bidegrees, in the order they first appear: the kernel of
    E on the K-weight-zero words at rewrite.POINTS (Residues.ranks), which
    must agree (the action carries no t, so only their q values matter).
    For each point, with p its prime,

        dim ker(E|V00) mod p >= generic dim ker(E|V00) >= dim invariants,

    the first by the rank bound at rewrite.POINTS, the second since every
    invariant lies in ker E inside V00.  For q not a root of unity the
    finite-dimensional U_q(sl2)-modules are semisimple, so a weight-zero
    vector that E kills is invariant and the second is an equality.
    psibar_ranks is a lower bound on the same dimension, so where the two
    meet it is certified.  Wherever E maps the weight-zero words onto the
    weight-(1,-1) words the kernel is the difference of their counts, so a
    faulty action that keeps E onto goes unseen here; the moment suite's
    invariance check on mu(Z_t), which applies E and F, tests the action.

    The words are weight_zero_words(M, N): each normal (M, 0)-word, an
    A-word, followed by each normal (0, N)-word, a P-word, of the opposite
    weight, without enumerating and filtering the rest of dq's (M, N)
    words.  The rows are their E images by dq's action carried to dq's
    residue spec (AdjointAction.over, AlgebraSpec.at_points; see
    rewrite.POINTS), the residues of the exact images, so the bound chain
    above is unchanged.  Each row is two concatenations of the E images of
    its word's A- and P-factors, by the coproduct step
    E > (u v) = q^(w1(v) - w2(v)) (E > u) v + u (E > v), each factor's image
    made once across the requested bidegrees and no A-word times P-word
    rewritten (_weight_zero_e_images, which checks the facts this rests on
    once per call; tests/test_pbw.py's dq enumeration order shows dq's
    A-before-P block order)."""
    act = dq_action().over(dq_spec().at_points())
    res = act.spec.field
    out = {}
    for (M, N), rows in _weight_zero_e_images(act, bidegrees):
        ranks = res.ranks([row.terms for row in rows])
        out[M, N] = res.agreed(f"{act.spec.algebra_id}: invariant dimension at ({M}, {N})",
                               [len(rows) - r for r in ranks], ranks)
    return out


def invariant_dimension(M: int, N: int) -> int:
    """The kernel of E on dq's weight-zero words of (M, N), as
    invariant_dimensions computes it."""
    return invariant_dimensions([(M, N)])[M, N]


# ---------------------------------------------------------------------------
# the reduction map and congruence modulo the moment ideal
# ---------------------------------------------------------------------------

def find_ideal_multiplier(x: LocElem):
    """Find s with x = s * mu(Z_t); returns the multiplier or None.

    mu(Z_t) = den^-f * beta with f = z.exps and beta its body, and den^-f is
    a unit, so x lies in the left ideal exactly when x = Q * beta for some Q
    in the localisation; then s = Q * den^f.  x is written over den^-L for
    L = max(x.exps, (k, k)), k = 0, 1, 2, and its body at L is divided on
    the right by beta.  The first level is x's own, so no determinant
    product is made where none is needed.  Right division by beta is
    complete (dq is of solvable type, see rewrite.divide), so None at L
    means no Q over den^-L exists, and a Q over den^-L is one over every
    L' >= L.  A multiplier s over den^-sigma gives Q = s * den^-f over
    den^-(sigma + f), so the three levels find every s with sigma <= (1, 1).

    The ideal status rests on the exact identity x == Q * beta, checked
    here with Q = den^-L * quotient; it does not trust the division.
    """
    if not x:
        return dq_elem(dq_spec().zero())
    z = moment_zt()
    for level in dict.fromkeys(tuple(max(e, k) for e in x.exps) for k in (0, 1, 2)):
        quo = divide(dq_spec(), z.body, x._at_loc(level), right=True)
        if quo is not None:
            Q = dq_elem(quo, *level)
            if x != Q * dq_elem(z.body):
                return None
            return Q * dq_elem(dq_elem(dq_spec().unit())._at_loc(z.exps))
    return None


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
    return [(rule.tag, psi_congruent_zero(rule.residual)[0]) for rule in ham_spec().rules]


def moment_zt_in_invariant_coordinates() -> LocElem:
    """psibar(c2^-1 d2^-1 (w - (1/t^2 + q^-2 t^2) c2 d2)) - mu(Z_t), which is
    zero when mu(Z_t) has these invariant coordinates."""
    B = inv_spec()
    return psibar_apply(B.word_poly("c2i", "d2i") * (B.gen("w") - quotient_w_image())) - moment_zt()
