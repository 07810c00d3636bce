"""The graded identification between the Hamiltonian reduction and the
spherical subalgebra.

On generators it reads

    d1 -> P1      d2 -> q^2 P2      r -> R
    c1 -> Q1      c2 -> q^2 Q2

and both presentations turn out to coincide under it: every reduction
relation transports to a spherical relation with zero residual, and on each
graded piece the map sends the PBW basis bijectively to scalar multiples of
the PBW basis on the other side (the scalars are powers of q, so the matrix
of the map in those bases is diagonal and invertible).
"""

from __future__ import annotations

from functools import cache

from .coeffring import RAT
from .daha import sdaha_spec
from .invham import ham_spec
from .ncpoly import NcPoly
from .rewrite import EngineError, WordBudget


_DICT = {
    "d1": ("P1", 0),
    "d2": ("P2", 2),
    "d2i": ("P2i", -2),
    "r": ("R", 0),
    "c1": ("Q1", 0),
    "c2": ("Q2", 2),
    "c2i": ("Q2i", -2),
}


@cache
def _letter_map() -> dict[int, tuple[int, int]]:
    H, A = ham_spec(), sdaha_spec()
    out = {}
    for name, (img, e) in _DICT.items():
        out[H.alphabet.index(name)] = (A.alphabet.index(img), e)
    return out


def hc_apply(x: NcPoly) -> NcPoly:
    """Transport a reduction element into the spherical presentation: each
    letter i of a word goes to _letter_map()[i] = (j, e), the word's
    coefficient is scaled by q^(sum of e), and the sum is normalised."""
    H, A = ham_spec(), sdaha_spec()
    if x.alphabet is not H.alphabet:
        raise EngineError(f"expected an element of {H.algebra_id}")
    letter_map = _letter_map()
    out = A.zero()
    for word, c in x.terms.items():
        letters = tuple(letter_map[i][0] for i in word)
        e = sum(letter_map[i][1] for i in word)
        out = out + NcPoly.from_word(A.alphabet, letters, c * RAT.q_power(e))
    return A.nf(out)


def hc_relation_residuals() -> list[tuple[str, NcPoly]]:
    """hc(lhs - rhs) for every reduction relation; each must vanish.  hc_apply
    is linear and exact, so this one image is hc(lhs) - hc(rhs)."""
    return [(rule.tag, hc_apply(rule.residual)) for rule in ham_spec().rules]


def hc_basis_bijection(max_bidegree: tuple[int, int]) -> list[dict]:
    """Per bidegree up to max: the map sends PBW words to q-power multiples
    of PBW words, bijectively.  Returns one record per bidegree; the words
    of both sides share one WordBudget."""
    H, A = ham_spec(), sdaha_spec()
    out = []
    budget = WordBudget()
    for m in range(max_bidegree[0] + 1):
        for n in range(max_bidegree[1] + 1):
            ham_words = list(budget.words(H, m, n))
            sph_words = set(budget.words(A, m, n))
            seen = {}
            ok = len(ham_words) == len(sph_words)
            for w in ham_words:
                img = hc_apply(NcPoly.from_word(H.alphabet, w))
                if len(img.terms) != 1:
                    ok = False
                    break
                ((iw, c),) = img.terms.items()
                if iw not in sph_words or iw in seen:
                    ok = False
                    break
                seen[iw] = c
            out.append({
                "bidegree": (m, n),
                "count": len(ham_words),
                "bijective": ok and len(seen) == len(sph_words),
                "scalars": sorted({str(c) for c in seen.values()}),
            })
    return out


def hc_verify(max_bidegree: tuple[int, int] = (4, 4)) -> dict:
    """Relation transport plus the graded basis bijection check."""
    relations = [
        {"relation": tag, "residual_zero": not r} for tag, r in hc_relation_residuals()
    ]
    bijection = hc_basis_bijection(max_bidegree)
    return {
        "relations": relations,
        "bijection": bijection,
        "pass": all(r["residual_zero"] for r in relations)
        and all(b["bijective"] for b in bijection),
    }
