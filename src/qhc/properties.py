"""Randomised structural checks of the rewriting layer.

These are the engine-level guarantees: strategy independence of normal
forms, associativity through reduction, homogeneity preservation, declared
q-centrality, and consistency with rational specialisation.  All randomness
is seeded so failures reproduce.
"""

from __future__ import annotations

import random
from typing import Optional

from .coeffring import QQField
from .ncpoly import NcPoly
from .rewrite import POINTS, AlgebraSpec, Residues, q_central_residual


def random_word_poly(spec: AlgebraSpec, rng: random.Random, max_len: int = 4) -> NcPoly:
    letters = range(len(spec.alphabet))
    w = tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))
    return NcPoly.from_word(spec.alphabet, w, field=spec.field)


def check_strategy_independence(spec: AlgebraSpec, n: int = 200, seed: int = 0,
                                max_len: int = 5) -> Optional[str]:
    """The normal forms of n random words from the cached engine (nf's
    default) against uncached rightmost reduction (reduce_by): two
    rewriting orders that share only the rules, which agree where normal
    forms are unique."""
    rng = random.Random(seed)
    for _ in range(n):
        p = random_word_poly(spec, rng, max_len)
        if spec.nf(p, "leftmost") != spec.nf(p, "rightmost"):
            return f"strategies disagree on {p}"
    return None


def check_associativity(spec: AlgebraSpec, n: int = 200, seed: int = 1,
                        max_len: int = 3) -> Optional[str]:
    rng = random.Random(seed)
    for _ in range(n):
        p = spec.nf(random_word_poly(spec, rng, max_len))
        r = spec.nf(random_word_poly(spec, rng, max_len))
        s = spec.nf(random_word_poly(spec, rng, max_len))
        if spec.nf(spec.nf(p * r) * s) != spec.nf(p * spec.nf(r * s)):
            return f"associativity fails on ({p}, {r}, {s})"
    return None


def check_homogeneity(spec: AlgebraSpec, n: int = 100, seed: int = 2,
                      max_len: int = 5) -> Optional[str]:
    rng = random.Random(seed)
    for _ in range(n):
        p = random_word_poly(spec, rng, max_len)
        d = p.bidegree()
        res = spec.nf(p)
        if res and d not in (None, "any") and res.bidegree() != d:
            return f"bidegree not preserved on {p}"
    return None


def check_q_centrality(spec: AlgebraSpec, n: int = 50, seed: int = 3,
                       max_len: int = 4) -> Optional[str]:
    rng = random.Random(seed)
    for qc in spec.q_central:
        for _ in range(n):
            h = spec.nf(random_word_poly(spec, rng, max_len))
            if not h:
                continue
            d = h.bidegree()
            if d in (None, "any"):
                continue
            if q_central_residual(spec, qc.name, h):
                return f"{qc.name} fails q-centrality on {h}"
    return None


def check_specialization_consistency(spec: AlgebraSpec, n: int = 40, seed: int = 4,
                                     max_len: int = 4) -> Optional[str]:
    """Evaluating coefficients commutes with reduction: eval . nf = nf . eval,
    over Q at each of POINTS and, through Residues, mod that point's
    prime."""
    rng = random.Random(seed)
    samples = [random_word_poly(spec, rng, max_len) for _ in range(n)]
    for q0, t0, prime in POINTS:
        sp, res = spec.over(QQField(q0, t0)), Residues([(q0, t0, prime)])
        for p in samples:
            nf_p = spec.nf(p).terms
            p_at = NcPoly(sp.alphabet, {w: c.eval(q0, t0) for w, c in p.terms.items()}, sp.field)
            eval_then_nf = dict(sp.nf(p_at).terms)
            if {w: v for w, c in nf_p.items() if (v := c.eval(q0, t0))} != eval_then_nf:
                return f"specialisation at ({q0},{t0}) disagrees on {p}"
            residues = {w: v.numerator * pow(v.denominator, -1, prime) % prime
                        for w, v in eval_then_nf.items()}
            if res.row(nf_p) != {w: r for w, r in residues.items() if r}:
                return f"specialisation mod {prime} at ({q0},{t0}) disagrees on {p}"
    return None
