"""Randomised structural checks of the rewriting layer.

These are the engine-level guarantees: strategy independence of normal
forms, associativity through reduction, homogeneity preservation, declared
q-centrality, and consistency with rational specialisation.  All randomness
is seeded so failures reproduce.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional, Sequence

from .ncpoly import NcPoly
from .rewrite import DEFAULT_POINTS, AlgebraSpec, q_central_residual


def random_word_poly(spec: AlgebraSpec, rng: random.Random, max_len: int = 4) -> NcPoly:
    letters = range(len(spec.alphabet))
    w = tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))
    return NcPoly.from_word(spec.alphabet, w, field=spec.field)


def check_strategy_independence(spec: AlgebraSpec, n: int = 200, seed: int = 0,
                                max_len: int = 5) -> Optional[str]:
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


def check_specialization_consistency(
    spec: AlgebraSpec,
    points: Sequence[tuple[Fraction, Fraction]] = DEFAULT_POINTS,
    n: int = 40,
    seed: int = 4,
    max_len: int = 4,
) -> Optional[str]:
    """Evaluating coefficients commutes with reduction: eval . nf = nf . eval."""
    rng = random.Random(seed)
    samples = [random_word_poly(spec, rng, max_len) for _ in range(n)]
    for q0, t0 in points:
        sp = spec.specialize(q0, t0)
        for p in samples:
            nf_then_eval = {
                w: c.eval(q0, t0) for w, c in spec.nf(p).terms.items()
            }
            nf_then_eval = {w: c for w, c in nf_then_eval.items() if c}
            pe = NcPoly(sp.alphabet, {w: c.eval(q0, t0) for w, c in p.terms.items()}, sp.field)
            eval_then_nf = sp.nf(pe).terms
            if nf_then_eval != dict(eval_then_nf):
                return f"specialisation at ({q0},{t0}) disagrees on {p}"
    return None


def run_all(spec: AlgebraSpec, n: int = 200) -> dict[str, Optional[str]]:
    return {
        "strategy_independence": check_strategy_independence(spec, n),
        "associativity": check_associativity(spec, n),
        "homogeneity": check_homogeneity(spec, max(n // 2, 20)),
        "q_centrality": check_q_centrality(spec, max(n // 4, 10)),
        "specialization": check_specialization_consistency(spec, n=max(n // 5, 10)),
    }
