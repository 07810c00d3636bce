"""Workload definitions: which suites each workload runs, and the seeded
command-line request mix of the ``cli`` workload.

Only ``cli`` derives its inputs from the seed.  Its mix is the README
examples (all but ``verify --suite moment``, which is the ``moment``
workload) followed by seeded ``normalize``, ``mul``, ``rank`` and
``hilbert`` requests over all seven algebras.  Every template is sized so a
request costs well under a second cold, most of it process set-up, and
every seed draws the same number of requests of each kind, so seeds differ
in which generators and coefficients appear, not in how much work a pass
holds.
"""

from __future__ import annotations

import random

DEFAULT_SEED = 0

SUITE_WORKLOADS = {
    "moment": ("moment",),
    "ranks": ("hilbert-all", "psibar"),
    "ideal": ("ham",),
}
WORKLOADS = tuple(SUITE_WORKLOADS) + ("cli",)

README_EXAMPLES = (
    ("normalize", "--algebra", "daha", "Ti*Y1*Ti"),
    ("normalize", "--algebra", "sdaha", "(q^-2 - 1)*R + Q1*P1"),
    ("mul", "--algebra", "dq", "detAi", "p11"),
    ("diamonds", "--algebra", "sdaha"),
    ("hilbert", "--algebra", "inv", "--max", "4", "4"),
    ("rank", "--algebra", "sdaha", "Q1*P1", "R", "Q1*P1 + R"),
    ("act", "--gen", "E", "--algebra", "oq", "l11 + q^-2*l22"),
    ("hc-check",),
)

GENERATORS = {
    "daha": ("T", "Ti", "Y1", "Y1i", "Y2", "Y2i", "X1", "X1i", "X2", "X2i"),
    "sdaha": ("Q1", "Q2", "Q2i", "R", "P1", "P2", "P2i"),
    "uq": ("E", "F", "K1", "K1i", "K2", "K2i"),
    "oq": ("l11", "l12", "l21", "l22"),
    "dq": ("a11", "a12", "a21", "a22", "p11", "p12", "p21", "p22"),
    "inv": ("c1", "c2", "c2i", "r", "d1", "d2", "d2i", "w"),
    "ham": ("c1", "c2", "c2i", "r", "d1", "d2", "d2i"),
}
# localised symbols only the symbolic oq / dq contexts understand
LOCALISED = {"oq": ("detLi",), "dq": ("detA", "detAi", "detD", "detDi")}
# algebras whose requests go through plain word-algebra normal forms
WORD_ALGEBRAS = ("daha", "sdaha", "uq", "inv", "ham")
# hilbert needs a nonnegative cone with bounded degree-zero blocks
HILBERT_MAX = {"daha": (2, 2), "sdaha": (6, 6), "oq": (4, 0), "dq": (2, 2), "inv": (4, 4), "ham": (6, 6)}

# Laurent coefficients and the non-Laurent denominators (1+t^2), (q^2-1)
SCALARS = ("q", "q^-2", "t", "2*t^-1", "(1+t^2)", "(q-t)", "3")
DIVISORS = ("(1+t^2)", "(q^2-1)", "(q+t)")


def _sum(rng: random.Random, gens, k: int) -> str:
    picked = rng.sample(gens, k)
    parts = [picked[0]] + [f"{rng.choice(SCALARS)}*{g}" for g in picked[1:]]
    return "(" + " + ".join(parts) + ")"


def _monomial(rng: random.Random, gens, k: int) -> str:
    return "*".join(rng.choice(gens) for _ in range(k))


def normalize_request(rng: random.Random, alg: str) -> tuple:
    gens = GENERATORS[alg]
    expr = f"{_sum(rng, gens, 3)}^3"
    if alg in LOCALISED:
        expr = f"{rng.choice(LOCALISED[alg])}*{expr}"
    else:
        expr = f"{expr}/{rng.choice(DIVISORS)}"
    return ("normalize", "--algebra", alg, expr)


def mul_request(rng: random.Random, alg: str) -> tuple:
    gens = GENERATORS[alg]
    factors = [_sum(rng, gens, 2), f"{rng.choice(SCALARS)}*{_monomial(rng, gens, 2)}", _sum(rng, gens, 2)]
    if alg in LOCALISED:
        factors.insert(1, rng.choice(LOCALISED[alg]))
    return ("mul", "--algebra", alg, *factors)


def rank_request(rng: random.Random, alg: str) -> tuple:
    """Orderings of one multiset of letters share a bidegree, so the family
    is homogeneous; a combination of two of them makes the rank nontrivial."""
    letters = [rng.choice(GENERATORS[alg]) for _ in range(3)]
    words = []
    for _ in range(3):
        rng.shuffle(letters)
        words.append("*".join(letters))
    combo = f"{words[0]} + {rng.choice(SCALARS)}*{words[1]}"
    return ("rank", "--algebra", alg, *words, combo)


def hilbert_request(rng: random.Random, alg: str) -> tuple:
    M, N = HILBERT_MAX[alg]
    return ("hilbert", "--algebra", alg, "--max", str(rng.randint(M // 2, M)), str(rng.randint(N // 2, N)))


def cli_requests(seed: int) -> list[tuple]:
    """README examples, then one seeded request of each kind per algebra."""
    rng = random.Random(seed)
    seeded = []
    for alg in GENERATORS:
        seeded.append(normalize_request(rng, alg))
        seeded.append(mul_request(rng, alg))
        if alg in WORD_ALGEBRAS:
            seeded.append(rank_request(rng, alg))
        if alg in HILBERT_MAX:
            seeded.append(hilbert_request(rng, alg))
    return list(README_EXAMPLES) + seeded
