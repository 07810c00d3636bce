"""Independent oracles for expected values used across the test suite.

These are deliberately kept naive: truncated power series expansion for
graded dimension tables, direct enumeration where a count is wanted, and
term-by-term Fraction evaluation of coefficient polynomials.  They never
touch the rewriting engine.
"""

from __future__ import annotations

from fractions import Fraction

Series = dict[tuple[int, int], int]


def series_trunc(s: Series, M: int, N: int) -> Series:
    return {(m, n): c for (m, n), c in s.items() if m <= M and n <= N and c}


def series_mul(a: Series, b: Series, M: int, N: int) -> Series:
    out: Series = {}
    for (m1, n1), c1 in a.items():
        for (m2, n2), c2 in b.items():
            m, n = m1 + m2, n1 + n2
            if m <= M and n <= N:
                out[(m, n)] = out.get((m, n), 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def geometric(mu: int, nu: int, M: int, N: int) -> Series:
    """1 / (1 - u^mu v^nu) truncated at (M, N)."""
    out: Series = {}
    k = 0
    while k * mu <= M and k * nu <= N:
        out[(k * mu, k * nu)] = 1
        k += 1
        if mu == 0 and nu == 0:
            raise ValueError("degenerate factor")
    return out


def expand(numerator: Series, denominators: list[tuple[int, int]], M: int, N: int) -> Series:
    acc = series_trunc(numerator, M, N)
    for mu, nu in denominators:
        acc = series_mul(acc, geometric(mu, nu, M, N), M, N)
    return acc


def spherical_positive_series(M: int, N: int) -> Series:
    """(1 + uv) / ((1-u)(1-u^2)(1-v)(1-v^2))."""
    return expand({(0, 0): 1, (1, 1): 1}, [(1, 0), (2, 0), (0, 1), (0, 2)], M, N)


def invariants_positive_series(M: int, N: int) -> Series:
    """1 / ((1-u)(1-v)(1-u^2)(1-v^2)(1-uv))."""
    return expand({(0, 0): 1}, [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1)], M, N)


def diffops_positive_dims(M: int, N: int) -> int:
    """Words a^(M multiset) * d^(N multiset) over four letters each."""
    from math import comb

    return comb(M + 3, 3) * comb(N + 3, 3)


def poly_eval(f: dict[tuple[int, int], int], q0: Fraction, t0: Fraction) -> Fraction:
    """A {(e_q, e_t): c} polynomial at (q0, t0), summed term by term in Fraction."""
    acc = Fraction(0)
    for (a, b), c in f.items():
        acc += c * q0**a * t0**b
    return acc
