"""Exact linear algebra helpers.

Two regimes are used by the algebra layer:

* big sparse systems over Q (rank and kernel dimensions after specialising
  q, t at rational points);
* small dense systems over the symbolic coefficient field (cofactor solving,
  span comparisons), where the entries implement field arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def frac_rank(rows: Sequence[dict[int, Fraction]]) -> int:
    """Rank of a sparse matrix given as rows {column: value} over Q."""
    pivots: dict[int, dict[int, Fraction]] = {}
    rank = 0
    for row in rows:
        cur = dict(row)
        while cur:
            c = min(cur)
            piv = pivots.get(c)
            if piv is None:
                f = cur[c]
                pivots[c] = {cc: vv / f for cc, vv in cur.items()}
                rank += 1
                break
            f = cur[c]
            for cc, vv in piv.items():
                s = cur.get(cc, 0) - f * vv
                if s:
                    cur[cc] = s
                else:
                    cur.pop(cc, None)
    return rank


def frac_solve(rows: Sequence[dict[int, Fraction]], rhs: Sequence[Fraction], ncols: int):
    """Solve a sparse rational system; returns (status, particular solution).

    status is 'none' for inconsistent systems, else 'unique' or
    'underdetermined' (free variables set to zero).
    """
    aug = []
    for row, b in zip(rows, rhs):
        r = dict(row)
        if b:
            r[ncols] = b
        aug.append(r)
    pivots: dict[int, dict[int, Fraction]] = {}
    for row in aug:
        cur = dict(row)
        while cur:
            c = min(cur)
            piv = pivots.get(c)
            if piv is None:
                f = cur[c]
                pivots[c] = {cc: vv / f for cc, vv in cur.items()}
                break
            f = cur[c]
            for cc, vv in piv.items():
                s = cur.get(cc, 0) - f * vv
                if s:
                    cur[cc] = s
                else:
                    cur.pop(cc, None)
    if ncols in pivots:
        return "none", None
    # back substitution
    sol = [Fraction(0)] * ncols
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        v = row.get(ncols, Fraction(0))
        for cc, vv in row.items():
            if cc != c and cc != ncols:
                v -= vv * sol[cc]
        sol[c] = v
    status = "unique" if len(pivots) == ncols else "underdetermined"
    return status, sol


def solve_dense(rows, rhs, zero, one):
    """Gaussian elimination over any exact field (entries support + - * /).

    rows: list of list of field elements, rhs: list of field elements.
    Returns (status, solution) like frac_solve.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) + [b] for r, b in zip(rows, rhs)]
    piv_cols = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = one / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][n]:
            return "none", None
    sol = [zero] * n
    for i, c in enumerate(piv_cols):
        sol[c] = a[i][n]
    status = "unique" if len(piv_cols) == n else "underdetermined"
    return status, sol


def dense_rank(rows, one) -> int:
    """Rank over an exact field for small dense matrices."""
    if not rows:
        return 0
    m, n = len(rows), len(rows[0])
    a = [list(r) for r in rows]
    rank = 0
    for c in range(n):
        piv = None
        for i in range(rank, m):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = one / a[rank][c]
        a[rank] = [x * inv for x in a[rank]]
        for i in range(m):
            if i != rank and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == m:
            break
    return rank
