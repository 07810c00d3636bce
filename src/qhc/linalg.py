"""Exact linear algebra over any field whose elements support + - * / and
truth testing: Fraction for systems specialised at rational points, RatCoeff
for symbolic ones.

One sparse echelon kernel does all elimination.  Rows are {column: value};
each row is reduced against the pivots found so far, always at its minimum
column, and what is left becomes a new pivot row divided by its leading
entry.  Ranks and solves are entry points on it; the dense ones take rows
as lists with explicit zeros.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

_FRAC_ZERO = Fraction(0)


def _echelon(rows, zero) -> dict[int, dict]:
    """Pivot rows of the row space, keyed by their leading column, each with
    leading entry one.  The pivot columns are the leading columns of the row
    space, whatever the row order."""
    pivots: dict[int, dict] = {}
    for row in rows:
        cur = dict(row)
        while cur:
            c = min(cur)
            f = cur[c]
            piv = pivots.get(c)
            if piv is None:
                pivots[c] = {cc: vv / f for cc, vv in cur.items()}
                break
            for cc, vv in piv.items():
                s = cur.get(cc, zero) - f * vv
                if s:
                    cur[cc] = s
                else:
                    cur.pop(cc, None)
    return pivots


def _solve(rows, rhs, ncols: int, zero):
    aug = []
    for row, b in zip(rows, rhs):
        if b:
            row = dict(row)
            row[ncols] = b
        aug.append(row)
    pivots = _echelon(aug, zero)
    if ncols in pivots:
        return "none", None
    # back substitution; every column right of a pivot is solved before it
    sol = [zero] * ncols
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        v = row.get(ncols, zero)
        for cc, vv in row.items():
            if cc != c and cc != ncols:
                v -= vv * sol[cc]
        sol[c] = v
    status = "unique" if len(pivots) == ncols else "underdetermined"
    return status, sol


def _sparse(row) -> dict[int, object]:
    return {j: v for j, v in enumerate(row) if v}


def frac_rank(rows: Sequence[dict[int, Fraction]]) -> int:
    """Rank of a sparse matrix given as rows {column: value} over Q."""
    return len(_echelon(rows, _FRAC_ZERO))


def frac_solve(rows: Sequence[dict[int, Fraction]], rhs: Sequence[Fraction], ncols: int):
    """Solve a sparse rational system; returns (status, particular solution).

    status is 'none' for inconsistent systems, else 'unique' or
    'underdetermined' (free variables set to zero).
    """
    return _solve(rows, rhs, ncols, _FRAC_ZERO)


def solve_dense(rows, rhs, zero):
    """Solve dense rows (lists of field elements, zero being the field's
    zero) against rhs; returns (status, solution) like frac_solve."""
    ncols = len(rows[0]) if rows else 0
    return _solve([_sparse(r) for r in rows], rhs, ncols, zero)


def dense_rank(rows, zero) -> int:
    """Rank of dense rows over the field whose zero is given."""
    return len(_echelon([_sparse(r) for r in rows], zero))
