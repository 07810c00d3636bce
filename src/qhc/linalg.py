"""Exact linear algebra: modulo m for specialised systems, over any field
for symbolic ones.

``frac_rank`` and ``frac_solve`` take sparse rows of ints, read mod m.  Mod
a prime m this is elimination over GF(m).  Mod a product m of distinct primes
it is the eliminations mod each of them done side by side, while every
leading entry is a unit mod m.  A leading entry that is not a unit is zero
mod some of the primes and not mod others; it stops the elimination, and
``frac_rank`` then returns None.

``dense_rank`` takes sparse rows {column: value}, the columns any orderable
keys, and ``solve_dense`` dense rows, over any field with + - * / and truth
testing (RatCoeff for symbolic systems), given its zero.  ``dense_rank``
serves the dq-relations suite; ``solve_dense`` has no caller in the package
and is the tests' symbolic solve.

Both kernels work alike.  Rows are {column: value}; each row is reduced
against the pivots found so far, always at its minimum column, and what is
left becomes a new pivot row divided by its leading entry.  Mod m the
reduction is delayed (as in Dumas, Giorgi & Pernet's FFLAS-FFPACK): a
row's entries are updated as plain ints, and an entry is taken mod m only
when it leads, which is the one place its residue decides anything, and
when it enters a pivot row.  Reduction mod m is a ring map, so the residues,
and the rank, are those of an elimination that reduced every step.

``frac_rank`` first chooses the order the kernel sees (Markowitz's rule of
least fill, simplified to static counts).  It drops empty rows, renumbers the
columns by ascending count of nonzeros, and feeds the rows in sparsest first.
Rank is invariant under permutations of rows and of columns, so the ordered
rank is the rank of the given rows.  It stops once it holds a pivot in every
column, since no further row can add one.  ``frac_solve`` and
``solve_dense`` keep the given order, since a solution is read off per
column.
"""

from __future__ import annotations

from typing import Hashable, Optional, Sequence


def _echelon(rows, zero) -> dict:
    """Pivot rows of the row space, keyed by their leading column, each with
    leading entry one.  The pivot columns are the leading columns of the row
    space, whatever the row order."""
    pivots: dict = {}
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


def _echelon_mod(rows: Sequence[dict[int, int]], m: int,
                 ncols: Optional[int] = None) -> Optional[dict[int, dict[int, int]]]:
    """_echelon over Z/m, each pivot row stored reduced and without its
    leading entry, which is one.  Entries are ints, reduced mod m only when
    one is picked as a leading entry, and skipped if that is zero.  The
    others are updated without reduction, each update moving one by less
    than m^2, so an entry stays within m^2 times the number of pivots of
    its value as given.  It stops once it holds ncols pivots, if ncols is
    given.  None if a leading entry is not a unit mod m, which only a
    composite m allows."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        if len(pivots) == ncols:
            break
        cur = dict(row)
        while cur:
            c = min(cur)
            f = cur.pop(c) % m
            if not f:
                continue
            piv = pivots.get(c)
            if piv is None:
                try:
                    inv = pow(f, -1, m)
                except ValueError:
                    return None
                pivots[c] = {cc: r for cc, vv in cur.items() if (r := vv * inv % m)}
                break
            for cc, vv in piv.items():
                s = cur.get(cc, 0) - f * vv
                if s:
                    cur[cc] = s
                else:
                    cur.pop(cc, None)
    return pivots


def _augment(rows, rhs, ncols: int) -> list[dict]:
    """rows with each nonzero right-hand side as column ncols."""
    aug = []
    for row, b in zip(rows, rhs):
        if b:
            row = dict(row)
            row[ncols] = b
        aug.append(row)
    return aug


def _back_substitute(pivots: dict[int, dict], ncols: int, zero, reduce=None):
    """(status, particular solution) from the pivots of an augmented system,
    free variables set to zero; reduce, if given, normalises each value."""
    if ncols in pivots:
        return "none", None
    # every column right of a pivot is solved before it
    sol = [zero] * ncols
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        v = row.get(ncols, zero)
        for cc, vv in row.items():
            if cc != c and cc != ncols:
                v -= vv * sol[cc]
        sol[c] = v if reduce is None else reduce(v)
    status = "unique" if len(pivots) == ncols else "underdetermined"
    return status, sol


def _sparse(row) -> dict[int, object]:
    return {j: v for j, v in enumerate(row) if v}


def frac_rank(rows: Sequence[dict[Hashable, int]], m: int) -> Optional[int]:
    """Rank mod m of a sparse matrix given as rows {column: int}, the
    entries read mod m and the columns any hashable keys; None if a leading
    entry is not a unit mod m, which only a composite m allows.

    The rows are reordered first: columns by ascending nonzero count, rows
    sparsest first.  Neither changes the rank.  The entries need not be
    reduced: the elimination reduces an entry only when it leads (see the
    module docstring), so an entry that is a nonzero multiple of m counts
    towards its column's count but never becomes a pivot."""
    rows = [r for r in rows if r]
    counts: dict[Hashable, int] = {}
    for r in rows:
        for c in r:
            counts[c] = counts.get(c, 0) + 1
    renumber = {c: k for k, c in enumerate(sorted(counts, key=counts.__getitem__))}
    rows = sorted(({renumber[c]: v for c, v in r.items()} for r in rows), key=len)
    pivots = _echelon_mod(rows, m, len(counts))
    return None if pivots is None else len(pivots)


def frac_solve(rows: Sequence[dict[int, int]], rhs: Sequence[int], ncols: int, p: int):
    """Solve a sparse system mod the prime p; returns (status, particular
    solution).

    Entries and right-hand sides are residues in [0, p).  status is 'none'
    for inconsistent systems, else 'unique' or 'underdetermined' (free
    variables set to zero).
    """
    pivots = _echelon_mod(_augment(rows, rhs, ncols), p)
    return _back_substitute(pivots, ncols, 0, lambda v: v % p)


def solve_dense(rows, rhs, zero):
    """Solve dense rows (lists of field elements, zero being the field's
    zero) against rhs; returns (status, solution) like frac_solve."""
    ncols = len(rows[0]) if rows else 0
    pivots = _echelon(_augment([_sparse(r) for r in rows], rhs, ncols), zero)
    return _back_substitute(pivots, ncols, zero)


def dense_rank(rows, zero) -> int:
    """Rank of sparse rows {column: value} over the field whose zero is given."""
    return len(_echelon(rows, zero))
