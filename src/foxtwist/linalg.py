"""Exact linear algebra over the rationals.

The dense routines work on lists of lists of Fractions and invert the
small square matrices of homological forms and constant terms.
``solve_sparse`` eliminates large, sparse rectangular systems whose rows
are dicts on ints, fraction-free; its answer is fixed by a pivot rule,
not by the elimination order, so it is deterministic.
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction

from .errors import NotInvertible


def mat_vec(a: list, v: list) -> list:
    return [sum((row[j] * v[j] for j in range(len(v))), Fraction(0)) for row in a]


def mat_inverse(a: list) -> list:
    """Gauss-Jordan inverse; raises NotInvertible on singular input."""
    n = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if work[r][col]), None)
        if pivot_row is None:
            raise NotInvertible("matrix is singular over Q")
        work[col], work[pivot_row] = work[pivot_row], work[col]
        pivot = work[col][col]
        work[col] = [x / pivot for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def is_invertible(a: list) -> bool:
    try:
        mat_inverse(a)
        return True
    except NotInvertible:
        return False


def solve_sparse(rows: dict, rhs: dict, columns: int):
    """One exact solution of A x = b, or None if the system is inconsistent.

    ``rows`` maps a row key to the nonzero entries {column: value} of that
    row of A, with columns numbered 0 .. columns - 1 (others are a
    ValueError); ``rhs`` maps row keys to b (a key missing from ``rows``
    is an all-zero row).  The pivot columns are the columns taken left to
    right that are not combinations of earlier ones, and free variables
    are 0.  That rule fixes the answer uniquely, whatever row each pivot
    is eliminated with: here the shortest remaining row holding the
    column, so fill-in stays small.  Rows are scaled to ints once and
    eliminated by cross-multiplication, each updated row divided by its
    content; Fractions appear only in back-substitution, which passes
    over unknowns already found to be zero.
    """
    if any(not 0 <= c < columns for row in rows.values() for c in row):
        raise ValueError("column index outside 0..%d" % (columns - 1))
    if any(v and key not in rows for key, v in rhs.items()):
        return None
    active, b = {}, {}
    holders = defaultdict(set)  # column -> keys of unpivoted rows using it
    for key, row in rows.items():
        value = rhs.get(key, 0)
        den = math.lcm(value.denominator, *(v.denominator for v in row.values()))
        active[key] = {c: int(v * den) for c, v in row.items() if v}
        b[key] = int(value * den)
        for c in active[key]:
            holders[c].add(key)
    pivots = []
    for col in range(columns):
        keys = holders.pop(col, None)
        if not keys:
            continue
        pkey = min(keys, key=lambda k: len(active[k]))
        keys.discard(pkey)
        prow = active.pop(pkey)
        pivot, pb = prow.pop(col), b.pop(pkey)
        for c in prow:
            holders[c].discard(pkey)
        # Every unpivoted row now loses column col; earlier columns are
        # already gone from them, so the pivot row only reaches rightwards.
        for key in keys:
            row = active[key]
            factor = row.pop(col)
            for c in row:
                row[c] *= pivot
            for c, v in prow.items():
                new = row.get(c, 0) - factor * v
                if new:
                    if c not in row:
                        holders[c].add(key)
                    row[c] = new
                else:
                    del row[c]
                    holders[c].discard(key)
            b[key] = pivot * b[key] - factor * pb
            content = math.gcd(b[key], *row.values())
            if content > 1:
                b[key] //= content
                for c in row:
                    row[c] //= content
        pivots.append((col, prow, pivot, pb))
    if any(b.values()):
        return None
    x = [Fraction(0)] * columns
    for col, prow, pivot, pb in reversed(pivots):
        value = pb - sum(v * x[c] for c, v in prow.items() if x[c])
        if value:
            x[col] = Fraction(value, pivot)
    return x
