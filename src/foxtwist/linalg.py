"""Small dense exact linear algebra over the rationals.

Everything here works on lists of lists of Fractions.  Matrices are
tiny (a handful of rows), so plain Gauss-Jordan elimination is all we
need; determinism matters more than speed.
"""

from __future__ import annotations

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


def solve_consistent(a: list, b: list):
    """One exact solution of A x = b, or None if the system is inconsistent.

    A may be rectangular (rows = equations).  Pivot columns are chosen
    left to right; free variables are set to zero, so the answer is
    deterministic.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    work = [[Fraction(x) for x in a[r]] + [Fraction(b[r])] for r in range(rows)]
    pivots = []
    row = 0
    for col in range(cols):
        pivot_row = next((r for r in range(row, rows) if work[r][col]), None)
        if pivot_row is None:
            continue
        work[row], work[pivot_row] = work[pivot_row], work[row]
        pivot = work[row][col]
        work[row] = [x / pivot for x in work[row]]
        for r in range(rows):
            if r != row and work[r][col]:
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[row])]
        pivots.append(col)
        row += 1
        if row == rows:
            break
    for r in range(row, rows):
        if work[r][cols]:
            return None
    x = [Fraction(0)] * cols
    for r, col in enumerate(pivots):
        x[col] = work[r][cols]
    return x
