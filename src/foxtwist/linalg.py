"""Exact dense linear algebra over the rationals.

The routines work on lists of lists of Fractions: they invert the small
square matrices of homological forms and constant terms, and apply them
to vectors.
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
