"""The degree-by-degree series matrix inverse and the one-pass nabla
calculus, each against the route it replaced."""

import random
from fractions import Fraction

import pytest

from foxtwist import linalg
from foxtwist.fox_pairings import FoxPairing, NablaElement, nabla_of_pairing, pairing_of_nabla
from foxtwist.group_algebra import GroupAlgebraElement
from foxtwist.series import TruncatedSeries, accumulate, nonzero, series_matrix_inverse
from foxtwist.surfaces import SurfaceSpec, boundary_nabla
from foxtwist.truncated_completion import embed, fox_left_series, fox_right_series
from foxtwist.words import GroupWord


def series_matrix_inverse_neumann(matrix):
    """Oracle: invert the constant part over Q and sum the Neumann series
    of the rest with series products and +."""
    n = len(matrix)
    rank, cap = matrix[0][0].rank, matrix[0][0].cap
    head_inv = linalg.mat_inverse([[e.constant_term() for e in row] for row in matrix])

    def lift(q):
        return [[TruncatedSeries.scalar(rank, cap, q[i][j]) for j in range(n)]
                for i in range(n)]

    def smat_mul(a, b):
        return [[sum((a[i][k] * b[k][j] for k in range(n)), TruncatedSeries.zero(rank, cap))
                 for j in range(n)] for i in range(n)]

    head_inv_s = lift(head_inv)
    reduced = smat_mul(head_inv_s, matrix)
    one = TruncatedSeries.one(rank, cap)
    residual = [[(one if i == j else TruncatedSeries.zero(rank, cap)) - reduced[i][j]
                 for j in range(n)] for i in range(n)]
    total = lift([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])
    power = residual
    while any(not entry.is_zero() for row in power for entry in row):
        total = [[total[i][j] + power[i][j] for j in range(n)] for i in range(n)]
        power = smat_mul(power, residual)
    return smat_mul(total, head_inv_s)


def c_matrix_by_fox_series(nabla):
    """Oracle: c_{r,s} as the two-sided Fox strip of nabla."""
    n = nabla.rank
    return [[fox_right_series(fox_left_series(nabla.series, s + 1), r + 1) for s in range(n)]
            for r in range(n)]


def nabla_by_products(pairing):
    """Oracle: sum of the series products X_r c_{r,s} X_s."""
    n, cap = pairing.rank, pairing.cap
    c = series_matrix_inverse_neumann([list(row) for row in pairing.matrix])
    x = [TruncatedSeries.variable(n, cap, i + 1) for i in range(n)]
    total = {}
    for r in range(n):
        for s in range(n):
            accumulate(total, (x[r] * c[r][s] * x[s]).terms.items())
    return TruncatedSeries._raw(n, cap, nonzero(total))


def assert_fraction_coefficients(matrix):
    for row in matrix:
        for entry in row:
            assert all(type(c) is Fraction for c in entry.terms.values())


def random_matrix(rng, n, cap, terms=5):
    """n x n series of rank n: a rational, non-identity, invertible
    constant part with non-integer entries, plus random higher terms."""
    while True:
        head = [[Fraction(rng.randint(-5, 5), rng.randint(2, 4)) for _ in range(n)]
                for _ in range(n)]
        if linalg.is_invertible(head):
            break
    matrix = []
    for i in range(n):
        row = []
        for j in range(n):
            data = {(): head[i][j]}
            for _ in range(terms):
                if cap > 1:
                    mono = tuple(rng.randint(1, n) for _ in range(rng.randint(1, cap - 1)))
                    data[mono] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            row.append(TruncatedSeries(n, cap, data))
        matrix.append(row)
    return matrix


def boundary_and_conjugated_nablas():
    """Boundary nabla iota(nu) - 1 at genus 1-3, and iota(w nu w^-1) - 1."""
    out = []
    for genus, cap in ((1, 7), (2, 6), (3, 5)):
        spec = SurfaceSpec(genus, cap)
        out.append(boundary_nabla(spec, cap))
        nu = spec.boundary_word()
        w = GroupWord(spec.rank, (2, -1, spec.rank))
        conj = GroupAlgebraElement.from_word(w * nu * w.inverse())
        out.append(NablaElement(embed(conj, cap) - 1))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_inverse_matches_the_neumann_oracle_on_random_matrices(n):
    rng = random.Random(400 + n)
    for cap in range(1, 7):
        for _ in range(2 if n < 4 else 1):
            matrix = random_matrix(rng, n, cap, terms=6 if n < 4 else 3)
            got = series_matrix_inverse(matrix)
            assert got == series_matrix_inverse_neumann(matrix)
            assert_fraction_coefficients(got)


def test_inverse_matches_the_neumann_oracle_on_c_matrices():
    for nabla in boundary_and_conjugated_nablas():
        c = c_matrix_by_fox_series(nabla)
        got = series_matrix_inverse(c)
        assert got == series_matrix_inverse_neumann(c)
        assert_fraction_coefficients(got)


def test_pairing_of_nabla_matches_the_fox_strip_route():
    noise = TruncatedSeries(2, 6, {(1, 2, 1): Fraction(1, 3), (2, 2, 2, 1): -2, (1, 1): 1,
                                   (2, 1): Fraction(-1, 2), (1, 2): 2, (2,): 0})
    for nabla in boundary_and_conjugated_nablas() + [NablaElement(noise)]:
        expected = FoxPairing(series_matrix_inverse_neumann(c_matrix_by_fox_series(nabla)))
        got = pairing_of_nabla(nabla)
        assert got == expected
        assert got.cap == nabla.cap - 2
        assert_fraction_coefficients(got.matrix)


def test_nabla_of_pairing_matches_the_product_route():
    rng = random.Random(41)
    pairings = [pairing_of_nabla(nabla) for nabla in boundary_and_conjugated_nablas()]
    pairings += [FoxPairing(random_matrix(rng, n, 5)) for n in (1, 2, 3)]
    for pairing in pairings:
        got = nabla_of_pairing(pairing)
        assert got.series == nabla_by_products(pairing)
        assert all(type(c) is Fraction for c in got.series.terms.values())
