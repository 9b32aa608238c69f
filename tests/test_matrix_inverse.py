"""The degree-by-degree series matrix inverse and the one-pass nabla
calculus, each against the route it replaced."""

import random
from fractions import Fraction

import pytest

from foxtwist import linalg, series
from foxtwist.errors import NotNondegenerate
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
    return TruncatedSeries(n, cap, nonzero(total))


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


def conjugated_nabla(genus, cap, conjugator):
    """iota(w nu w^-1) - 1 for the genus boundary word nu."""
    spec = SurfaceSpec(genus, cap)
    w = GroupWord(spec.rank, conjugator)
    conj = GroupAlgebraElement.from_word(w * spec.boundary_word() * w.inverse())
    return NablaElement(embed(conj, cap) - 1)


def boundary_and_conjugated_nablas():
    """Boundary nabla iota(nu) - 1 at genus 1-3, and iota(w nu w^-1) - 1."""
    out = []
    for genus, cap in ((1, 7), (2, 6), (3, 5)):
        out.append(boundary_nabla(SurfaceSpec(genus, cap), cap))
        out.append(conjugated_nabla(genus, cap, (2, -1, 2 * genus)))
    return out


def bench_shaped_nablas():
    """Conjugated nablas the size of the genus 2 cap 8 and genus 3 cap 7
    nabla-cli files (1449 and 1040 terms)."""
    return [conjugated_nabla(2, 8, (2, 1, 2)), conjugated_nabla(3, 7, (2, -5))]


def sparse_matrix(rng, n, cap, live=0.2):
    """n x n series of rank 2 whose entries off the diagonal of the
    constant part, and whose higher-degree parts, are each nonzero with
    probability live, so most blocks of the matrix and its inverse are
    empty."""
    while True:
        head = [[Fraction(rng.randint(1, 3) * rng.choice((-1, 1)), rng.randint(1, 3))
                 if i == j or rng.random() < live else Fraction(0) for j in range(n)]
                for i in range(n)]
        if linalg.is_invertible(head):
            break
    matrix = []
    for i in range(n):
        row = []
        for j in range(n):
            data = {(): head[i][j]}
            if cap > 1 and rng.random() < live:
                for _ in range(rng.randint(1, 3)):
                    mono = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, cap - 1)))
                    data[mono] = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
            row.append(TruncatedSeries(2, cap, data))
        matrix.append(row)
    return matrix


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_inverse_matches_the_neumann_oracle_on_random_matrices(n):
    rng = random.Random(400 + n)
    for cap in range(1, 7):
        for _ in range(2 if n < 4 else 1):
            matrix = random_matrix(rng, n, cap, terms=6 if n < 4 else 3)
            got = series_matrix_inverse(matrix)
            assert got == series_matrix_inverse_neumann(matrix)
            assert_fraction_coefficients(got)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_inverse_matches_the_neumann_oracle_on_mostly_empty_blocks(n):
    rng = random.Random(500 + n)
    empty = 0
    for cap in (2, 4, 5):
        matrix = sparse_matrix(rng, n, cap)
        got = series_matrix_inverse(matrix)
        assert got == series_matrix_inverse_neumann(matrix)
        assert_fraction_coefficients(got)
        empty += sum(entry.is_zero() for row in got for entry in row)
    assert empty


def test_one_by_one_inverse_matches_the_neumann_oracle():
    rng = random.Random(61)
    for cap in range(1, 7):
        for live in (0.0, 1.0):
            matrix = sparse_matrix(rng, 1, cap, live)
            got = series_matrix_inverse(matrix)
            assert got == series_matrix_inverse_neumann(matrix)
            assert got[0][0] * matrix[0][0] == TruncatedSeries.one(2, cap)
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
    for nabla in boundary_and_conjugated_nablas() + bench_shaped_nablas() + [NablaElement(noise)]:
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


DEGENERATE = "degree-two coefficient matrix is singular"


def test_a_degree_one_term_is_degenerate():
    nabla = NablaElement(TruncatedSeries(2, 6, {(1, 2): 1, (2, 1): -1, (2,): Fraction(1, 3)}))
    assert not nabla.is_nondegenerate()
    with pytest.raises(NotNondegenerate, match=f"^{DEGENERATE}$"):
        pairing_of_nabla(nabla)


def test_a_singular_degree_two_matrix_is_degenerate():
    nabla = NablaElement(TruncatedSeries(2, 6, {(1, 1): 2, (1, 2): 1, (2, 1): 4, (2, 2): 2,
                                                (1, 2, 1): Fraction(1, 2)}))
    assert not nabla.is_nondegenerate()
    with pytest.raises(NotNondegenerate, match=f"^{DEGENERATE}$"):
        pairing_of_nabla(nabla)


def test_pairing_of_nabla_inverts_the_degree_two_matrix_once(monkeypatch):
    calls = []
    invert = linalg.mat_inverse

    def spy(a):
        calls.append(len(a))
        return invert(a)

    # series holds its own reference to mat_inverse; linalg.is_invertible
    # calls it through the linalg module.
    monkeypatch.setattr(linalg, "mat_inverse", spy)
    monkeypatch.setattr(series, "mat_inverse", spy)
    for nabla in boundary_and_conjugated_nablas() + bench_shaped_nablas():
        calls.clear()
        pairing_of_nabla(nabla)
        assert calls == [nabla.rank]
