"""The closed-form symplectic-expansion builder and its sparse solve, each
against the route it replaced: probing every column through the whole
boundary exp/log, and dense Gauss-Jordan elimination."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from foxtwist.errors import SolverError
from foxtwist.linalg import solve_sparse
from foxtwist.series import TruncatedSeries
from foxtwist.surfaces import SurfaceSpec
from foxtwist.symplectic_tensor import (
    SymplecticExpansion,
    _closed_form_column,
    _degree_words,
    build_symplectic_expansion,
    lie_bracket_of_word,
    omega,
)


def solve_consistent(a, b):
    """Oracle: dense Gauss-Jordan on lists of lists.  One exact solution
    of A x = b, or None if the system is inconsistent; pivot columns are
    chosen left to right and free variables are set to zero."""
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


@lru_cache(maxsize=None)
def build_by_probing(genus, cap):
    """Oracle: the probing builder.  Each (slot, bracket) column is the
    change of the degree-d defect when the whole boundary exp/log is
    recomputed with the bracket added to that exponent.  Returns the
    expansion and, per degree, the probes with their probed columns."""
    rank = 2 * genus
    boundary = SurfaceSpec(genus, cap).boundary_word()
    target = omega(genus, cap)

    def defect_series(exponents):
        total = TruncatedSeries.one(rank, cap)
        for letter in boundary.letters:
            e = exponents[abs(letter) - 1]
            total = total * (e if letter > 0 else -e).exp()
        return total.log() + target

    exponents = [TruncatedSeries.variable(rank, cap, i + 1) for i in range(rank)]
    assert defect_series(exponents).degree_part(2).is_zero()
    record = []
    for degree in range(3, cap):
        defect = defect_series(exponents).degree_part(degree)
        if defect.is_zero():
            continue
        brackets = [lie_bracket_of_word(rank, cap, w)
                    for w in _degree_words(rank, degree - 1)]
        columns = []
        probes = []
        for slot in range(rank):
            for bracket in brackets:
                if bracket.is_zero():
                    continue
                probed = list(exponents)
                probed[slot] = probed[slot] + bracket
                columns.append(defect_series(probed).degree_part(degree) - defect)
                probes.append((slot, bracket))
        record.append((degree, probes, columns))
        rows = sorted({m for c in columns for m in c.terms} | set(defect.terms))
        matrix = [[c.coefficient(m) for c in columns] for m in rows]
        rhs = [-defect.coefficient(m) for m in rows]
        solution = solve_consistent(matrix, rhs)
        assert solution is not None
        for x, (slot, bracket) in zip(solution, probes):
            if x:
                exponents[slot] = exponents[slot] + bracket.scale(x)
    assert defect_series(exponents).is_zero()
    images = [e.exp() for e in exponents]
    return SymplecticExpansion(genus, cap, images, exponents), record


def sparse_rows(matrix):
    return {r: {c: v for c, v in enumerate(row) if v} for r, row in enumerate(matrix)}


def solve_both(matrix, rhs):
    columns = len(matrix[0]) if matrix else 0
    sparse = solve_sparse(sparse_rows(matrix), dict(enumerate(rhs)), columns)
    dense = solve_consistent(matrix, rhs)
    assert sparse == dense
    if sparse is not None:
        assert all(type(x) is Fraction for x in sparse)
        for row, value in zip(matrix, rhs):
            assert sum(a * x for a, x in zip(row, sparse)) == value
    return sparse


CELLS = [(1, cap) for cap in range(3, 8)] + [(2, cap) for cap in range(3, 6)] + [(3, 4)]


@pytest.mark.parametrize("genus,cap", CELLS)
def test_builder_matches_probing(genus, cap):
    want, _ = build_by_probing(genus, cap)
    got = build_symplectic_expansion(genus, cap)
    assert got.images == want.images
    assert got.exponents == want.exponents
    for e in got.exponents:
        assert all(type(c) is Fraction for c in e.terms.values())


@pytest.mark.parametrize("genus,cap", [(1, 6), (2, 5)])
def test_closed_form_columns_equal_probed_columns(genus, cap):
    _, record = build_by_probing(genus, cap)
    assert record, "no degree needed a correction"
    for degree, probes, columns in record:
        for (slot, bracket), probed in zip(probes, columns):
            assert _closed_form_column(slot, bracket) == probed.terms, (degree, slot)


@pytest.mark.parametrize("genus,cap", [(2, 6), (3, 5)])
def test_larger_builds_are_group_like_and_symplectic(genus, cap):
    e = build_symplectic_expansion(genus, cap)
    assert e.is_group_like()
    assert e.is_symplectic()


def random_matrix(rng, rows, cols, zero_share=0.6):
    return [[0 if rng.random() < zero_share else rng.randint(-4, 4) for _ in range(cols)]
            for _ in range(rows)]


def rational(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 7))


def test_sparse_solve_matches_dense_on_consistent_systems():
    rng = random.Random(2011)
    for _ in range(150):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        matrix = random_matrix(rng, rows, cols)
        x0 = [rational(rng) for _ in range(cols)]
        rhs = [sum(a * x for a, x in zip(row, x0)) for row in matrix]
        assert solve_both(matrix, rhs) is not None


def test_sparse_solve_matches_dense_on_inconsistent_systems():
    rng = random.Random(2012)
    seen = 0
    for _ in range(150):
        rows = rng.randint(2, 9)
        cols = rng.randint(1, rows - 1)
        matrix = random_matrix(rng, rows, cols, zero_share=0.4)
        rhs = [rational(rng) for _ in range(rows)]
        if solve_both(matrix, rhs) is None:
            seen += 1
    assert seen > 100


def test_sparse_solve_with_zero_and_duplicate_columns():
    rng = random.Random(2013)
    for _ in range(100):
        rows, cols = rng.randint(2, 8), rng.randint(2, 6)
        base = random_matrix(rng, rows, cols)
        order = list(range(cols)) + [rng.randrange(cols) for _ in range(3)]
        rng.shuffle(order)
        zero_at = rng.randrange(len(order) + 1)
        matrix = [[row[j] for j in order] for row in base]
        for row in matrix:
            row.insert(zero_at, 0)
        x0 = [rational(rng) for _ in range(cols)]
        rhs = [sum(a * x for a, x in zip(row, x0)) for row in base]
        solution = solve_both(matrix, rhs)
        assert solution[zero_at] == 0
        if rng.random() < 0.5:
            rhs[rng.randrange(rows)] += 1
            solve_both(matrix, rhs)


def test_sparse_solve_with_an_all_zero_right_hand_side():
    rng = random.Random(2014)
    for _ in range(50):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        matrix = random_matrix(rng, rows, cols)
        assert solve_both(matrix, [0] * rows) == [0] * cols


def test_sparse_solve_reads_missing_rows_as_zero():
    assert solve_sparse({}, {}, 3) == [0, 0, 0]
    assert solve_sparse({}, {"r": Fraction(1)}, 2) is None
    assert solve_sparse({"r": {1: 2}}, {"r": 3, "s": 0}, 2) == [0, Fraction(3, 2)]
    assert solve_sparse({"r": {}}, {"r": 1}, 1) is None


def test_builder_raises_when_no_correction_exists(monkeypatch):
    from foxtwist import linalg

    monkeypatch.setattr(linalg, "solve_sparse", lambda rows, rhs, columns: None)
    with pytest.raises(SolverError):
        build_symplectic_expansion(1, 4)
