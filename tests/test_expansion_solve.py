"""The route the symplectic-expansion builder replaced, kept as an oracle:
``build_by_solve`` corrects each degree by one sparse exact solve over a
basis of right-nested brackets, with closed-form columns.  It is checked
against the route it replaced in turn, probing every column through the
whole boundary exp/log with brackets built from Fraction series
products, and its sparse solve against dense Gauss-Jordan elimination.
Its bytes stay pinned, and so do those of ``build_symplectic_expansion``,
which corrects each degree in closed form (``test_expansion_dynkin``)."""

import hashlib
import itertools
import math
import random
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache

import pytest

from foxtwist import formats
from foxtwist.errors import SolverError
from foxtwist.series import TruncatedSeries, accumulate, nonzero
from foxtwist.surfaces import SurfaceSpec
from foxtwist.symplectic_tensor import (
    SymplecticExpansion,
    _bracket_with,
    build_symplectic_expansion,
    lie_bracket_of_word,
    omega,
)


# -- the oracle: one sparse solve per degree ---------------------------------


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


def independent(brackets):
    """The brackets ({word: terms}) that are not combinations of earlier
    kept ones, by one int echelon led by largest monomials."""
    kept, echelon = {}, {}
    for word, row in brackets.items():
        while row and (lead := max(row)) in echelon:
            pivot = echelon[lead]
            scale, c = pivot[lead], row[lead]
            row = nonzero(accumulate({m: scale * v for m, v in row.items()}, pivot.items(), -c))
            content = math.gcd(*row.values())
            row = {m: v // content for m, v in row.items()}
        if row:
            echelon[max(row)], kept[word] = row, brackets[word]
    return kept


def basis_brackets(rank, degree):
    """The kept int brackets of the degree, each extended from one kept at
    the degree below, in word order: a basis of the free Lie algebra."""
    brackets = {(i,): {(i,): 1} for i in range(1, rank + 1)}
    for _ in range(degree - 1):
        brackets = independent({(h,) + w: _bracket_with(h, bracket)
                                for h in range(1, rank + 1) for w, bracket in brackets.items()})
    return brackets


def closed_form_column(slot, bracket):
    """Degree-d change of the boundary defect when ``bracket`` (terms of
    degree d - 1) is added to exponent ``slot`` (0-based): [bracket, b_i]
    for the slot of a_i, [a_i, bracket] for the slot of b_i."""
    if slot % 2:
        return _bracket_with(slot, bracket)
    return {m: -c for m, c in _bracket_with(slot + 2, bracket).items()}


def column_rows(rank, brackets):
    """The sparse rows {monomial: {column: c}} of the closed-form columns
    over (slot, bracket), and the list of those pairs."""
    corrections = [(slot, bracket) for slot in range(rank) for bracket in brackets.values()]
    rows = defaultdict(dict)
    for column, (slot, bracket) in enumerate(corrections):
        for m, c in closed_form_column(slot, bracket).items():
            rows[m][column] = c
    return rows, corrections


def build_by_solve(genus: int, cap: int) -> SymplecticExpansion:
    """Oracle: the builder before each degree was corrected in closed
    form.  The degree-d defect part is cancelled by a combination of the
    basis brackets of degree d - 1 in every exponent slot, one column per
    (slot, bracket), found by ``solve_sparse``: pivots left to right, free
    variables 0.  Defects are cut to the cap they serve, as in the builder."""
    rank = 2 * genus
    boundary = SurfaceSpec(genus, cap).boundary_word()
    target = omega(genus, cap)
    exponents = [TruncatedSeries.variable(rank, cap, i + 1) for i in range(rank)]

    def defect_below(top):
        theta = SymplecticExpansion.from_exponents(genus, top,
                                                   [e.truncate(top) for e in exponents])
        return theta, theta.apply_word(boundary).log() + target.truncate(top)

    theta, defect = defect_below(min(4, cap))
    if not defect.degree_part(2).is_zero():
        raise SolverError("degree-2 defect is nonzero; omega does not match nu")
    brackets = {(i,): {(i,): 1} for i in range(1, rank + 1)}
    for degree in range(3, cap):
        brackets = independent({(h,) + w: _bracket_with(h, bracket)
                                for h in range(1, rank + 1) for w, bracket in brackets.items()})
        if defect.cap <= degree:
            theta, defect = defect_below(degree + 1)
        part = defect.degree_part(degree)
        if part.is_zero():
            continue
        rows, corrections = column_rows(rank, brackets)
        # Solved for the numerators of the defect, so x / part.den is the correction.
        rhs = {m: -c for m, c in part.num.items()}
        solution = solve_sparse(rows, rhs, len(corrections))
        if solution is None:
            raise SolverError("no degree-%d correction exists" % degree)
        for x, (slot, bracket) in zip(solution, corrections):
            if x:
                exponents[slot] += TruncatedSeries(rank, cap, bracket).scale(x / part.den)
        theta, defect = defect_below(min(degree + 2, cap))
    if not defect.is_zero():
        raise SolverError("corrections did not close the boundary condition")
    return theta


# -- the oracle's oracles -----------------------------------------------------


def degree_words(rank, degree):
    """Every word of the degree in the letters 1..rank, lexicographically."""
    return list(itertools.product(range(1, rank + 1), repeat=degree))


def bracket_by_products(rank, cap, letters):
    """Oracle: the right-nested bracket by Fraction series products."""
    series = TruncatedSeries.variable(rank, cap, letters[-1])
    for letter in reversed(letters[:-1]):
        h = TruncatedSeries.variable(rank, cap, letter)
        series = h * series - series * h
    return series


def closed_form_column_by_fractions(slot, bracket):
    """Oracle: the closed-form column on a Fraction bracket series,
    bracket b_i - b_i bracket for a_i and a_i bracket - bracket a_i for b_i."""
    letter = slot + 1
    if letter % 2:
        partner, sign = letter + 1, 1
    else:
        partner, sign = letter - 1, -1
    out = {}
    accumulate(out, ((m + (partner,), c) for m, c in bracket.terms.items()), sign)
    accumulate(out, (((partner,) + m, c) for m, c in bracket.terms.items()), -sign)
    return nonzero(out)


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
        brackets = [bracket_by_products(rank, cap, w)
                    for w in degree_words(rank, degree - 1)]
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
    return SymplecticExpansion.from_exponents(genus, cap, exponents), record


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
    # The solve route, over a basis of brackets with closed-form columns,
    # gives the probing builder's answer over every bracket.
    want, _ = build_by_probing(genus, cap)
    got = build_by_solve(genus, cap)
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
            assert closed_form_column(slot, bracket.terms) == probed.terms, (degree, slot)


@pytest.mark.parametrize("rank", [2, 4, 6])
def test_int_brackets_match_fraction_products(rank):
    # The int brackets, each degree's from the previous degree's, every
    # word in lexicographic order.  The oracle
    # expands each by series products, its tails cached likewise.
    brackets = {(i,): {(i,): 1} for i in range(1, rank + 1)}
    oracle = {word: TruncatedSeries.variable(rank, 7, word[0]) for word in brackets}
    for degree in range(1, 6):
        if degree > 1:
            brackets = {(h,) + w: _bracket_with(h, bracket)
                        for h in range(1, rank + 1) for w, bracket in brackets.items()}
        assert list(brackets) == degree_words(rank, degree)
        for word, bracket in brackets.items():
            if degree > 1:
                h, tail = TruncatedSeries.variable(rank, 7, word[0]), oracle[word[1:]]
                oracle[word] = h * tail - tail * h
            want = oracle[word]
            assert bracket == want.terms, word
            assert all(type(c) is int for c in bracket.values())
            if degree == 5:
                continue  # degree 6 columns would triple the test's time at rank 6
            assert lie_bracket_of_word(rank, 7, word) == want
            for slot in range(rank):
                assert closed_form_column(slot, bracket) == \
                    closed_form_column_by_fractions(slot, want), (word, slot)


def test_lie_bracket_of_word_wraps_the_int_brackets():
    rng = random.Random(2015)
    for rank in (2, 4):
        for _ in range(20):
            word = tuple(rng.randint(1, rank) for _ in range(rng.randint(1, 5)))
            for cap in (len(word), len(word) + 1, 7):
                got = lie_bracket_of_word(rank, cap, word)
                assert got == bracket_by_products(rank, cap, word), (word, cap)
                assert all(type(c) is Fraction for c in got.terms.values())


def expansion_sha256(expansion):
    document = formats.dumps(formats.expansion_to_dict(expansion))
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


# SHA-256 of the expansion JSON of the solve route, as built with
# Fraction-series brackets and solve; (1, 9), (1, 10) and (2, 7) as built
# with a full-cap defect at every degree.
EXPANSION_SHA256 = {
    (1, 7): "d2e55ff14c56037d953e5e2c01aa540953ffa3608931ead63a4f10a0694b6262",
    (1, 9): "7789727244ba930717336f14c4d6ffc3dbc6ba6d83659e4eba2ecfb03cd95394",
    (1, 10): "8802f73cc1b6ffbb94a3ed394b3c474e38324980c594626b9e0c5a5c6636d1c2",
    (2, 5): "c581241caf7aae8781f27df6229707368bb8f19c54bdd30b2de0117a88dc5e0a",
    (2, 6): "7a61ea7c16f8dc25e143458fd495d1d9c3ec04a3f66306c0fc1e604d7ba4f513",
    (2, 7): "85986d87a470abf941541fc33553a6c29b383e46c74b5dcec0ef12252d8236e7",
    (3, 4): "341c7380110b64cf2e95b5716f1759a77ad834e5e38e2d0ffadd954fa7f6072b",
    (3, 5): "83f9201177712e22a64c385549452e5675a13fda8ee3c3b20d69bbba7a3fb201",
}


@pytest.mark.parametrize("genus,cap", sorted(EXPANSION_SHA256))
def test_expansion_bytes_are_pinned(genus, cap):
    assert expansion_sha256(build_by_solve(genus, cap)) == EXPANSION_SHA256[genus, cap]


# SHA-256 of the expansion JSON of build_symplectic_expansion, each degree
# corrected in closed form, at the cells of EXPANSION_SHA256.  (3, 4) has
# one correction, degree 3, and there the two routes agree.
CLOSED_FORM_SHA256 = {
    (1, 7): "63493ca6f289813b418afdcc305655967f1623dc96160821219885d3c1ee316d",
    (1, 9): "ec26117f35dd07cda2fce5acca49bc520c606b45fd9bfcfb868870082c3a6772",
    (1, 10): "7081c20c56eed2a9edc216e360b35f0205e9cd4b6a6cfcb389a743608f159d2e",
    (2, 5): "248df424b67d50b760b6df183f4bfdfa061ec7e7457b433520e9f1989d7e0cf0",
    (2, 6): "fb2fd9dde2246cff7ff182380cf5c3ec434438c4e85116567df7c3d96339a361",
    (2, 7): "12e2ca84e7b2627fd9039f3199b879223aa42b3ee02f55cc7b194a4b9c7980f4",
    (3, 4): "341c7380110b64cf2e95b5716f1759a77ad834e5e38e2d0ffadd954fa7f6072b",
    (3, 5): "7514a00d1bd6eef825f2486dfdc2c24256dd2ce3922bb60fdf2404e75f7b1b16",
}


@pytest.mark.parametrize("genus,cap", sorted(CLOSED_FORM_SHA256))
def test_closed_form_expansion_bytes_are_pinned(genus, cap):
    got = expansion_sha256(build_symplectic_expansion(genus, cap))
    assert got == CLOSED_FORM_SHA256[genus, cap]


@pytest.mark.parametrize("genus,cap", [(2, 6), (3, 5), (2, 7)])
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


def test_sparse_solve_matches_dense_on_rational_entries():
    # Rows with different denominators exercise the per-row int scaling.
    rng = random.Random(2016)
    for _ in range(150):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        matrix = [[0 if rng.random() < 0.5 else rational(rng) for _ in range(cols)]
                  for _ in range(rows)]
        if rng.random() < 0.5:
            x0 = [rational(rng) for _ in range(cols)]
            rhs = [sum(a * x for a, x in zip(row, x0)) for row in matrix]
            assert solve_both(matrix, rhs) is not None
        else:
            solve_both(matrix, [rational(rng) for _ in range(rows)])


def test_sparse_solve_on_a_dense_system_with_coefficient_growth():
    # Cross-multiplication without the content division would square the
    # entry sizes at every pivot; the answer must still be the dense one.
    rng = random.Random(2017)
    matrix = [[Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 3))
               for _ in range(10)] for _ in range(10)]
    x0 = [Fraction(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 9)) for _ in range(10)]
    rhs = [sum(a * x for a, x in zip(row, x0)) for row in matrix]
    assert solve_both(matrix, rhs) == x0
    hilbert = [[Fraction(1, i + j + 1) for j in range(10)] for i in range(10)]
    ones = [sum(row) for row in hilbert]
    assert solve_both(hilbert, ones) == [1] * 10


def test_sparse_solve_rejects_columns_out_of_range():
    for rows in ({"r": {0: 1, 5: 1}}, {"r": {5: 1}}, {"r": {-1: 1}}, {"r": {2: 0}}):
        with pytest.raises(ValueError, match="column index"):
            solve_sparse(rows, {"r": 1}, 2)
    assert solve_sparse({"r": {0: 1, 1: 1}}, {"r": 1}, 2) == [1, 0]


def test_builder_raises_when_no_correction_exists(monkeypatch):
    import test_expansion_solve

    monkeypatch.setattr(test_expansion_solve, "solve_sparse", lambda rows, rhs, columns: None)
    with pytest.raises(SolverError, match="no degree-3 correction"):
        build_by_solve(1, 4)
