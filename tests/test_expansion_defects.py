"""The symplectic-expansion builder's boundary defects, against the
builder that recomputed a full-cap defect at every degree, and the two
routes for an inverse letter: exp(-e) from the exponents and the solved
inverse of the image.  Also ``solve_sparse``'s back-substitution against
the loop that multiplied out every unknown, zeros included."""

import math
import random
from collections import defaultdict
from fractions import Fraction

import pytest

from foxtwist import linalg, series, symplectic_tensor
from foxtwist.derived_twists import TwistAutomorphism
from foxtwist.formats import expansion_from_dict, expansion_to_dict
from foxtwist.linalg import solve_sparse
from foxtwist.series import TruncatedSeries
from foxtwist.surfaces import SurfaceSpec
from foxtwist.symplectic_tensor import (
    SymplecticExpansion,
    _bracket_with,
    _closed_form_column,
    build_symplectic_expansion,
    omega,
)
from foxtwist.words import GroupWord
from test_expansion_solve import random_matrix, rational, solve_both, sparse_rows


def build_with_full_cap_defects(genus, cap):
    """Oracle: the builder as it was before defects were cut to the cap
    they need.  A full-cap defect at every degree, inverse letters by
    ``.inverse()`` of exp(e), and images from one more exp pass at the
    end.  Returns (images, exponents)."""
    rank = 2 * genus
    boundary = SurfaceSpec(genus, cap).boundary_word()
    target = omega(genus, cap)

    def defect_series(exponents):
        theta = TwistAutomorphism(rank, cap, [e.exp() for e in exponents])
        return theta.apply_word(boundary).log() + target

    exponents = [TruncatedSeries.variable(rank, cap, i + 1) for i in range(rank)]
    assert defect_series(exponents).degree_part(2).is_zero()
    brackets = {(i,): {(i,): 1} for i in range(1, rank + 1)}
    for degree in range(3, cap):
        brackets = {(h,) + w: _bracket_with(h, bracket)
                    for h in range(1, rank + 1) for w, bracket in brackets.items()}
        defect = defect_series(exponents).degree_part(degree)
        if defect.is_zero():
            continue
        corrections = [(slot, bracket) for slot in range(rank)
                       for bracket in brackets.values() if bracket]
        rows = defaultdict(dict)
        for column, (slot, bracket) in enumerate(corrections):
            for m, c in _closed_form_column(slot, bracket).items():
                rows[m][column] = c
        rhs = {m: -c for m, c in defect.num.items()}
        solution = solve_sparse(rows, rhs, len(corrections))
        for x, (slot, bracket) in zip(solution, corrections):
            if x:
                exponents[slot] += TruncatedSeries(rank, cap, bracket).scale(x / defect.den)
    assert defect_series(exponents).is_zero()
    return [e.exp() for e in exponents], exponents


CELLS = ([(1, cap) for cap in range(3, 11)] + [(2, cap) for cap in range(3, 8)]
         + [(3, cap) for cap in range(3, 6)])


@pytest.mark.parametrize("genus,cap", CELLS)
def test_builder_matches_full_cap_defects(genus, cap):
    images, exponents = build_with_full_cap_defects(genus, cap)
    got = build_symplectic_expansion(genus, cap)
    assert (got.genus, got.cap) == (genus, cap)
    assert list(got.images) == images
    assert list(got.exponents) == exponents
    for mine, theirs in zip(got.images + got.exponents, images + exponents):
        assert (mine.num, mine.den) == (theirs.num, theirs.den)


@pytest.mark.parametrize("genus,cap", [(1, 3), (1, 4), (1, 7), (1, 10), (2, 5), (2, 6), (3, 4)])
def test_one_defect_per_set_of_exponents_at_the_least_cap(genus, cap, monkeypatch):
    events, made = [], []
    build = SymplecticExpansion.from_exponents.__func__
    solve = linalg.solve_sparse

    def from_exponents(cls, genus_, cap_, exponents):
        made.append(build(cls, genus_, cap_, exponents))
        events.append(("defect", cap_))
        return made[-1]

    def counted_solve(rows, rhs, columns):
        (degree,) = {len(m) for m in rhs}
        events.append(("solve", degree))
        return solve(rows, rhs, columns)

    def counted_log(self):
        events.append(("log", self.cap))
        return log(self)

    def no_inverse(matrix):
        raise AssertionError("a build solved a series inverse")

    log = TruncatedSeries.log
    monkeypatch.setattr(SymplecticExpansion, "from_exponents", classmethod(from_exponents))
    monkeypatch.setattr(linalg, "solve_sparse", counted_solve)
    monkeypatch.setattr(TruncatedSeries, "log", counted_log)
    monkeypatch.setattr(series, "series_matrix_inverse", no_inverse)
    e = build_symplectic_expansion(genus, cap)
    # A defect is an expansion and the log of its boundary image.  One to
    # start, for the degree-2 check and degree 3; then one after each
    # solve, cut to serve the next degree, the last at the full cap.
    defect = lambda top: [("defect", top), ("log", top)]
    want = defect(min(4, cap))
    for degree in range(3, cap):
        want += [("solve", degree)] + defect(min(degree + 2, cap))
    assert events == want
    assert e is made[-1]


def test_a_zero_defect_part_takes_no_solve(monkeypatch):
    # Moving omega by the first defect's degree-3 part leaves degree 3
    # nothing to solve: the exponents stand, the defect in hand is
    # reused for that degree, and degree 4 needs one a cap higher.
    genus, cap = 1, 6
    boundary = SurfaceSpec(genus, cap).boundary_word()
    start = SymplecticExpansion.from_exponents(
        genus, cap, [TruncatedSeries.variable(2, cap, i) for i in (1, 2)])
    shifted = omega(genus, cap) - (start.apply_word(boundary).log()
                                   + omega(genus, cap)).degree_part(3)
    caps, solved = [], []
    build = SymplecticExpansion.from_exponents.__func__
    solve = linalg.solve_sparse

    def from_exponents(cls, genus_, cap_, exponents):
        caps.append(cap_)
        return build(cls, genus_, cap_, exponents)

    def counted_solve(rows, rhs, columns):
        solved.append({len(m) for m in rhs})
        return solve(rows, rhs, columns)

    monkeypatch.setattr(SymplecticExpansion, "from_exponents", classmethod(from_exponents))
    monkeypatch.setattr(linalg, "solve_sparse", counted_solve)
    monkeypatch.setattr(symplectic_tensor, "omega", lambda genus_, cap_: shifted)
    got = build_symplectic_expansion(genus, cap)
    assert solved == [{4}, {5}]
    assert caps == [4, 5, 6, 6]
    assert (got.apply_word(boundary).log() + shifted).is_zero()


SIGNED_WORD_CELLS = [(1, 7), (2, 5), (3, 4)]


@pytest.mark.parametrize("genus,cap", SIGNED_WORD_CELLS)
def test_inverse_letters_from_exponents_equal_the_solved_inverses(genus, cap):
    e = build_symplectic_expansion(genus, cap)
    reloaded = expansion_from_dict(expansion_to_dict(e))
    assert reloaded.exponents is None and reloaded.images == e.images
    boundary = SurfaceSpec(genus, cap).boundary_word()
    rng = random.Random(2600 + 10 * genus + cap)
    words = [boundary, boundary.inverse(), GroupWord(e.rank, ())]
    words += [GroupWord(e.rank, tuple(rng.choice((1, -1)) * rng.randint(1, e.rank)
                                      for _ in range(rng.randint(1, 12))))
              for _ in range(8)]
    for word in words:
        assert e.apply_word(word) == reloaded.apply_word(word), word
    assert e.apply_word(boundary) == (-omega(genus, cap)).exp()
    for i, (image, exponent) in enumerate(zip(e.images, e.exponents), start=1):
        assert e._inverse_image(i) == (-exponent).exp() == image.inverse()
        assert reloaded._inverse_image(i) == image.inverse()


def test_a_plain_automorphism_still_solves_its_inverse_letters(monkeypatch):
    e = build_symplectic_expansion(1, 5)
    plain = TwistAutomorphism(e.rank, e.cap, e.images)
    calls = []
    inverse = series.series_matrix_inverse

    def counted(matrix):
        calls.append(1)
        return inverse(matrix)

    monkeypatch.setattr(series, "series_matrix_inverse", counted)
    word = GroupWord(e.rank, (1, -2, -1, 2))
    assert plain.apply_word(word) == e.apply_word(word)
    assert len(calls) == 2
    assert plain._inverse_image(2) * e.images[1] == 1


# -- solve_sparse back-substitution ------------------------------------------


def solve_sparse_multiplying_every_unknown(rows, rhs, columns):
    """Oracle: ``solve_sparse`` with the back-substitution it had before
    it passed over zero unknowns."""
    if any(not 0 <= c < columns for row in rows.values() for c in row):
        raise ValueError("column index outside 0..%d" % (columns - 1))
    if any(v and key not in rows for key, v in rhs.items()):
        return None
    active, b = {}, {}
    holders = defaultdict(set)
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
        x[col] = (pb - sum((v * x[c] for c, v in prow.items()), Fraction(0))) / pivot
    return x


def solve_three_ways(matrix, rhs):
    want = solve_sparse_multiplying_every_unknown(sparse_rows(matrix), dict(enumerate(rhs)),
                                                  len(matrix[0]))
    assert solve_both(matrix, rhs) == want
    return want


def test_back_substitution_matches_the_full_loop_on_seeded_systems():
    rng = random.Random(2611)
    for _ in range(150):
        rows, cols = rng.randint(1, 9), rng.randint(1, 9)
        matrix = random_matrix(rng, rows, cols)
        x0 = [rational(rng) for _ in range(cols)]
        assert solve_three_ways(matrix, [sum(a * x for a, x in zip(row, x0))
                                         for row in matrix]) is not None
        solve_three_ways(matrix, [rational(rng) for _ in range(rows)])


def test_back_substitution_matches_the_full_loop_when_most_columns_are_free():
    rng = random.Random(2612)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(12, 40)
        matrix = random_matrix(rng, rows, cols, zero_share=0.8)
        # A sparse solution leaves most pivot unknowns zero as well.
        x0 = [rational(rng) if rng.random() < 0.2 else 0 for _ in range(cols)]
        rhs = [sum(a * x for a, x in zip(row, x0)) for row in matrix]
        solution = solve_three_ways(matrix, rhs)
        assert sum(1 for x in solution if x) <= rows


def test_back_substitution_matches_the_full_loop_on_a_builder_system():
    rank, degree = 6, 4
    brackets = {(i,): {(i,): 1} for i in range(1, rank + 1)}
    for _ in range(degree - 2):
        brackets = {(h,) + w: _bracket_with(h, bracket)
                    for h in range(1, rank + 1) for w, bracket in brackets.items()}
    corrections = [(slot, bracket) for slot in range(rank)
                   for bracket in brackets.values() if bracket]
    rows = defaultdict(dict)
    for column, (slot, bracket) in enumerate(corrections):
        for m, c in _closed_form_column(slot, bracket).items():
            rows[m][column] = c
    rng = random.Random(2613)
    x0 = {column: rng.randint(1, 5) for column in rng.sample(range(len(corrections)), 4)}
    rhs = {m: sum(c * x0.get(column, 0) for column, c in row.items()) for m, row in rows.items()}
    got = solve_sparse(rows, rhs, len(corrections))
    assert got == solve_sparse_multiplying_every_unknown(rows, rhs, len(corrections))
    assert all(type(x) is Fraction for x in got)
    assert 0 < sum(1 for x in got if x) < len(corrections) // 10
