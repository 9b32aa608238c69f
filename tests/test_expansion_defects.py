"""The symplectic-expansion builder's boundary defects, against a builder
that recomputes a full-cap defect at every degree, and the two routes for
an inverse letter: exp(-e) from the exponents and the solved inverse of
the image.  Also the solve oracle's back-substitution against the loop
that multiplied out every unknown, zeros included."""

import math
import random
from collections import defaultdict
from fractions import Fraction

import pytest

from foxtwist import series, symplectic_tensor
from foxtwist.derived_twists import TwistAutomorphism
from foxtwist.formats import expansion_from_dict, expansion_to_dict
from foxtwist.series import TruncatedSeries
from foxtwist.surfaces import SurfaceSpec
from foxtwist.symplectic_tensor import (
    SymplecticExpansion,
    build_symplectic_expansion,
    lie_bracket_of_word,
    omega,
)
from foxtwist.words import GroupWord
from test_expansion_solve import (
    basis_brackets,
    column_rows,
    random_matrix,
    rational,
    solve_both,
    solve_sparse,
    sparse_rows,
)


def build_with_full_cap_defects(genus, cap):
    """Oracle: the closed-form builder without cut defects.  A full-cap
    defect at every degree, inverse letters by ``.inverse()`` of exp(e),
    corrections from Fraction brackets (-(c/d) r(m[1:]) to b_i for a
    monomial m = a_i ..., +(c/d) r(m[1:]) to a_i for m = b_i ...) and
    images from one more exp pass at the end.  Returns (images, exponents)."""
    rank = 2 * genus
    boundary = SurfaceSpec(genus, cap).boundary_word()
    target = omega(genus, cap)

    def defect_series(exponents):
        theta = TwistAutomorphism(rank, cap, [e.exp() for e in exponents])
        return theta.apply_word(boundary).log() + target

    exponents = [TruncatedSeries.variable(rank, cap, i + 1) for i in range(rank)]
    assert defect_series(exponents).degree_part(2).is_zero()
    for degree in range(3, cap):
        defect = defect_series(exponents).degree_part(degree)
        for m, c in defect.terms.items():
            r = lie_bracket_of_word(rank, cap, m[1:])
            if m[0] % 2:
                exponents[m[0]] -= r.scale(c / degree)
            else:
                exponents[m[0] - 2] += r.scale(c / degree)
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


def top_degree(exponents):
    return max(len(m) for e in exponents for m in e.num)


@pytest.mark.parametrize("genus,cap", [(1, 3), (1, 4), (1, 7), (1, 10), (2, 5), (2, 6), (3, 4)])
def test_one_defect_per_set_of_exponents_at_the_least_cap(genus, cap, monkeypatch):
    events, made = [], []
    build = SymplecticExpansion.from_exponents.__func__

    def from_exponents(cls, genus_, cap_, exponents):
        made.append(build(cls, genus_, cap_, exponents))
        events.append(("defect", cap_, top_degree(exponents)))
        return made[-1]

    def counted_log(self):
        events.append(("log", self.cap))
        return log(self)

    def no_inverse(matrix):
        raise AssertionError("a build solved a series inverse")

    log = TruncatedSeries.log
    monkeypatch.setattr(SymplecticExpansion, "from_exponents", classmethod(from_exponents))
    monkeypatch.setattr(TruncatedSeries, "log", counted_log)
    monkeypatch.setattr(series, "series_matrix_inverse", no_inverse)
    e = build_symplectic_expansion(genus, cap)
    # A defect is an expansion and the log of its boundary image.  One to
    # start, for the degree-2 check and degree 3, on the letters; then one
    # after each correction, cut to serve the next degree, the last at the
    # full cap.  The degree-d correction raises the exponents to degree d - 1.
    defect = lambda top, corrected: [("defect", top, corrected), ("log", top)]
    want = defect(min(4, cap), 1)
    for degree in range(3, cap):
        want += defect(min(degree + 2, cap), degree - 1)
    assert events == want
    assert e is made[-1]


def test_a_zero_defect_part_takes_no_solve(monkeypatch):
    # Moving omega by the first defect's degree-3 part leaves degree 3
    # nothing to correct: the exponents stand, the defect in hand is
    # reused for that degree, and degree 4 needs one a cap higher.
    genus, cap = 1, 6
    boundary = SurfaceSpec(genus, cap).boundary_word()
    start = SymplecticExpansion.from_exponents(
        genus, cap, [TruncatedSeries.variable(2, cap, i) for i in (1, 2)])
    shifted = omega(genus, cap) - (start.apply_word(boundary).log()
                                   + omega(genus, cap)).degree_part(3)
    defects = []
    build = SymplecticExpansion.from_exponents.__func__

    def from_exponents(cls, genus_, cap_, exponents):
        defects.append((cap_, top_degree(exponents)))
        return build(cls, genus_, cap_, exponents)

    monkeypatch.setattr(SymplecticExpansion, "from_exponents", classmethod(from_exponents))
    monkeypatch.setattr(symplectic_tensor, "omega", lambda genus_, cap_: shifted)
    got = build_symplectic_expansion(genus, cap)
    # Corrections at degrees 4 and 5 only: no exponent term of degree 2.
    assert defects == [(4, 1), (5, 1), (6, 3), (6, 4)]
    assert all(e.degree_part(2).is_zero() for e in got.exponents)
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


# -- the solve oracle's back-substitution --------------------------------------


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
    rows, corrections = column_rows(6, basis_brackets(6, 3))
    rng = random.Random(2613)
    x0 = {column: rng.randint(1, 5) for column in rng.sample(range(len(corrections)), 4)}
    rhs = {m: sum(c * x0.get(column, 0) for column, c in row.items()) for m, row in rows.items()}
    got = solve_sparse(rows, rhs, len(corrections))
    assert got == solve_sparse_multiplying_every_unknown(rows, rhs, len(corrections))
    assert all(type(x) is Fraction for x in got)
    assert 0 < sum(1 for x in got if x) < len(corrections) // 10
