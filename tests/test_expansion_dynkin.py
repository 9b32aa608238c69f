"""The symplectic-expansion builder corrects each degree in closed form.

By the Dynkin-Specht-Wever theorem a Lie element P of degree d satisfies
sum_m c_m [x_{m_1}, r(m_2 ... m_d)] = d P, r the right-nested bracket, so
the Lie defect part P is cancelled by -(c_m / d) r(m[1:]) in the exponent
of b_i for each monomial m = a_i ..., and +(c_m / d) r(m[1:]) in that of a_i
for m = b_i ....  Checked here: the identity itself, and at every degree of
a build, that this correction and the solve oracle's both cancel the same
defect part through the closed-form column map (itself checked against the
probed columns in ``test_expansion_solve``).
"""

import random
from fractions import Fraction

import pytest

from foxtwist import symplectic_tensor
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
from test_expansion_solve import basis_brackets, closed_form_column, column_rows, solve_sparse


def random_lie_element(rng, rank, degree):
    """A random rational combination of right-nested brackets of the degree."""
    out = TruncatedSeries.zero(rank, degree + 1)
    while out.is_zero():
        for _ in range(3):
            word = tuple(rng.randint(1, rank) for _ in range(degree))
            out += lie_bracket_of_word(rank, degree + 1, word).scale(
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    return out


@pytest.mark.parametrize("rank", [2, 4, 6])
def test_dynkin_identity(rank):
    rng = random.Random(2900 + rank)
    for degree in range(2, 8):
        for _ in range(3):
            p = random_lie_element(rng, rank, degree)
            total = {}
            for m, c in p.terms.items():
                r = lie_bracket_of_word(rank, degree, m[1:]).terms
                accumulate(total, _bracket_with(m[0], r).items(), c)
            assert nonzero(total) == p.scale(degree).terms, (rank, degree)


def apply_columns(columns):
    """Sum of the closed-form columns of {slot: terms}: the defect change."""
    out = {}
    for slot, terms in columns.items():
        accumulate(out, closed_form_column(slot, terms).items())
    return nonzero(out)


DIFFERENTIAL_CELLS = ([(1, cap) for cap in range(3, 11)] + [(2, cap) for cap in range(3, 8)]
                      + [(3, cap) for cap in range(4, 7)] + [(4, 4), (4, 5), (5, 4)])


@pytest.mark.parametrize("genus,cap", DIFFERENTIAL_CELLS)
def test_closed_form_and_solve_cancel_the_same_defect(genus, cap):
    e = build_symplectic_expansion(genus, cap)
    assert e.is_group_like() and e.is_symplectic()
    rank = 2 * genus
    boundary = SurfaceSpec(genus, cap).boundary_word()
    for degree in range(3, cap):
        # The degree-d defect comes from the exponents below degree d - 1,
        # and the degree-d correction is the exponents' degree d - 1 part.
        top = degree + 1
        cut = [x.truncate(top) for x in e.exponents]
        below = [x - x.degree_part(degree - 1) - x.degree_part(degree) for x in cut]
        theta = SymplecticExpansion.from_exponents(genus, top, below)
        part = (theta.apply_word(boundary).log() + omega(genus, top)).degree_part(degree)
        want = {m: -c for m, c in part.terms.items()}
        closed_form = {slot: x.degree_part(degree - 1).terms for slot, x in enumerate(cut)}
        assert apply_columns(closed_form) == want, degree
        rows, corrections = column_rows(rank, basis_brackets(rank, degree - 1))
        solution = solve_sparse(rows, want, len(corrections))
        assert solution is not None, degree
        solved = {}
        for x, (slot, bracket) in zip(solution, corrections):
            accumulate(solved.setdefault(slot, {}), bracket.items(), x)
        assert apply_columns({slot: nonzero(terms) for slot, terms in solved.items()}) == want


def test_a_corrupted_correction_fails_the_closing_check(monkeypatch):
    # Doubling the first nonzero bracket the build makes leaves a degree-3
    # residual -(1/3) [sum_x c_x x, r(w)] that no later degree touches.
    spoiled = []
    bracket_with = symplectic_tensor._bracket_with

    def corrupted(letter, bracket):
        out = bracket_with(letter, bracket)
        if out and not spoiled:
            spoiled.append(letter)
            out = {m: 2 * c for m, c in out.items()}
        return out

    monkeypatch.setattr(symplectic_tensor, "_bracket_with", corrupted)
    with pytest.raises(SolverError, match="did not close"):
        build_symplectic_expansion(1, 5)
    assert spoiled
