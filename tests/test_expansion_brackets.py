"""The solve oracle's basis of brackets, and inverse letters by the
tensor-algebra antipode.

``build_by_solve`` takes each degree's columns from the right-nested
brackets [h, B], B kept at the degree below, kept when they are not a
combination of earlier kept ones: rank x Witt(d - 1) columns at degree d.
An expansion made ``from_exponents`` maps the letter -i to the antipode of
exp(e_i), which is exp(-e_i) because e_i is a Lie series.

Run as a script, the file checks the expansion bytes at the dense cells
that the test suite leaves out: the solve oracle's at (2, 8), (3, 6) and
(4, 5), and ``build_symplectic_expansion``'s at those and at (3, 7) and
(1, 12), each of these also group-like and symplectic (about 7 s and
310 MB on one 2-CPU machine)::

    PYTHONPATH=src python tests/test_expansion_brackets.py
"""

import itertools
import random
from fractions import Fraction

import pytest

import test_expansion_solve
from foxtwist.derived_twists import TwistAutomorphism
from foxtwist.formats import expansion_from_dict, expansion_to_dict
from foxtwist.series import TruncatedSeries, accumulate, nonzero
from foxtwist.symplectic_tensor import (
    SymplecticExpansion,
    build_symplectic_expansion,
    lie_bracket_of_word,
)
from foxtwist.words import GroupWord
from test_expansion_defects import SIGNED_WORD_CELLS
from test_expansion_solve import basis_brackets, build_by_solve, expansion_sha256, independent


def mobius(n):
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def witt(rank, n):
    """dim L_n of the free Lie algebra on rank letters: the necklace count
    (1/n) sum_{d | n} mu(d) rank^(n/d)."""
    return sum(mobius(d) * rank ** (n // d) for d in range(1, n + 1) if n % d == 0) // n


def test_witt_counts():
    assert [witt(2, n) for n in range(1, 9)] == [2, 1, 2, 3, 6, 9, 18, 30]
    assert [witt(4, n) for n in range(1, 6)] == [4, 6, 20, 60, 204]
    assert witt(6, 3) == 70


def reduce_by_fractions(row, echelon):
    """Oracle: row minus its combination of the echelon rows, each led
    (with coefficient 1) by its smallest monomial, in Fractions."""
    row = {m: Fraction(c) for m, c in row.items()}
    while row:
        lead = min(row)
        pivot = echelon.get(lead)
        if pivot is None:
            return row
        row = nonzero(accumulate(dict(row), pivot.items(), -row[lead]))
    return row


@pytest.mark.parametrize("rank", [2, 4, 6])
def test_kept_brackets_are_a_basis_in_word_order(rank):
    # Every right-nested bracket of every word, in lexicographic order,
    # against the kept ones before it: a kept one is independent of them,
    # a dropped one lies in their span.
    kept = {degree: basis_brackets(rank, degree) for degree in range(2, 6)}
    for degree in range(2, 6):
        assert len(kept[degree]) == witt(rank, degree)
        assert list(kept[degree]) == sorted(kept[degree])
        echelon = {}
        for word in itertools.product(range(1, rank + 1), repeat=degree):
            bracket = lie_bracket_of_word(rank, degree + 1, word).terms
            rest = reduce_by_fractions(bracket, echelon)
            if word in kept[degree]:
                assert kept[degree][word] == bracket
                assert rest, word
                lead = min(rest)
                echelon[lead] = {m: c / rest[lead] for m, c in rest.items()}
            else:
                assert not rest, word
        assert len(echelon) == witt(rank, degree)


def test_independent_keeps_the_first_of_dependent_rows():
    rows = {"a": {(1,): 2, (2,): 4}, "b": {(1,): 1, (2,): 2}, "c": {}, "d": {(2,): 3},
            "e": {(1,): 5, (2,): -7}, "f": {(3,): 1}}
    assert list(independent(rows)) == ["a", "d", "f"]
    assert independent(rows)["a"] is rows["a"]


COLUMN_CELLS = ([(1, cap) for cap in range(3, 11)] + [(2, cap) for cap in range(3, 8)]
                + [(3, cap) for cap in range(3, 6)] + [(4, 4), (4, 5)])


@pytest.mark.parametrize("genus,cap", COLUMN_CELLS)
def test_each_solve_takes_rank_times_witt_columns(genus, cap, monkeypatch):
    solved = []
    solve = test_expansion_solve.solve_sparse

    def recording(rows, rhs, columns):
        (degree,) = {len(m) for m in rhs}
        solved.append((degree, columns))
        return solve(rows, rhs, columns)

    monkeypatch.setattr(test_expansion_solve, "solve_sparse", recording)
    build_by_solve(genus, cap)
    rank = 2 * genus
    assert solved == [(d, rank * witt(rank, d - 1)) for d in range(3, cap)]


@pytest.mark.parametrize("genus,cap", [(1, 3), (1, 7), (2, 5), (2, 6), (3, 4)])
def test_a_build_makes_no_exp_for_an_inverse_letter(genus, cap, monkeypatch):
    exps, builds = [], []
    exp = TruncatedSeries.exp
    build = SymplecticExpansion.from_exponents.__func__

    def counted_exp(self):
        exps.append(self)
        return exp(self)

    def counted_build(cls, genus_, cap_, exponents):
        builds.append(cap_)
        return build(cls, genus_, cap_, exponents)

    monkeypatch.setattr(TruncatedSeries, "exp", counted_exp)
    monkeypatch.setattr(SymplecticExpansion, "from_exponents", classmethod(counted_build))
    e = build_symplectic_expansion(genus, cap)
    # One exp per image of every expansion the build makes, none more.
    assert len(exps) == e.rank * len(builds)
    assert list(e.images) == [x.exp() for x in e.exponents]


@pytest.mark.parametrize("genus,cap", SIGNED_WORD_CELLS)
def test_antipode_inverse_equals_exp_of_minus_e_and_the_solved_inverse(genus, cap,
                                                                       monkeypatch):
    e = build_symplectic_expansion(genus, cap)
    reloaded = expansion_from_dict(expansion_to_dict(e))
    plain = TwistAutomorphism(e.rank, e.cap, e.images)
    want = [(-x).exp() for x in e.exponents]
    monkeypatch.setattr(TruncatedSeries, "exp", None)  # the antipode takes no exp
    for i, image in enumerate(e.images, start=1):
        got = e._inverse_image(i)
        assert (got.num, got.den) == (want[i - 1].num, want[i - 1].den)
        assert got == reloaded._inverse_image(i) == plain._inverse_image(i)
        assert got * image == 1 == image * got


def random_lie_series(rng, rank, cap, letter):
    """The letter plus a random rational combination of brackets of
    degrees 2 .. cap - 1."""
    out = TruncatedSeries.variable(rank, cap, letter)
    for degree in range(2, cap):
        for _ in range(2):
            word = tuple(rng.randint(1, rank) for _ in range(degree))
            out += lie_bracket_of_word(rank, cap, word).scale(Fraction(rng.randint(-5, 5),
                                                                       rng.randint(1, 4)))
    return out


@pytest.mark.parametrize("genus,cap", [(1, 3), (1, 6), (2, 5), (3, 4)])
def test_antipode_inverts_exp_of_any_lie_exponents(genus, cap):
    rng = random.Random(2800 + 10 * genus + cap)
    rank = 2 * genus
    e = SymplecticExpansion.from_exponents(
        genus, cap, [random_lie_series(rng, rank, cap, i) for i in range(1, rank + 1)])
    plain = TwistAutomorphism(rank, cap, e.images)
    for i, (image, x) in enumerate(zip(e.images, e.exponents), start=1):
        assert e._inverse_image(i) == (-x).exp() == image.inverse()
    word = GroupWord(rank, tuple(rng.choice((1, -1)) * rng.randint(1, rank) for _ in range(9)))
    assert e.apply_word(word) == plain.apply_word(word)


def test_the_antipode_is_no_inverse_off_the_lie_contract():
    # exp(X1 + X1 X2) is not group-like, and its antipode is not its inverse.
    x = TruncatedSeries(2, 4, {(1,): 1, (1, 2): 1})
    e = SymplecticExpansion.from_exponents(1, 4, [x, TruncatedSeries.variable(2, 4, 2)])
    assert e._inverse_image(1) != e.images[0].inverse()
    assert e._inverse_image(2) == e.images[1].inverse()


# SHA-256 of the expansion JSON at cells beyond the tier-1 pins: the solve
# oracle's, as built over all right-nested brackets with inverse letters
# by exp(-e), and build_symplectic_expansion's, each degree in closed form.
DENSE_EXPANSION_SHA256 = {
    (2, 8): "b15e19541412f41ba8f0f015b86e68f3e5b9770cd6c471a5787db731a6699c85",
    (3, 6): "6672f56b62849b6b2c1fd43db096eed2a09d4ba86f618bb938f5fa6c1d0e2252",
    (4, 5): "930d544af548be35678b036cdddac38923c755b8eafccc1146a2fe3425d364f6",
}
DENSE_CLOSED_FORM_SHA256 = {
    (1, 12): "57df30ee74129b8af12edeb4a95aa9f56f3eb937572b6df740e54ff1152884b3",
    (2, 8): "adc040ee07e82073381b68f15d45adf946acaf9a982ee1039f617001a96284a9",
    (3, 6): "bd29afbc7112e7d01f8b2e7e4bef13e8795ffaa706f0541055c87d564632e3af",
    (3, 7): "62c1a069866f3919fb2e5bf4a4a72ef8ea6db9faeb7fdb760a31311f3481cc45",
    (4, 5): "cc4e108c14855120690f042166d57ee930495e1fcf11cd27bf6e703cb44fe315",
}


if __name__ == "__main__":
    for (genus, cap), want in sorted(DENSE_EXPANSION_SHA256.items()):
        assert expansion_sha256(build_by_solve(genus, cap)) == want, (genus, cap)
        print("genus %d cap %d: solve-route expansion bytes match" % (genus, cap))
    for (genus, cap), want in sorted(DENSE_CLOSED_FORM_SHA256.items()):
        e = build_symplectic_expansion(genus, cap)
        assert expansion_sha256(e) == want, (genus, cap)
        assert e.is_group_like() and e.is_symplectic(), (genus, cap)
        print("genus %d cap %d: expansion bytes match, group-like and symplectic"
              % (genus, cap))
