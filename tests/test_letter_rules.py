"""Differential tests for the one letter-rule engine of the Hopf maps.

``truncated_completion._monomial_frames`` extends a rule for one letter
multiplicatively to a monomial, prefix by prefix.  The three helpers it
replaced are kept here as oracles: the letter-by-letter coproduct loop,
the antipode as a product of ``TruncatedSeries``, and (S x id)Delta as
their composite.  Every comparison is ``==`` on int coefficients.  The
rules are also pinned to the group side, where Delta(w) = w x w,
S(w) = w^-1 and (S x id)Delta(w) = w^-1 x w.
"""

import itertools
import random
from functools import lru_cache

import pytest

from foxtwist.group_algebra import GroupAlgebraElement
from foxtwist.series import TruncatedSeries, accumulate, nonzero
from foxtwist.truncated_completion import (
    ANTIPODE_LETTER,
    CONJUGATION_LETTER,
    GROUP_LETTER,
    PRIMITIVE_LETTER,
    _monomial_frames,
    antipode,
    antipode_coproduct,
    coproduct,
    embed,
    tensor_outer,
)
from foxtwist.words import GroupWord

# The (left, right) copies of X in each term of Delta(X).
GROUP_SHARES = ((1, 0), (0, 1), (1, 1))
PRIMITIVE_SHARES = ((1, 0), (0, 1))

GRID = [(rank, cap) for rank in (1, 2, 3) for cap in range(1, 8)] + [(4, 5)]


@lru_cache(maxsize=None)
def coproduct_monomial_by_letters(cap, monomial, shares):
    """Oracle: the former ``_coproduct_monomial``, a letter rule extended
    multiplicatively one letter at a time."""
    pairs = {((), ()): 1}
    for letter in monomial:
        grown = {}
        for (left, right), c in pairs.items():
            for dl, dr in shares:
                nl, nr = left + (letter,) * dl, right + (letter,) * dr
                if len(nl) + len(nr) < cap:
                    grown[nl, nr] = grown.get((nl, nr), 0) + c
        pairs = grown
    return pairs


@lru_cache(maxsize=None)
def antipode_monomial_by_series(rank, cap, monomial):
    """Oracle: the former ``_antipode_monomial``, S(m' X_i) = S(X_i) S(m')
    as a product of series."""
    if not monomial:
        return TruncatedSeries.one(rank, cap)
    i = monomial[-1]
    letter = TruncatedSeries._raw(rank, cap, {(i,) * k: (-1) ** k for k in range(1, cap)})
    return letter * antipode_monomial_by_series(rank, cap, monomial[:-1])


@lru_cache(maxsize=None)
def antipode_coproduct_monomial_by_composite(rank, cap, monomial):
    """Oracle: the former ``_antipode_coproduct_monomial``, the antipode of
    each left leg of the group coproduct."""
    out = {}
    for (left, right), mult in coproduct_monomial_by_letters(cap, monomial, GROUP_SHARES).items():
        room = cap - len(right)
        accumulate(out, (((ms, right), cs)
                         for ms, cs in antipode_monomial_by_series(rank, cap, left).num.items()
                         if len(ms) < room), mult)
    return nonzero(out)


def oracle_frames(rank, cap, monomial, rule):
    if rule == GROUP_LETTER:
        return coproduct_monomial_by_letters(cap, monomial, GROUP_SHARES)
    if rule == PRIMITIVE_LETTER:
        return coproduct_monomial_by_letters(cap, monomial, PRIMITIVE_SHARES)
    if rule == ANTIPODE_LETTER:
        series = antipode_monomial_by_series(rank, cap, monomial)
        assert series.den == 1
        return {(m, ()): c for m, c in series.num.items()}
    return antipode_coproduct_monomial_by_composite(rank, cap, monomial)


def monomials_below(rank, cap):
    return [m for length in range(cap)
            for m in itertools.product(range(1, rank + 1), repeat=length)]


RULES = [GROUP_LETTER, PRIMITIVE_LETTER, ANTIPODE_LETTER, CONJUGATION_LETTER]


@pytest.mark.parametrize("rule", RULES)
@pytest.mark.parametrize("rank, cap", GRID)
def test_engine_matches_the_replaced_helpers(rank, cap, rule):
    for monomial in monomials_below(rank, cap):
        frames = _monomial_frames(cap, monomial, rule)
        assert frames == oracle_frames(rank, cap, monomial, rule), (monomial, rule)
        assert all(type(c) is int and c for c in frames.values())


@pytest.mark.parametrize("rank, cap", GRID)
def test_group_rule_one_degree_above_the_cap(rank, cap):
    # derived_generator_values splits each monomial below the cap at cap + 1.
    for monomial in monomials_below(rank, cap):
        assert (_monomial_frames(cap + 1, monomial, GROUP_LETTER)
                == coproduct_monomial_by_letters(cap + 1, monomial, GROUP_SHARES))


def iota(letters, rank, cap):
    return embed(GroupAlgebraElement.from_word(GroupWord(rank, letters)), cap)


@pytest.mark.parametrize("rank, cap", [(rank, cap) for rank in (1, 2, 3) for cap in range(1, 8)])
def test_rules_agree_with_the_group_side(rank, cap):
    rng = random.Random(1000 * rank + cap)
    alphabet = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    for _ in range(20):
        word = GroupWord(rank, tuple(rng.choice(alphabet) for _ in range(rng.randint(0, 6))))
        w = iota(word.letters, rank, cap)
        w_inv = iota(word.inverse().letters, rank, cap)
        assert antipode_coproduct(w) == tensor_outer(w_inv, w)
        assert coproduct(w) == tensor_outer(w, w)
        assert antipode(w) == w_inv
