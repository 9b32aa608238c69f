"""``embed`` keeping prefix images within one call, against the per-word
route it replaced: every word's image built from the empty word."""

import random
from fractions import Fraction

import pytest

from foxtwist import truncated_completion
from foxtwist.group_algebra import GroupAlgebraElement
from foxtwist.series import TruncatedSeries, accumulate, nonzero
from foxtwist.surfaces import SurfaceSpec
from foxtwist.truncated_completion import _word_image, embed
from foxtwist.words import GroupWord


def embed_word_by_word(element, cap):
    """Oracle: the former ``embed``, one ``_word_image`` per word."""
    out = {}
    for letters, coeff in element.num.items():
        accumulate(out, _word_image(letters, cap).items(), coeff)
    return TruncatedSeries._raw(element.rank, cap, nonzero(out), element.den)


def random_word(rng, rank, longest):
    return GroupWord(rank, tuple(rng.choice((1, -1)) * rng.randint(1, rank)
                                 for _ in range(rng.randint(0, longest))))


def product_of_factors(rng, rank, factors):
    """prod (w_j - 1) for random words w_j, scaled by a random rational."""
    one = GroupAlgebraElement.one(rank)
    element = one
    for _ in range(factors):
        element = element * (GroupAlgebraElement.from_word(random_word(rng, rank, 4)) - one)
    return element.scale(Fraction(rng.randint(-7, 7) or 1, rng.randint(1, 5)))


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_embed_matches_the_per_word_route(rank):
    rng = random.Random(2900 + rank)
    for cap in range(1, 9):
        elements = [product_of_factors(rng, rank, factors) for factors in range(6)]
        elements.append(GroupAlgebraElement.zero(rank))
        words = [random_word(rng, rank, 7) for _ in range(4)]
        # Words that are prefixes of one another, and a lone word.
        elements.append(sum((GroupAlgebraElement.from_word(GroupWord(rank, w.letters[:k]))
                             for w in words for k in range(len(w.letters) + 1)),
                            GroupAlgebraElement.zero(rank)))
        elements.append(GroupAlgebraElement.from_word(words[0], Fraction(-3, 2)))
        for element in elements:
            got, want = embed(element, cap), embed_word_by_word(element, cap)
            assert (got.rank, got.cap, got.num, got.den) == \
                (want.rank, want.cap, want.num, want.den), (element, cap)


def letters_grown(monkeypatch):
    grown = []
    word_image = truncated_completion._word_image

    def counted(letters, cap, terms=None):
        grown.append(len(letters))
        return word_image(letters, cap, terms)

    monkeypatch.setattr(truncated_completion, "_word_image", counted)
    return grown


def test_a_shared_prefix_is_grown_once(monkeypatch):
    grown = letters_grown(monkeypatch)
    x = lambda *letters: GroupAlgebraElement.from_word(GroupWord(3, letters))
    element = x(1, 2, 3) + x(1, 2, -3) + x(1, 2) + x(2, 1) + x()
    assert embed(element, 6) == embed_word_by_word(element, 6)
    # Sorted: (), (1, 2), (1, 2, -3), (1, 2, 3), (2, 1).  (1, 2) is grown
    # once, each of its extensions by one letter, (2, 1) from the empty word.
    assert sum(grown) == 2 + 1 + 1 + 2


@pytest.mark.parametrize("genus", [1, 3, 20])
def test_a_single_word_grows_each_letter_once(genus, monkeypatch):
    grown = letters_grown(monkeypatch)
    boundary = SurfaceSpec(genus, 4).boundary_word()
    element = GroupAlgebraElement.from_word(boundary)
    assert embed(element, 4) == embed_word_by_word(element, 4)
    assert sum(grown) == len(boundary.letters)
