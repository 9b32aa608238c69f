"""Freely reduced words in a finitely generated free group.

A word is stored as a tuple of nonzero signed indices: ``+i`` is the
i-th generator, ``-i`` its inverse (1-based, ``i <= rank``).  Every
constructor freely reduces, so two tuples represent the same group
element exactly when the GroupWord objects compare equal.

The letter order used for canonical conjugacy representatives puts all
positive generators before all inverses:

    x1 < x2 < ... < xn < x1^-1 < x2^-1 < ... < xn^-1
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .series import _positive_int, binary_power


def _free_reduce(letters) -> tuple:
    out = []
    for x in letters:
        if out and out[-1] == -x:
            del out[-1]
        else:
            out.append(x)
    return tuple(out)


def _checked_word(rank, letters) -> tuple:
    """The free reduction of letters, checked first and never coerced:
    every letter is an int (not a bool) with 1 <= |x| <= rank.  The caller
    has already checked rank by ``series._positive_int``."""
    letters = tuple(letters)
    for x in letters:
        if type(x) is not int or not 0 < abs(x) <= rank:
            raise ValueError(f"letter {x!r} is not a nonzero int within rank {rank}")
    return _free_reduce(letters)


def letter_sort_key(letter: int) -> tuple:
    return (0, letter) if letter > 0 else (1, -letter)


@dataclass(frozen=True)
class GroupWord:
    rank: int
    letters: tuple = ()

    def __post_init__(self):
        if not _positive_int(self.rank):
            raise ValueError(f"rank must be a positive integer, got {self.rank!r}")
        object.__setattr__(self, "letters", _checked_word(self.rank, self.letters))

    @classmethod
    def identity(cls, rank: int) -> "GroupWord":
        return cls(rank, ())

    @classmethod
    def generator(cls, rank: int, i: int, sign: int = 1) -> "GroupWord":
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return cls(rank, (sign * i,))

    def __len__(self) -> int:
        return len(self.letters)

    def __mul__(self, other: "GroupWord") -> "GroupWord":
        if not isinstance(other, GroupWord):
            return NotImplemented
        if other.rank != self.rank:
            raise ValueError("rank mismatch in word product")
        return GroupWord(self.rank, self.letters + other.letters)

    def inverse(self) -> "GroupWord":
        return GroupWord(self.rank, tuple(-x for x in reversed(self.letters)))

    def conjugated_by(self, v: "GroupWord") -> "GroupWord":
        """Reduction of v^-1 * self * v."""
        return v.inverse() * self * v

    def __pow__(self, n: int) -> "GroupWord":
        if n < 0:
            return self.inverse() ** (-n)
        return binary_power(GroupWord.identity(self.rank), self, n, operator.mul)

    def cyclically_reduced(self) -> "GroupWord":
        w = list(self.letters)
        while len(w) >= 2 and w[0] == -w[-1]:
            w = w[1:-1]
        return GroupWord(self.rank, tuple(w))

    def cyclic_normal_form(self) -> "GroupWord":
        """Least rotation of the cyclic reduction; canonical in its conjugacy class."""
        w = self.cyclically_reduced().letters
        if not w:
            return GroupWord(self.rank, ())
        rotations = (w[i:] + w[:i] for i in range(len(w)))
        best = min(rotations, key=lambda rot: tuple(letter_sort_key(x) for x in rot))
        return GroupWord(self.rank, best)

    def exponent_sums(self) -> list:
        """Abelianized coordinates, one integer per generator."""
        sums = [0] * self.rank
        for x in self.letters:
            sums[abs(x) - 1] += 1 if x > 0 else -1
        return sums

    def __repr__(self) -> str:
        return f"GroupWord({self.rank}, {format_word(self)!r})"


# Longest word parse_word expands, counted before free reduction; a
# power such as x1^100000000 would otherwise allocate every letter.
MAX_WORD_LENGTH = 10_000


def default_names(rank: int) -> list:
    return [f"x{i}" for i in range(1, rank + 1)]


def parse_word(text: str, rank: int, names=None) -> GroupWord:
    """Parse whitespace-separated tokens ``name`` or ``name^k`` (k an integer).

    The empty string is the identity.  Unknown names, malformed powers
    and words longer than MAX_WORD_LENGTH letters (before free
    reduction) raise ValueError.
    """
    if names is None:
        names = default_names(rank)
    if isinstance(names, dict):
        mapping = names
    else:
        mapping = {name: i + 1 for i, name in enumerate(names)}
    letters = []
    for token in text.split():
        base, sep, power_text = token.partition("^")
        if sep:
            try:
                power = int(power_text)
            except ValueError:
                raise ValueError(f"bad power in token {token!r}") from None
        else:
            power = 1
        if base not in mapping:
            raise ValueError(f"unknown generator name {base!r}")
        if len(letters) + abs(power) > MAX_WORD_LENGTH:
            raise ValueError(f"word longer than {MAX_WORD_LENGTH} letters")
        idx = mapping[base]
        letters.extend([idx if power > 0 else -idx] * abs(power))
    return GroupWord(rank, tuple(letters))


def format_word(word: GroupWord, names=None) -> str:
    """Inverse of parse_word; the identity formats as the empty string."""
    if names is None:
        names = default_names(word.rank)
    tokens = []
    for x in word.letters:
        name = names[abs(x) - 1]
        tokens.append(name if x > 0 else f"{name}^-1")
    return " ".join(tokens)
