"""The rational group algebra of a free group, with exact arithmetic.

Elements are finite linear combinations of reduced words with rational
coefficients.  On top of the ring structure this module provides the
augmentation, the bar involution (reverse and invert every word), left
and right Fox derivatives, conjugation sums, and the projection onto
conjugacy classes.

Conventions used throughout the package:

* left Fox derivative:   d(ab) = d(a) aug(b) + a d(b),  d_i(x_j) = delta_ij,
  so an element expands as  a = aug(a) + sum_i d_i(a) (x_i - 1);
* right Fox derivative:  d(ab) = d(a) b + aug(a) d(b),  giving
  a = aug(a) + sum_i (x_i - 1) d^i(a);
* conjugation sum:       v^u = sum_x k_x x^-1 v x  for u = sum_x k_x x.

The invariant: ``num`` maps freely reduced words with letters in
+-1..+-rank to nonzero ints over ``den``, by the storage rule of
``series._IntTerms``.  The public constructor establishes it from
arbitrary input (the letter rule of ``words``, coefficient coercion,
free reduction, merging); every operation here keeps it by construction
and hands its int result and denominator to ``_raw``.  The seam rule: a
product of two reduced words can cancel only at the junction, so
``_seam`` reduces a + b by stripping the letters that meet there and
never rescans either word.  Prefixes,
suffixes and inverses of reduced words are reduced as they stand.
``fox_derivative_left``/``right`` and the halves of ``FoxPairing`` (in
``evaluate`` and ``derived_form_exact``) take all n Fox derivatives in one
int pass, ``_fox_derivatives``; those two and ``*`` multiply on one int
kernel, ``_seam_product``, the seam-rule analogue of ``series.frame_kernel``.
"""

from __future__ import annotations

from fractions import Fraction

from .series import (
    _IntTerms,
    _check_index,
    _check_operand,
    _positive_int,
    accumulate,
    as_fraction,
    nonzero,
    shortlex,
)
from .words import GroupWord, _checked_word


def _seam(a: tuple, b: tuple) -> tuple:
    """The reduced word of a + b, for reduced words a and b."""
    if not (a and b and a[-1] == -b[0]):
        return a + b
    k, limit = 1, min(len(a), len(b))
    while k < limit and a[-1 - k] == -b[k]:
        k += 1
    return a[:len(a) - k] + b[k:]


def _seam_product(pairs):
    """Sum of left * right over the pairs of {word: int} dicts, each
    product reduced by the seam rule; the result holds nonzero ints."""
    out = {}
    get = out.get
    for left, right in pairs:
        for ma, ca in left.items():
            for mb, cb in right.items():
                key = _seam(ma, mb) if ma and mb and ma[-1] == -mb[0] else ma + mb
                out[key] = get(key, 0) + ca * cb
    return nonzero(out)


class GroupAlgebraElement(_IntTerms):
    """A finite Q-linear combination of free-group words of a fixed rank."""

    __slots__ = ("rank",)
    _UNIT = ()

    def __init__(self, rank: int, terms=None):
        if not _positive_int(rank):
            raise ValueError(f"rank must be a positive integer, got {rank!r}")
        self.rank = rank
        self._store_fractions((_checked_word(rank, mono), as_fraction(coeff))
                              for mono, coeff in (terms or {}).items())

    @classmethod
    def _raw(cls, rank, num, den=1):
        # Internal constructor: num holds nonzero ints on reduced words.
        self = object.__new__(cls)
        self.rank = rank
        return self._store(num, den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "GroupAlgebraElement":
        return cls(rank, {})

    @classmethod
    def one(cls, rank: int) -> "GroupAlgebraElement":
        return cls(rank, {(): 1})

    @classmethod
    def from_word(cls, word: GroupWord, coeff=1) -> "GroupAlgebraElement":
        return cls._raw(word.rank, {word.letters: 1}).scale(coeff)

    @classmethod
    def generator(cls, rank: int, i: int, sign: int = 1) -> "GroupAlgebraElement":
        return cls.from_word(GroupWord.generator(rank, i, sign))

    # -- structure ---------------------------------------------------------

    def words(self):
        """Iterate over (GroupWord, coefficient) pairs."""
        for mono, coeff in self.terms.items():
            yield GroupWord(self.rank, mono), coeff

    def augmentation(self) -> Fraction:
        return Fraction(sum(self.num.values()), self.den)

    def bar(self) -> "GroupAlgebraElement":
        """The involution sending every word to its inverse."""
        return GroupAlgebraElement._raw(self.rank, {
            tuple(-x for x in reversed(mono)): coeff for mono, coeff in self.num.items()},
            self.den)

    # -- ring operations ---------------------------------------------------

    def _shape(self):
        return (self.rank,)

    def _check_compatible(self, other):
        if self.rank != other.rank:
            raise ValueError("rank mismatch between group algebra elements")

    def __mul__(self, other):
        if not isinstance(other, GroupAlgebraElement):
            return super().__mul__(other)
        self._check_compatible(other)
        return GroupAlgebraElement._raw(self.rank, _seam_product([(self.num, other.num)]),
                                        self.den * other.den)

    def __hash__(self):
        return hash((self.rank, self.den, frozenset(self.num.items())))

    def __repr__(self):
        if not self.num:
            return "<0>"
        parts = []
        for mono, coeff in sorted(self.terms.items(), key=lambda kv: shortlex(kv[0])):
            word = ".".join(f"x{x}" if x > 0 else f"x{-x}'" for x in mono) or "1"
            parts.append(f"{coeff}*{word}")
        return "<" + " + ".join(parts) + ">"


def _fox_derivatives(a: GroupAlgebraElement, right: bool = False) -> list:
    """All n left (right: right) Fox derivatives of a, in one pass, as
    {word: int} dicts over a.den: a letter x_i gives d_i the word's prefix
    before it (suffix after it), x_i^-1 minus the prefix through it
    (suffix from it)."""
    out = [{} for _ in range(a.rank)]
    for mono, coeff in a.num.items():
        for p, x in enumerate(mono):
            key = mono[p + (x > 0):] if right else mono[:p + (x < 0)]
            terms = out[abs(x) - 1]
            terms[key] = terms.get(key, 0) + (coeff if x > 0 else -coeff)
    return [nonzero(terms) for terms in out]


def fox_derivative_left(a: GroupAlgebraElement, i: int) -> GroupAlgebraElement:
    """Left Fox derivative: d(ab) = d(a) aug(b) + a d(b), d_i(x_j) = delta_ij."""
    return fox_derivative("left", i, a)


def fox_derivative_right(a: GroupAlgebraElement, i: int) -> GroupAlgebraElement:
    """Right Fox derivative: d(ab) = d(a) b + aug(a) d(b)."""
    return fox_derivative("right", i, a)


def fox_derivative(side: str, i: int, a: GroupAlgebraElement) -> GroupAlgebraElement:
    """The left or right Fox derivative d_i(a): one of ``_fox_derivatives``."""
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    _check_operand(a, GroupAlgebraElement, "a", "Fox derivative")
    _check_index(i, a.rank, "Fox derivative")
    return GroupAlgebraElement._raw(a.rank, _fox_derivatives(a, side == "right")[i - 1], a.den)


def conjugation_sum(v: GroupAlgebraElement, u: GroupAlgebraElement) -> GroupAlgebraElement:
    """v^u = sum_x k_x x^-1 v x, where u = sum_x k_x x.  Linear in both."""
    _check_operand(v, GroupAlgebraElement, "v", "conjugation_sum")
    _check_operand(u, GroupAlgebraElement, "u", "conjugation_sum")
    v._check_compatible(u)
    out = {}
    for mono, coeff in u.num.items():
        inv = tuple(-x for x in reversed(mono))
        accumulate(out, ((_seam(_seam(inv, mv), mono), cv) for mv, cv in v.num.items()),
                   coeff)
    return GroupAlgebraElement._raw(v.rank, nonzero(out), u.den * v.den)


def cyclic_projection(a: GroupAlgebraElement) -> GroupAlgebraElement:
    """Replace every word by the canonical representative of its conjugacy class."""
    _check_operand(a, GroupAlgebraElement, "a", "cyclic_projection")
    return GroupAlgebraElement._raw(a.rank, nonzero(accumulate({}, (
        (GroupWord(a.rank, mono).cyclic_normal_form().letters, coeff)
        for mono, coeff in a.num.items()))), a.den)
