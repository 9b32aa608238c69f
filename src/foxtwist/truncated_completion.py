"""Truncated completion of a free-group algebra and its Hopf structure.

The completion map sends x_i to 1 + X_i and x_i^-1 to its inverse, the
geometric series sum (-1)^k X_i^k, then cuts at the degree cap.  Because the
degree filtration of a free-group algebra is faithful, an element lies
in the m-th power of the augmentation ideal exactly when its image at
cap m vanishes; that gives an exact membership test.

Tensors here are truncated by total degree: a monomial pair (m1, m2)
survives when len(m1) + len(m2) < cap.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .group_algebra import GroupAlgebraElement
from .series import (
    Substitution,
    TruncatedSeries,
    accumulate,
    as_fraction,
    commutator,
    frame_product,
    nonzero,
    series_matrix_inverse,
)

# Re-exported so that callers get the whole truncated layer from one place.
__all__ = [
    "TruncatedSeries",
    "TruncatedTensor",
    "commutator",
    "series_matrix_inverse",
    "embed",
    "counit",
    "fundamental_power_contains",
    "coproduct",
    "antipode",
    "antipode_coproduct",
    "tensor_outer",
    "sandwich",
    "conjugation_sum_series",
    "is_group_like",
    "is_primitive",
    "fox_left_series",
    "fox_right_series",
]


@lru_cache(maxsize=None)
def _identity_substitution(rank, cap):
    """X_i -> X_i, whose ``word`` is the completion map on group words."""
    return Substitution([1 + TruncatedSeries.variable(rank, cap, i + 1) for i in range(rank)])


def embed(element: GroupAlgebraElement, cap: int) -> TruncatedSeries:
    """Image of a group-algebra element in the cap-truncated completion."""
    word = _identity_substitution(element.rank, cap).word
    out = {}
    for letters, coeff in element.terms.items():
        accumulate(out, word(letters).terms.items(), coeff)
    return TruncatedSeries._raw(element.rank, cap, nonzero(out))


def counit(series: TruncatedSeries) -> Fraction:
    return series.constant_term()


def fundamental_power_contains(element: GroupAlgebraElement, m: int) -> bool:
    """Whether the element lies in the m-th power of the augmentation ideal."""
    if m <= 0:
        return True
    return embed(element, m).is_zero()


class TruncatedTensor:
    """Element of the completed tensor square, cut by total degree."""

    __slots__ = ("rank", "cap", "terms")

    def __init__(self, rank, cap, terms=None):
        items = (((tuple(left), tuple(right)), as_fraction(coeff))
                 for (left, right), coeff in (terms or {}).items()
                 if len(left) + len(right) < cap)
        self.rank = rank
        self.cap = cap
        self.terms = nonzero(accumulate({}, items))

    @classmethod
    def _raw(cls, rank, cap, terms):
        self = object.__new__(cls)
        self.rank = rank
        self.cap = cap
        self.terms = terms
        return self

    @classmethod
    def zero(cls, rank, cap):
        return cls._raw(rank, cap, {})

    def is_zero(self):
        return not self.terms

    def items(self):
        return self.terms.items()

    def coefficient(self, left, right):
        return self.terms.get((tuple(left), tuple(right)), Fraction(0))

    def _check_compatible(self, other):
        if self.rank != other.rank or self.cap != other.cap:
            raise ValueError("tensor rank or degree cap mismatch")

    def __add__(self, other):
        if not isinstance(other, TruncatedTensor):
            return NotImplemented
        self._check_compatible(other)
        out = accumulate(dict(self.terms), other.terms.items())
        return TruncatedTensor._raw(self.rank, self.cap, nonzero(out))

    def __neg__(self):
        return TruncatedTensor._raw(self.rank, self.cap,
                                    {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, TruncatedTensor):
            return NotImplemented
        return self + (-other)

    def scale(self, value):
        value = as_fraction(value)
        if not value:
            return TruncatedTensor.zero(self.rank, self.cap)
        return TruncatedTensor._raw(self.rank, self.cap,
                                    {k: c * value for k, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, TruncatedTensor):
            return NotImplemented
        self._check_compatible(other)
        out = {}
        for (al, ar), ca in self.terms.items():
            room = self.cap - len(al) - len(ar)
            accumulate(out, (((al + bl, ar + br), cb) for (bl, br), cb in other.terms.items()
                             if len(bl) + len(br) < room), ca)
        return TruncatedTensor._raw(self.rank, self.cap, nonzero(out))

    def __eq__(self, other):
        if not isinstance(other, TruncatedTensor):
            return NotImplemented
        return (self.rank == other.rank and self.cap == other.cap
                and self.terms == other.terms)

    def __repr__(self):
        n = len(self.terms)
        return f"<tensor with {n} term{'s' if n != 1 else ''} (cap {self.cap})>"


def tensor_outer(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedTensor:
    if a.rank != b.rank or a.cap != b.cap:
        raise ValueError("tensor factors need matching rank and degree cap")
    out = {}
    for ma, ca in a.terms.items():
        room = a.cap - len(ma)
        for mb, cb in b.terms.items():
            if len(mb) >= room:
                continue
            out[(ma, mb)] = ca * cb
    return TruncatedTensor._raw(a.rank, a.cap, out)


@lru_cache(maxsize=None)
def _coproduct_monomial(cap, monomial):
    # Delta(X_i) = X_i x 1 + 1 x X_i + X_i x X_i, extended multiplicatively.
    pairs = {((), ()): Fraction(1)}
    for letter in monomial:
        grown = {}
        for (left, right), c in pairs.items():
            for dl, dr in (((letter,), ()), ((), (letter,)), ((letter,), (letter,))):
                nl, nr = left + dl, right + dr
                if len(nl) + len(nr) >= cap:
                    continue
                key = (nl, nr)
                grown[key] = grown.get(key, 0) + c
        pairs = grown
    return pairs


def coproduct(series: TruncatedSeries) -> TruncatedTensor:
    out = {}
    for monomial, coeff in series.terms.items():
        accumulate(out, _coproduct_monomial(series.cap, monomial).items(), coeff)
    return TruncatedTensor._raw(series.rank, series.cap, nonzero(out))


@lru_cache(maxsize=None)
def _antipode_monomial(rank, cap, monomial):
    if not monomial:
        return TruncatedSeries.one(rank, cap)
    # Antipode is an anti-automorphism: S(m' X_i) = S(X_i) S(m').
    i = monomial[-1]
    letter = TruncatedSeries(rank, cap,
                             {(i,) * k: Fraction((-1) ** k) for k in range(1, cap)})
    return letter * _antipode_monomial(rank, cap, monomial[:-1])


def antipode(series: TruncatedSeries) -> TruncatedSeries:
    out = {}
    for monomial, coeff in series.terms.items():
        accumulate(out, _antipode_monomial(series.rank, series.cap, monomial).terms.items(), coeff)
    return TruncatedSeries._raw(series.rank, series.cap, nonzero(out))


@lru_cache(maxsize=None)
def _antipode_coproduct_monomial(rank, cap, monomial):
    out = {}
    for (left, right), mult in _coproduct_monomial(cap, monomial).items():
        room = cap - len(right)
        accumulate(out, (((ms, right), cs) for ms, cs in _antipode_monomial(rank, cap, left).items()
                         if len(ms) < room), mult)
    return TruncatedTensor._raw(rank, cap, nonzero(out))


def antipode_coproduct(series: TruncatedSeries) -> TruncatedTensor:
    """(S x id) applied to the coproduct of the series."""
    out = {}
    for monomial, coeff in series.terms.items():
        accumulate(out, _antipode_coproduct_monomial(series.rank, series.cap, monomial).items(),
                   coeff)
    return TruncatedTensor._raw(series.rank, series.cap, nonzero(out))


def sandwich(tensor: TruncatedTensor, filling: TruncatedSeries) -> TruncatedSeries:
    """Contract a tensor around a series: sum of left * filling * right."""
    if tensor.rank != filling.rank or tensor.cap != filling.cap:
        raise ValueError("sandwich needs matching rank and degree cap")
    return TruncatedSeries._raw(filling.rank, filling.cap,
                                frame_product([(tensor.terms, filling.terms)], filling.cap))


def conjugation_sum_series(v: TruncatedSeries, u: TruncatedSeries) -> TruncatedSeries:
    """Truncated conjugation sum: contract (S x id) of the coproduct of u
    around v."""
    return sandwich(antipode_coproduct(u), v)


def is_group_like(series: TruncatedSeries) -> bool:
    if series.constant_term() != 1:
        return False
    return coproduct(series) == tensor_outer(series, series)


def is_primitive(series: TruncatedSeries) -> bool:
    one = TruncatedSeries.one(series.rank, series.cap)
    expected = tensor_outer(series, one) + tensor_outer(one, series)
    return coproduct(series) == expected


def _strip_last(series: TruncatedSeries, index: int) -> TruncatedSeries:
    """The monomials ending with X_index, with that letter removed, at the
    same cap; only callers that know the stripped degrees are complete
    may keep that cap."""
    kept = {m[:-1]: c for m, c in series.terms.items() if m and m[-1] == index}
    return TruncatedSeries._raw(series.rank, series.cap, kept)


def _strip_first(series: TruncatedSeries, index: int) -> TruncatedSeries:
    """The monomials starting with X_index, with that letter removed."""
    kept = {m[1:]: c for m, c in series.terms.items() if m and m[0] == index}
    return TruncatedSeries._raw(series.rank, series.cap, kept)


def fox_left_series(series: TruncatedSeries, index: int) -> TruncatedSeries:
    """Left Fox derivative in the completion: the part of the series whose
    monomials end with X_index, with that last letter removed.  The result
    is only trustworthy one degree lower, so the cap drops by one."""
    if series.cap < 2:
        raise ValueError("a Fox derivative needs a degree cap of at least 2")
    return _strip_last(series, index).truncate(series.cap - 1)


def fox_right_series(series: TruncatedSeries, index: int) -> TruncatedSeries:
    """Right Fox derivative in the completion: strip a leading X_index."""
    if series.cap < 2:
        raise ValueError("a Fox derivative needs a degree cap of at least 2")
    return _strip_first(series, index).truncate(series.cap - 1)
