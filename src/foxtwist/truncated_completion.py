"""Truncated completion of a free-group algebra and its Hopf structure.

The completion map sends x_i to 1 + X_i and x_i^-1 to its inverse, the
geometric series sum (-1)^k X_i^k, then cuts at the degree cap; ``embed``
builds word images on ints and joins once.  Because the
degree filtration of a free-group algebra is faithful, an element lies
in the m-th power of the augmentation ideal exactly when its image at
cap m vanishes; that gives an exact membership test.

Tensors here are frames {(m1, m2): c}, truncated by total degree: a pair
survives when len(m1) + len(m2) < cap.  One cached int engine,
``_monomial_frames``, builds every Hopf map from a rule for one letter X:
the group rule X x 1 + 1 x X + X x X of ``coproduct``, the primitive rule
X x 1 + 1 x X of the tensor algebra over H
(``symplectic_tensor.tensor_coproduct``), the antipode rule
S(X) = x^-1 - 1 of ``antipode``, and the conjugation rule
(S x id)Delta(X) = x^-1 x x - 1 x 1 of ``antipode_coproduct`` and
``conjugation_sum_series``.  So every embedded group element w is
group-like, with S(w) = w^-1 and (S x id)Delta(w) = w^-1 x w.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .group_algebra import GroupAlgebraElement
from .series import (
    TruncatedSeries,
    _Truncated,
    _check_cap,
    _check_index,
    _check_shape,
    _checked_items,
    accumulate,
    frame_kernel,
    nonzero,
)

# The public names of the truncated layer; series names live in ``series``.
__all__ = [
    "TruncatedTensor",
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


def _word_image(letters, cap, terms=None):
    """A word's image as {monomial: nonzero int}, grown letter by letter from
    ``terms``: x_i appends X_i, x_i^-1 sum_k (-1)^k X_i^k, below the cap."""
    terms = {(): 1} if terms is None else terms
    for x in letters:
        grown = dict(terms)
        for m, c in terms.items():
            for k in range(1, min(2 if x > 0 else cap, cap - len(m))):
                key = m + (abs(x),) * k
                grown[key] = grown.get(key, 0) + (-c if x < 0 and k % 2 else c)
        terms = nonzero(grown)
    return terms


def embed(element: GroupAlgebraElement, cap: int) -> TruncatedSeries:
    """Image of a group-algebra element at a positive int cap, on ints.
    Sorted words start from the image of the prefix shared with the last."""
    _check_cap(cap)
    out = {}
    words = sorted(element.num)
    stack = [(0, {(): 1})]  # (length, image) of the current word's kept prefixes
    for k, letters in enumerate(words, 1):
        start, terms = stack[-1]
        shared = 0
        if k < len(words):  # keep the prefix shared with the next word
            for x, y in zip(letters, words[k]):
                if x != y:
                    break
                shared += 1
            if shared > start:
                start, terms = shared, _word_image(letters[start:shared], cap, terms)
                stack.append((start, terms))
        accumulate(out, _word_image(letters[start:], cap, terms).items(), element.num[letters])
        while stack[-1][0] > shared:
            stack.pop()
    return TruncatedSeries._raw(element.rank, cap, nonzero(out), element.den)


def counit(series: TruncatedSeries) -> Fraction:
    return series.constant_term()


def fundamental_power_contains(element: GroupAlgebraElement, m: int) -> bool:
    """Whether the element lies in the m-th power of the augmentation ideal."""
    if m <= 0:
        return True
    return embed(element, m).is_zero()


class TruncatedTensor(_Truncated):
    """Frames {(left, right): c} of the completed tensor square, cut by
    total degree and stored by the rule of ``series._IntTerms``;
    ``frame_kernel`` takes their ``num`` as its frames.  Tensors add,
    subtract and scale like series of the same rank and cap."""

    __slots__ = ()
    _UNIT = ((), ())

    def __init__(self, rank, cap, terms=None):
        _check_shape(rank, cap)
        # The right side gets the room the left one leaves below the cap.
        items = (((left, right), coeff)
                 for (left, right), c in (terms or {}).items()
                 for left, coeff in _checked_items(rank, cap, {left: c})
                 for right, _ in _checked_items(rank, cap - len(left), {right: c}))
        self.rank = rank
        self.cap = cap
        self._store_fractions(items)

    def __repr__(self):
        n = len(self.num)
        return f"<tensor with {n} term{'s' if n != 1 else ''} (cap {self.cap})>"


def tensor_outer(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedTensor:
    if a.rank != b.rank or a.cap != b.cap:
        raise ValueError("tensor factors need matching rank and degree cap")
    out = {}
    for ma, ca in a.num.items():
        room = a.cap - len(ma)
        for mb, cb in b.num.items():
            if len(mb) >= room:
                continue
            out[(ma, mb)] = ca * cb
    return TruncatedTensor._raw(a.rank, a.cap, out, a.den * b.den)


# The letter rules, in one table.  Below a cap, a rule gives whether it is
# antipodal (S reverses products, so each new letter's left share goes in
# front of the left leg) and the terms (a, b, sign) of the image of one
# letter X as sign * X^a x X^b, by rising degree a + b.
GROUP_LETTER, PRIMITIVE_LETTER = "group", "primitive"
ANTIPODE_LETTER, CONJUGATION_LETTER = "antipode", "conjugation"
_LETTER_RULES = {
    # Delta(X) = X x 1 + 1 x X + X x X, so every 1 + X_i is group-like.
    GROUP_LETTER: lambda cap: (False, ((1, 0, 1), (0, 1, 1), (1, 1, 1))),
    # X x 1 + 1 x X, the tensor algebra over H.
    PRIMITIVE_LETTER: lambda cap: (False, ((1, 0, 1), (0, 1, 1))),
    # S(X) = x^-1 - 1 = sum_{a >= 1} (-1)^a X^a, on the left leg.
    ANTIPODE_LETTER: lambda cap: (True, [(a, 0, (-1) ** a) for a in range(1, cap)]),
    # (S x id)Delta(X) = x^-1 x x - 1 x 1.
    CONJUGATION_LETTER: lambda cap: (True, [(a, b, (-1) ** a) for a in range(cap)
                                            for b in (0, 1) if a or b]),
}


@lru_cache(maxsize=None)
def _monomial_frames(cap, monomial, rule):
    """A letter rule extended to one monomial as int frames below the cap:
    its longest proper prefix's frames times the rule of its last letter.
    No letter term is 1 x 1, so cutting each prefix loses nothing."""
    if not monomial:
        return {((), ()): 1}
    antipodal, terms = _LETTER_RULES[rule](cap)
    x = monomial[-1:]
    out = {}
    for (left, right), c in _monomial_frames(cap, monomial[:-1], rule).items():
        room = cap - len(left) - len(right)
        for a, b, sign in terms:
            if a + b >= room:
                break
            key = (x * a + left if antipodal else left + x * a, right + x * b)
            out[key] = out.get(key, 0) + sign * c
    return out


def _frame_sum(terms, frames_of):
    """Sum of c * frames_of(m) over int terms {m: c}, as int frames."""
    out = {}
    for monomial, coeff in terms.items():
        accumulate(out, frames_of(monomial).items(), coeff)
    return nonzero(out)


def _coproduct(series, rule):
    """The image of a series under a letter rule, as a tensor."""
    frames = _frame_sum(series.num, lambda m: _monomial_frames(series.cap, m, rule))
    return TruncatedTensor._raw(series.rank, series.cap, frames, series.den)


def coproduct(series: TruncatedSeries) -> TruncatedTensor:
    """The group coproduct, under which every 1 + X_i is group-like."""
    return _coproduct(series, GROUP_LETTER)


def antipode(series: TruncatedSeries) -> TruncatedSeries:
    """S, which sends each group element to its inverse."""
    frames = _coproduct(series, ANTIPODE_LETTER).num
    return TruncatedSeries._raw(series.rank, series.cap,
                                {left: c for (left, _), c in frames.items()}, series.den)


def antipode_coproduct(series: TruncatedSeries) -> TruncatedTensor:
    """(S x id) applied to the coproduct of the series."""
    return _coproduct(series, CONJUGATION_LETTER)


def sandwich(tensor: TruncatedTensor, filling: TruncatedSeries) -> TruncatedSeries:
    """Contract a tensor around a series: sum of left * filling * right."""
    if tensor.rank != filling.rank or tensor.cap != filling.cap:
        raise ValueError("sandwich needs matching rank and degree cap")
    return TruncatedSeries._raw(filling.rank, filling.cap,
                                frame_kernel([(tensor.num, filling.num)], filling.cap),
                                tensor.den * filling.den)


def conjugation_sum_series(v: TruncatedSeries, u: TruncatedSeries) -> TruncatedSeries:
    """Truncated conjugation sum: (S x id) of the coproduct of u,
    sandwiched around v."""
    u._check_compatible(v)
    return sandwich(antipode_coproduct(u), v)


def is_group_like(series: TruncatedSeries, delta=None) -> bool:
    """delta(series) == series x series; delta is the group coproduct by default."""
    if series.constant_term() != 1:
        return False
    return (delta or coproduct)(series) == tensor_outer(series, series)


def is_primitive(series: TruncatedSeries, delta=None) -> bool:
    """delta(series) == series x 1 + 1 x series; delta as in ``is_group_like``."""
    if series.constant_term():
        return False
    one = TruncatedSeries.one(series.rank, series.cap)
    return (delta or coproduct)(series) == tensor_outer(series, one) + tensor_outer(one, series)


def _strip_last(series: TruncatedSeries, index: int) -> TruncatedSeries:
    """The monomials ending with X_index, with that letter removed, at the
    same cap; only callers that know the stripped degrees are complete
    may keep that cap."""
    kept = {m[:-1]: c for m, c in series.num.items() if m and m[-1] == index}
    return TruncatedSeries._raw(series.rank, series.cap, kept, series.den)


def _strip_first(series: TruncatedSeries, index: int) -> TruncatedSeries:
    """The monomials starting with X_index, with that letter removed."""
    kept = {m[1:]: c for m, c in series.num.items() if m and m[0] == index}
    return TruncatedSeries._raw(series.rank, series.cap, kept, series.den)


def fox_left_series(series: TruncatedSeries, index: int) -> TruncatedSeries:
    """Left Fox derivative in the completion: the part of the series whose
    monomials end with X_index, with that last letter removed.  The result
    is only trustworthy one degree lower, so the cap drops by one."""
    if series.cap < 2:
        raise ValueError("a Fox derivative needs a degree cap of at least 2")
    _check_index(index, series.rank, "Fox derivative")
    return _strip_last(series, index).truncate(series.cap - 1)


def fox_right_series(series: TruncatedSeries, index: int) -> TruncatedSeries:
    """Right Fox derivative in the completion: strip a leading X_index."""
    if series.cap < 2:
        raise ValueError("a Fox derivative needs a degree cap of at least 2")
    _check_index(index, series.rank, "Fox derivative")
    return _strip_first(series, index).truncate(series.cap - 1)
