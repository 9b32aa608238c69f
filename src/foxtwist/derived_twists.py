"""Derived forms of Fox pairings and the twist automorphisms they generate.

The derived form sigma of a pairing rho sends group elements (a, b) to
b * a^rho(a,b) and extends bilinearly.  In the truncated completion it is
computed by a coproduct-based composite that never needs group-word
preimages; for a fixed first argument sigma(u, -) is a derivation, so one
pass produces the n generator values and everything else follows by the
Leibniz rule.  Twists are exponentials exp(sigma(k log^2(alpha), -)),
defined when alpha pairs to zero with itself homologically.

Twists never run the general composite.  For group-like a and b the
derived form has the closed form

    sigma(k log^2(a), b) = 2k * b * (log a)^rho(a, b),

so the value on x_j costs one conjugation sum of log alpha and one join
for rho(alpha, x_j): the left half of iota(alpha), built once, with column
j of the entries, the right half of x_j.  Group-likeness is the whole
hypothesis: iota(alpha) and iota(x_j) are group-like by construction, so
``twist`` skips the check that the public ``sigma_log_squared`` makes.

Caps follow the degree rule in ``fox_pairings``.  A twist from a pairing
at cap P is built at P - 2 throughout, with rho(alpha, x_j) evaluated on
operands at P - 1.  The values have no constant term, so the derivation
never lowers degree: exp runs at P - 2 as well, and nothing is truncated
at the end.

Every step of a twist stays on int numerators (the storage rule of
``series._IntTerms``): log(alpha), each value (x_j and 2k multiply its
conjugation sum) and each image are handed on as ints over one reduced
denominator, and ``exp_derivation`` runs over one growing denominator.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import linalg
from .errors import DomainError, IsotropyError, NilpotencyCapExceeded
from .fox_pairings import FoxPairing
from .group_algebra import GroupAlgebraElement, _seam_product, conjugation_sum
from .series import (
    TruncatedSeries,
    _over_one_den,
    accumulate,
    as_fraction,
    binary_power,
    frame_kernel,
    power_sum,
    sum_powers,
)
from .truncated_completion import (
    CONJUGATION_LETTER,
    GROUP_LETTER,
    _frame_sum,
    _monomial_frames,
    conjugation_sum_series,
    embed,
    is_group_like,
)
from .words import GroupWord


def derived_form_exact(pairing: FoxPairing, a: GroupAlgebraElement,
                       b: GroupAlgebraElement) -> GroupAlgebraElement:
    """sigma(a, b) = b * a^rho(a,b), extended bilinearly over word pairs.

    The companion form b^bar(rho(a,b)) * a is this form of the transposed
    pairing at (b, a).  On ints, the Fox derivatives of each word ma of a
    and the inner sums sum_j rho(x_i, x_j) d^j(mb) of each word mb of b
    are formed once.
    """
    if pairing.cap is not None:
        raise ValueError("derived_form_exact needs an exact pairing")
    n = pairing.rank
    if a.rank != n or b.rank != n:
        raise ValueError(f"a rank-{n} pairing takes rank-{n} operands")
    entry_den = pairing._int_entries(None)[1]
    # The Fox calculus of one word with coefficient 1 stays over denominator 1.
    word = lambda letters: GroupAlgebraElement._raw(n, {letters: 1})
    lefts = {ma: pairing._left_half(word(ma), None)[0] for ma in a.num}
    inners = {mb: pairing._right_half(word(mb), None)[0] for mb in b.num}
    rho = lambda ma, mb: GroupAlgebraElement._raw(n, _seam_product(zip(lefts[ma], inners[mb])))
    total = _seam_product(({mb: ca * cb}, conjugation_sum(word(ma), rho(ma, mb)).num)
                          for ma, ca in a.num.items() for mb, cb in b.num.items())
    return GroupAlgebraElement._raw(n, total, a.den * b.den * entry_den)


def derived_generator_values(pairing: FoxPairing, u: TruncatedSeries) -> list:
    """Values sigma(u, 1 + X_j) for j = 1..n at the cap where every degree
    is exact, min(u.cap - 1, pairing.cap): a term of u of degree m reaches
    degree m - 1, so u is cut to cap + 1.

    For group-like second argument b the composite collapses to
    b * sum over coproduct legs (u1, u2) of u1^rho(u2, b).  Legs are
    grouped by the trailing letter r of u2, which reduces the whole
    computation to n conjugation kernels G_r followed by one frame
    product per value, all at that cap.
    """
    if pairing.cap is None:
        raise ValueError("derived_generator_values needs a truncated pairing")
    if u.rank != pairing.rank:
        raise ValueError("rank mismatch")
    if u.cap < 2:
        raise ValueError("derived generator values need u at cap 2 or more")
    n, cap = pairing.rank, min(u.cap - 1, pairing.cap)
    work = u.truncate(cap + 1)

    # G_r = sum of u1 conjugated by the stripped leg stem = u2[:-1], over
    # legs ending in r.  Legs sharing (r, stem) share the frames of
    # (S x id) of the coproduct of stem, so each stem is one job around
    # its u1 legs.  Splits are enumerated one degree above the cap since
    # the strip refunds a degree; S(stem) has degree >= len(stem), so the
    # room rule drops every leg that would not fit.
    legs = {}
    for monomial, coeff in work.num.items():
        for (m1, m2), mult in _monomial_frames(cap + 1, monomial, GROUP_LETTER).items():
            if m2:
                filling = legs.setdefault((m2[-1] - 1, m2[:-1]), {})
                filling[m1] = filling.get(m1, 0) + coeff * mult
    stem_frames = lambda stem: _monomial_frames(cap, stem, CONJUGATION_LETTER)
    kernels = [frame_kernel([(stem_frames(stem), filling) for (s, stem), filling in legs.items()
                             if s == r], cap) for r in range(n)]

    # Value j: (1 + X_j) times the G_r inside (S x id)Delta(entry (r, j)).
    entries, entry_den = pairing._int_entries(cap)
    values = []
    for j in range(n):
        value = frame_kernel([(_frame_sum(entries[r][j], stem_frames), kernels[r])
                              for r in range(n) if kernels[r]], cap)
        value = frame_kernel([({((), ()): 1, ((j + 1,), ()): 1}, value)], cap)
        values.append(TruncatedSeries._raw(n, cap, value, work.den * entry_den))
    return values


def _derivation_frames(terms, rank, cap):
    """The series' half of ``_derive``: each int term c * m below cap
    gives, for every position p, the frame (m[:p], m[p+1:]) with
    coefficient c to the letter m[p]."""
    frames = [{} for _ in range(rank)]
    for monomial, coeff in terms.items():
        if len(monomial) < cap:
            for p, letter in enumerate(monomial):
                frames[letter - 1][monomial[:p], monomial[p + 1:]] = coeff
    return frames


def _derive(values, terms, cap):
    """The one derivation kernel, on ints: values and terms each over their
    own denominator, the result over the product; each letter is one job."""
    return frame_kernel(zip(_derivation_frames(terms, len(values), cap), values), cap)


def _derivation_join(values, frames, cap):
    """d(series) at cap from the values and the series' frames, each with
    its den; by the room rule, frames from above cap give the result cut."""
    (*values, values_den), (frames, den) = values, frames
    return TruncatedSeries._raw(len(values), cap, frame_kernel(zip(frames, values), cap),
                                den * values_den)


def apply_derivation(values: list, series: TruncatedSeries) -> TruncatedSeries:
    """Extend generator values to a derivation and apply it.

    values[i] is the image of X_{i+1}.  A value's constant term sends a
    series term of degree m to degree m - 1, so the result is at
    min(series.cap - 1, values' caps), where every degree is exact: the
    join of the values and the series' frames from one cap above (degree
    rule in ``fox_pairings``).  Twists run on its kernel ``_derive``
    (``exp_derivation``).
    """
    n = len(values)
    if series.rank != n:
        raise ValueError("rank mismatch")
    cap = min(series.cap - 1, *(v.cap for v in values))
    if cap < 1:
        raise ValueError("apply_derivation needs a series at cap 2 or more")
    frames = _derivation_frames(series.num, n, cap + 1), series.den
    return _derivation_join(_over_one_den(*values), frames, cap)


def derived_form_truncated(pairing: FoxPairing, u: TruncatedSeries,
                           v: TruncatedSeries) -> TruncatedSeries:
    """sigma(u, v) in the truncation, via generator values and the
    Leibniz rule, at min(u.cap - 1, pairing.cap, v.cap - 1), where every
    degree is exact: inputs complete at cap W give a result at W - 1."""
    return apply_derivation(derived_generator_values(pairing, u), v)


def _sigma_log_squared_closed_form(k: Fraction, log_a: TruncatedSeries,
                                   b: TruncatedSeries, rho_ab: TruncatedSeries) -> TruncatedSeries:
    """2k * b * (log a)^rho(a,b), with every operand at one cap.

    Equals sigma(k log^2(a), b) only when a and b are group-like; callers
    either check that or know it by construction.
    """
    b._check_compatible(log_a)
    return (b * conjugation_sum_series(log_a, rho_ab)).scale(2 * k)


def sigma_log_squared(k, a: TruncatedSeries, b: TruncatedSeries, rho_ab) -> TruncatedSeries:
    """sigma(k log^2(a), b) = 2k * b * (log a)^rho(a,b) for group-like a, b.

    rho_ab may be a group-algebra element (embedded at the cap of a) or a
    truncated series at that cap or above; this supports pairings known
    only at the pair (a, b).
    """
    if not is_group_like(a) or not is_group_like(b):
        raise DomainError("sigma_log_squared needs group-like arguments")
    if isinstance(rho_ab, GroupAlgebraElement):
        rho_ab = embed(rho_ab, a.cap)
    elif not isinstance(rho_ab, TruncatedSeries):
        raise TypeError("rho_ab must be exact or truncated")
    return _sigma_log_squared_closed_form(as_fraction(k), a.log(), b, rho_ab.truncate(a.cap))


def exp_derivation(values: list):
    """The algebra map exp(d) for the derivation d with the given
    generator values, as a callable on truncated series.

    Values must lie in filtration degree >= 1; termination is detected by
    cap vanishing, with a safety bound that flags derivations that are
    not weakly nilpotent.
    """
    for v in values:
        if v.constant_term() != 0:
            raise DomainError("derivation values must have no constant term")
    bound = (max((v.cap for v in values), default=2) + 1) ** 2
    n, cap = len(values), min((v.cap for v in values), default=0)
    *int_values, values_den = _over_one_den(*values)

    def coefficients():
        for j in range(bound + 1):
            yield Fraction(1, math.factorial(j))
        raise NilpotencyCapExceeded("exp did not stabilize within %d iterations" % bound)

    def mapper(series):
        if series.rank != n or series.cap > cap:
            raise ValueError("exp_derivation needs a series of the values' rank and cap or lower")
        # d^j(series) on ints over den * values_den^j; the 1/j! come in at the end.
        step = lambda terms, den: (_derive(int_values, terms, series.cap), den * values_den)
        return sum_powers(series, step, coefficients())

    return mapper


class TwistAutomorphism:
    """A filtered algebra automorphism X_i -> images[i] - 1, stored by its
    generator images (one rank and cap, constant term 1).

    A monomial's image is the image of its longest proper prefix times
    the image of its last letter; prefix images are cached, so a dense
    series costs one product per new monomial.  Signed words multiply
    letter images from a table of at most 2 * rank; ``inverse`` is a
    ``power_sum``.  Twists and symplectic expansions are of this type.
    """

    __slots__ = ("rank", "cap", "images", "_prefix_cache", "_letter_images")

    def __init__(self, rank: int, cap: int, images):
        images = tuple(images)
        if len(images) != rank:
            raise ValueError("need one image per generator")
        for im in images:
            if im.rank != rank or im.cap != cap:
                raise ValueError("image rank/cap mismatch")
            if im.constant_term() != 1:
                raise ValueError("generator images must have constant term 1")
        self.rank = rank
        self.cap = cap
        self.images = images
        self._prefix_cache = {(): TruncatedSeries.one(rank, cap)}
        self._letter_images = {i + 1: image for i, image in enumerate(images)}

    @staticmethod
    def identity(rank: int, cap: int) -> "TwistAutomorphism":
        """The identity, a plain ``TwistAutomorphism`` on every subclass."""
        return TwistAutomorphism(rank, cap, [1 + TruncatedSeries.variable(rank, cap, i + 1)
                                             for i in range(rank)])

    def _monomial_image(self, monomial):
        cached = self._prefix_cache.get(monomial)
        if cached is None:
            if len(monomial) == 1:
                cached = self.images[monomial[0] - 1] - 1
            else:
                cached = self._monomial_image(monomial[:-1]) * self._monomial_image(monomial[-1:])
            self._prefix_cache[monomial] = cached
        return cached

    def apply(self, series: TruncatedSeries) -> TruncatedSeries:
        """Substitute generator images multiplicatively: the sum of
        coeff * image over the terms of series, at cap
        min(series.cap, self.cap)."""
        if series.rank != self.rank:
            raise ValueError("rank mismatch")
        cap = min(series.cap, self.cap)
        monomials = [m for m in series.num if len(m) < cap]
        *nums, den = _over_one_den(*(self._monomial_image(m) for m in monomials))
        out = {}
        for monomial, num in zip(monomials, nums):
            accumulate(out, num.items(), series.num[monomial])
        # Below self.cap, the terms at or over cap are dropped once, here.
        return TruncatedSeries._raw(self.rank, cap, {m: c for m, c in out.items()
                                                     if c and len(m) < cap}, den * series.den)

    def apply_word(self, word: GroupWord) -> TruncatedSeries:
        """Image of the embedded group word: the product, left to right, of
        images[i - 1] for each letter i and ``_inverse_image(i)`` for -i,
        each inverse found once; nothing is kept per word."""
        if word.rank != self.rank:
            raise ValueError("rank mismatch")
        table, image = self._letter_images, None
        for letter in word.letters:
            factor = table.get(letter)
            if factor is None:
                factor = table[letter] = self._inverse_image(-letter)
            image = factor if image is None else image * factor
        return TruncatedSeries.one(self.rank, self.cap) if image is None else image

    def _inverse_image(self, i: int) -> TruncatedSeries:
        """The image of the letter -i, solved from images[i - 1]."""
        return self.images[i - 1].inverse()

    def compose(self, other: "TwistAutomorphism") -> "TwistAutomorphism":
        """self after other."""
        self._check_compatible(other)
        return TwistAutomorphism(self.rank, self.cap,
                                 [self.apply(im) for im in other.images])

    def power(self, m: int) -> "TwistAutomorphism":
        """m-fold composite by repeated squaring; negative m inverts first."""
        if m < 0:
            return self.inverse().power(-m)
        return binary_power(TwistAutomorphism.identity(self.rank, self.cap), self, m,
                            lambda result, base: base.compose(result))

    def inverse(self) -> "TwistAutomorphism":
        """The Neumann series self^-1(X_i) = sum_j (id - psi)^j (L^-1 X_i) of
        the unipotent psi = L^-1 after self, L the homology matrix: id - psi
        raises degree, so cap terms suffice.  psi(preimage) = L^-1 X_i is
        self(preimage) = X_i, checked on psi's warm prefix cache."""
        linear = TwistAutomorphism._linear(self.rank, self.cap,
                                           linalg.mat_inverse(self.homology_matrix()))
        psi = linear.compose(self)
        preimages = [power_sum(image - 1, lambda t: t - psi.apply(t), [1] * self.cap)
                     for image in linear.images]
        if any(psi.apply(p) != image - 1 for p, image in zip(preimages, linear.images)):
            raise ValueError("automorphism is not invertible at this cap")
        return TwistAutomorphism(self.rank, self.cap, [1 + p for p in preimages])

    @staticmethod
    def _linear(rank, cap, matrix) -> "TwistAutomorphism":
        """X_i -> sum_j matrix[j][i] X_j, a plain ``TwistAutomorphism``."""
        return TwistAutomorphism(rank, cap, [
            TruncatedSeries(rank, cap, {(): 1, **{(j + 1,): matrix[j][i] for j in range(rank)}})
            for i in range(rank)])

    def homology_matrix(self) -> list:
        """Degree-one action: column i holds the image of generator i."""
        return [
            [self.images[i].coefficient((j + 1,)) for i in range(self.rank)]
            for j in range(self.rank)
        ]

    def is_hopf(self) -> bool:
        """Coproduct compatibility on generators: group-like images."""
        return all(is_group_like(im) for im in self.images)

    def preserves_pairing(self, pairing: FoxPairing) -> bool:
        """rho(T a, T b) = T rho(a, b) on generator pairs, one degree below
        the working cap: the halves of each image once, a join per pair."""
        cap = min(self.cap, pairing.cap) - 1
        lefts = [pairing._left_half(image, cap) for image in self.images]
        rights = [pairing._right_half(image, cap) for image in self.images]
        return all(pairing._join(left, right, cap)
                   == self.apply(pairing.entry(i + 1, j + 1).truncate(cap))
                   for i, left in enumerate(lefts) for j, right in enumerate(rights))

    def fixes(self, series: TruncatedSeries) -> bool:
        cap = min(self.cap, series.cap)
        return self.apply(series.truncate(cap)) == series.truncate(cap)

    def truncate(self, new_cap: int) -> "TwistAutomorphism":
        return TwistAutomorphism(self.rank, new_cap,
                                 [im.truncate(new_cap) for im in self.images])

    def _check_compatible(self, other: "TwistAutomorphism"):
        if self.rank != other.rank or self.cap != other.cap:
            raise ValueError("automorphism rank/cap mismatch")

    def __eq__(self, other):
        if not isinstance(other, TwistAutomorphism):
            return NotImplemented
        return (self.rank, self.cap, self.images) == (other.rank, other.cap, other.images)

    def __repr__(self):
        return "%s(rank=%d, cap=%d)" % (type(self).__name__, self.rank, self.cap)


def homological_self_pairing(pairing: FoxPairing, word: GroupWord) -> Fraction:
    """The homological pairing of a word's class with itself."""
    column = [Fraction(s) for s in word.exponent_sums()]
    image = linalg.mat_vec(pairing.homological_form(), column)
    return sum((column[i] * image[i] for i in range(len(column))), Fraction(0))


def twist(pairing: FoxPairing, k, alpha: GroupWord) -> TwistAutomorphism:
    """The automorphism exp(sigma(k log^2 iota(alpha), -)).

    Requires the homological self-pairing of alpha to vanish; otherwise
    the exponent is not weakly nilpotent and no automorphism exists at
    any cap.  The generator values come from the closed form
    2k * x_j * (log alpha)^rho(alpha, x_j), valid because iota(alpha) is
    group-like.  By the degree rule in ``fox_pairings`` the images carry
    cap P - 2 for a pairing at cap P, and every stored coefficient is exact.
    """
    if pairing.cap is None:
        raise ValueError("twists are built from truncated pairings")
    if alpha.rank != pairing.rank:
        raise ValueError("rank mismatch")
    if pairing.cap < 3:
        raise ValueError("twists need a pairing cap of at least 3")
    self_pairing = homological_self_pairing(pairing, alpha)
    if self_pairing != 0:
        raise IsotropyError("curve pairs with itself to %s, not 0" % self_pairing)
    k = as_fraction(k)
    n, cap = pairing.rank, pairing.cap - 2
    iota_alpha = embed(GroupAlgebraElement.from_word(alpha), cap + 1)
    log_alpha = iota_alpha.truncate(cap).log()
    # rho(alpha, x_j) at cap; d^j(x_j) = 1 is x_j's only right Fox derivative.
    left = pairing._left_half(iota_alpha, cap)
    entries, entry_den = pairing._int_entries(cap)
    values = []
    for j in range(n):
        rho = pairing._join(left, ([row[j] for row in entries], entry_den), cap)
        x_j = 1 + TruncatedSeries.variable(n, cap, j + 1)
        values.append(_sigma_log_squared_closed_form(k, log_alpha, x_j, rho))
    mapper = exp_derivation(values)
    return TwistAutomorphism(n, cap, [mapper(1 + TruncatedSeries.variable(n, cap, i + 1))
                                      for i in range(n)])
