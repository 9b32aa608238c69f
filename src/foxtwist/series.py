"""Truncated power series in noncommuting variables X_1 .. X_n.

A series lives in the quotient of the free associative Q-algebra on
X_1 .. X_n by the ideal of terms of degree >= cap, so ``cap`` is the
first discarded degree.  Monomials are tuples of generator indices
(1-based); coefficients are exact rationals.

These series model truncated completions of group algebras where
X_i = x_i - 1; the embedding itself is ``truncated_completion.embed``.

Every sparse object in the package (group-algebra elements, series,
tensors) stores int numerators ``num`` over one reduced denominator
``den`` and adds, scales and compares by the one layer ``_IntTerms``;
``terms`` is their Fraction view, printed in the ``shortlex`` order.
Every loop that builds a numerator dict follows a single accumulation
rule: add ``scale * c`` into the dict in place with ``accumulate`` (the
innermost loops inline the same ``out[key] = get(key, 0) + c`` line),
let zeros stand, and drop them once at the end with ``nonzero``.

Every product that inserts one series into the frames of another runs
through one int kernel, ``frame_kernel``, whose docstring states the room
rule: ``sandwich`` (also the conjugation sum), ``contraction``,
``derived_generator_values``, ``derived_twists._derive`` (the steps of
``exp_derivation``) and ``_derivation_join`` (``apply_derivation`` and the
section-9 joins), ``times`` (the right factor of ``*``) and the truncated
ring product of ``FoxPairing.evaluate``.  ``series_matrix_inverse`` (one
denominator per degree) and ``symplectic_tensor.derivation_values`` keep
their own int arithmetic.

The functional calculus of the completion is three routines:
``sum_powers`` (exp, log, s(omega), the map of ``exp_derivation``, and
``power_sum`` for any step on series, as in ``TwistAutomorphism.inverse``),
``TwistAutomorphism.apply_word`` in ``derived_twists`` (signed words under
twists and expansions, and the boundary defect of
``build_symplectic_expansion``; ``embed`` builds its word images on ints of
its own) and ``series_matrix_inverse``, the only series inverse (an
expansion built from exponents e inverts a letter as exp(-e)).
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction

from .errors import DomainError, NotInvertible
from .linalg import mat_inverse


# Exact fraction text: p or p/q in ASCII digits, a minus sign only on p,
# q > 0; no blanks, decimals, exponents or underscores.
_FRACTION_TEXT = re.compile(r"(-?[0-9]+)(?:/([0-9]*[1-9][0-9]*))?\Z")


def as_fraction(value) -> Fraction:
    """An exact rational from an int, a Fraction or exact fraction text
    (``_FRACTION_TEXT``); other text is a ValueError, as are digits past
    the interpreter's int limit, and anything else, floats included, is a
    TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        match = _FRACTION_TEXT.match(value)
        if match is None:
            raise ValueError(f"{value!r} is not exact fraction text p or p/q")
        p, q = match.groups()
        return Fraction(int(p), int(q)) if q else Fraction(int(p))
    raise TypeError(f"expected an int, str or Fraction, got {type(value).__name__}")


def _int_split(*dicts):
    """The {key: Fraction} dicts as {key: int} dicts over one denominator."""
    den = math.lcm(*{c.denominator for terms in dicts for c in terms.values()})
    return *[{m: c.numerator * (den // c.denominator) for m, c in terms.items()}
             for terms in dicts], den


def _int_join(terms, den):
    """The nonzero terms of {monomial: int} over den, as Fractions."""
    return {m: Fraction(n, den) for m, n in terms.items() if n}


def accumulate(out, items, scale=1):
    """Add scale * c into out[key] for every (key, c) of items, in place.

    Works on Fraction and int coefficients alike.  Zero sums stay in
    ``out`` until the closing ``nonzero``.
    """
    if scale != 1:
        items = ((key, scale * c) for key, c in items)
    get = out.get
    for key, c in items:
        # A new key takes c as it is: adding it to 0 costs a Fraction op.
        old = get(key)
        out[key] = c if old is None else old + c
    return out


def nonzero(terms):
    """The terms whose coefficient is not zero, as a new dict."""
    return {key: c for key, c in terms.items() if c}


def shortlex(key):
    """The term order of every printed or written element: length, then letters."""
    return len(key), key


def frame_kernel(jobs, cap):
    """Sum of c * d * (left + m + right) over the jobs (frames, filling),
    where frames is {(left, right): c} and filling is {m: d}, all ints.

    The room rule: a term survives when

        len(left) + len(m) + len(right) < cap,

    so a frame of degree f takes filling terms of degree below cap - f
    and a frame at or over the cap takes none.  Every product of the
    package truncates by this rule and no other.

    Each filling is bucketed by degree; the result holds nonzero ints.
    """
    out = {}
    get = out.get
    for frames, filling in jobs:
        if not (frames and filling):
            continue
        buckets = [[] for _ in range(cap)]
        for m, d in filling.items():
            if len(m) < cap:
                buckets[len(m)].append((m, d))
        # fits[room]: the filling terms of degree below room.
        fits = [[]]
        for bucket in buckets:
            fits.append(fits[-1] + bucket if bucket else fits[-1])
        for (left, right), c in frames.items():
            room = cap - len(left) - len(right)
            if room > 0:
                for m, d in fits[room]:
                    key = left + m + right
                    out[key] = get(key, 0) + c * d
    return nonzero(out)


def _positive_int(value) -> bool:
    """The rule for ranks, caps and letters: an int >= 1, and never a bool."""
    return type(value) is int and value >= 1


def _check_cap(cap):
    if not _positive_int(cap):
        raise ValueError("degree cap must be a positive integer")


def _check_shape(rank, cap):
    if not _positive_int(rank):
        raise ValueError("rank must be a positive integer")
    _check_cap(cap)


def _check_index(index, rank, what):
    """The letter rule: an index is an int in 1..rank."""
    if type(index) is not int or not 1 <= index <= rank:
        raise ValueError(f"{what} index {index} outside 1..{rank}")


def _check_operand(value, kind, name, what):
    """The ring rule: an operand is exactly of its ring's type."""
    if type(value) is not kind:
        raise TypeError(f"{what}: {name} must be a {kind.__name__}, got {type(value).__name__}")


def _checked_items(rank, cap, terms):
    """The terms below the cap as (tuple, Fraction) pairs; ValueError on a
    letter that is not an int in 1..rank."""
    for monomial, coeff in terms.items():
        monomial = tuple(monomial)
        if len(monomial) >= cap:
            continue
        if any(type(i) is not int or not 1 <= i <= rank for i in monomial):
            raise ValueError(f"monomial {monomial} has letters outside 1..{rank}")
        yield monomial, as_fraction(coeff)


class _IntTerms:
    """The one storage rule for series, tensors and group-algebra elements:
    ``num`` maps each key to a nonzero int and ``den`` is an int >= 1, in
    lowest terms, gcd(den, *num.values()) == 1, so zero is {} over 1.  It
    is ``_int_split`` of the coefficients, so == and hash compare it as it
    stands.  Kernels hand an int result and its denominator to ``_raw``,
    which reduces them once; operands over several denominators meet over
    their least common one (``_over_one_den``).

    The vector-space layer is defined here once: ``+``, ``-``, negation,
    ``scale``, ``*`` by a scalar on either side, and ``==``, which never
    raises.  An int or Fraction operand stands for that multiple of the
    unit.  A subclass supplies ``_shape()``, the leading arguments of its
    ``_raw`` (``==`` compares them), ``_check_compatible``, which raises
    on an operand of another shape, and ``_UNIT``, the key of its unit."""

    __slots__ = ("num", "den")

    def _store(self, num, den=1):
        """Keep num (nonzero ints) over den, reduced to lowest terms."""
        g = math.gcd(den, *num.values()) if den > 1 else 1
        if g != 1:
            num = {key: c // g for key, c in num.items()}
            den //= g
        self.num = num
        self.den = den
        return self

    def _store_fractions(self, items):
        """Keep the sum of the (key, Fraction) items."""
        return self._store(*_int_split(nonzero(accumulate({}, items))))

    def _like(self, num, den):
        """num over den as an element of this one's shape."""
        return self._raw(*self._shape(), num, den)

    @property
    def terms(self):
        """The coefficients as {key: Fraction}, built on each read."""
        return _int_join(self.num, self.den)

    def is_zero(self):
        return not self.num

    def _coerce(self, value):
        """value as an element of this one's shape, or None."""
        if isinstance(value, type(self)):
            self._check_compatible(value)
            return value
        if isinstance(value, (int, Fraction)):
            p, q = value.as_integer_ratio()
            return self._like({self._UNIT: p} if p else {}, q)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, den = _over_one_den(self, other)
        return self._like(nonzero(accumulate(dict(a), b.items())), den)

    __radd__ = __add__

    def __neg__(self):
        return self._like({key: -c for key, c in self.num.items()}, self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, value):
        p, q = as_fraction(value).as_integer_ratio()
        return self._like({key: c * p for key, c in self.num.items()} if p else {}, self.den * q)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return (self._shape() == other._shape()
                and self.den == other.den and self.num == other.num)


def _over_one_den(*elements):
    """The num dicts of the stored elements over their least common
    denominator, then that denominator; a dict already over it is shared."""
    den = math.lcm(*(e.den for e in elements))
    return *[e.num if e.den == den else {key: c * (den // e.den) for key, c in e.num.items()}
             for e in elements], den


class _Truncated(_IntTerms):
    """The shape shared by series and tensors: a rank and a degree cap."""

    __slots__ = ("rank", "cap")

    @classmethod
    def _raw(cls, rank, cap, num, den=1):
        # Internal constructor: num holds nonzero ints below the cap.
        self = object.__new__(cls)
        self.rank = rank
        self.cap = cap
        return self._store(num, den)

    def _shape(self):
        return self.rank, self.cap

    def _check_compatible(self, other):
        if self.rank != other.rank:
            raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
        if self.cap != other.cap:
            raise ValueError(f"degree cap mismatch: {self.cap} vs {other.cap}")


class TruncatedSeries(_Truncated):
    __slots__ = ()
    _UNIT = ()

    def __init__(self, rank, cap, terms=None):
        _check_shape(rank, cap)
        self.rank = rank
        self.cap = cap
        self._store_fractions(_checked_items(rank, cap, terms or {}))

    @classmethod
    def zero(cls, rank, cap):
        return cls._raw(rank, cap, {})

    @classmethod
    def one(cls, rank, cap):
        return cls._raw(rank, cap, {(): 1})

    @classmethod
    def scalar(cls, rank, cap, value):
        return cls.one(rank, cap).scale(value)

    @classmethod
    def variable(cls, rank, cap, index):
        _check_index(index, rank, "variable")
        if cap < 2:
            return cls.zero(rank, cap)
        return cls._raw(rank, cap, {(index,): 1})

    def constant_term(self):
        return Fraction(self.num.get((), 0), self.den)

    def coefficient(self, monomial):
        return Fraction(self.num.get(tuple(monomial), 0), self.den)

    def items(self):
        return self.terms.items()

    def filtration_degree(self):
        """Smallest degree carrying a term; cap when the series is zero."""
        if not self.num:
            return self.cap
        return min(len(m) for m in self.num)

    def degree_part(self, degree):
        kept = {m: c for m, c in self.num.items() if len(m) == degree}
        return TruncatedSeries._raw(self.rank, self.cap, kept, self.den)

    def truncate(self, new_cap):
        _check_cap(new_cap)
        if new_cap > self.cap:
            raise ValueError("cannot raise a degree cap; missing terms are unknown")
        kept = {m: c for m, c in self.num.items() if len(m) < new_cap}
        return TruncatedSeries._raw(self.rank, new_cap, kept, self.den)

    def __mul__(self, other):
        if isinstance(other, TruncatedSeries):
            self._check_compatible(other)
            return TruncatedSeries._raw(self.rank, self.cap, *times(other)(self.num, self.den))
        return super().__mul__(other)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        return binary_power(TruncatedSeries.one(self.rank, self.cap), self, exponent, operator.mul)

    def inverse(self):
        """Multiplicative inverse; needs an invertible constant term."""
        if not self.constant_term():
            raise NotInvertible("series with zero constant term has no inverse")
        return series_matrix_inverse([[self]])[0][0]

    def log(self):
        """log of a series with constant term 1."""
        if self.constant_term() != 1:
            raise DomainError("log needs constant term exactly 1")
        z = self - 1
        return sum_powers(z, times(z), (Fraction((-1) ** k, k + 1) for k in itertools.count()))

    def exp(self):
        """exp of a series with constant term 0."""
        if self.constant_term():
            raise DomainError("exp needs constant term exactly 0")
        return sum_powers(TruncatedSeries.one(self.rank, self.cap), times(self),
                          (Fraction(1, math.factorial(k)) for k in itertools.count()))

    def __repr__(self):
        if not self.num:
            return f"<series 0 (cap {self.cap})>"
        bits = []
        for m, c in sorted(self.terms.items(), key=lambda kv: shortlex(kv[0])):
            if not m:
                bits.append(str(c))
                continue
            factors = [f"X{i}" if n == 1 else f"X{i}^{n}"
                       for i, group in itertools.groupby(m)
                       for n in (len(tuple(group)),)]
            mono = "*".join(factors)
            bits.append(mono if c == 1 else f"{c}*{mono}")
        return f"<series {' + '.join(bits)} (cap {self.cap})>"


def sum_powers(first, step, coefficients):
    """Sum of c_k * step^k(first), k = 0, 1, ..., until a term vanishes or
    the coefficients run out, where step maps int terms over a denominator
    to the next such pair; the c_k come in once, at the end."""
    terms, den = first.num, first.den
    kept = []
    for k, c in enumerate(coefficients):
        if k:
            terms, den = step(terms, den)
        if not terms:
            break
        kept.append((terms, c.numerator, den * c.denominator))
    common = math.lcm(*(den for _, _, den in kept))
    out = {}
    for terms, num, den in kept:
        accumulate(out, terms.items(), num * (common // den))
    return TruncatedSeries._raw(first.rank, first.cap, nonzero(out), common)


def times(factor):
    """The int step terms -> terms * factor, of ``sum_powers`` and ``*``."""
    return lambda terms, den: (frame_kernel([({(m, ()): c for m, c in terms.items()}, factor.num)],
                                            factor.cap), den * factor.den)


def binary_power(one, base, n, mul):
    """one times base^n for n >= 0 under mul(result, base), squaring base
    only while bits remain: the powers of series, words and automorphisms."""
    result = one
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def power_sum(first, step, coefficients):
    """``sum_powers`` for a step on series.  A step that changes the rank
    or the cap is a ValueError."""
    def int_step(terms, den):
        term = step(TruncatedSeries._raw(first.rank, first.cap, terms, den))
        first._check_compatible(term)
        return term.num, term.den

    return sum_powers(first, int_step, coefficients)


def commutator(a, b):
    return a * b - b * a


def series_matrix_inverse(matrix):
    """Inverse of a square matrix of TruncatedSeries entries.

    Write A = H + A_1 + ... + A_{cap-1}, where H is the constant-term
    matrix and A_j the degree-j part.  The degree-d part of A B is
    H B_d + A_1 B_{d-1} + ... + A_d B_0, so the inverse B is solved
    degree by degree:

        B_0 = H^-1,    B_d = -H^-1 (A_1 B_{d-1} + ... + A_d B_0).

    Degree bookkeeping: write H^-1 = M / h with M integral and every
    positive-degree coefficient of A as an integer over delta.  Then
    B_d = P_d / (h^(d+1) delta^d) with P_d integral, and

        P_0 = M,    P_d = K_1 P_{d-1} + ... + K_d P_0,
        K_j = -(h delta)^(j-1) M (delta A_j),

    where (h delta)^(j-1) brings the term of A_j B_{d-j} to the common
    denominator of degree d.  Each K_j has degree exactly j, so nothing
    is truncated on the way; the solve runs on ints, and each entry is
    returned over the denominator of the top degree.  Most blocks of the
    P_d are empty, so each K_j[i][k] multiplies only the nonzero entries
    (l, items) of row k of P_{d-j}, collected once per (d, j).

    Raises ValueError on an empty or ragged matrix or on entries of
    mixed rank or cap, NotInvertible if H is singular over Q.
    """
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        raise ValueError("series matrix must be square and non-empty")
    rank, cap = matrix[0][0].rank, matrix[0][0].cap
    if any(e.rank != rank or e.cap != cap for row in matrix for e in row):
        raise ValueError("series matrix entries must share one rank and degree cap")
    head_inv = mat_inverse([[e.constant_term() for e in row] for row in matrix])
    h = math.lcm(*(q.denominator for row in head_inv for q in row))
    m = [[q.numerator * (h // q.denominator) for q in row] for row in head_inv]
    *nums, delta = _over_one_den(*(e for row in matrix for e in row))

    # parts[j][t][k]: numerators of delta * (degree-j part of A[t][k])
    parts = [[[{} for _ in range(n)] for _ in range(n)] for _ in range(cap)]
    for index, num in enumerate(nums):
        t, k = divmod(index, n)
        for mono, c in num.items():
            if mono:
                parts[len(mono)][t][k][mono] = c
    kernels = [None]
    for j in range(1, cap):
        weight = -(h * delta) ** (j - 1)
        kernel = []
        for i in range(n):
            kernel_row = [{} for _ in range(n)]
            for t in range(n):
                if m[i][t]:
                    for k in range(n):
                        accumulate(kernel_row[k], parts[j][t][k].items(), weight * m[i][t])
            kernel.append([nonzero(e) for e in kernel_row])
        kernels.append(kernel)

    solved = [[[{(): c} if c else {} for c in row] for row in m]]
    for d in range(1, cap):
        part = [[{} for _ in range(n)] for _ in range(n)]
        for j in range(1, d + 1):
            kernel = kernels[j]
            prev = [[(l, e.items()) for l, e in enumerate(row) if e] for row in solved[d - j]]
            for i in range(n):
                for k in range(n):
                    left = kernel[i][k]
                    if not left:
                        continue
                    for l, right in prev[k]:
                        out = part[i][l]
                        for ma, ca in left.items():
                            for mb, cb in right:
                                key = ma + mb
                                out[key] = out.get(key, 0) + ca * cb
        solved.append([[nonzero(e) for e in row] for row in part])

    top = h ** cap * delta ** (cap - 1)
    lifts = [top // (h ** (d + 1) * delta ** d) for d in range(cap)]
    return [[TruncatedSeries._raw(rank, cap, {
                mono: num * lifts[d] for d in range(cap) for mono, num in solved[d][i][l].items()},
                top)
             for l in range(n)] for i in range(n)]
