"""Fox pairings: matrix-defined bilinear forms on a free-group algebra.

A pairing is a left Fox derivative in its first slot and a right Fox
derivative in its second slot, so it is determined by the n x n matrix of
its values on generator pairs: rho(a, b) = sum d_i(a) rho(x_i, x_j) d^j(b).

The ring rule: a pairing lives over the ring of its entries.  Group-algebra
entries give a pairing on Q[pi] (``cap`` is None); truncated series, all at
one degree cap, give its image in the completion.  What depends on the
ring -- the two Fox derivatives, the involution of ``transpose`` (bar or
antipode), the augmentation (augmentation or counit) and the image of a
group-algebra element -- is looked up by entry type in ``_RINGS``, so
every method has one body for both rings.

The degree rule, stated once for the package.  For entries at cap P:

* evaluation loses one degree per operand: operands at caps A and B give
  a value at min(A - 1, B - 1, P);
* derived forms lose one: sigma(u, v) sits at min(u.cap - 1, P, v.cap - 1),
  its generator values at min(u.cap - 1, P); twists lose two: a twist is
  built at P - 2 (``derived_twists``);
* a contraction loses two, and a derivation whose values have constant
  terms loses one, so it takes the series' frames from one cap above its
  result; ``symplectic_tensor.verify_section9`` builds its halves once per
  input at cap + 1 and runs each join at cap: by the room rule, the join
  at cap + 1, cut;
* nabla <-> pairing loses two: a nabla at cap N gives a pairing at N - 2,
  and a nabla from a pairing at P keeps only its degrees below P - 2;
* a pairing file's ``degree_cap`` is P - 2, the degree its twists reach
  (``formats``);
* ``surfaces.surface_pairing`` embeds the exact surface pairing at
  spec.cap + 2, so its twists sit at spec.cap.
"""

from __future__ import annotations

from collections import namedtuple

from . import linalg
from .errors import NotInvertible, NotNondegenerate
from .group_algebra import (
    GroupAlgebraElement,
    _seam_product,
    fox_derivative_left,
    fox_derivative_right,
)
from .series import TruncatedSeries, _over_one_den, frame_kernel, series_matrix_inverse
from .truncated_completion import (
    _strip_first,
    _strip_last,
    antipode,
    counit,
    embed,
    fox_left_series,
    fox_right_series,
)
from .words import GroupWord


# Fox derivatives left(a, i) and right(a, i), the involution, the
# augmentation, image(e, like): a group-algebra element e in the ring (and
# at the cap) of like, product(pairs, cap): the sum of left * right over
# pairs of int term dicts, and raw(rank, cap, num, den): a clean element.
_Ring = namedtuple("_Ring", "name left right involution augmentation image product raw")


_RINGS = {
    GroupAlgebraElement: _Ring("exact", fox_derivative_left, fox_derivative_right,
                               GroupAlgebraElement.bar, GroupAlgebraElement.augmentation,
                               lambda element, like: element,
                               lambda pairs, cap: _seam_product(pairs),
                               lambda rank, _, num, den: GroupAlgebraElement._raw(rank, num, den)),
    TruncatedSeries: _Ring("truncated", fox_left_series, fox_right_series, antipode, counit,
                           lambda element, like: embed(element, like.cap),
                           lambda pairs, cap: frame_kernel(
                               (({(m, ()): c for m, c in left.items()}, right)
                                for left, right in pairs), cap),
                           TruncatedSeries._raw),
}


class FoxPairing:
    """A pairing given by its generator-pair value matrix."""

    __slots__ = ("rank", "cap", "matrix", "_split")

    def __init__(self, matrix):
        rows = len(matrix)
        if rows == 0 or any(len(row) != rows for row in matrix):
            raise ValueError("matrix must be square and non-empty")
        first = matrix[0][0]
        if type(first) not in _RINGS:
            raise TypeError("entries must be group-algebra elements or truncated series")
        cap = getattr(first, "cap", None)
        for row in matrix:
            for entry in row:
                if type(entry) is not type(first):
                    raise TypeError("mixed entry types")
                if entry.rank != rows:
                    raise ValueError("entry rank must equal the matrix size")
                if getattr(entry, "cap", None) != cap:
                    raise ValueError("truncated entries must share one degree cap")
        self.rank = rows
        self.cap = cap
        self.matrix = tuple(tuple(row) for row in matrix)
        self._split = {}

    @property
    def _ring(self):
        return _RINGS[type(self.matrix[0][0])]

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "FoxPairing":
        return cls([[GroupAlgebraElement.zero(rank)] * rank for _ in range(rank)])

    @classmethod
    def inner(cls, e) -> "FoxPairing":
        """The pairing (a, b) |-> (a - aug a) e (b - aug b)."""
        n, image = e.rank, _RINGS[type(e)].image
        gens = [image(GroupAlgebraElement.generator(n, i + 1) - 1, e) for i in range(n)]
        return cls([[gens[i] * e * gens[j] for j in range(n)] for i in range(n)])

    # -- basic structure ----------------------------------------------

    def entry(self, i: int, j: int):
        """Value on the generator pair (x_i, x_j), 1-based."""
        return self.matrix[i - 1][j - 1]

    def embedded(self, cap: int) -> "FoxPairing":
        """Truncated copy of an exact pairing, entries embedded at cap."""
        if self.cap is not None:
            raise ValueError("embedded() expects an exact pairing")
        return FoxPairing([[embed(e, cap) for e in row] for row in self.matrix])

    def truncate(self, new_cap: int) -> "FoxPairing":
        if self.cap is None:
            raise ValueError("truncate() expects a truncated pairing")
        return FoxPairing([[e.truncate(new_cap) for e in row] for row in self.matrix])

    def __add__(self, other: "FoxPairing") -> "FoxPairing":
        self._check_compatible(other)
        return FoxPairing([[x + y for x, y in zip(row, other_row)]
                           for row, other_row in zip(self.matrix, other.matrix)])

    def __sub__(self, other: "FoxPairing") -> "FoxPairing":
        return self + other.scale(-1)

    def scale(self, k) -> "FoxPairing":
        return FoxPairing([[e.scale(k) for e in row] for row in self.matrix])

    def __eq__(self, other):
        if not isinstance(other, FoxPairing):
            return NotImplemented
        return self.rank == other.rank and self.matrix == other.matrix

    def __hash__(self):
        entries = tuple((e.den, frozenset(e.num.items())) for row in self.matrix for e in row)
        return hash((self.rank, self.cap, entries))

    def _check_compatible(self, other: "FoxPairing"):
        if self.rank != other.rank or self._ring is not other._ring:
            raise ValueError("pairing mismatch")
        if self.cap != other.cap:
            raise ValueError("degree cap mismatch")

    def __repr__(self):
        cap = "" if self.cap is None else ", cap=%d" % self.cap
        return "FoxPairing(rank=%d, %s%s)" % (self.rank, self._ring.name, cap)

    # -- evaluation ----------------------------------------------------

    def _int_entries(self, cap):
        """The entries cut to cap (None: exact) as int rows over one denominator."""
        if cap not in self._split:
            n = self.rank
            *flat, den = _over_one_den(*(e if cap is None else e.truncate(cap)
                                         for row in self.matrix for e in row))
            self._split[cap] = [flat[i * n:i * n + n] for i in range(n)], den
        return self._split[cap]

    def evaluate(self, a, b):
        """Pairing value sum_i d_i(a) (sum_j rho(x_i, x_j) d^j(b)).

        One int body for both rings: the join of the halves of a and b,
        each over one denominator, with the entries (once per cap, kept);
        the ring's int product forms each inner sum over j once (n^2 + n
        products).  Truncated operands lose one degree to the strip: all
        is cut to min(cap(a) - 1, cap(b) - 1, entry cap).
        """
        kind = type(self.matrix[0][0])
        if type(a) is not kind or type(b) is not kind:
            raise TypeError(f"a {self._ring.name} pairing evaluates {kind.__name__} operands")
        n, cap = self.rank, None
        if a.rank != n or b.rank != n:
            raise ValueError(f"a rank-{n} pairing evaluates rank-{n} operands")
        if self.cap is not None:
            cap = min(a.cap - 1, b.cap - 1, self.cap)
            if cap < 1:
                raise ValueError("operand caps too small to evaluate a pairing")
        return self._join(self._left_half(a, cap), self._right_half(b, cap), cap)

    def _left_half(self, a, cap):
        """Half of ``evaluate`` at the value cap (None: exact): the d_i(a) as
        ints over one denominator, a cut to cap + 1."""
        a = a if cap is None else a.truncate(cap + 1)
        *lefts, den = _over_one_den(*(self._ring.left(a, i + 1) for i in range(self.rank)))
        return lefts, den

    def _right_half(self, b, cap):
        """The other half: the inner sums over j for every i, over one
        denominator, b cut to cap + 1."""
        n, ring = self.rank, self._ring
        b = b if cap is None else b.truncate(cap + 1)
        *rights, right_den = _over_one_den(*(ring.right(b, j + 1) for j in range(n)))
        entries, entry_den = self._int_entries(cap)
        live = [j for j in range(n) if rights[j]]
        inners = [ring.product([(entries[i][j], rights[j]) for j in live], cap) for i in range(n)]
        return inners, right_den * entry_den

    def _join(self, left, right, cap):
        """rho(a, b) at cap from the left half of a and the right half of b."""
        (lefts, left_den), (inners, right_den) = left, right
        total = self._ring.product(zip(lefts, inners), cap)
        return self._ring.raw(self.rank, cap, total, left_den * right_den)

    def t_pairing_value(self, a: GroupWord, b: GroupWord):
        """Value of the companion pairing that is a derivation in both
        slots: on group words it is evaluate(a, b) * b^-1."""
        image, like = self._ring.image, self.matrix[0][0]
        value = self.evaluate(image(GroupAlgebraElement.from_word(a), like),
                              image(GroupAlgebraElement.from_word(b), like))
        return value * image(GroupAlgebraElement.from_word(b.inverse()), value)

    # -- derived structure ----------------------------------------------

    def homological_form(self):
        """Matrix of augmentations of the generator values."""
        augmentation = self._ring.augmentation
        return [[augmentation(e) for e in row] for row in self.matrix]

    def is_nondegenerate(self) -> bool:
        return linalg.is_invertible(self.homological_form())

    def transpose(self) -> "FoxPairing":
        """The pairing (a, b) |-> a bar(eta(b, a)) b, on generator values."""
        n, ring = self.rank, self._ring
        gens = [ring.image(GroupAlgebraElement.generator(n, i + 1), self.matrix[0][0])
                for i in range(n)]
        return FoxPairing([[gens[i] * ring.involution(self.matrix[j][i]) * gens[j]
                            for j in range(n)] for i in range(n)])

    def is_weakly_skew(self):
        """Whether self + transpose is inner; returns (flag, witness).

        The witness e satisfies (self + transpose)(x_i, x_j) = X_i e X_j
        for all generator pairs, at the entry cap.
        """
        return (self + self.transpose()).inner_witness()

    def inner_witness(self):
        """Solve self = inner(e) for e at the cap; (False, None) if none.

        Every monomial of X_i e X_j starts with i and ends with j, so e is
        recovered from any single entry by stripping the frame letters;
        the candidate is then checked against the whole matrix.
        """
        if self.cap is None:
            raise ValueError("inner-witness extraction works on truncated pairings")
        candidate = _strip_last(_strip_first(self.matrix[0][0], 1), 1)
        if FoxPairing.inner(candidate) != self:
            return False, None
        return True, candidate


class NablaElement:
    """A series of filtration degree >= 1 acting as the characteristic
    element of a nondegenerate pairing."""

    __slots__ = ("series",)

    def __init__(self, series: TruncatedSeries):
        if series.constant_term() != 0:
            raise ValueError("a nabla element has no constant term")
        self.series = series

    @property
    def rank(self):
        return self.series.rank

    @property
    def cap(self):
        return self.series.cap

    def degree2_matrix(self):
        """Coefficients of the length-two monomials, as an n x n matrix."""
        n = self.rank
        return [
            [self.series.coefficient((r + 1, s + 1)) for s in range(n)]
            for r in range(n)
        ]

    def is_nondegenerate(self) -> bool:
        """No degree-one part and an invertible degree-two matrix."""
        if not self.series.degree_part(1).is_zero():
            return False
        return linalg.is_invertible(self.degree2_matrix())

    def __eq__(self, other):
        if not isinstance(other, NablaElement):
            return NotImplemented
        return self.series == other.series

    def __repr__(self):
        return "NablaElement(%r)" % (self.series,)


def nabla_of_pairing(pairing: FoxPairing) -> NablaElement:
    """The unique series nabla with pairing(a, nabla) = a - aug(a).

    Built as sum_{r,s} X_r c_{r,s} X_s where C is the inverse of the
    generator-value matrix: each term m of c_{r,s} becomes the monomial
    (r, *m, s), kept while its degree stays below the cap.  The framed
    monomials are distinct, so nothing is summed.  Output cap equals the
    entry cap (the degree rule above).
    """
    if pairing.cap is None:
        raise ValueError("nabla is computed from a truncated pairing")
    if not pairing.is_nondegenerate():
        raise NotNondegenerate("pairing has a singular homological form")
    n, cap = pairing.rank, pairing.cap
    inverse = series_matrix_inverse(pairing.matrix)
    *c, den = _over_one_den(*(e for row in inverse for e in row))
    total = {(r + 1,) + m + (s + 1,): coeff
             for r in range(n) for s in range(n)
             for m, coeff in c[r * n + s].items() if len(m) + 2 < cap}
    return NablaElement(TruncatedSeries._raw(n, cap, total, den))


def pairing_of_nabla(nabla: NablaElement) -> FoxPairing:
    """The nondegenerate pairing whose characteristic element is nabla.

    One pass over nabla, which rejects a degree-one term: a monomial
    X_r m X_s (length L >= 2) puts its coefficient at m in the middle
    factor c_{r,s}.  Since L < cap, m has degree L - 2 < cap - 2, so every
    c_{r,s} is complete two degrees below nabla's cap; the returned
    pairing is the inverse of the c-matrix at cap - 2, one solve
    (``series_matrix_inverse``) that also finds a singular degree-two matrix.
    """
    n, cap = nabla.rank, nabla.cap
    c = [[{} for _ in range(n)] for _ in range(n)]
    for m, coeff in nabla.series.num.items():
        if len(m) == 1:
            raise NotNondegenerate("degree-two coefficient matrix is singular")
        c[m[0] - 1][m[-1] - 1][m[1:-1]] = coeff
    try:
        inverse = series_matrix_inverse(
            [[TruncatedSeries._raw(n, cap - 2, e, nabla.series.den) for e in row] for row in c])
    except NotInvertible:
        raise NotNondegenerate("degree-two coefficient matrix is singular") from None
    return FoxPairing(inverse)
