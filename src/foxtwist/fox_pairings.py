"""Fox pairings: matrix-defined bilinear forms on a free-group algebra.

A pairing is a left Fox derivative in its first slot and a right Fox
derivative in its second slot, so it is determined by the n x n matrix of
its values on generator pairs.  Both the exact representation (group
algebra entries) and the truncated one (series entries, all at one degree
cap) are supported.  Truncated evaluation loses one degree per stripped
argument, and the nondegenerate calculus relating a pairing to its
characteristic element nabla loses two; callers pad caps accordingly.
"""

from __future__ import annotations

from . import linalg
from .errors import NotNondegenerate
from .group_algebra import GroupAlgebraElement, fox_derivative_left, fox_derivative_right
from .series import TruncatedSeries, accumulate, nonzero, series_matrix_inverse
from .truncated_completion import (
    _strip_first,
    _strip_last,
    antipode,
    embed,
    fox_left_series,
    fox_right_series,
)
from .words import GroupWord

EXACT = "exact"
TRUNCATED = "truncated"


class FoxPairing:
    """A pairing given by its generator-pair value matrix."""

    __slots__ = ("rank", "representation", "matrix")

    def __init__(self, matrix):
        rows = len(matrix)
        if rows == 0 or any(len(row) != rows for row in matrix):
            raise ValueError("matrix must be square and non-empty")
        first = matrix[0][0]
        if isinstance(first, TruncatedSeries):
            representation = TRUNCATED
        elif isinstance(first, GroupAlgebraElement):
            representation = EXACT
        else:
            raise TypeError("entries must be group-algebra elements or truncated series")
        for row in matrix:
            for entry in row:
                if not isinstance(entry, type(first)):
                    raise TypeError("mixed entry types")
                if entry.rank != rows:
                    raise ValueError("entry rank must equal the matrix size")
                if representation == TRUNCATED and entry.cap != first.cap:
                    raise ValueError("truncated entries must share one degree cap")
        self.rank = rows
        self.representation = representation
        self.matrix = tuple(tuple(row) for row in matrix)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> "FoxPairing":
        z = GroupAlgebraElement.zero(rank)
        return cls([[z] * rank for _ in range(rank)])

    @classmethod
    def inner(cls, e) -> "FoxPairing":
        """The pairing (a, b) |-> (a - aug a) e (b - aug b)."""
        rank = e.rank
        if isinstance(e, TruncatedSeries):
            x = [TruncatedSeries.variable(rank, e.cap, i + 1) for i in range(rank)]
            return cls([[x[i] * e * x[j] for j in range(rank)] for i in range(rank)])
        gens = [GroupAlgebraElement.generator(rank, i + 1) - 1 for i in range(rank)]
        return cls([[gens[i] * e * gens[j] for j in range(rank)] for i in range(rank)])

    # -- basic structure ----------------------------------------------

    @property
    def cap(self):
        """Degree cap of the entries; None for the exact representation."""
        if self.representation == EXACT:
            return None
        return self.matrix[0][0].cap

    def entry(self, i: int, j: int):
        """Value on the generator pair (x_i, x_j), 1-based."""
        return self.matrix[i - 1][j - 1]

    def embedded(self, cap: int) -> "FoxPairing":
        """Truncated copy of an exact pairing, entries embedded at cap."""
        if self.representation != EXACT:
            raise ValueError("embedded() expects an exact pairing")
        return FoxPairing([[embed(e, cap) for e in row] for row in self.matrix])

    def truncate(self, new_cap: int) -> "FoxPairing":
        if self.representation != TRUNCATED:
            raise ValueError("truncate() expects a truncated pairing")
        return FoxPairing([[e.truncate(new_cap) for e in row] for row in self.matrix])

    def __add__(self, other: "FoxPairing") -> "FoxPairing":
        self._check_compatible(other)
        return FoxPairing(
            [
                [self.matrix[i][j] + other.matrix[i][j] for j in range(self.rank)]
                for i in range(self.rank)
            ]
        )

    def __sub__(self, other: "FoxPairing") -> "FoxPairing":
        return self + other.scale(-1)

    def scale(self, k) -> "FoxPairing":
        return FoxPairing([[e.scale(k) for e in row] for row in self.matrix])

    def __eq__(self, other):
        if not isinstance(other, FoxPairing):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.representation == other.representation
            and self.matrix == other.matrix
        )

    def __hash__(self):
        entries = tuple(frozenset(e.terms.items()) for row in self.matrix for e in row)
        return hash((self.rank, self.representation, self.cap, entries))

    def _check_compatible(self, other: "FoxPairing"):
        if self.rank != other.rank or self.representation != other.representation:
            raise ValueError("pairing mismatch")
        if self.representation == TRUNCATED and self.cap != other.cap:
            raise ValueError("degree cap mismatch")

    def __repr__(self):
        return "FoxPairing(rank=%d, %s%s)" % (
            self.rank,
            self.representation,
            "" if self.cap is None else ", cap=%d" % self.cap,
        )

    # -- evaluation ----------------------------------------------------

    def evaluate(self, a, b):
        """Pairing value on (a, b) via generator-matrix expansion.

        Truncated operands lose one degree to the derivative strip: the
        result cap is min(cap(a), cap(b)) - 1, further clipped by the
        entry cap.
        """
        if self.representation == EXACT:
            if not isinstance(a, GroupAlgebraElement) or not isinstance(b, GroupAlgebraElement):
                raise TypeError("exact pairing evaluates group-algebra elements")
            total = {}
            lefts = [fox_derivative_left(a, i + 1) for i in range(self.rank)]
            rights = [fox_derivative_right(b, j + 1) for j in range(self.rank)]
            for i in range(self.rank):
                if lefts[i].is_zero():
                    continue
                for j in range(self.rank):
                    if rights[j].is_zero():
                        continue
                    accumulate(total, (lefts[i] * self.matrix[i][j] * rights[j]).terms.items())
            return GroupAlgebraElement._raw(self.rank, nonzero(total))
        if not isinstance(a, TruncatedSeries) or not isinstance(b, TruncatedSeries):
            raise TypeError("truncated pairing evaluates truncated series")
        cap = min(a.cap - 1, b.cap - 1, self.cap)
        if cap < 1:
            raise ValueError("operand caps too small to evaluate a pairing")
        total = {}
        lefts = [fox_left_series(a, i + 1).truncate(cap) for i in range(self.rank)]
        rights = [fox_right_series(b, j + 1).truncate(cap) for j in range(self.rank)]
        for i in range(self.rank):
            if lefts[i].is_zero():
                continue
            for j in range(self.rank):
                if rights[j].is_zero():
                    continue
                product = lefts[i] * self.matrix[i][j].truncate(cap) * rights[j]
                accumulate(total, product.terms.items())
        return TruncatedSeries._raw(self.rank, cap, nonzero(total))

    def t_pairing_value(self, a: GroupWord, b: GroupWord):
        """Value of the companion pairing that is a derivation in both
        slots: on group words it is evaluate(a, b) * b^-1."""
        if self.representation == EXACT:
            ea = GroupAlgebraElement.from_word(a)
            eb = GroupAlgebraElement.from_word(b)
            return self.evaluate(ea, eb) * GroupAlgebraElement.from_word(b.inverse())
        cap = self.cap
        value = self.evaluate(embed(GroupAlgebraElement.from_word(a), cap),
                              embed(GroupAlgebraElement.from_word(b), cap))
        return value * embed(GroupAlgebraElement.from_word(b.inverse()), value.cap)

    # -- derived structure ----------------------------------------------

    def homological_form(self):
        """Matrix of augmentations of the generator values."""
        if self.representation == EXACT:
            return [[e.augmentation() for e in row] for row in self.matrix]
        return [[e.constant_term() for e in row] for row in self.matrix]

    def is_nondegenerate(self) -> bool:
        return linalg.is_invertible(self.homological_form())

    def transpose(self) -> "FoxPairing":
        """The pairing (a, b) |-> a bar(eta(b, a)) b, on generator values."""
        n = self.rank
        if self.representation == EXACT:
            gens = [GroupAlgebraElement.generator(n, i + 1) for i in range(n)]
            return FoxPairing(
                [[gens[i] * self.matrix[j][i].bar() * gens[j] for j in range(n)] for i in range(n)]
            )
        cap = self.cap
        gens = [1 + TruncatedSeries.variable(n, cap, i + 1) for i in range(n)]
        return FoxPairing(
            [[gens[i] * antipode(self.matrix[j][i]) * gens[j] for j in range(n)] for i in range(n)]
        )

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
        if self.representation != TRUNCATED:
            raise ValueError("inner-witness extraction works on truncated pairings")
        n, cap = self.rank, self.cap
        candidate = _strip_last(_strip_first(self.matrix[0][0], 1), 1)
        x = [TruncatedSeries.variable(n, cap, i + 1) for i in range(n)]
        for i in range(n):
            for j in range(n):
                if x[i] * candidate * x[j] != self.matrix[i][j]:
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
    entry cap; only the degrees below cap - 2 of a round trip through
    pairing_of_nabla are recoverable.
    """
    if pairing.representation != TRUNCATED:
        raise ValueError("nabla is computed from a truncated pairing")
    if not pairing.is_nondegenerate():
        raise NotNondegenerate("pairing has a singular homological form")
    n, cap = pairing.rank, pairing.cap
    c = series_matrix_inverse([list(row) for row in pairing.matrix])
    total = {(r + 1,) + m + (s + 1,): coeff
             for r in range(n) for s in range(n)
             for m, coeff in c[r][s].terms.items() if len(m) + 2 < cap}
    return NablaElement(TruncatedSeries._raw(n, cap, total))


def pairing_of_nabla(nabla: NablaElement) -> FoxPairing:
    """The nondegenerate pairing whose characteristic element is nabla.

    One pass over nabla: a monomial X_r m X_s (length L >= 2) puts its
    coefficient at m in the middle factor c_{r,s}.  Since L < cap, m has
    degree L - 2 < cap - 2, so every c_{r,s} is complete two degrees
    below nabla's cap; the returned pairing is the inverse of the
    c-matrix (``series_matrix_inverse``) at cap - 2.
    """
    if not nabla.is_nondegenerate():
        raise NotNondegenerate("degree-two coefficient matrix is singular")
    n, cap = nabla.rank, nabla.cap
    c = [[{} for _ in range(n)] for _ in range(n)]
    for m, coeff in nabla.series.terms.items():
        if 2 <= len(m) < cap:
            c[m[0] - 1][m[-1] - 1][m[1:-1]] = coeff
    return FoxPairing(series_matrix_inverse(
        [[TruncatedSeries._raw(n, cap - 2, e) for e in row] for row in c]))
