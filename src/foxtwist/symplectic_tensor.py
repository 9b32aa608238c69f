"""Completed tensor algebra over H with the symplectic pairing machinery.

H is the degree-1 homology of a genus g surface with basis written
a1, b1, ..., ag, bg; the completed tensor algebra reuses the sparse
truncated-series storage, with letter i naming the i-th basis
vector of H rather than a shifted group generator.  ``tensor_coproduct``
makes every letter primitive: it is the primitive rule of the coproduct
engine in ``truncated_completion``, whose group-like tests take it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .derived_twists import (
    TwistAutomorphism,
    _derivation_frames,
    _derivation_join,
    derived_generator_values,
)
from .errors import DomainError, SolverError
from .group_algebra import GroupAlgebraElement
from .series import (
    TruncatedSeries,
    _over_one_den,
    _positive_int,
    accumulate,
    frame_kernel,
    nonzero,
    sum_powers,
    times,
)
from .surfaces import (
    SurfaceSpec,
    _agree,
    basis_names,  # re-exported beside the symplectic basis
    intersection_form,
    surface_pairing,
)
from .truncated_completion import (
    PRIMITIVE_LETTER,
    TruncatedTensor,
    _coproduct,
    embed,
    is_group_like,
)
from .words import GroupWord


def s_coefficients():
    """c_0, c_1, ... of s(z) = 1/(e^{-z} - 1) + 1/z, without end: with
    e_j = (-1)^j / j!, the z^(n+1) part of s(z)(e^{-z} - 1) = 1 + (e^{-z} - 1)/z
    is sum_{k <= n} c_k e_(n+1-k) = e_(n+2), and e_1 = -1 solves it for c_n."""
    e = lambda j: Fraction((-1) ** j, math.factorial(j))
    known = []
    for n in itertools.count():
        known.append(sum((c * e(n + 1 - k) for k, c in enumerate(known)), -e(n + 2)))
        yield known[-1]


# z^0 .. z^5, the coefficients the verify suite checks at cap 7.
S_COEFFICIENTS = tuple(itertools.islice(s_coefficients(), 6))


def _genus_of_rank(rank: int) -> int:
    if rank % 2:
        raise ValueError("H must be even-dimensional")
    return rank // 2


def basis_vector(genus: int, index: int, cap: int) -> TruncatedSeries:
    return TruncatedSeries.variable(2 * genus, cap, index)


def intersection_number(genus: int, h: int, k: int) -> Fraction:
    """Homological h . k for basis indices, from the symplectic matrix."""
    return intersection_form(genus)[h - 1][k - 1]


def omega(genus: int, cap: int) -> TruncatedSeries:
    """The degree-2 dual of the intersection form: sum of b_i a_i - a_i b_i."""
    if cap < 3:
        raise ValueError("omega needs cap at least 3")
    terms = {}
    for i in range(genus):
        a = 2 * i + 1
        b = 2 * i + 2
        terms[(b, a)] = 1
        terms[(a, b)] = -1
    return TruncatedSeries._raw(2 * genus, cap, terms)


def tensor_coproduct(series: TruncatedSeries) -> TruncatedTensor:
    """Coproduct with every basis letter primitive."""
    return _coproduct(series, PRIMITIVE_LETTER)


def cyclicize(series: TruncatedSeries) -> TruncatedSeries:
    """Sum of all cyclic rotations; defined on homogeneous input of degree >= 1."""
    degrees = {len(m) for m in series.num}
    if not degrees:
        return TruncatedSeries.zero(series.rank, series.cap)
    if len(degrees) != 1:
        raise ValueError("cyclicization needs a homogeneous input")
    (degree,) = degrees
    if degree < 1:
        raise ValueError("cyclicization needs degree at least 1")
    terms = {}
    for monomial, coeff in series.num.items():
        accumulate(terms, ((monomial[r:] + monomial[:r], coeff) for r in range(degree)))
    return TruncatedSeries._raw(series.rank, series.cap, nonzero(terms), series.den)


def contraction(u: TruncatedSeries, v: TruncatedSeries) -> TruncatedSeries:
    """Contract the last letter of u with the first letter of v.

    (h_1 ... h_m) ~> (k_1 ... k_n) = (h_m . k_1) h_1 ... h_{m-1} k_2 ... k_n.
    Both arguments must have zero constant term.
    """
    if u.rank != v.rank:
        raise ValueError("rank mismatch")
    if u.constant_term() or v.constant_term():
        raise DomainError("contraction needs arguments without constant terms")
    return _contraction_table([u], [v], min(u.cap, v.cap))[0][0]


def _contraction_table(us, vs, cap):
    """contraction(u, v) for u in us (rows) and v in vs (columns) at a cap
    no higher than theirs.  One job per first letter k of v: u's terms
    without their last letter h, weighted by h . k, are built once per u,
    around v's tails after k, built once per v."""
    n = us[0].rank
    form = intersection_form(_genus_of_rank(n))
    fillings = []
    for v in vs:
        fillings.append([{} for _ in range(n)])
        for mv, cv in v.num.items():
            fillings[-1][mv[0] - 1][mv[1:]] = cv
    rows = []
    for u in us:
        frames = [{} for _ in range(n)]
        for mu, cu in u.num.items():
            row = form[mu[-1] - 1]
            for k in range(n):
                if row[k]:
                    accumulate(frames[k], [((mu[:-1], ()), cu * int(row[k]))])
        rows.append([TruncatedSeries._raw(n, cap, frame_kernel(zip(frames, filling), cap),
                                          u.den * v.den) for v, filling in zip(vs, fillings)])
    return rows


def derivation_values(u: TruncatedSeries, cap=None) -> list:
    """The generator values <u, X_k> = -(X_k ~> N(u)) for k = 1..n.

    With N the cyclicization, each rotation of a term of u that starts
    with the letter l gives its tail to the value of every k with
    k . l nonzero, so one pass over the rotations fills all n values.
    Degree-0 terms of u act as zero.

    Cap rule: a term of degree m gives value terms of degree m - 1, so
    the values are returned at ``cap`` (default u.cap) and built from
    the terms of u of degree at most cap.
    """
    n = u.rank
    form = intersection_form(_genus_of_rank(n))
    cap = u.cap if cap is None else cap
    # partners[l - 1]: (k - 1, k . l) for every k pairing nontrivially with l
    partners = [[(k, int(form[k][l])) for k in range(n) if form[k][l]] for l in range(n)]
    out = [{} for _ in range(n)]
    for mu, cu in u.num.items():
        if not 0 < len(mu) <= cap:
            continue
        for r, letter in enumerate(mu):
            tail = mu[r + 1:] + mu[:r]
            for k, entry in partners[letter - 1]:
                value = out[k]
                value[tail] = value.get(tail, 0) - cu * entry
    return [TruncatedSeries._raw(n, cap, nonzero(value), u.den) for value in out]


def derivation_pairing(u: TruncatedSeries, v: TruncatedSeries) -> TruncatedSeries:
    """The pairing <u, v> whose left slot acts by symplectic derivations.

    A left argument of degree m >= 1 acts by

        <h_1...h_m, k_1...k_n> =
            - sum_j k_1...k_{j-1} (k_j ~> N(h_1...h_m)) k_{j+1}...k_n

    with N the cyclicization.  For m = 1 the form is skew, so this is the
    derivation sending a basis letter k to the scalar h . k.  Degree-0
    left arguments act as zero.  So <u, -> is the derivation with the
    values ``derivation_values(u)``.

    Cap rule: the result has cap = min(u.cap, v.cap) and holds every
    product of a stored term of u with a stored term of v whose degree
    lands below it: degree-1 terms of u give constants, so it joins the
    values at cap with v's frames from cap + 1 (``fox_pairings``).
    """
    if u.rank != v.rank:
        raise ValueError("rank mismatch")
    cap = min(u.cap, v.cap)
    frames = _derivation_frames(v.num, v.rank, cap + 1), v.den
    return _derivation_join(_over_one_den(*derivation_values(u, cap)), frames, cap)


def s_of_omega(genus: int, cap: int) -> TruncatedSeries:
    """The series s(omega) with s(z) = 1/(e^{-z} - 1) + 1/z."""
    return sum_powers(TruncatedSeries.one(2 * genus, cap), times(omega(genus, cap)),
                      s_coefficients())


def tensorial_rho(u: TruncatedSeries, v: TruncatedSeries) -> TruncatedSeries:
    """(u - eps u) ~> (v - eps v) + (u - eps u) s(omega) (v - eps v) at cap
    min(u.cap, v.cap) - 1: its contraction's top degree needs terms at the cap."""
    if u.rank != v.rank or min(u.cap, v.cap) < 2:
        raise ValueError("tensorial_rho needs one rank and caps of at least 2")
    return _rho_table([u], [v], min(u.cap, v.cap) - 1)[0][0]


def _rho_table(us, vs, cap):
    """tensorial_rho(u, v) for u in us (rows) and v in vs (columns), all
    of one rank, at a cap below theirs: one contraction table, with
    s(omega) once per call and (u - eps u) s(omega) once per row.
    """
    # omega needs cap 3; below it s(omega) is its constant term.
    middle = s_of_omega(_genus_of_rank(us[0].rank), max(cap, 3)).truncate(cap)
    u1s, v1s = ([w - w.constant_term() for w in ws] for ws in (us, vs))
    lows = [v1.truncate(cap) for v1 in v1s]
    rows = []
    for u1, contractions in zip(u1s, _contraction_table(u1s, v1s, cap)):
        u1_middle = u1.truncate(cap) * middle
        rows.append([c + u1_middle * low for c, low in zip(contractions, lows)])
    return rows


class SymplecticExpansion(TwistAutomorphism):
    """Generator images with the basis vectors as degree-1 parts, group-like
    for ``tensor_coproduct``, sending the boundary word to e^{-omega}.
    ``is_hopf`` is that tensor-side check, ``is_group_like``: the images are
    not group-like for the group coproduct of a twist.  ``apply_hat`` is
    theta-hat of section 9: ``apply`` on truncated group-algebra series.
    Built ``from_exponents`` (as ``build_symplectic_expansion`` does), it
    keeps the e of its images exp(e) and maps the letter -i to the antipode
    of exp(e_i); built from images, it solves the inverse.
    """

    __slots__ = ("genus", "exponents")

    def __init__(self, genus, cap, images):
        super().__init__(2 * genus, cap, images)
        for i, image in enumerate(self.images):
            if image.degree_part(1) != basis_vector(genus, i + 1, cap):
                raise ValueError("degree-1 part of image %d is not the basis vector" % (i + 1))
        self.genus = genus
        self.exponents = None

    @classmethod
    def from_exponents(cls, genus, cap, exponents) -> "SymplecticExpansion":
        """Images exp(e) for Lie series e (the builder's are letters plus
        brackets), so each is group-like and its antipode is exp(-e)."""
        exponents = tuple(exponents)
        expansion = cls(genus, cap, [e.exp() for e in exponents])
        expansion.exponents = exponents
        return expansion

    def _inverse_image(self, i):
        if not self.exponents:
            return super()._inverse_image(i)
        image = self.images[i - 1]  # its antipode: monomials reversed, times (-1)^length
        return TruncatedSeries._raw(self.rank, self.cap, {
            m[::-1]: -c if len(m) % 2 else c for m, c in image.num.items()}, image.den)

    apply_hat = TwistAutomorphism.apply

    def boundary_image(self) -> TruncatedSeries:
        return self.apply_word(SurfaceSpec(self.genus, self.cap).boundary_word())

    def is_group_like(self) -> bool:
        return all(is_group_like(image, tensor_coproduct) for image in self.images)

    is_hopf = is_group_like

    def is_symplectic(self) -> bool:
        return self.boundary_image() == (-omega(self.genus, self.cap)).exp()


def _bracket_with(letter, bracket):
    """[h, B] = h B - B h for a basis letter h and int terms B."""
    out = accumulate({}, (((letter,) + m, c) for m, c in bracket.items()))
    return nonzero(accumulate(out, ((m + (letter,), -c) for m, c in bracket.items())))


def _right_nested(word, memo):
    """The int terms of the right-nested bracket r(word), memoised in memo:
    r(h) = h and r(h w) = [h, r(w)]."""
    if word not in memo:
        rest = word[1:]
        memo[word] = _bracket_with(word[0], _right_nested(rest, memo)) if rest else {word: 1}
    return memo[word]


def lie_bracket_of_word(rank, cap, letters) -> TruncatedSeries:
    """Right-nested commutator [h_1, [h_2, [..., h_d]...]] of basis letters."""
    return TruncatedSeries(rank, cap, _right_nested(tuple(letters), {}))


def build_symplectic_expansion(genus: int, cap: int) -> SymplecticExpansion:
    """Correct the exponents, degree by degree, until the boundary image is
    e^{-omega}.

    Exponents start at the basis letters.  The boundary word has zero
    exponent sums, so a degree d - 1 correction first shows up in the
    defect log theta(nu) + omega at degree d, and there only linearly:
    adding delta to the exponent of a_i changes the degree-d defect by
    [delta, b_i], and adding it to the exponent of b_i by [a_i, delta]
    (by BCH the only term of log prod [e^{A_i}, e^{B_i}] linear in delta
    and of degree d pairs delta with a degree-1 letter).

    The degree-d defect part P is a Lie element (theta(nu) is group-like
    and omega is Lie), so by the Dynkin-Specht-Wever theorem
    d P = sum_m c_m [x_{m_1}, r(m_2 ... m_d)] over its monomials m with
    coefficients c_m, r the right-nested bracket.  So -(c_m / d) r(m[1:])
    added to the exponent of b_i for m starting with a_i, and +(c_m / d)
    r(m[1:]) added to that of a_i for m starting with b_i, cancel P: each
    degree is corrected in closed form, with no linear system.

    The defect is computed at the start and after each correction, on the
    exponents cut to degree + 1 for the next degree it serves (truncation
    is an algebra map, so the lower degrees are the same numbers); the
    closing one, at the full cap, must vanish, and gives the expansion.
    """
    if not _positive_int(genus):
        raise ValueError("genus must be at least 1")
    if not (_positive_int(cap) and cap >= 3):
        raise ValueError("cap must be at least 3")
    rank = 2 * genus
    boundary = SurfaceSpec(genus, cap).boundary_word()
    target = omega(genus, cap)
    exponents = [TruncatedSeries.variable(rank, cap, i + 1) for i in range(rank)]
    right_nested = {}  # word -> its int bracket, for this build

    def defect_below(top):
        theta = SymplecticExpansion.from_exponents(genus, top,
                                                   [e.truncate(top) for e in exponents])
        return theta, theta.apply_word(boundary).log() + target.truncate(top)

    theta, defect = defect_below(min(4, cap))
    if not defect.degree_part(2).is_zero():
        raise SolverError("degree-2 defect is nonzero; omega does not match nu")
    for degree in range(3, cap):
        if defect.cap <= degree:  # after a degree with a zero defect part
            theta, defect = defect_below(degree + 1)
        part = defect.degree_part(degree)
        if part.is_zero():
            continue
        corrections = [{} for _ in range(rank)]
        for m, c in part.num.items():
            # An odd letter is a_i, corrected through b_i (0-based slot m[0]);
            # an even one is b_i, corrected through a_i (slot m[0] - 2).
            slot, sign = (m[0], -1) if m[0] % 2 else (m[0] - 2, 1)
            accumulate(corrections[slot], _right_nested(m[1:], right_nested).items(), sign * c)
        for slot, terms in enumerate(corrections):
            exponents[slot] += TruncatedSeries._raw(rank, cap, nonzero(terms), part.den * degree)
        theta, defect = defect_below(min(degree + 2, cap))
    if not defect.is_zero():
        raise SolverError("corrections did not close the boundary condition")
    return theta


def verify_section9(spec: SurfaceSpec, expansion: SymplecticExpansion, cap: int,
                    extra_words=None) -> dict:
    """Check both expansion diagrams at the given cap.

    For u, v running over generator images and optional extra words (a
    list of GroupWord), compares theta(sigma(u, v)) with <theta u, theta v>
    and theta(eta(u, v)) with the tensorial rho.  Each bilinear stage is a
    half per input, built once, and a join per pair, run straight at cap:
    by the room rule, a join at cap is the join at its halves' cap, cut
    (degree rule in ``fox_pairings``).  Per input, u at cap + 2 gives the
    derived generator values at cap + 1; u and theta u at cap + 1 give
    their derivation frames, the values <theta u, X_k>, the Fox pairing
    halves at cap and the contraction halves of ``_rho_table``.  Per pair,
    the derivation joins (whose values have constant terms), the pairing
    and rho joins and theta all run at cap.  A wrong argument is a
    TypeError or ValueError naming it, raised before any work.
    """
    if extra_words is not None and not isinstance(extra_words, (list, tuple)):
        raise TypeError("extra_words must be a list, got %s" % type(extra_words).__name__)
    words = list(extra_words or ())
    for name, value, kind in [("spec", spec, SurfaceSpec),
                              ("expansion", expansion, SymplecticExpansion)] + [
                             ("extra_words[%d]" % j, w, GroupWord) for j, w in enumerate(words)]:
        if not isinstance(value, kind):
            raise TypeError("%s must be a %s, got %s"
                            % (name, kind.__name__, type(value).__name__))
    if not (_positive_int(cap) and cap >= 2):
        raise ValueError("cap must be an int of at least 2, got %r" % (cap,))
    if expansion.genus != spec.genus:
        raise ValueError("expansion genus %d is not spec genus %d" % (expansion.genus, spec.genus))
    if expansion.cap < cap + 2:
        raise ValueError("expansion cap must be at least cap + 2")
    rank = spec.rank
    for j, word in enumerate(words):
        if word.rank != rank:
            raise ValueError("extra_words[%d] has rank %d, not %d" % (j, word.rank, rank))
    pairing = surface_pairing(SurfaceSpec(spec.genus, cap))
    inputs = [("x%d" % (i + 1), GroupWord.generator(rank, i + 1)) for i in range(rank)]
    inputs += [("word%d" % (j + 1), word) for j, word in enumerate(words)]
    rows, columns = [], []
    for label, w in inputs:
        u = embed(GroupAlgebraElement.from_word(w), cap + 2)
        values = _over_one_den(*derived_generator_values(pairing, u))
        u = u.truncate(cap + 1)
        theta_u = expansion.apply_hat(u)
        rows.append((label, theta_u, values, _over_one_den(*derivation_values(theta_u)),
                     pairing._left_half(u, cap)))
        columns.append((label, (_derivation_frames(u.num, rank, cap + 1), u.den),
                        (_derivation_frames(theta_u.num, rank, cap + 1), theta_u.den),
                        pairing._right_half(u, cap)))
    thetas = [theta_u for _, theta_u, _, _, _ in rows]
    theta = expansion.truncate(cap)  # theta-hat of the joins, its products at cap
    checks = []
    for (label_u, _, values_u, tensor_values_u, left_u), rho_u in zip(
            rows, _rho_table(thetas, thetas, cap)):
        for (label_v, frames_v, theta_frames_v, right_v), rho_uv in zip(columns, rho_u):
            left = theta.apply(_derivation_join(values_u, frames_v, cap))
            right = _derivation_join(tensor_values_u, theta_frames_v, cap)
            checks.append(_agree("derived-diagram-%s-%s" % (label_u, label_v), [(left, right)]))
            left = theta.apply(pairing._join(left_u, right_v, cap))
            checks.append(_agree("pairing-diagram-%s-%s" % (label_u, label_v), [(left, rho_uv)]))
    return {
        "scenario": "symplectic-expansion",
        "genus": spec.genus,
        "cap": cap,
        "ok": all(c["pass"] for c in checks),
        "checks": checks,
    }
