"""Surfaces with one boundary circle: pairings, Dehn twists, scenarios.

The fundamental group of a genus g surface with one boundary component
is free on a1, b1, ..., ag, bg, and the boundary is parametrized by
nu = [a1,b1]...[ag,bg].  The homotopy intersection pairing is written
down in closed form on Q[pi]; its nabla element is iota(nu) - 1 (the
``nabla`` suite checks this), its homological shadow is the standard
symplectic matrix, and twists along curve words are built against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .derived_twists import (
    TwistAutomorphism,
    exp_derivation,
    sigma_log_squared,
    twist,
)
from .fox_pairings import FoxPairing, NablaElement
from .group_algebra import GroupAlgebraElement
from .series import TruncatedSeries, _positive_int, as_fraction, commutator, shortlex
from .truncated_completion import embed
from .words import GroupWord, parse_word


@dataclass(frozen=True)
class SurfaceSpec:
    """Genus g surface with one boundary component, computed at a degree cap."""

    genus: int
    cap: int = 5

    def __post_init__(self):
        if not _positive_int(self.genus):
            raise ValueError("genus must be at least 1")
        if not (_positive_int(self.cap) and self.cap >= 2):
            raise ValueError("degree cap must be at least 2")

    @property
    def rank(self):
        return 2 * self.genus

    @property
    def names(self):
        return basis_names(self.genus)

    def name_table(self) -> dict:
        """Canonical names a1, b1, ... plus single letters a, b, c, ..."""
        table = {name: i + 1 for i, name in enumerate(self.names)}
        for i in range(min(self.rank, 26)):
            table.setdefault(chr(ord("a") + i), i + 1)
        return table

    def parse_curve(self, text: str) -> GroupWord:
        return parse_word(text, self.rank, self.name_table())

    def generator(self, index: int) -> GroupWord:
        return GroupWord.generator(self.rank, index)

    def boundary_word(self) -> GroupWord:
        letters = []
        for i in range(self.genus):
            a = 2 * i + 1
            b = 2 * i + 2
            letters.extend((a, b, -a, -b))
        return GroupWord(self.rank, tuple(letters))


@dataclass(frozen=True)
class CurveSpec:
    """A free-homotopy class of curves, given by any representative word."""

    word: GroupWord
    k: Fraction = Fraction(1, 2)

    def __post_init__(self):
        object.__setattr__(self, "k", as_fraction(self.k))


def basis_names(genus: int) -> list:
    """a1, b1, a2, b2, ...: the names of the generators in order."""
    return [f"{letter}{i}" for i in range(1, genus + 1) for letter in "ab"]


def intersection_form(genus: int) -> list:
    """Block diagonal [[0, -1], [1, 0]] per handle, rows/cols a1 b1 a2 b2 ..."""
    n = 2 * genus
    zero = Fraction(0)
    form = [[zero] * n for _ in range(n)]
    for i in range(genus):
        form[2 * i][2 * i + 1] = Fraction(-1)
        form[2 * i + 1][2 * i] = Fraction(1)
    return form


def boundary_nabla(spec: SurfaceSpec, cap=None) -> NablaElement:
    """iota(nu) - 1 at the given cap (default: the pairing entry cap)."""
    if cap is None:
        cap = spec.cap + 2
    nu = GroupAlgebraElement.from_word(spec.boundary_word())
    return NablaElement(embed(nu, cap) - 1)


def surface_pairing_exact(genus: int) -> FoxPairing:
    """The intersection pairing on Q[pi] (cap None), entry by entry.

    With X_i = x_i - 1 and a = 2h - 1, b = 2h the letters of handle h:
    rho(a, a) = X_a, rho(a, b) = -1 - X_a - X_a X_b, rho(b, a) = 1 + X_b,
    rho(b, b) = -X_b - X_b^2, and across handles rho(x_i, x_j) = -X_i X_j
    when i's handle comes before j's, 0 when it comes after.
    """
    n = SurfaceSpec(genus).rank
    X = [GroupAlgebraElement.generator(n, i + 1) - 1 for i in range(n)]
    zero = GroupAlgebraElement.zero(n)
    matrix = [[-(X[i] * X[j]) if i // 2 < j // 2 else zero for j in range(n)] for i in range(n)]
    for a, b in zip(range(0, n, 2), range(1, n, 2)):
        matrix[a][a], matrix[a][b] = X[a], -1 - X[a] - X[a] * X[b]
        matrix[b][a], matrix[b][b] = 1 + X[b], -X[b] - X[b] * X[b]
    return FoxPairing(matrix)


@lru_cache(maxsize=None)
def surface_pairing(spec: SurfaceSpec) -> FoxPairing:
    """The exact pairing embedded at spec.cap + 2 and cached per spec; its
    caps follow the degree rule in ``fox_pairings``."""
    return surface_pairing_exact(spec.genus).embedded(spec.cap + 2)


def generalized_dehn_twist(spec: SurfaceSpec, curve: CurveSpec) -> TwistAutomorphism:
    return twist(surface_pairing(spec), curve.k, curve.word)


def word_automorphism(rank: int, cap: int, image_words) -> TwistAutomorphism:
    images = [embed(GroupAlgebraElement.from_word(w), cap) for w in image_words]
    return TwistAutomorphism(rank, cap, images)


def classical_dehn_twist(spec: SurfaceSpec, preset: str) -> TwistAutomorphism:
    """Word-level twist along the standard test curves.

    nonseparating-a1:          a1 -> a1, b1 -> b1 a1^-1
    separating-genus1-part:    a1 -> c a1 c^-1, b1 -> c b1 c^-1, c = [a1, b1]
    """
    gens = [GroupWord.generator(spec.rank, i + 1) for i in range(spec.rank)]
    image_words = list(gens)
    if preset == "nonseparating-a1":
        image_words[1] = gens[1] * gens[0].inverse()
    elif preset == "separating-genus1-part":
        if spec.genus < 2:
            raise ValueError("separating preset needs genus at least 2")
        c = gens[0] * gens[1] * gens[0].inverse() * gens[1].inverse()
        image_words[0] = c * gens[0] * c.inverse()
        image_words[1] = c * gens[1] * c.inverse()
    else:
        raise ValueError(f"unknown preset {preset!r}")
    return word_automorphism(spec.rank, spec.cap, image_words)


def include_series(series: TruncatedSeries, new_rank: int) -> TruncatedSeries:
    """Reinterpret a series over a larger alphabet (letters keep their index)."""
    if new_rank < series.rank:
        raise ValueError("cannot shrink the alphabet")
    return TruncatedSeries._raw(new_rank, series.cap, series.num, series.den)


def _sorted_monomials(*series_list):
    seen = set()
    for s in series_list:
        seen.update(s.num)
    return sorted(seen, key=shortlex)


def first_difference(got: TruncatedSeries, want: TruncatedSeries):
    """The least monomial (by length, then letters) with differing coefficients."""
    for m in _sorted_monomials(got, want):
        if got.coefficient(m) != want.coefficient(m):
            return {
                "word": list(m),
                "got": str(got.coefficient(m)),
                "want": str(want.coefficient(m)),
            }
    return None


def _check(name, ok, witness=None):
    entry = {"name": name, "pass": bool(ok)}
    if not ok and witness is not None:
        entry["witness"] = witness
    return entry


def _trials(ok_iter):
    """Collapse an iterator of (ok, witness) into one pass/witness pair."""
    for ok, witness in ok_iter:
        if not ok:
            return False, witness
    return True, None


def _agree(name, pairs):
    """The check that every (got, want) series pair is equal; it fails on
    the first pair that differs, with ``first_difference`` as witness."""
    for got, want in pairs:
        if got != want:
            return _check(name, False, first_difference(got, want))
    return _check(name, True)


def figure_eight_scenario(k, cap: int = 5) -> dict:
    """The figure-eight curve c = alpha beta^-1 on a twice-punctured disk.

    Only the single pairing value eta(c, alpha) = c - 1 + alpha^2 - c alpha
    is consumed; no full pairing matrix exists for this surface here.  Four
    checks:

    (i)   the twist log sigma(k log^2 c, alpha) equals 2k [log(beta^-1 alpha), alpha];
    (ii)  in coordinates u = log iota(alpha), v = log iota(beta) it equals
          -2k [v + [v,u]/2 - [v,[v,u]]/12 + [u,[u,v]]/12, u + u^2/2 + u^3/6]
          modulo degree 5;
    (iii) for k != 0 no rational multiple of [log iota(beta alpha), iota(alpha)]
          reproduces it through degree 4: the leading degree pins the multiple
          and a nonzero residual remains (for k = 0 the multiple 0 matches);
    (iv)  the squared half twist acts as conjugation by iota(beta alpha), so
          exp([log iota(beta alpha), -]) equals that conjugation on generators.

    Degrees below 5 cannot see the residual in (iii), so work happens at
    cap max(cap, 5).
    """
    k = as_fraction(k)
    if not _positive_int(cap):
        raise ValueError("cap must be a positive integer")
    w = max(cap, 5)
    rank = 2
    half = Fraction(1, 2)
    alpha = GroupWord(rank, (1,))
    beta = GroupWord(rank, (2,))
    c = alpha * beta.inverse()

    def emb(word, cap_=w):
        return embed(GroupAlgebraElement.from_word(word), cap_)

    ia = emb(alpha)
    rho_c_alpha = (
        GroupAlgebraElement.from_word(c)
        - GroupAlgebraElement.one(rank)
        + GroupAlgebraElement.from_word(alpha * alpha)
        - GroupAlgebraElement.from_word(c * alpha)
    )
    twist_log = sigma_log_squared(k, emb(c), ia, rho_c_alpha)
    bracket = commutator(emb(beta.inverse() * alpha).log(), ia)
    checks = [_agree("twist-log-bracket", [(twist_log, bracket.scale(2 * k))])]

    u = ia.log()
    v = emb(beta).log()
    first_slot = (
        v
        + commutator(v, u).scale(half)
        - commutator(v, commutator(v, u)).scale(Fraction(1, 12))
        + commutator(u, commutator(u, v)).scale(Fraction(1, 12))
    )
    second_slot = u + (u * u).scale(half) + (u * u * u).scale(Fraction(1, 6))
    display = commutator(first_slot, second_slot).scale(-2 * k)
    checks.append(_agree("log-coordinate-display",
                         [(twist_log.truncate(5), display.truncate(5))]))

    half_twist_sq = commutator(emb(beta * alpha).log(), ia)
    if k == 0:
        status = {
            "name": "half-twist-power-gap",
            "pass": twist_log.is_zero(),
            "scale": "0",
            "witness": None,
        }
    else:
        lead = half_twist_sq.filtration_degree()
        mono = min((m for m in half_twist_sq.num if len(m) == lead))
        scale = twist_log.coefficient(mono) / half_twist_sq.coefficient(mono)
        candidate = half_twist_sq.scale(scale)
        residual = first_difference(twist_log.truncate(5), candidate.truncate(5))
        agrees_below = twist_log.truncate(4) == candidate.truncate(4)
        status = {
            "name": "half-twist-power-gap",
            "pass": agrees_below and residual is not None,
            "scale": str(scale),
            "witness": residual,
        }
    checks.append(status)

    nu = beta * alpha
    log_nu = emb(nu).log()
    values = [commutator(log_nu, emb(GroupWord.generator(rank, i + 1)))
              for i in range(rank)]
    conjugate = exp_derivation(values)

    def conjugations():
        for i in range(rank):
            x = GroupWord.generator(rank, i + 1)
            diff = first_difference(conjugate(emb(x)), emb(nu * x * nu.inverse()))
            yield diff is None, diff and dict(diff, generator=i + 1)

    checks.append(_check("boundary-conjugation", *_trials(conjugations())))

    return {
        "scenario": "figure-eight",
        "cap": w,
        "k": str(k),
        "ok": all(c["pass"] for c in checks),
        "checks": checks,
    }
