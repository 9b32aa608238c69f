"""Named verification suites over the whole engine.

Each suite returns {"suite": name, "checks": [{"name", "pass", ...}]}
with a "witness" entry on failing checks when a first differing
coefficient is available; ``run_suite`` adds the "degree" it ran at.
Randomized inputs always draw from fixed seeds, so reports are
deterministic and byte-stable.

Every check is written one way, by the helpers in ``surfaces``.  Each
entry is built by ``_check``.  A check over many trials collapses them
with ``_trials``, which stops at the first (ok, witness) that fails, or
with ``_agree``, which stops at the first (got, want) pair that differs
and takes ``first_difference`` as its witness.  Trials are generated
lazily, so no input is drawn after the first failure.  A check calls the
library's own calculus (``**``, ``power_sum``, products) rather than a
copy of it, so it tests the code the package runs.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from fractions import Fraction

from .derived_twists import (
    TwistAutomorphism,
    derived_form_exact,
    twist,
)
from .errors import FoxTwistError, IsotropyError, NotNondegenerate
from .fox_pairings import FoxPairing, NablaElement, nabla_of_pairing, pairing_of_nabla
from .group_algebra import (
    GroupAlgebraElement,
    conjugation_sum,
    cyclic_projection,
    fox_derivative_left,
    fox_derivative_right,
)
from .series import TruncatedSeries, accumulate, commutator, power_sum
from .surfaces import (
    CurveSpec,
    SurfaceSpec,
    _agree,
    _check,
    _trials,
    boundary_nabla,
    classical_dehn_twist,
    figure_eight_scenario,
    first_difference,
    generalized_dehn_twist,
    surface_pairing,
    word_automorphism,
)
from .symplectic_tensor import (
    S_COEFFICIENTS,
    basis_vector,
    build_symplectic_expansion,
    contraction,
    omega,
    tensor_coproduct,
    tensorial_rho,
    verify_section9,
)
from .truncated_completion import (
    antipode,
    antipode_coproduct,
    embed,
    fundamental_power_contains,
    is_group_like,
    is_primitive,
    sandwich,
)
from .words import GroupWord

def _random_word(rng, rank, max_len, min_len=0) -> GroupWord:
    length = rng.randint(min_len, max_len)
    letters = []
    for _ in range(length):
        i = rng.randint(1, rank)
        letters.append(i if rng.random() < 0.5 else -i)
    return GroupWord(rank, tuple(letters))


def _random_element(rng, rank, terms=3, max_len=3) -> GroupAlgebraElement:
    draws = []
    for _ in range(terms):
        coeff = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2, 3]))
        draws.append((_random_word(rng, rank, max_len).letters, coeff))
    return GroupAlgebraElement(rank, accumulate({}, draws))


def _random_exact_pairing(rng, rank) -> FoxPairing:
    return FoxPairing([[_random_element(rng, rank, terms=2, max_len=2)
                        for _ in range(rank)] for _ in range(rank)])


def _random_series(rng, rank, cap, terms=4, min_degree=0) -> TruncatedSeries:
    data = {}
    for _ in range(terms):
        degree = rng.randint(min_degree, max(cap - 1, min_degree))
        monomial = tuple(rng.randint(1, rank) for _ in range(degree))
        if len(monomial) >= cap:
            continue
        data[monomial] = Fraction(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2, 3]))
    return TruncatedSeries(rank, cap, data)


# -- fox-laws ------------------------------------------------------------


def fox_laws_suite(degree: int, trials: int = 12) -> dict:
    rng = random.Random(1201)
    rank = 2
    checks = []

    def law(name, run):
        checks.append(_check(name, *_trials(run(random.Random(rng.randrange(10 ** 9) + t))
                                            for t in range(trials))))

    def product(factors):
        return functools.reduce(operator.mul, factors, GroupAlgebraElement.one(rank))

    def ideal_factors(r, count):
        """count elements w - 1 of I, for random words w of length 1 or 2."""
        return [GroupAlgebraElement.from_word(_random_word(r, rank, 2, 1)) - 1
                for _ in range(count)]

    def left_leibniz(r):
        a, b = _random_element(r, rank), _random_element(r, rank)
        i = r.randint(1, rank)
        lhs = fox_derivative_left(a * b, i)
        rhs = fox_derivative_left(a, i).scale(b.augmentation()) + a * fox_derivative_left(b, i)
        return lhs == rhs, f"left rule failed at generator {i}"

    def right_leibniz(r):
        a, b = _random_element(r, rank), _random_element(r, rank)
        i = r.randint(1, rank)
        lhs = fox_derivative_right(a * b, i)
        rhs = fox_derivative_right(a, i) * b + fox_derivative_right(b, i).scale(a.augmentation())
        return lhs == rhs, f"right rule failed at generator {i}"

    def left_reconstruction(r):
        a = _random_element(r, rank)
        total = GroupAlgebraElement.one(rank).scale(a.augmentation())
        for i in range(1, rank + 1):
            total = total + fox_derivative_left(a, i) * (GroupAlgebraElement.generator(rank, i) - 1)
        return total == a, "left expansion does not rebuild the element"

    def right_reconstruction(r):
        a = _random_element(r, rank)
        total = GroupAlgebraElement.one(rank).scale(a.augmentation())
        for i in range(1, rank + 1):
            total = total + (GroupAlgebraElement.generator(rank, i) - 1) * fox_derivative_right(a, i)
        return total == a, "right expansion does not rebuild the element"

    def conjugation_shift(r):
        word = _random_word(r, rank, 3)
        a = GroupAlgebraElement.from_word(word)
        u, v = _random_element(r, rank), _random_element(r, rank)
        first = a * conjugation_sum(v, u * a) == conjugation_sum(v, u) * a
        second = conjugation_sum(a * v, a * u) == conjugation_sum(v * a, u)
        return first and second, "conjugation-sum shift identity failed"

    def pairing_left_rule(r):
        eta = _random_exact_pairing(r, rank)
        a1, a2, b = (_random_element(r, rank) for _ in range(3))
        lhs = eta.evaluate(a1 * a2, b)
        rhs = eta.evaluate(a1, b).scale(a2.augmentation()) + a1 * eta.evaluate(a2, b)
        return lhs == rhs, "first-slot Fox rule failed"

    def pairing_right_rule(r):
        eta = _random_exact_pairing(r, rank)
        a, b1, b2 = (_random_element(r, rank) for _ in range(3))
        lhs = eta.evaluate(a, b1 * b2)
        rhs = eta.evaluate(a, b1) * b2 + eta.evaluate(a, b2).scale(b1.augmentation())
        return lhs == rhs, "second-slot Fox rule failed"

    def pairing_filtration(r):
        eta = _random_exact_pairing(r, rank)
        m = r.randint(1, 3)
        n = r.randint(1, min(3, 6 - m))
        value = eta.evaluate(product(ideal_factors(r, m)), product(ideal_factors(r, n)))
        ok = m + n <= 2 or fundamental_power_contains(value, m + n - 2)
        return ok, f"eta(I^{m}, I^{n}) left I^{m + n - 2}"

    def derived_derivation(r):
        eta = _random_exact_pairing(r, rank)
        a, v, w = (_random_element(r, rank, terms=2) for _ in range(3))
        lhs = derived_form_exact(eta, a, v * w)
        rhs = derived_form_exact(eta, a, v) * w + v * derived_form_exact(eta, a, w)
        return lhs == rhs, "sigma(a, -) is not a derivation"

    def derived_swap(r):
        eta = _random_exact_pairing(r, rank)
        a, b, c = (_random_element(r, rank, terms=2) for _ in range(3))
        return (derived_form_exact(eta, a * b, c) == derived_form_exact(eta, b * a, c),
                "sigma(ab, c) != sigma(ba, c)")

    def derived_filtration(r):
        eta = _random_exact_pairing(r, rank)
        m = r.randint(2, 5)
        c = product(ideal_factors(r, m))
        b = _random_element(r, rank, terms=2)
        return (fundamental_power_contains(derived_form_exact(eta, c, b), m - 1),
                f"sigma(I^{m}, A) left I^{m - 1}")

    def derived_congruence(r):
        eta = _random_exact_pairing(r, rank)
        m = r.randint(1, 3)
        n = r.randint(1, min(3, 5 - m))
        cs, ds = ideal_factors(r, m), ideal_factors(r, n)
        lhs = derived_form_exact(eta, product(cs), product(ds))
        rhs = GroupAlgebraElement.zero(rank)
        for i in range(m):
            cyc = product(cs[i + 1:] + cs[:i])
            for j in range(n):
                scalar = eta.evaluate(cs[i], ds[j]).augmentation()
                if scalar:
                    rhs = rhs + product(ds[:j] + [cyc] + ds[j + 1:]).scale(scalar)
        return (fundamental_power_contains(lhs - rhs, m + n - 1),
                f"congruence fails modulo I^{m + n - 1}")

    def derived_aug(r):
        eta = _random_exact_pairing(r, rank)
        a = GroupAlgebraElement.from_word(_random_word(r, rank, 3))
        b = GroupAlgebraElement.from_word(_random_word(r, rank, 3))
        return (derived_form_exact(eta, a, b).augmentation()
                == eta.evaluate(a, b).augmentation(),
                "aug sigma != aug eta")

    def derived_conjugacy(r):
        eta = _random_exact_pairing(r, rank)
        wa, wb, wc = (_random_word(r, rank, 3) for _ in range(3))
        a = GroupAlgebraElement.from_word(wa)
        b = GroupAlgebraElement.from_word(wb)
        b_conj = GroupAlgebraElement.from_word(wc * wb * wc.inverse())
        a_conj = GroupAlgebraElement.from_word(wc * wa * wc.inverse())
        slot2 = (cyclic_projection(derived_form_exact(eta, a, b_conj))
                 == cyclic_projection(derived_form_exact(eta, a, b)))
        slot1 = derived_form_exact(eta, a_conj, b) == derived_form_exact(eta, a, b)
        return slot2 and slot1, "conjugation invariance failed"

    law("left-leibniz", left_leibniz)
    law("right-leibniz", right_leibniz)
    law("left-reconstruction", left_reconstruction)
    law("right-reconstruction", right_reconstruction)
    law("conjugation-shift", conjugation_shift)
    law("pairing-left-rule", pairing_left_rule)
    law("pairing-right-rule", pairing_right_rule)
    law("pairing-filtration", pairing_filtration)
    law("derived-derivation", derived_derivation)
    law("derived-swap", derived_swap)
    law("derived-filtration", derived_filtration)
    law("derived-congruence", derived_congruence)
    law("derived-aug", derived_aug)
    law("derived-conjugacy", derived_conjugacy)
    return {"suite": "fox-laws", "checks": checks}


# -- hopf ----------------------------------------------------------------


def hopf_suite(degree: int, trials: int = 8) -> dict:
    rng = random.Random(1202)
    rank = 2
    cap = degree
    checks = []

    def iota(w):
        return embed(GroupAlgebraElement.from_word(w), cap)

    def words():
        return (_random_word(rng, rank, 4) for _ in range(trials))

    checks.append(_check("grouplike-embed", *_trials(
        (is_group_like(iota(w)), str(w.letters)) for w in words())))
    checks.append(_agree("antipode-inverts-grouplikes", (
        (antipode(iota(w)), iota(w.inverse())) for w in words())))
    checks.append(_agree("antipode-convolution", (
        (sandwich(antipode_coproduct(u), TruncatedSeries.one(rank, cap)),
         TruncatedSeries.scalar(rank, cap, u.constant_term()))
        for u in (_random_series(rng, rank, cap) for _ in range(trials)))))

    def primitive_logs():
        for _ in range(trials):
            w1 = _random_word(rng, rank, 4)
            w2 = _random_word(rng, rank, 4)
            log1, log2 = iota(w1).log(), iota(w2).log()
            yield is_primitive(log1), f"log of iota{w1.letters} is not primitive"
            prim = log1 + commutator(log2, log1).scale(Fraction(rng.choice([-1, 1]), 2))
            yield (is_primitive(prim) and is_group_like(prim.exp()),
                   "primitive combination broke under exp")

    checks.append(_check("log-exp-primitive-grouplike", *_trials(primitive_logs())))

    spec1 = SurfaceSpec(1, cap)
    twists = [
        ("genus-1-a", generalized_dehn_twist(
            spec1, CurveSpec(spec1.parse_curve("a"), Fraction(1, 2)))),
        ("genus-1-ab", generalized_dehn_twist(
            spec1, CurveSpec(spec1.parse_curve("a b"), Fraction(1, 3)))),
    ]
    spec2 = SurfaceSpec(2, min(cap, 4))
    twists.append(("genus-2-commutator", generalized_dehn_twist(
        spec2, CurveSpec(spec2.parse_curve("a1 b1 a1^-1 b1^-1"), Fraction(1, 2)))))
    for label, t in twists:
        checks.append(_check(f"twist-coproduct-{label}", t.is_hopf()))
        checks.append(_check(f"twist-grouplike-images-{label}", *_trials(
            (is_group_like(t.apply_word(_random_word(rng, t.rank, 4))), label)
            for _ in range(trials))))
    return {"suite": "hopf", "checks": checks}


# -- dehn-compare ---------------------------------------------------------


def _compare_twists(name, got, want):
    if got == want:
        return _check(name, True)
    for i, (gi, wi) in enumerate(zip(got.images, want.images)):
        witness = first_difference(gi, wi)
        if witness is not None:
            witness["image"] = i + 1
            return _check(name, False, witness)
    return _check(name, False, "cap or rank mismatch")


def dehn_compare_suite(degree: int) -> dict:
    checks = []
    spec1 = SurfaceSpec(1, degree)
    tw = generalized_dehn_twist(spec1, CurveSpec(spec1.parse_curve("a"), Fraction(1, 2)))
    cl = classical_dehn_twist(SurfaceSpec(1, tw.cap), "nonseparating-a1")
    checks.append(_compare_twists("genus-1-nonseparating", tw, cl))

    spec2 = SurfaceSpec(2, min(degree, 4))
    curve = CurveSpec(spec2.parse_curve("a1 b1 a1^-1 b1^-1"), Fraction(1, 2))
    tw = generalized_dehn_twist(spec2, curve)
    cl = classical_dehn_twist(SurfaceSpec(2, tw.cap), "separating-genus1-part")
    checks.append(_compare_twists("genus-2-separating", tw, cl))
    return {"suite": "dehn-compare", "checks": checks}


# -- figure-eight ---------------------------------------------------------


def figure_eight_suite(degree: int) -> dict:
    checks = []
    for k in (Fraction(1, 2), Fraction(1), Fraction(0)):
        scenario = figure_eight_scenario(k, cap=degree)
        checks.extend(_check(f"k={k}/{entry['name']}", entry["pass"], entry.get("witness"))
                      for entry in scenario["checks"])
    return {"suite": "figure-eight", "checks": checks}


# -- nabla ----------------------------------------------------------------


def nabla_suite(degree: int, words: int = 12) -> dict:
    rng = random.Random(1205)
    checks = []
    for genus in (1, 2):
        spec = SurfaceSpec(genus, degree)
        pairing = surface_pairing(spec)
        nabla = boundary_nabla(spec, pairing.cap)

        def identities():
            for _ in range(words):
                w = _random_word(rng, spec.rank, 6)
                iw = embed(GroupAlgebraElement.from_word(w), pairing.cap)
                diff = first_difference(pairing.evaluate(iw, nabla.series).truncate(degree),
                                        (iw - 1).truncate(degree))
                yield diff is None, {**(diff or {}), "input": list(w.letters)}

        checks.append(_check(f"defining-identity-genus-{genus}", *_trials(identities())))

    spec = SurfaceSpec(1, degree)
    pairing = surface_pairing(spec)
    recovered = nabla_of_pairing(pairing)
    expected = boundary_nabla(spec, recovered.cap)
    checks.append(_agree("surface-nabla-roundtrip", [
        (recovered.series.truncate(degree), expected.series.truncate(degree))]))

    squares = TruncatedSeries(2, degree + 4, {(1, 1): 1, (2, 2): 1})
    nablas = (NablaElement(squares + _random_series(rng, 2, degree + 4, terms=3, min_degree=3))
              for _ in range(3))
    checks.append(_agree("random-nabla-roundtrip", (
        (nabla_of_pairing(pairing_of_nabla(nabla0)).series.truncate(degree),
         nabla0.series.truncate(degree)) for nabla0 in nablas)))

    for genus in (1, 2):
        spec = SurfaceSpec(genus, degree)
        pairing = surface_pairing(spec)
        t = generalized_dehn_twist(spec, CurveSpec(spec.generator(1), Fraction(1, 2)))
        nu = embed(GroupAlgebraElement.from_word(spec.boundary_word()), t.cap)
        checks.append(_check(f"twist-fixes-boundary-genus-{genus}", t.fixes(nu)))
        checks.append(_check(f"twist-preserves-pairing-genus-{genus}",
                             t.preserves_pairing(pairing)))

    spec = SurfaceSpec(1, degree)
    pairing = surface_pairing(spec)
    swap = word_automorphism(2, degree, [spec.generator(2), spec.generator(1)])
    nu = embed(GroupAlgebraElement.from_word(spec.boundary_word()), degree)
    checks.append(_check("swap-breaks-boundary", not swap.fixes(nu)))
    checks.append(_check("swap-breaks-pairing", not swap.preserves_pairing(pairing)))

    disk = GroupWord(2, (2, 1))
    try:
        pairing_of_nabla(NablaElement(
            embed(GroupAlgebraElement.from_word(disk), degree + 2) - 1))
        checks.append(_check("degenerate-nabla-rejected", False,
                             "punctured-disk boundary was accepted"))
    except NotNondegenerate:
        checks.append(_check("degenerate-nabla-rejected", True))
    return {"suite": "nabla", "checks": checks}


# -- twist-laws -----------------------------------------------------------


def twist_laws_suite(degree: int) -> dict:
    rng = random.Random(1206)
    checks = []
    spec = SurfaceSpec(1, degree)
    pairing = surface_pairing(spec)
    alpha = spec.parse_curve("a")
    k, l = Fraction(1, 3), Fraction(1, 4)

    t_k = twist(pairing, k, alpha)
    t_l = twist(pairing, l, alpha)
    checks.append(_compare_twists("additivity", t_k.compose(t_l),
                                  twist(pairing, k + l, alpha)))
    checks.append(_compare_twists("square-curve", twist(pairing, k, alpha * alpha),
                                  t_k.power(4)))
    checks.append(_compare_twists("cube-curve",
                                  twist(pairing, k, alpha * alpha * alpha),
                                  t_k.power(9)))
    checks.append(_compare_twists("inverse-curve", twist(pairing, k, alpha.inverse()), t_k))

    conjugates = (twist(pairing, k, w * alpha * w.inverse())
                  for w in (_random_word(rng, 2, 3) for _ in range(2)))
    checks.append(_compare_twists("conjugate-curve",
                                  next((c for c in conjugates if c != t_k), t_k), t_k))

    checks.append(_compare_twists("zero-k-identity", twist(pairing, 0, alpha),
                                  TwistAutomorphism.identity(2, degree)))

    khalf = Fraction(1, 2)
    t = twist(pairing, khalf, alpha)
    form = pairing.homological_form()
    col = [Fraction(1), Fraction(0)]
    expected = []
    for i in range(2):
        row = []
        for j in range(2):
            dot = sum(col[r] * form[r][j] for r in range(2))
            row.append((Fraction(1) if i == j else Fraction(0)) + 2 * khalf * dot * col[i])
        expected.append(row)
    checks.append(_check("homology-transvection", t.homology_matrix() == expected,
                         {"got": [[str(c) for c in row] for row in t.homology_matrix()],
                          "want": [[str(c) for c in row] for row in expected]}))

    zero = GroupAlgebraElement.zero(2)
    eta11 = (GroupAlgebraElement.from_word(_random_word(rng, 2, 2, 1))
             - GroupAlgebraElement.from_word(_random_word(rng, 2, 2, 1)))
    eta = FoxPairing([[eta11, zero],
                      [_random_element(rng, 2, terms=2, max_len=2),
                       _random_element(rng, 2, terms=2, max_len=2)]])
    t_disjoint = twist(eta.embedded(degree + 2), Fraction(2, 3), GroupWord(2, (1,)))
    image = t_disjoint.apply_word(GroupWord(2, (2,)))
    want = embed(GroupAlgebraElement.generator(2, 2), t_disjoint.cap)
    checks.append(_agree("disjoint-vanishing", [(image, want)]))

    depth = min(degree, 4)
    gamma = spec.parse_curve("a b a^-1 b^-1")
    letters = ("a", "b")
    for step in range(depth - 2):
        other = spec.parse_curve(letters[step % 2])
        gamma = gamma * other * gamma.inverse() * other.inverse()
    perturbed = twist(pairing, k, alpha * gamma)
    checks.append(_compare_twists("lower-central-stability",
                                  perturbed.truncate(depth), t_k.truncate(depth)))

    aug_one = GroupAlgebraElement.one(2)
    bad = FoxPairing([[aug_one, zero], [zero, aug_one]])
    try:
        twist(bad.embedded(degree + 2), Fraction(1, 2), GroupWord(2, (1,)))
        checks.append(_check("isotropy-rejected", False,
                             "non-isotropic class was accepted"))
    except IsotropyError:
        checks.append(_check("isotropy-rejected", True))
    return {"suite": "twist-laws", "checks": checks}


# -- symplectic -----------------------------------------------------------


def symplectic_suite(degree: int) -> dict:
    rng = random.Random(1207)
    checks = []
    expansion = build_symplectic_expansion(1, 5)
    checks.append(_check("expansion-grouplike", expansion.is_group_like()))
    checks.append(_check("expansion-symplectic", expansion.is_symplectic()))

    cap = 7
    z = TruncatedSeries.variable(1, cap, 1)
    s_poly = power_sum(TruncatedSeries.one(1, cap), lambda power: power * z, S_COEFFICIENTS)
    em1 = (-1 * z).exp() - 1
    checks.append(_agree("s-series-recurrence", [(z * s_poly * em1, z + em1)]))

    words = [_random_word(rng, 2, 4) for _ in range(10)]
    report = verify_section9(SurfaceSpec(1, 3), expansion, 3, extra_words=words)
    checks.extend(_check(entry["name"], entry["pass"], entry.get("witness"))
                  for entry in report["checks"])

    w = omega(1, 5)
    boundary_inverse = (-1 * w).exp()
    hs = [basis_vector(1, i, 5) for i in (1, 2)]
    checks.append(_agree("rho-boundary-unit",
                         ((tensorial_rho(h, boundary_inverse), h.truncate(4)) for h in hs)))
    checks.append(_agree("omega-contraction", ((contraction(h, w), -1 * h) for h in hs)))
    return {"suite": "symplectic", "checks": checks}


# -- appendix-identities ----------------------------------------------------


def appendix_suite(degree: int, trials: int = 4) -> dict:
    rng = random.Random(1208)
    checks = []
    cap = 6
    u = TruncatedSeries.variable(2, cap, 1)
    v = TruncatedSeries.variable(2, cap, 2)
    both = u.exp() * v.exp()
    bch = both.log()
    expected = (u + v + commutator(u, v).scale(Fraction(1, 2))
                + commutator(u, commutator(u, v)).scale(Fraction(1, 12))
                + commutator(v, commutator(v, u)).scale(Fraction(1, 12)))
    checks.append(_agree("bch-degree-3", [(bch.truncate(4), expected.truncate(4))]))
    checks.append(_check("bch-lie-through-5", is_primitive(bch, tensor_coproduct)))
    checks.append(_agree("bch-roundtrip", [(bch.exp(), both)]))

    def hadamard():
        # e^r s e^-r = sum of ad_r^n(s) / n!
        for _ in range(trials):
            r = _random_series(rng, 2, 5, terms=3, min_degree=1)
            s = _random_series(rng, 2, 5, terms=3)
            yield (r.exp() * s * (-1 * r).exp(),
                   power_sum(s, lambda term: commutator(r, term),
                             (Fraction(1, math.factorial(n)) for n in itertools.count())))

    checks.append(_agree("hadamard", hadamard()))

    def unit():
        return 1 + _random_series(rng, 2, degree, terms=3, min_degree=1)

    def inversions():
        for _ in range(trials):
            f = unit()
            yield f.log().exp(), f
            p = _random_series(rng, 2, degree, terms=3, min_degree=1)
            yield p.exp().log(), p

    checks.append(_agree("log-exp-inversion", inversions()))

    def log_powers():
        for _ in range(2):
            f = unit()
            base = f.log()
            for m in range(-2, 4):
                yield (f ** m).log() == base.scale(m), f"log of power failed at m={m}"

    checks.append(_check("log-powers", *_trials(log_powers())))

    def conjugated_logs():
        for _ in range(trials):
            f, g = unit(), unit()
            g_inverse = g.inverse()
            yield g * f.log() * g_inverse, (g * f * g_inverse).log()

    checks.append(_agree("conjugated-log", conjugated_logs()))
    return {"suite": "appendix-identities", "checks": checks}


# -- dispatch ---------------------------------------------------------------


_SUITES = {
    "fox-laws": fox_laws_suite,
    "hopf": hopf_suite,
    "dehn-compare": dehn_compare_suite,
    "figure-eight": figure_eight_suite,
    "nabla": nabla_suite,
    "twist-laws": twist_laws_suite,
    "symplectic": symplectic_suite,
    "appendix-identities": appendix_suite,
}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, degree: int = 5) -> dict:
    """Run one named suite (or "all") at the given degree cap.

    The report is {"suite": name, "degree": degree, "checks": [...]}.
    """
    if not isinstance(degree, int) or not 2 <= degree <= 8:
        raise ValueError("degree must be an integer in 2..8")
    if name == "all":
        checks = []
        for suite_name in SUITE_NAMES:
            result = _SUITES[suite_name](degree)
            for entry in result["checks"]:
                flat = dict(entry)
                flat["name"] = f"{suite_name}/{entry['name']}"
                checks.append(flat)
    elif name in _SUITES:
        checks = _SUITES[name](degree)["checks"]
    else:
        raise ValueError(f"unknown suite {name!r}")
    return {"suite": name, "degree": degree, "checks": checks}


def report_passed(report: dict) -> bool:
    return all(entry["pass"] for entry in report["checks"])
