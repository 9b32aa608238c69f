"""Named verification suites over the whole engine.

Each suite returns {"suite": name, "checks": [{"name", "pass", ...}]}
with a "witness" entry on failing checks when a first differing
coefficient is available; ``run_suite`` adds the "degree" it ran at.
Randomized inputs always draw from fixed seeds, so reports are
deterministic and byte-stable.
"""

from __future__ import annotations

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
from .series import TruncatedSeries, accumulate, commutator, nonzero
from .surfaces import (
    CurveSpec,
    SurfaceSpec,
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
    is_tensor_primitive,
    omega,
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

SUITE_NAMES = (
    "fox-laws",
    "hopf",
    "dehn-compare",
    "figure-eight",
    "nabla",
    "twist-laws",
    "symplectic",
    "appendix-identities",
)


def _check(name, ok, witness=None):
    entry = {"name": name, "pass": bool(ok)}
    if not ok and witness is not None:
        entry["witness"] = witness
    return entry


def _clean(entry):
    out = {"name": entry["name"], "pass": bool(entry["pass"])}
    witness = entry.get("witness")
    if not out["pass"] and witness is not None:
        out["witness"] = witness
    return out


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
    return GroupAlgebraElement._raw(rank, nonzero(accumulate({}, draws)))


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


def _trials(ok_iter):
    """Collapse an iterator of (ok, witness) into one pass/witness pair."""
    for ok, witness in ok_iter:
        if not ok:
            return False, witness
    return True, None


# -- fox-laws ------------------------------------------------------------


def fox_laws_suite(degree: int, trials: int = 12) -> dict:
    rng = random.Random(1201)
    rank = 2
    checks = []

    def law(name, run):
        ok, witness = _trials(run(rng.randrange(10 ** 9) + t) for t in range(trials))
        checks.append(_check(name, ok, witness))

    def left_leibniz(seed):
        r = random.Random(seed)
        a, b = _random_element(r, rank), _random_element(r, rank)
        i = r.randint(1, rank)
        lhs = fox_derivative_left(a * b, i)
        rhs = fox_derivative_left(a, i).scale(b.augmentation()) + a * fox_derivative_left(b, i)
        return lhs == rhs, f"left rule failed at generator {i}"

    def right_leibniz(seed):
        r = random.Random(seed)
        a, b = _random_element(r, rank), _random_element(r, rank)
        i = r.randint(1, rank)
        lhs = fox_derivative_right(a * b, i)
        rhs = fox_derivative_right(a, i) * b + fox_derivative_right(b, i).scale(a.augmentation())
        return lhs == rhs, f"right rule failed at generator {i}"

    def left_reconstruction(seed):
        r = random.Random(seed)
        a = _random_element(r, rank)
        total = GroupAlgebraElement.one(rank).scale(a.augmentation())
        for i in range(1, rank + 1):
            total = total + fox_derivative_left(a, i) * (GroupAlgebraElement.generator(rank, i) - 1)
        return total == a, "left expansion does not rebuild the element"

    def right_reconstruction(seed):
        r = random.Random(seed)
        a = _random_element(r, rank)
        total = GroupAlgebraElement.one(rank).scale(a.augmentation())
        for i in range(1, rank + 1):
            total = total + (GroupAlgebraElement.generator(rank, i) - 1) * fox_derivative_right(a, i)
        return total == a, "right expansion does not rebuild the element"

    def conjugation_shift(seed):
        r = random.Random(seed)
        word = _random_word(r, rank, 3)
        a = GroupAlgebraElement.from_word(word)
        u, v = _random_element(r, rank), _random_element(r, rank)
        first = a * conjugation_sum(v, u * a) == conjugation_sum(v, u) * a
        second = conjugation_sum(a * v, a * u) == conjugation_sum(v * a, u)
        return first and second, "conjugation-sum shift identity failed"

    def pairing_left_rule(seed):
        r = random.Random(seed)
        eta = _random_exact_pairing(r, rank)
        a1, a2, b = (_random_element(r, rank) for _ in range(3))
        lhs = eta.evaluate(a1 * a2, b)
        rhs = eta.evaluate(a1, b).scale(a2.augmentation()) + a1 * eta.evaluate(a2, b)
        return lhs == rhs, "first-slot Fox rule failed"

    def pairing_right_rule(seed):
        r = random.Random(seed)
        eta = _random_exact_pairing(r, rank)
        a, b1, b2 = (_random_element(r, rank) for _ in range(3))
        lhs = eta.evaluate(a, b1 * b2)
        rhs = eta.evaluate(a, b1) * b2 + eta.evaluate(a, b2).scale(b1.augmentation())
        return lhs == rhs, "second-slot Fox rule failed"

    def pairing_filtration(seed):
        r = random.Random(seed)
        eta = _random_exact_pairing(r, rank)
        m = r.randint(1, 3)
        n = r.randint(1, min(3, 6 - m))
        c = GroupAlgebraElement.one(rank)
        for _ in range(m):
            c = c * (GroupAlgebraElement.from_word(_random_word(r, rank, 2, 1)) - 1)
        d = GroupAlgebraElement.one(rank)
        for _ in range(n):
            d = d * (GroupAlgebraElement.from_word(_random_word(r, rank, 2, 1)) - 1)
        value = eta.evaluate(c, d)
        ok = m + n <= 2 or fundamental_power_contains(value, m + n - 2)
        return ok, f"eta(I^{m}, I^{n}) left I^{m + n - 2}"

    def derived_derivation(seed):
        r = random.Random(seed)
        eta = _random_exact_pairing(r, rank)
        a, v, w = (_random_element(r, rank, terms=2) for _ in range(3))
        lhs = derived_form_exact(eta, a, v * w)
        rhs = derived_form_exact(eta, a, v) * w + v * derived_form_exact(eta, a, w)
        return lhs == rhs, "sigma(a, -) is not a derivation"

    def derived_swap(seed):
        r = random.Random(seed)
        eta = _random_exact_pairing(r, rank)
        a, b, c = (_random_element(r, rank, terms=2) for _ in range(3))
        return (derived_form_exact(eta, a * b, c) == derived_form_exact(eta, b * a, c),
                "sigma(ab, c) != sigma(ba, c)")

    def derived_filtration(seed):
        r = random.Random(seed)
        eta = _random_exact_pairing(r, rank)
        m = r.randint(2, 5)
        c = GroupAlgebraElement.one(rank)
        for _ in range(m):
            c = c * (GroupAlgebraElement.from_word(_random_word(r, rank, 2, 1)) - 1)
        b = _random_element(r, rank, terms=2)
        return (fundamental_power_contains(derived_form_exact(eta, c, b), m - 1),
                f"sigma(I^{m}, A) left I^{m - 1}")

    def derived_congruence(seed):
        r = random.Random(seed)
        eta = _random_exact_pairing(r, rank)
        m = r.randint(1, 3)
        n = r.randint(1, min(3, 5 - m))
        a_words = [_random_word(r, rank, 2, 1) for _ in range(m)]
        b_words = [_random_word(r, rank, 2, 1) for _ in range(n)]
        cs = [GroupAlgebraElement.from_word(w) - 1 for w in a_words]
        ds = [GroupAlgebraElement.from_word(w) - 1 for w in b_words]
        c = GroupAlgebraElement.one(rank)
        for f in cs:
            c = c * f
        d = GroupAlgebraElement.one(rank)
        for f in ds:
            d = d * f
        lhs = derived_form_exact(eta, c, d)
        rhs = GroupAlgebraElement.zero(rank)
        for i in range(m):
            cyc = GroupAlgebraElement.one(rank)
            for f in cs[i + 1:] + cs[:i]:
                cyc = cyc * f
            for j in range(n):
                scalar = eta.evaluate(cs[i], ds[j]).augmentation()
                if not scalar:
                    continue
                block = GroupAlgebraElement.one(rank)
                for f in ds[:j]:
                    block = block * f
                block = block * cyc
                for f in ds[j + 1:]:
                    block = block * f
                rhs = rhs + block.scale(scalar)
        return (fundamental_power_contains(lhs - rhs, m + n - 1),
                f"congruence fails modulo I^{m + n - 1}")

    def derived_aug(seed):
        r = random.Random(seed)
        eta = _random_exact_pairing(r, rank)
        a = GroupAlgebraElement.from_word(_random_word(r, rank, 3))
        b = GroupAlgebraElement.from_word(_random_word(r, rank, 3))
        return (derived_form_exact(eta, a, b).augmentation()
                == eta.evaluate(a, b).augmentation(),
                "aug sigma != aug eta")

    def derived_conjugacy(seed):
        r = random.Random(seed)
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

    ok, witness = _trials(
        (is_group_like(embed(GroupAlgebraElement.from_word(w), cap)), str(w.letters))
        for w in (_random_word(rng, rank, 4) for _ in range(trials)))
    checks.append(_check("grouplike-embed", ok, witness))

    ok, witness = True, None
    for _ in range(trials):
        w = _random_word(rng, rank, 4)
        lhs = antipode(embed(GroupAlgebraElement.from_word(w), cap))
        rhs = embed(GroupAlgebraElement.from_word(w.inverse()), cap)
        if lhs != rhs:
            ok, witness = False, first_difference(lhs, rhs)
            break
    checks.append(_check("antipode-inverts-grouplikes", ok, witness))

    ok, witness = True, None
    for _ in range(trials):
        u = _random_series(rng, rank, cap)
        folded = sandwich(antipode_coproduct(u), TruncatedSeries.one(rank, cap))
        expected = TruncatedSeries.scalar(rank, cap, u.constant_term())
        if folded != expected:
            ok, witness = False, first_difference(folded, expected)
            break
    checks.append(_check("antipode-convolution", ok, witness))

    ok, witness = True, None
    for _ in range(trials):
        w1 = _random_word(rng, rank, 4)
        w2 = _random_word(rng, rank, 4)
        log1 = embed(GroupAlgebraElement.from_word(w1), cap).log()
        log2 = embed(GroupAlgebraElement.from_word(w2), cap).log()
        if not is_primitive(log1):
            ok, witness = False, f"log of iota{w1.letters} is not primitive"
            break
        prim = log1 + commutator(log2, log1).scale(Fraction(rng.choice([-1, 1]), 2))
        if not is_primitive(prim) or not is_group_like(prim.exp()):
            ok, witness = False, "primitive combination broke under exp"
            break
    checks.append(_check("log-exp-primitive-grouplike", ok, witness))

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
        images_ok, witness = _trials(
            (is_group_like(t.apply_word(_random_word(rng, t.rank, 4))), label)
            for _ in range(trials))
        checks.append(_check(f"twist-grouplike-images-{label}", images_ok, witness))
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
        for entry in scenario["checks"]:
            flat = _clean(entry)
            flat["name"] = f"k={k}/{entry['name']}"
            checks.append(flat)
    return {"suite": "figure-eight", "checks": checks}


# -- nabla ----------------------------------------------------------------


def nabla_suite(degree: int, words: int = 12) -> dict:
    rng = random.Random(1205)
    checks = []
    for genus in (1, 2):
        spec = SurfaceSpec(genus, degree)
        pairing = surface_pairing(spec)
        nabla = boundary_nabla(spec, pairing.cap)
        ok, witness = True, None
        for _ in range(words):
            w = _random_word(rng, spec.rank, 6)
            iw = embed(GroupAlgebraElement.from_word(w), pairing.cap)
            got = pairing.evaluate(iw, nabla.series).truncate(degree)
            want = (iw - 1).truncate(degree)
            diff = first_difference(got, want)
            if diff is not None:
                diff["input"] = list(w.letters)
                ok, witness = False, diff
                break
        checks.append(_check(f"defining-identity-genus-{genus}", ok, witness))

    spec = SurfaceSpec(1, degree)
    pairing = surface_pairing(spec)
    recovered = nabla_of_pairing(pairing)
    expected = boundary_nabla(spec, recovered.cap)
    checks.append(_check(
        "surface-nabla-roundtrip",
        recovered.series.truncate(degree) == expected.series.truncate(degree),
        first_difference(recovered.series.truncate(degree),
                         expected.series.truncate(degree))))

    ok, witness = True, None
    for _ in range(3):
        base = TruncatedSeries.zero(2, degree + 4)
        for i in (1, 2):
            v = TruncatedSeries.variable(2, degree + 4, i)
            base = base + v * v
        noise = _random_series(rng, 2, degree + 4, terms=3, min_degree=3)
        nabla0 = NablaElement(base + noise)
        recovered = nabla_of_pairing(pairing_of_nabla(nabla0))
        if recovered.series.truncate(degree) != nabla0.series.truncate(degree):
            ok = False
            witness = first_difference(recovered.series.truncate(degree),
                                       nabla0.series.truncate(degree))
            break
    checks.append(_check("random-nabla-roundtrip", ok, witness))

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

    ok, witness = True, None
    for _ in range(2):
        w = _random_word(rng, 2, 3)
        conj = twist(pairing, k, w * alpha * w.inverse())
        if conj != t_k:
            entry = _compare_twists("conjugate-curve", conj, t_k)
            ok, witness = False, entry.get("witness")
            break
    checks.append(_check("conjugate-curve", ok, witness))

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
    checks.append(_check("disjoint-vanishing", image == want,
                         first_difference(image, want)))

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
    s_poly = TruncatedSeries.zero(1, cap)
    for power, coeff in enumerate(S_COEFFICIENTS):
        term = TruncatedSeries.one(1, cap)
        for _ in range(power):
            term = term * z
        s_poly = s_poly + term.scale(coeff)
    em1 = (-1 * z).exp() - 1
    checks.append(_check("s-series-recurrence", z * s_poly * em1 == z + em1,
                         first_difference(z * s_poly * em1, z + em1)))

    words = [_random_word(rng, 2, 4) for _ in range(10)]
    report = verify_section9(SurfaceSpec(1, 3), expansion, 3, extra_words=words)
    for entry in report["checks"]:
        checks.append(_clean(entry))

    w = omega(1, 5)
    ok, witness = True, None
    for i in (1, 2):
        h = basis_vector(1, i, 5)
        got = tensorial_rho(h, (-1 * w).exp())
        if got != h:
            ok, witness = False, first_difference(got, h)
            break
    checks.append(_check("rho-boundary-unit", ok, witness))

    ok, witness = True, None
    for i in (1, 2):
        h = basis_vector(1, i, 5)
        got = contraction(h, w)
        if got != -1 * h:
            ok, witness = False, first_difference(got, -1 * h)
            break
    checks.append(_check("omega-contraction", ok, witness))
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
    checks.append(_check("bch-degree-3", bch.truncate(4) == expected.truncate(4),
                         first_difference(bch.truncate(4), expected.truncate(4))))
    checks.append(_check("bch-lie-through-5", is_tensor_primitive(bch)))
    checks.append(_check("bch-roundtrip", bch.exp() == both,
                         first_difference(bch.exp(), both)))

    ok, witness = True, None
    for _ in range(trials):
        r = _random_series(rng, 2, 5, terms=3, min_degree=1)
        s = _random_series(rng, 2, 5, terms=3)
        lhs = r.exp() * s * (-1 * r).exp()
        rhs = s
        term = s
        n = 0
        while not term.is_zero():
            n += 1
            term = commutator(r, term).scale(Fraction(1, n))
            rhs = rhs + term
        if lhs != rhs:
            ok, witness = False, first_difference(lhs, rhs)
            break
    checks.append(_check("hadamard", ok, witness))

    ok, witness = True, None
    for _ in range(trials):
        f = 1 + _random_series(rng, 2, degree, terms=3, min_degree=1)
        if f.log().exp() != f:
            ok, witness = False, first_difference(f.log().exp(), f)
            break
        p = _random_series(rng, 2, degree, terms=3, min_degree=1)
        if p.exp().log() != p:
            ok, witness = False, first_difference(p.exp().log(), p)
            break
    checks.append(_check("log-exp-inversion", ok, witness))

    ok, witness = True, None
    for _ in range(2):
        f = 1 + _random_series(rng, 2, degree, terms=3, min_degree=1)
        base = f.log()
        for m in range(-2, 4):
            powered = TruncatedSeries.one(2, degree)
            factor = f if m >= 0 else f.inverse()
            for _ in range(abs(m)):
                powered = powered * factor
            if powered.log() != base.scale(m):
                ok, witness = False, f"log of power failed at m={m}"
                break
        if not ok:
            break
    checks.append(_check("log-powers", ok, witness))

    ok, witness = True, None
    for _ in range(trials):
        f = 1 + _random_series(rng, 2, degree, terms=3, min_degree=1)
        g = 1 + _random_series(rng, 2, degree, terms=3, min_degree=1)
        lhs = g * f.log() * g.inverse()
        rhs = (g * f * g.inverse()).log()
        if lhs != rhs:
            ok, witness = False, first_difference(lhs, rhs)
            break
    checks.append(_check("conjugated-log", ok, witness))
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
