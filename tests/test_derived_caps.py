"""Every derived value is returned at the cap where each of its degrees is
exact, and the automorphism checks join halves built once.

The derived generator values of u sit at min(u.cap - 1, pairing.cap), a
derived form of u and v at min(u.cap - 1, pairing.cap, v.cap - 1), and
``apply_derivation`` at min(series.cap - 1, values' caps), taking the
series' frames from one cap above (degree rule in ``fox_pairings``).  Two
references: the same call on a pairing and inputs three caps higher, cut,
and the exact layer (``derived_form_exact``) embedded.  The former
``preserves_pairing``, n^2 calls of ``evaluate``, is kept as an oracle.

Run as a script, it checks the caps at cells the tier-1 tests leave out,
genus 2 cap 7 and genus 3 cap 6, against both references.
"""

import random
import sys
import time
from fractions import Fraction

import pytest

from foxtwist.derived_twists import (
    apply_derivation,
    derived_form_exact,
    derived_form_truncated,
    derived_generator_values,
    twist,
)
from foxtwist.fox_pairings import FoxPairing
from foxtwist.group_algebra import GroupAlgebraElement
from foxtwist.surfaces import (
    SurfaceSpec,
    surface_pairing,
    surface_pairing_exact,
    word_automorphism,
)
from foxtwist.truncated_completion import embed
from foxtwist.words import GroupWord


def random_element(rng, rank, terms=3, max_len=3):
    """A few signed words of length at most max_len with small coefficients."""
    letters = [i for i in range(-rank, rank + 1) if i]
    e = GroupAlgebraElement.zero(rank)
    for _ in range(terms):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(1, max_len)))
        e = e + GroupAlgebraElement.from_word(GroupWord(rank, word),
                                              Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3)))
    return e


def exact_pairings(rng, genus):
    """The surface pairing on Q[pi] and a random one, whose entries are not
    polynomials in the X_i, so every cap cuts them."""
    rank = 2 * genus
    return [surface_pairing_exact(genus),
            FoxPairing([[random_element(rng, rank, 2, 2) for _ in range(rank)]
                        for _ in range(rank)])]


def generator(rank, j):
    return GroupAlgebraElement.generator(rank, j + 1)


def exact_values(eta, a, cap):
    """sigma(a, x_j) on Q[pi], embedded at cap: the values with every degree exact."""
    return [embed(derived_form_exact(eta, a, generator(eta.rank, j)), cap)
            for j in range(eta.rank)]


# -- (a) derived generator values ------------------------------------------------


def check_default_values(eta, a, pairing_cap, u_cap):
    """The default values at min(u.cap - 1, pairing cap), against the
    exact layer and the values three caps higher, cut."""
    values = derived_generator_values(eta.embedded(pairing_cap), embed(a, u_cap))
    cap = min(u_cap - 1, pairing_cap)
    assert [value.cap for value in values] == [cap] * eta.rank
    assert values == exact_values(eta, a, cap)
    reference = derived_generator_values(eta.embedded(pairing_cap + 3), embed(a, u_cap + 3))
    assert values == [value.truncate(cap) for value in reference]


@pytest.mark.parametrize("pairing_cap, u_cap", [(6, 7), (6, 6), (7, 6), (5, 7)])
@pytest.mark.parametrize("genus", [1, 2])
def test_default_values_are_the_values_from_three_caps_higher_cut(genus, pairing_cap, u_cap):
    rng = random.Random(3700 + 100 * genus + 10 * pairing_cap + u_cap)
    for eta in exact_pairings(rng, genus):
        for _ in range(2):
            check_default_values(eta, random_element(rng, eta.rank), pairing_cap, u_cap)


def test_default_values_refuse_u_below_cap_two():
    pairing = surface_pairing(SurfaceSpec(1, 3))
    with pytest.raises(ValueError, match="cap 2"):
        derived_generator_values(pairing, embed(generator(2, 0), 1))
    assert [v.cap for v in derived_generator_values(pairing, embed(generator(2, 0), 2))] == [1, 1]


# -- (b) derived forms -------------------------------------------------------------


def check_derived_form(eta, a, b, cap):
    """sigma(u, v) with u, v and the pairing at cap: every degree below
    cap - 1 is exact."""
    got = derived_form_truncated(eta.embedded(cap), embed(a, cap), embed(b, cap))
    assert got.cap == cap - 1
    assert got == embed(derived_form_exact(eta, a, b), cap - 1)
    reference = derived_form_truncated(eta.embedded(cap + 3), embed(a, cap + 3),
                                       embed(b, cap + 3))
    assert got == reference.truncate(cap - 1)


@pytest.mark.parametrize("cap", [4, 5, 6])
def test_derived_form_is_exact_in_every_degree_it_returns(cap):
    rng = random.Random(3800 + cap)
    for genus in (1, 2):
        for eta in exact_pairings(rng, genus):
            for _ in range(3):
                a, b = random_element(rng, eta.rank), random_element(rng, eta.rank)
                check_derived_form(eta, a, b, cap)


# -- (c) apply_derivation above the values' cap ---------------------------------


def check_derivation_above_the_values(eta, a, b, cap):
    """Values exact at cap (u at cap + 1), the series at cap + 2: the result
    at cap is exact in its top degree too, where the series' terms of degree
    cap meet the values' constant terms."""
    values = derived_generator_values(eta.embedded(cap), embed(a, cap + 1))
    got = apply_derivation(values, embed(b, cap + 2))
    assert got.cap == cap
    assert got == embed(derived_form_exact(eta, a, b), cap)


@pytest.mark.parametrize("genus, cap", [(1, 3), (1, 5), (1, 6), (2, 4), (2, 5)])
def test_apply_derivation_is_exact_at_its_top_degree(genus, cap):
    rng = random.Random(3900 + 10 * genus + cap)
    for eta in exact_pairings(rng, genus):
        for _ in range(3):
            a, b = random_element(rng, eta.rank), random_element(rng, eta.rank)
            check_derivation_above_the_values(eta, a, b, cap)


# -- (d) preserves_pairing by halves -----------------------------------------------


def preserves_pairing_by_evaluate(automorphism, pairing):
    """Oracle: the former check, one evaluate per generator pair and the
    image of each entry, both cut one degree below the working cap."""
    cap = min(automorphism.cap, pairing.cap) - 1
    for i in range(automorphism.rank):
        for j in range(automorphism.rank):
            lhs = pairing.evaluate(automorphism.images[i], automorphism.images[j]).truncate(cap)
            rhs = automorphism.apply(pairing.entry(i + 1, j + 1)).truncate(cap)
            if lhs != rhs:
                return False
    return True


def automorphisms(genus, cap):
    """Two twists, the a1/b1 swap, the shear a1 -> a1 b1 (a Dehn twist of
    the first handle) and the square a1 -> a1^2, at cap."""
    spec = SurfaceSpec(genus, cap)
    rank, pairing = spec.rank, surface_pairing(spec)
    gens = [spec.generator(i + 1) for i in range(rank)]
    swapped = [gens[1], gens[0]] + gens[2:]
    sheared = [gens[0] * gens[1]] + gens[1:]
    squared = [gens[0] * gens[0]] + gens[1:]
    return spec, {
        "twist-a1": twist(pairing, Fraction(1, 2), spec.parse_curve("a1")),
        "twist-mixed": twist(pairing, Fraction(-1, 3), spec.parse_curve(
            "a1 b1 a1^-1 b1^-1" if genus == 1 else "a1 b2 a2^-1 b1")),
        "swap": word_automorphism(rank, cap, swapped),
        "shear": word_automorphism(rank, cap, sheared),
        "square": word_automorphism(rank, cap, squared),
    }


@pytest.mark.parametrize("genus, cap", [(1, 3), (1, 5), (2, 4), (3, 3)])
def test_preserves_pairing_matches_the_evaluate_loop(genus, cap):
    spec, cases = automorphisms(genus, cap)
    for pairing in (surface_pairing(spec), surface_pairing(SurfaceSpec(genus, cap + 1))):
        for name, automorphism in cases.items():
            got = automorphism.preserves_pairing(pairing)
            assert got == preserves_pairing_by_evaluate(automorphism, pairing), name
            assert got == (name not in ("swap", "square")), name


def test_twist_and_preserves_pairing_split_each_operand_once(monkeypatch):
    # twist joins the left half of iota(alpha) with columns of the entries,
    # and preserves_pairing joins the n left and n right halves of the images.
    spec = SurfaceSpec(2, 4)
    pairing = surface_pairing(spec)
    calls = {"left": 0, "right": 0, "join": 0}

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    for attr, name in (("_left_half", "left"), ("_right_half", "right"), ("_join", "join")):
        monkeypatch.setattr(FoxPairing, attr, counted(name, getattr(FoxPairing, attr)))
    monkeypatch.setattr(FoxPairing, "evaluate", None)
    t = twist(pairing, Fraction(1, 3), spec.parse_curve("a1 b2 a2^-1 b1"))
    assert calls == {"left": 1, "right": 0, "join": spec.rank}
    assert t.preserves_pairing(pairing)
    assert calls == {"left": 1 + spec.rank, "right": spec.rank,
                     "join": spec.rank + spec.rank ** 2}


# -- the script: cells tier-1 leaves out ---------------------------------------------


DENSE_CELLS = [(2, 7), (3, 6)]


def main():
    for genus, cap in DENSE_CELLS:
        rng = random.Random(4000 + 10 * genus + cap)
        start = time.perf_counter()
        for eta in exact_pairings(rng, genus):
            a, b = random_element(rng, eta.rank), random_element(rng, eta.rank)
            for pairing_cap, u_cap in ((cap, cap + 1), (cap, cap), (cap + 1, cap)):
                check_default_values(eta, a, pairing_cap, u_cap)
            check_derived_form(eta, a, b, cap)
            check_derivation_above_the_values(eta, a, b, cap - 1)
        print("genus %d cap %d: values, derived form and derivation exact; %.2f s"
              % (genus, cap, time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
