"""TwistAutomorphism.inverse (the Neumann series of its unipotent part)
against the degree-by-degree solve it replaced, compared by ==.

Run as a script, the file checks the dense cell that the test suite
leaves out: ``inverse()`` and ``power(-2)`` of the genus 2 degree 6 twist
along a1 b2 a2^-1 b1 at k = 1/3, against the oracle (about 35 s and
0.7 GB on one core)::

    PYTHONPATH=src python tests/test_automorphism_inverse.py
"""

import random
from fractions import Fraction

import pytest

from foxtwist import formats
from foxtwist.derived_twists import TwistAutomorphism
from foxtwist.errors import NotInvertible
from foxtwist.linalg import mat_inverse
from foxtwist.series import TruncatedSeries
from foxtwist.surfaces import (
    CurveSpec,
    SurfaceSpec,
    classical_dehn_twist,
    generalized_dehn_twist,
    word_automorphism,
)
from foxtwist.symplectic_tensor import build_symplectic_expansion
from foxtwist.words import GroupWord


def inverse_by_degrees(automorphism):
    """The former ``inverse``: preimages of the generators solved degree
    by degree, each degree's defect fixed by one application of the
    inverse homology matrix."""
    rank, cap = automorphism.rank, automorphism.cap
    linear = TwistAutomorphism._linear(rank, cap, mat_inverse(automorphism.homology_matrix()))
    preimages = []
    for i in range(rank):
        target = 1 + TruncatedSeries.variable(rank, cap, i + 1)
        candidate = TruncatedSeries.one(rank, cap)
        for degree in range(1, cap):
            defect = (target - automorphism.apply(candidate)).degree_part(degree)
            if not defect.is_zero():
                candidate = candidate + linear.apply(defect)
        assert automorphism.apply(candidate) == target
        preimages.append(candidate)
    return TwistAutomorphism(rank, cap, preimages)


def assert_inverse_matches_oracle(automorphism, powers=range(-3, 0)):
    assert automorphism.inverse() == inverse_by_degrees(automorphism)
    for m in powers:
        assert automorphism.power(m) == inverse_by_degrees(automorphism.power(-m))


def random_automorphism(rng, rank, cap, letters):
    """Images 1 + sum_j M[j][i] X_j plus a few higher terms in the first
    ``letters`` letters, for a random invertible rational M that keeps
    the span of those letters."""
    while True:
        matrix = [[Fraction(rng.randint(-2, 2), rng.randint(1, 2))
                   if (i < letters) == (j < letters) else 0 for j in range(rank)]
                  for i in range(rank)]
        try:
            mat_inverse(matrix)
        except NotInvertible:
            continue
        break
    images = []
    for i in range(rank):
        terms = {(): 1, **{(j + 1,): matrix[j][i] for j in range(rank)}}
        for _ in range(3):
            degree = rng.randint(2, max(2, cap - 1))
            monomial = tuple(rng.randint(1, letters) for _ in range(degree))
            terms[monomial] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        images.append(TruncatedSeries(rank, cap, terms))
    return TwistAutomorphism(rank, cap, images)


@pytest.mark.parametrize("rank", [2, 3, 4])
@pytest.mark.parametrize("cap", range(2, 8))
def test_random_automorphisms(rank, cap):
    # Higher terms in every letter give dense inverses, which cost the
    # oracle over a minute at rank 4 cap 7; above 100 top-degree monomials
    # they use two letters, whose span M keeps, so the inverses stay
    # linear in the others.
    rng = random.Random(1000 * rank + cap)
    letters = rank if rank ** (cap - 1) <= 100 else 2
    assert_inverse_matches_oracle(random_automorphism(rng, rank, cap, letters))


@pytest.mark.parametrize("k", [0, Fraction(1, 3), Fraction(-1, 3), Fraction(1, 2), 2])
@pytest.mark.parametrize("genus, degree, curve", [
    (1, 6, "a b a b^-1"),
    (1, 5, "a b^-1 a^-1 b^2"),
    (2, 4, "a1 b2 a2^-1 b1"),
])
def test_twists(genus, degree, curve, k):
    spec = SurfaceSpec(genus, degree)
    t = generalized_dehn_twist(spec, CurveSpec(spec.parse_curve(curve), k))
    assert_inverse_matches_oracle(t)


@pytest.mark.parametrize("genus, cap, preset", [
    (1, 6, "nonseparating-a1"),
    (2, 4, "nonseparating-a1"),
    (2, 4, "separating-genus1-part"),
])
def test_classical_presets(genus, cap, preset):
    assert_inverse_matches_oracle(classical_dehn_twist(SurfaceSpec(genus, cap), preset))


@pytest.mark.parametrize("cap", range(2, 8))
def test_swap_and_shears(cap):
    a, b = (GroupWord.generator(2, i) for i in (1, 2))
    x1, x2 = (TruncatedSeries.variable(2, cap, i) for i in (1, 2))
    swap = word_automorphism(2, cap, [b, a])
    assert swap.inverse() == swap
    # a -> a b is a shear of homology; the second scales a by 2.
    shear = word_automorphism(2, cap, [a * b, b])
    scaled = TwistAutomorphism(2, cap, [1 + 2 * x1 + x2 + x2 * x1, 1 + x2 - x1 * x1])
    for automorphism in (swap, shear, scaled):
        assert_inverse_matches_oracle(automorphism)


@pytest.mark.parametrize("genus, cap", [(1, 3), (1, 5), (1, 7), (2, 3), (2, 4)])
def test_expansions_built_and_loaded(genus, cap):
    built = build_symplectic_expansion(genus, cap)
    loaded = formats.expansion_from_dict(formats.expansion_to_dict(built))
    assert loaded.exponents is None
    for expansion in (built, loaded):
        assert_inverse_matches_oracle(expansion, [-1])


def test_singular_homology_is_not_invertible():
    for cap in (2, 5):
        x1, x2 = (TruncatedSeries.variable(2, cap, i) for i in (1, 2))
        t = TwistAutomorphism(2, cap, [1 + x1 + x2, 1 + 2 * x1 + 2 * x2 + x1 * x2])
        with pytest.raises(NotInvertible):
            t.inverse()
        with pytest.raises(NotInvertible):
            t.power(-2)


if __name__ == "__main__":
    spec = SurfaceSpec(2, 6)
    t = generalized_dehn_twist(spec, CurveSpec(spec.parse_curve("a1 b2 a2^-1 b1"),
                                               Fraction(1, 3)))
    assert t.inverse() == inverse_by_degrees(t)
    assert t.power(-2) == inverse_by_degrees(t.power(2))
    print("genus 2 degree 6: inverse() and power(-2) match the degree-by-degree solve")
