"""The halves and joins of the bilinear stages of the section-9 check.

Each stage is split into one half per input and one join per pair; a join
run at a cap below its halves' gives, by the room rule of ``frame_kernel``,
the full product cut to that cap.  Every comparison is ``==``: the same
``num``, ``den`` and ``cap``.
"""

import random
from fractions import Fraction

import pytest

from foxtwist.derived_twists import (
    _derivation_frames,
    _derivation_join,
    apply_derivation,
    derived_generator_values,
)
from foxtwist.fox_pairings import FoxPairing
from foxtwist.group_algebra import GroupAlgebraElement
from foxtwist.series import TruncatedSeries, _over_one_den
from foxtwist.surfaces import SurfaceSpec, surface_pairing
from foxtwist.symplectic_tensor import (
    _contraction_table,
    _rho_table,
    build_symplectic_expansion,
    contraction,
    derivation_values,
    tensorial_rho,
)
from foxtwist.truncated_completion import embed
from foxtwist.words import GroupWord


def random_element(rng, rank, terms=3, max_len=3):
    letters = [i for i in range(-rank, rank + 1) if i]
    e = GroupAlgebraElement.zero(rank)
    for _ in range(terms):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, max_len)))
        e = e + GroupAlgebraElement.from_word(GroupWord(rank, word),
                                              Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return e


def random_series(rng, rank, cap, terms=6, constant=True):
    out = {(): Fraction(rng.randint(-2, 2), rng.randint(1, 2))} if constant else {}
    for _ in range(terms):
        m = tuple(rng.randint(1, rank) for _ in range(rng.randint(1, cap - 1)))
        out[m] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return TruncatedSeries(rank, cap, out)


def join_of_halves(pairing, a, b, cap):
    return pairing._join(pairing._left_half(a, cap), pairing._right_half(b, cap), cap)


def value_cap(pairing, a, b):
    return None if pairing.cap is None else min(a.cap - 1, b.cap - 1, pairing.cap)


def exact_pairing(rng, rank):
    return FoxPairing([[random_element(rng, rank) for _ in range(rank)] for _ in range(rank)])


# -- FoxPairing.evaluate -------------------------------------------------------


def test_pairing_halves_join_to_evaluate_on_exact_pairings():
    rng = random.Random(3101)
    for rank in (2, 3):
        pairing = exact_pairing(rng, rank)
        operands = [random_element(rng, rank) for _ in range(4)]
        operands += [GroupAlgebraElement.zero(rank), GroupAlgebraElement.one(rank).scale(3)]
        for a in operands:
            for b in operands:
                assert join_of_halves(pairing, a, b, None) == pairing.evaluate(a, b)


@pytest.mark.parametrize("caps", [(4, 4), (4, 6), (7, 3), (5, 8)])
def test_pairing_halves_join_to_evaluate_on_truncated_pairings(caps):
    rng = random.Random(3102 + sum(caps))
    cap_a, cap_b = caps
    pairings = [exact_pairing(rng, 2).embedded(6), surface_pairing(SurfaceSpec(2, 4))]
    for pairing in pairings:
        n = pairing.rank
        operands = [(embed(random_element(rng, n), cap_a), embed(random_element(rng, n), cap_b))
                    for _ in range(3)]
        operands += [(TruncatedSeries.zero(n, cap_a), embed(random_element(rng, n), cap_b)),
                     (embed(random_element(rng, n), cap_a), TruncatedSeries.scalar(n, cap_b, 5)),
                     (TruncatedSeries.scalar(n, cap_a, -2), TruncatedSeries.zero(n, cap_b))]
        for a, b in operands:
            cap = value_cap(pairing, a, b)
            got = join_of_halves(pairing, a, b, cap)
            assert got == pairing.evaluate(a, b)
            assert got.cap == cap


# -- contraction and the tensorial rho --------------------------------------------


def tensor_inputs(rng, genus, caps, constant):
    return [random_series(rng, 2 * genus, cap, constant=constant) for cap in caps]


@pytest.mark.parametrize("genus", [1, 2])
def test_contraction_table_is_contraction_per_pair_cut(genus):
    rng = random.Random(3200 + genus)
    us = tensor_inputs(rng, genus, (5, 6, 7), False)
    vs = tensor_inputs(rng, genus, (6, 5), False)
    table = _contraction_table(us, vs, 4)
    for u, row in zip(us, table):
        for v, got in zip(vs, row):
            assert got == contraction(u, v).truncate(4)
    assert _contraction_table([us[0]], [vs[1]], 5)[0][0] == contraction(us[0], vs[1])


@pytest.mark.parametrize("genus", [1, 2])
def test_rho_table_is_tensorial_rho_per_pair_at_unequal_caps(genus):
    rng = random.Random(3300 + genus)
    us = tensor_inputs(rng, genus, (5, 5, 5), True)
    vs = tensor_inputs(rng, genus, (6, 6), True)
    for u, row in zip(us, _rho_table(us, vs, 4)):
        for v, got in zip(vs, row):
            assert got == tensorial_rho(u, v)
    mixed = tensor_inputs(rng, genus, (4, 6, 7), True)
    for u, row in zip(mixed, _rho_table(mixed, vs, 3)):
        for v, got in zip(vs, row):
            assert got == tensorial_rho(u, v).truncate(3)


# -- derivations ---------------------------------------------------------------------


@pytest.mark.parametrize("genus,cap", [(1, 3), (1, 5), (2, 3), (2, 4)])
def test_derivation_frames_joined_at_the_kept_cap_are_the_truncated_derivation(genus, cap):
    rng = random.Random(3400 + 10 * genus + cap)
    rank = 2 * genus
    expansion = build_symplectic_expansion(genus, cap + 2)
    pairing = surface_pairing(SurfaceSpec(genus, cap))
    inputs = [embed(random_element(rng, rank), cap + 1) for _ in range(3)]
    inputs.append(TruncatedSeries.one(rank, cap + 1))
    thetas = [expansion.apply_hat(u) for u in inputs]
    value_sets = [derived_generator_values(pairing, embed(random_element(rng, rank), cap + 2))
                  for _ in range(2)]
    value_sets += [derivation_values(theta) for theta in thetas[:2]]
    for values in value_sets:
        for v in inputs + thetas:
            frames = _derivation_frames(v.num, rank, v.cap), v.den
            got = _derivation_join(_over_one_den(*values), frames, cap)
            assert got == _derivation_join(_over_one_den(*values), frames, cap + 1).truncate(cap)
            assert got == apply_derivation(values, v)


# -- derived generator values -----------------------------------------------------------


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_derived_generator_values_at_a_cap_are_the_full_values_cut(genus):
    # The values sit at min(u.cap - 1, pairing.cap); cutting u to cap + 1,
    # or the pairing to cap, gives the full values cut to cap.
    rng = random.Random(3500 + genus)
    rank = 2 * genus
    pairing = surface_pairing(SurfaceSpec(genus, 5))  # entries at cap 7
    words = [GroupWord(rank, tuple(rng.choice([i for i in range(-rank, rank + 1) if i])
                                   for _ in range(rng.randint(1, 3)))) for _ in range(2)]
    for u_cap in (6, 7, 8, 9):
        for word in words:
            u = embed(GroupAlgebraElement.from_word(word), u_cap)
            full = derived_generator_values(pairing, u)
            assert {value.cap for value in full} == {min(u_cap - 1, 7)}
            for cap in range(2, min(u_cap - 1, 7)):
                cut = [value.truncate(cap) for value in full]
                assert derived_generator_values(pairing, u.truncate(cap + 1)) == cut
                assert derived_generator_values(pairing.truncate(cap), u) == cut
