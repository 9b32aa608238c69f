"""Tensor-algebra side: cyclic words, contractions, symplectic expansions."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from foxtwist.derived_twists import TwistAutomorphism, twist
from foxtwist.errors import DomainError, SolverError
from foxtwist.formats import expansion_from_dict, expansion_to_dict
from foxtwist.series import TruncatedSeries
from foxtwist.surfaces import SurfaceSpec, surface_pairing
from foxtwist.symplectic_tensor import (
    S_COEFFICIENTS,
    SymplecticExpansion,
    _rho_table,
    basis_names,
    basis_vector,
    build_symplectic_expansion,
    contraction,
    cyclicize,
    derivation_pairing,
    intersection_number,
    lie_bracket_of_word,
    omega,
    s_coefficients,
    s_of_omega,
    tensor_coproduct,
    tensorial_rho,
    verify_section9,
)
from foxtwist.group_algebra import GroupAlgebraElement
from foxtwist.truncated_completion import (
    TruncatedTensor,
    embed,
    is_group_like,
    is_primitive,
)
from foxtwist.words import GroupWord
from test_truncated_completion import tensor_product_by_fractions


def mono(letters, cap=5, rank=2, coeff=1):
    return TruncatedSeries(rank, cap, {tuple(letters): Fraction(coeff)})


def random_tensor(rng, rank=2, cap=5, terms=3, min_degree=1):
    out = TruncatedSeries.zero(rank, cap)
    for _ in range(terms):
        m = tuple(rng.randint(1, rank) for _ in range(rng.randint(min_degree, cap - 1)))
        out = out + mono(m, cap, rank, Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    return out


def test_basis_names_and_intersection_numbers():
    assert basis_names(2) == ["a1", "b1", "a2", "b2"]
    assert intersection_number(1, 1, 2) == -1
    assert intersection_number(1, 2, 1) == 1
    assert intersection_number(2, 1, 3) == 0
    assert intersection_number(2, 3, 4) == -1


def test_omega_frozen():
    w = omega(1, 4)
    assert w == TruncatedSeries(2, 4, {(2, 1): 1, (1, 2): -1})
    with pytest.raises(ValueError):
        omega(1, 2)


def primitive_splits(monomial):
    """Oracle: all ways to deal the letters into two ordered hands."""
    if not monomial:
        return (((), ()),)
    head = monomial[:1]
    out = []
    for left, right in primitive_splits(monomial[1:]):
        out.append((head + left, right))
        out.append((left, head + right))
    return tuple(out)


def tensor_coproduct_by_splits(series):
    """Oracle: every split of every monomial, summed in Fractions."""
    terms = {}
    for monomial, coeff in series.terms.items():
        for split in primitive_splits(monomial):
            terms[split] = terms.get(split, 0) + coeff
    return TruncatedTensor(series.rank, series.cap, terms)


def test_tensor_coproduct_letters_are_primitive():
    h = basis_vector(1, 1, 4)
    assert tensor_coproduct(h) == TruncatedTensor(2, 4, {((1,), ()): 1, ((), (1,)): 1})
    assert is_primitive(h, tensor_coproduct)
    assert not is_primitive(h * h, tensor_coproduct)
    assert not is_primitive(1 + h, tensor_coproduct)


@pytest.mark.parametrize("rank, cap", [(rank, cap) for rank in (2, 4) for cap in range(1, 7)])
def test_tensor_coproduct_matches_the_split_oracle(rank, cap):
    rng = random.Random(110 + 10 * rank + cap)
    for _ in range(4):
        u = random_tensor(rng, rank, cap, rng.randint(0, 8), min_degree=0)
        got = tensor_coproduct(u)
        assert got == tensor_coproduct_by_splits(u)
        assert all(type(c) is Fraction for c in got.terms.values())


def test_tensor_coproduct_is_an_algebra_map():
    rng = random.Random(101)
    for _ in range(8):
        u = random_tensor(rng, cap=4)
        v = random_tensor(rng, cap=4)
        assert tensor_coproduct(u * v) == tensor_product_by_fractions(
            tensor_coproduct(u), tensor_coproduct(v))


def test_exponentials_of_primitives_are_group_like():
    rng = random.Random(102)
    for _ in range(5):
        p = basis_vector(1, 1, 5).scale(rng.randint(-2, 2)) + lie_bracket_of_word(
            2, 5, (2, 1)).scale(Fraction(rng.randint(-2, 2), 2))
        assert is_primitive(p, tensor_coproduct)
        assert is_group_like(p.exp(), tensor_coproduct)
    # the group coproduct tells the two structures apart
    h = basis_vector(1, 1, 5)
    assert not is_group_like(h.exp())
    assert is_group_like(1 + h) and not is_group_like(1 + h, tensor_coproduct)


def test_cyclicize_frozen():
    assert cyclicize(mono((1, 2))) == mono((1, 2)) + mono((2, 1))
    assert cyclicize(omega(1, 5)).is_zero()
    with pytest.raises(ValueError):
        cyclicize(mono((1,)) + mono((1, 2)))


def test_contraction_frozen_examples():
    # a ~> b = a.b = -1;  ab ~> aa keeps the spectator letters
    assert contraction(mono((1,)), mono((2,))) == TruncatedSeries.scalar(2, 5, -1)
    assert contraction(mono((1, 2)), mono((1, 1))) == mono((1, 1))
    assert contraction(mono((1,)), omega(1, 5)) == -mono((1,))
    with pytest.raises(DomainError):
        contraction(1 + mono((1,)), mono((2,)))


def test_derivation_pairing_degree_one_acts_as_derivation():
    h = mono((1,))
    assert derivation_pairing(h, mono((2, 1))) == -mono((1,))
    assert derivation_pairing(h, mono((1, 1))).is_zero()


def test_derivation_pairing_frozen_higher_degree():
    assert derivation_pairing(mono((1, 2)), mono((1,))) == mono((1,))
    assert derivation_pairing(TruncatedSeries.one(2, 5), mono((1,))).is_zero()


def test_derivation_pairing_matches_the_double_sum():
    # independent oracle: <h_1..h_m, k_1..k_n> =
    #   sum_{i,j} (h_i . k_j) k_1..k_{j-1} (h_{i+1}..h_m h_1..h_{i-1}) k_{j+1}..k_n
    rng = random.Random(103)
    for genus in (1, 2):
        rank = 2 * genus
        for _ in range(30):
            m = rng.randint(1, 3)
            n = rng.randint(1, 3)
            cap = m + n
            h = tuple(rng.randint(1, rank) for _ in range(m))
            k = tuple(rng.randint(1, rank) for _ in range(n))
            want = TruncatedSeries.zero(rank, cap)
            for i in range(m):
                for j in range(n):
                    scalar = intersection_number(genus, h[i], k[j])
                    if not scalar:
                        continue
                    block = k[:j] + h[i + 1:] + h[:i] + k[j + 1:]
                    want = want + TruncatedSeries(rank, cap, {block: scalar})
            got = derivation_pairing(mono(h, cap, rank), mono(k, cap, rank))
            assert got == want, (h, k)


def test_derivation_pairing_sees_only_the_cyclic_class():
    rng = random.Random(104)
    for _ in range(10):
        m = tuple(rng.randint(1, 2) for _ in range(rng.randint(2, 4)))
        rotated = m[1:] + m[:1]
        v = random_tensor(rng)
        assert derivation_pairing(mono(m), v) == derivation_pairing(mono(rotated), v)


def test_omega_pairs_to_zero():
    rng = random.Random(105)
    w = omega(1, 5)
    for _ in range(5):
        assert derivation_pairing(w, random_tensor(rng)).is_zero()


def test_s_coefficients_solve_the_defining_equation():
    # z s(z) (e^{-z} - 1) = z + e^{-z} - 1, checked through degree 7
    z = TruncatedSeries.variable(1, 8, 1)
    s = sum((z ** j * S_COEFFICIENTS[j] for j in range(6)), TruncatedSeries.zero(1, 8))
    expm1 = (-z).exp() - 1
    assert z * s * expm1 == z + expm1


def bernoulli_numbers(count):
    """Oracle: B_0 .. B_(count - 1) with B_1 = +1/2, from the recurrence
    sum_{k <= n} C(n + 1, k) B_k = n + 1."""
    numbers = []
    for n in range(count):
        rest = sum(math.comb(n + 1, k) * b for k, b in enumerate(numbers))
        numbers.append((n + 1 - rest) / Fraction(n + 1))
    return numbers


def test_s_coefficients_are_the_bernoulli_numbers_through_z12():
    # s(z) = -(sum_n B_n z^(n-1) / n!) + 1/z, so c_n = -B_(n+1) / (n+1)!.
    bernoulli = bernoulli_numbers(14)
    want = [-bernoulli[n + 1] / math.factorial(n + 1) for n in range(13)]
    assert list(itertools.islice(s_coefficients(), 13)) == want
    assert want[7] == Fraction(1, 1209600) and want[11] == Fraction(691, 1307674368000)


def test_s_coefficients_keep_the_six_the_verify_suite_checks():
    assert S_COEFFICIENTS == (Fraction(-1, 2), Fraction(-1, 12), 0, Fraction(1, 720), 0,
                              Fraction(-1, 30240))


def test_s_of_omega_is_complete_above_cap_14():
    assert s_of_omega(1, 15).coefficient((2, 1) * 7) == Fraction(1, 1209600)
    assert s_of_omega(1, 23).coefficient((1, 2) * 11) == Fraction(-691, 1307674368000)


@pytest.mark.parametrize("cap", [18, 19])
def test_tensorial_rho_boundary_unit_at_high_caps(cap):
    # Both inputs one cap above the result; from cap 18 on, the z^7
    # coefficient of s enters.
    boundary = (-omega(1, cap + 1)).exp()
    for index in (1, 2):
        h = basis_vector(1, index, cap + 1)
        assert tensorial_rho(h, boundary) == basis_vector(1, index, cap)


@pytest.mark.parametrize("cap", range(3, 13))
def test_tensorial_rho_boundary_unit_at_one_cap(cap):
    # At one input cap the result drops a degree: its top degree would
    # need the contraction of terms at the cap (wrong at every even cap
    # when the result kept the inputs' cap).
    boundary = (-omega(1, cap)).exp()
    for index in (1, 2):
        h = basis_vector(1, index, cap)
        got = tensorial_rho(h, boundary)
        assert got == h.truncate(got.cap)
        assert got.cap == cap - 1


def test_tensorial_rho_needs_a_degree_to_return():
    with pytest.raises(ValueError, match="caps of at least 2"):
        tensorial_rho(basis_vector(1, 1, 1), basis_vector(1, 2, 4))


def test_s_of_omega_frozen_low_degrees():
    got = s_of_omega(1, 5)
    want = TruncatedSeries.scalar(2, 5, Fraction(-1, 2)) - omega(1, 5).scale(Fraction(1, 12))
    assert got == want


def test_tensorial_rho_boundary_unit():
    for genus in (1, 2):
        boundary = (-omega(genus, 5)).exp()
        for index in range(1, 2 * genus + 1):
            h = basis_vector(genus, index, 5)
            assert tensorial_rho(h, boundary) == h.truncate(4)


def tensorial_rho_by_formula(u, v):
    """The formula with s(omega) and both centred inputs built per pair,
    one degree below the inputs' least cap."""
    u1 = u - u.constant_term()
    v1 = v - v.constant_term()
    cap = min(u.cap, v.cap)
    middle = s_of_omega(u.rank // 2, cap)
    return (contraction(u1, v1) + u1.truncate(cap) * middle * v1.truncate(cap)).truncate(cap - 1)


@pytest.mark.parametrize("genus,cap", [(1, 5), (2, 5)])
def test_rho_table_matches_tensorial_rho_per_pair(genus, cap):
    expansion = build_symplectic_expansion(genus, cap)
    rank = 2 * genus
    rng = random.Random(107 + genus)
    words = [GroupWord.generator(rank, i + 1) for i in range(rank)]
    words += [GroupWord(rank, tuple(rng.choice((1, -1)) * rng.randint(1, rank)
                                    for _ in range(3))) for _ in range(2)]
    thetas = [expansion.apply_hat(embed(GroupAlgebraElement.from_word(w), cap)) for w in words]
    table = _rho_table(thetas, thetas, cap - 1)
    for theta_u, row in zip(thetas, table):
        for theta_v, got in zip(thetas, row):
            assert got == tensorial_rho(theta_u, theta_v)
            assert got == tensorial_rho_by_formula(theta_u, theta_v)


def test_tensorial_rho_at_unequal_caps():
    rng = random.Random(108)
    u = random_tensor(rng, 4, 6, 5, 0)
    v = random_tensor(rng, 4, 4, 5, 0)
    assert tensorial_rho(u, v) == tensorial_rho_by_formula(u, v)
    assert tensorial_rho(v, u) == tensorial_rho_by_formula(v, u)


def test_expansion_build_is_deterministic_and_symplectic():
    e1 = build_symplectic_expansion(1, 5)
    e2 = build_symplectic_expansion(1, 5)
    assert e1.images == e2.images
    assert e1.is_group_like()
    assert e1.is_symplectic()
    assert e1.boundary_image() == (-omega(1, 5)).exp()


def test_expansion_exponents_are_primitive():
    e = build_symplectic_expansion(1, 4)
    for exponent in e.exponents:
        assert is_primitive(exponent, tensor_coproduct)
        assert exponent.exp() in e.images


def test_expansion_validation():
    with pytest.raises(ValueError):
        build_symplectic_expansion(0, 4)
    with pytest.raises(ValueError):
        build_symplectic_expansion(1, 2)
    images = [TruncatedSeries.one(2, 4), TruncatedSeries.one(2, 4)]
    with pytest.raises(ValueError):
        SymplecticExpansion(1, 4, images)


def test_apply_word_respects_inverses():
    e = build_symplectic_expansion(1, 4)
    w = GroupWord(2, (1, -2, 1))
    direct = e.images[0] * e.images[1].inverse() * e.images[0]
    assert e.apply_word(w) == direct
    assert e.apply_word(GroupWord(2, ())) == 1


def test_apply_hat_extends_multiplicatively():
    e = build_symplectic_expansion(1, 4)
    x1 = TruncatedSeries.variable(2, 4, 1)
    x2 = TruncatedSeries.variable(2, 4, 2)
    assert e.apply_hat(1 + x1) == e.images[0]
    assert e.apply_hat((1 + x1) * (1 + x2)) == e.images[0] * e.images[1]


@pytest.mark.parametrize("genus, cap", [(1, 5), (2, 4)])
def test_expansion_inverts_as_an_automorphism(genus, cap):
    e = build_symplectic_expansion(genus, cap)
    assert e.inverse().compose(e) == TwistAutomorphism.identity(e.rank, e.cap)


def test_expansion_after_a_twist_is_group_like_on_the_tensor_side():
    # theta-hat carries the group coproduct to the tensor one, so the
    # images of theta after t are group-like for tensor_coproduct only.
    spec = SurfaceSpec(1, 5)
    t = twist(surface_pairing(spec), Fraction(1, 3), spec.parse_curve("a b a b^-1"))
    composite = build_symplectic_expansion(1, 5).compose(t)
    assert all(is_group_like(image, tensor_coproduct) for image in composite.images)
    assert t.is_hopf()
    assert not composite.is_hopf()


@pytest.mark.parametrize("genus, cap", [(1, 4), (2, 5)])
def test_expansion_is_hopf_on_the_tensor_side(genus, cap):
    # Built, loaded from its images or made from exponents, an expansion's
    # images are group-like for tensor_coproduct, not for the group
    # coproduct, and is_hopf is the tensor-side check.
    built = build_symplectic_expansion(genus, cap)
    loaded = expansion_from_dict(expansion_to_dict(built))
    made = SymplecticExpansion.from_exponents(genus, cap, built.exponents)
    for e in (built, loaded, made):
        assert e.is_hopf() and e.is_group_like()
        assert not any(is_group_like(image) for image in e.images)
    rank = 2 * genus
    plain = SymplecticExpansion(genus, cap, [1 + TruncatedSeries.variable(rank, cap, i)
                                             for i in range(1, rank + 1)])
    assert not plain.is_hopf()
    # A twist keeps the group-coproduct check.
    spec = SurfaceSpec(genus, cap)
    t = twist(surface_pairing(spec), Fraction(1, 3), spec.boundary_word())
    assert t.is_hopf()
    assert not all(is_group_like(image, tensor_coproduct) for image in t.images)


def test_apply_hat_is_the_inherited_apply():
    # The bench tracer and the section-9 call count replace apply_hat in
    # the subclass's own namespace, so it must be defined there.
    assert SymplecticExpansion.__dict__["apply_hat"] is TwistAutomorphism.__dict__["apply"]
    assert not {"apply", "apply_word"} & set(SymplecticExpansion.__dict__)


def test_lie_bracket_of_word_is_right_nested():
    got = lie_bracket_of_word(2, 4, (1, 2))
    a = TruncatedSeries.variable(2, 4, 1)
    b = TruncatedSeries.variable(2, 4, 2)
    assert got == a * b - b * a
    assert lie_bracket_of_word(2, 4, (1, 2, 1)) == a * (b * a - a * b) - (b * a - a * b) * a


def test_section9_diagrams_commute():
    spec = SurfaceSpec(1, 3)
    expansion = build_symplectic_expansion(1, 5)
    rng = random.Random(106)
    words = [GroupWord(2, tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 3))))
             for _ in range(3)]
    report = verify_section9(spec, expansion, 3, extra_words=words)
    assert report["ok"]
    assert report["genus"] == 1 and report["cap"] == 3
    names = {c["name"] for c in report["checks"]}
    assert "derived-diagram-x1-x2" in names
    assert "pairing-diagram-word1-word1" in names


def test_section9_solves_each_input_once(monkeypatch):
    # The symplectic suite checks 12 inputs (x1, x2 and ten words) in
    # 144 pairs.  Each input's halves are built once: its derived generator
    # values, theta image, two sets of derivation frames (of u and theta u)
    # and the left and right halves of the Fox pairing.  Each pair costs
    # one join per stage, and theta runs on the joins through one copy of
    # the expansion cut to the check's cap.
    from foxtwist import derived_twists, symplectic_tensor, verify
    from foxtwist.fox_pairings import FoxPairing

    calls = dict.fromkeys(["values", "hat", "s", "frames", "derive", "left", "right",
                           "pairing", "contraction", "theta", "truncate"], 0)

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    for module, attr, name in [
            (symplectic_tensor, "derived_generator_values", "values"),
            (symplectic_tensor, "s_of_omega", "s"),
            (symplectic_tensor, "_derivation_frames", "frames"),
            (symplectic_tensor, "_derivation_join", "derive"),
            (symplectic_tensor, "frame_kernel", "contraction"),
            (SymplecticExpansion, "apply_hat", "hat"),
            (TwistAutomorphism, "apply", "theta"),
            (TwistAutomorphism, "truncate", "truncate"),
            (FoxPairing, "_left_half", "left"),
            (FoxPairing, "_right_half", "right"),
            (FoxPairing, "_join", "pairing")]:
        monkeypatch.setattr(module, attr, counted(name, getattr(module, attr)))
    # No pair evaluates the pairing or applies a derivation afresh.
    monkeypatch.setattr(FoxPairing, "evaluate", None)
    monkeypatch.setattr(derived_twists, "apply_derivation", None)
    monkeypatch.setattr(derived_twists, "_derive", None)
    report = verify.symplectic_suite(3)
    assert verify.report_passed(report)
    assert calls["values"] == 12
    assert calls["hat"] == 12
    assert calls["frames"] == 2 * 12
    assert calls["left"] == calls["right"] == 12
    # s(omega) once for the table; the suite's two rho-boundary-unit
    # calls add one each.  Its two rho-boundary-unit and two
    # omega-contraction calls add one contraction join each.
    assert calls["s"] == 1 + 2
    assert calls["contraction"] == 144 + 2 + 2
    assert calls["pairing"] == 144
    assert calls["derive"] == 2 * 144
    assert calls["truncate"] == 1
    assert calls["theta"] == 2 * 144


def test_section9_requires_enough_expansion_cap():
    expansion = build_symplectic_expansion(1, 4)
    with pytest.raises(ValueError):
        verify_section9(SurfaceSpec(1, 3), expansion, 3)


@pytest.mark.parametrize("kwargs,error,names", [
    ({"extra_words": [(1, 2)]}, TypeError, "extra_words[0]"),
    ({"extra_words": [GroupWord(2, (1,)), "a b"]}, TypeError, "extra_words[1]"),
    ({"extra_words": "a b"}, TypeError, "extra_words"),
    ({"extra_words": GroupWord(2, (1,))}, TypeError, "extra_words"),
    ({"extra_words": [GroupWord(4, (1, 3))]}, ValueError, "extra_words[0]"),
    ({"spec": (1, 3)}, TypeError, "spec"),
    ({"cap": 1}, ValueError, "cap"),
    ({"cap": "3"}, ValueError, "cap"),
    ({"cap": True}, ValueError, "cap"),
    ({"cap": 3.0}, ValueError, "cap"),
])
def test_section9_names_a_wrong_argument_before_any_work(monkeypatch, kwargs, error, names):
    from foxtwist import symplectic_tensor

    def no_work(*args, **kw):
        raise AssertionError("work started before the arguments were checked")

    expansion = build_symplectic_expansion(1, 5)
    monkeypatch.setattr(symplectic_tensor, "surface_pairing", no_work)
    monkeypatch.setattr(symplectic_tensor, "embed", no_work)
    arguments = {"spec": SurfaceSpec(1, 3), "expansion": expansion, "cap": 3, **kwargs}
    with pytest.raises(error) as caught:
        verify_section9(arguments.pop("spec"), arguments.pop("expansion"),
                        arguments.pop("cap"), **arguments)
    assert str(caught.value).startswith(names)


def test_section9_refuses_a_twist_as_the_expansion():
    pairing = surface_pairing(SurfaceSpec(1, 5))
    t = twist(pairing, 1, GroupWord(2, (1,)))
    assert not isinstance(t, SymplecticExpansion)
    with pytest.raises(TypeError, match="^expansion must be a SymplecticExpansion"):
        verify_section9(SurfaceSpec(1, 3), t, 3)
    with pytest.raises(ValueError, match="^expansion genus 1 is not spec genus 2"):
        verify_section9(SurfaceSpec(2, 3), build_symplectic_expansion(1, 5), 3)


def test_identity_and_linear_maps_are_plain_twist_automorphisms():
    # 1 + X_i is not group-like under tensor_coproduct, so the identity is
    # no symplectic expansion; the subclass hands back the plain type.
    ident = SymplecticExpansion.identity(2, 4)
    assert type(ident) is TwistAutomorphism
    assert ident == TwistAutomorphism.identity(2, 4)
    linear = SymplecticExpansion._linear(2, 4, [[1, 0], [0, 1]])
    assert type(linear) is TwistAutomorphism
    assert linear == TwistAutomorphism.identity(2, 4)
    swap = SymplecticExpansion._linear(2, 4, [[0, Fraction(1, 2)], [3, 0]])
    assert swap.homology_matrix() == [[0, Fraction(1, 2)], [3, 0]]


@pytest.mark.parametrize("genus, cap", [(True, 3), (1.0, 3), ("1", 3), (1, 3.0), (1, True)])
def test_expansion_builder_refuses_what_is_not_a_positive_int(genus, cap):
    with pytest.raises(ValueError, match=r"^(genus must be at least 1|cap must be at least 3)$"):
        build_symplectic_expansion(genus, cap)
