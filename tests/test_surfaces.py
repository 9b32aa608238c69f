"""Surface pairings from boundary words, Dehn twists, scenario reports."""

import random
from fractions import Fraction

import pytest

from foxtwist.derived_twists import derived_form_exact, homological_self_pairing
from foxtwist.fox_pairings import nabla_of_pairing, pairing_of_nabla
from foxtwist.group_algebra import GroupAlgebraElement, cyclic_projection
from foxtwist.series import TruncatedSeries
from foxtwist.surfaces import (
    CurveSpec,
    SurfaceSpec,
    boundary_nabla,
    classical_dehn_twist,
    figure_eight_scenario,
    first_difference,
    generalized_dehn_twist,
    include_series,
    intersection_form,
    surface_pairing,
    surface_pairing_exact,
    word_automorphism,
)
from foxtwist.truncated_completion import embed
from foxtwist.words import GroupWord


def test_surface_spec_basics():
    spec = SurfaceSpec(2, 4)
    assert spec.rank == 4
    assert spec.names == ["a1", "b1", "a2", "b2"]
    assert spec.boundary_word().letters == (1, 2, -1, -2, 3, 4, -3, -4)
    assert spec.parse_curve("a1 b2^-1").letters == (1, -4)
    # single-letter aliases live alongside the numbered names
    assert spec.parse_curve("c d").letters == (3, 4)
    with pytest.raises(ValueError):
        SurfaceSpec(0, 4)
    with pytest.raises(ValueError):
        SurfaceSpec(1, 1)


def test_curve_spec_coerces_weights():
    curve = CurveSpec(GroupWord(2, (1,)), "1/3")
    assert curve.k == Fraction(1, 3)
    assert CurveSpec(GroupWord(2, (1,))).k == Fraction(1, 2)


def test_intersection_form_frozen():
    assert intersection_form(1) == [[0, -1], [1, 0]]
    assert intersection_form(2) == [
        [0, -1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, -1],
        [0, 0, 1, 0],
    ]


def test_boundary_nabla_is_the_embedded_boundary():
    spec = SurfaceSpec(1, 4)
    nabla = boundary_nabla(spec)
    assert nabla.cap == spec.cap + 2
    nu = GroupAlgebraElement.from_word(spec.boundary_word())
    assert nabla.series == embed(nu, spec.cap + 2) - 1
    assert nabla.is_nondegenerate()


def test_surface_pairing_shadow_and_cache():
    for genus in (1, 2):
        spec = SurfaceSpec(genus, 3)
        pairing = surface_pairing(spec)
        assert pairing.cap == spec.cap + 2
        assert pairing.homological_form() == intersection_form(genus)
        assert surface_pairing(SurfaceSpec(genus, 3)) is pairing


# The nu route: the pairing solved from iota(nu) - 1 at spec.cap + 4, the
# oracle of the closed form.
ORACLE_GRID = [(1, c) for c in range(2, 9)] + [(2, c) for c in range(2, 8)] \
    + [(3, c) for c in range(2, 7)] + [(4, c) for c in range(2, 6)]


@pytest.mark.parametrize("genus, cap", ORACLE_GRID)
def test_surface_pairing_matches_the_nu_route(genus, cap):
    spec = SurfaceSpec(genus, cap)
    got = surface_pairing(spec)
    want = pairing_of_nabla(boundary_nabla(spec, spec.cap + 4))
    assert (got.rank, got.cap) == (want.rank, want.cap)
    for got_row, want_row in zip(got.matrix, want.matrix):
        for x, y in zip(got_row, want_row):
            assert (x.num, x.den, x.cap) == (y.num, y.den, y.cap)


@pytest.mark.parametrize("genus", [1, 2, 3])
@pytest.mark.parametrize("cap", [3, 4, 5])
def test_nabla_of_the_surface_pairing_is_the_boundary(genus, cap):
    spec = SurfaceSpec(genus, cap)
    assert nabla_of_pairing(surface_pairing(spec)).series == boundary_nabla(spec).series


@pytest.mark.parametrize("genus", [1, 2, 3, 5])
def test_homological_form_is_the_intersection_form(genus):
    exact = surface_pairing_exact(genus)
    assert exact.cap is None
    assert exact.homological_form() == intersection_form(genus)
    assert surface_pairing(SurfaceSpec(genus, 2)).homological_form() == intersection_form(genus)


def test_surface_pairing_exact_entries():
    rho = surface_pairing_exact(2)
    X = [GroupAlgebraElement.generator(4, i + 1) - 1 for i in range(4)]
    assert rho.entry(1, 1) == X[0] and rho.entry(1, 2) == -1 - X[0] - X[0] * X[1]
    assert rho.entry(2, 1) == 1 + X[1] and rho.entry(2, 2) == -X[1] - X[1] * X[1]
    assert rho.entry(2, 3) == -(X[1] * X[2]) and rho.entry(3, 2) == 0


@pytest.mark.parametrize("genus", [0, True, 1.0, "1"])
def test_surface_pairing_exact_refuses_bad_genus(genus):
    with pytest.raises(ValueError, match="^genus must be at least 1$"):
        surface_pairing_exact(genus)


def test_goldman_bracket_of_the_genus_one_basis():
    rho = surface_pairing_exact(1)
    a, b = (GroupAlgebraElement.from_word(GroupWord(2, (i,))) for i in (1, 2))
    ab = cyclic_projection(GroupAlgebraElement.from_word(GroupWord(2, (1, 2))))
    assert cyclic_projection(derived_form_exact(rho, a, b)) == -ab
    assert cyclic_projection(derived_form_exact(rho, b, a)) == ab
    assert cyclic_projection(derived_form_exact(rho, a, a)) == 0


def test_surface_pairing_is_weakly_skew_with_witness_minus_one():
    pairing = surface_pairing(SurfaceSpec(1, 4))
    flag, witness = pairing.is_weakly_skew()
    assert flag
    assert witness == TruncatedSeries.scalar(2, pairing.cap, -1)


def test_surface_pairing_satisfies_the_boundary_identity():
    spec = SurfaceSpec(1, 4)
    pairing = surface_pairing(spec)
    nabla = boundary_nabla(spec, pairing.cap)
    rng = random.Random(91)
    for _ in range(5):
        letters = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 4)))
        iw = embed(GroupAlgebraElement.from_word(GroupWord(2, letters)), pairing.cap)
        value = pairing.evaluate(iw, nabla.series)
        assert value == (iw - 1).truncate(value.cap)


def test_every_word_is_isotropic_for_the_skew_form():
    spec = SurfaceSpec(2, 3)
    pairing = surface_pairing(spec)
    assert homological_self_pairing(pairing, spec.boundary_word()) == 0
    for text in ("a1", "b2", "a1 b1", "a2 b1^-1 a1"):
        assert homological_self_pairing(pairing, spec.parse_curve(text)) == 0


def test_generalized_twist_matches_word_level_twist_genus1():
    spec = SurfaceSpec(1, 4)
    got = generalized_dehn_twist(spec, CurveSpec(spec.parse_curve("a")))
    want = classical_dehn_twist(spec, "nonseparating-a1")
    assert got == want
    assert got.homology_matrix() == [[1, -1], [0, 1]]


def test_generalized_twist_matches_word_level_twist_genus2():
    spec = SurfaceSpec(2, 3)
    curve = CurveSpec(spec.parse_curve("a1 b1 a1^-1 b1^-1"))
    got = generalized_dehn_twist(spec, curve)
    want = classical_dehn_twist(spec, "separating-genus1-part")
    assert got == want


def test_classical_presets_validate():
    spec = SurfaceSpec(1, 3)
    with pytest.raises(ValueError):
        classical_dehn_twist(spec, "separating-genus1-part")
    with pytest.raises(ValueError):
        classical_dehn_twist(spec, "no-such-preset")


def test_word_automorphism_images_are_group_like():
    words = [GroupWord(2, (1,)), GroupWord(2, (2, -1))]
    t = word_automorphism(2, 4, words)
    assert t.is_hopf()
    assert t.images[1] == embed(GroupAlgebraElement.from_word(words[1]), 4)
    assert t == classical_dehn_twist(SurfaceSpec(1, 4), "nonseparating-a1")


def test_twist_fixes_the_boundary_and_pairing():
    spec = SurfaceSpec(1, 4)
    pairing = surface_pairing(spec)
    t = generalized_dehn_twist(spec, CurveSpec(spec.parse_curve("b")))
    nu = embed(GroupAlgebraElement.from_word(spec.boundary_word()), t.cap)
    assert t.fixes(nu)
    assert t.preserves_pairing(pairing)


def test_twist_weight_additivity():
    spec = SurfaceSpec(1, 4)
    curve = spec.parse_curve("a")
    t_third = generalized_dehn_twist(spec, CurveSpec(curve, Fraction(1, 3)))
    t_sixth = generalized_dehn_twist(spec, CurveSpec(curve, Fraction(1, 6)))
    t_half = generalized_dehn_twist(spec, CurveSpec(curve, Fraction(1, 2)))
    assert t_third.compose(t_sixth) == t_half


def test_include_series_lifts_the_alphabet():
    s = TruncatedSeries(2, 4, {(1, 2): Fraction(1, 2)})
    lifted = include_series(s, 4)
    assert lifted.rank == 4
    assert lifted.coefficient((1, 2)) == Fraction(1, 2)
    with pytest.raises(ValueError):
        include_series(lifted, 2)


def test_first_difference_reports_least_monomial():
    x1 = TruncatedSeries.variable(2, 4, 1)
    x2 = TruncatedSeries.variable(2, 4, 2)
    diff = first_difference(x1, x2)
    assert diff == {"word": [1], "got": "1", "want": "0"}
    assert first_difference(x1, x1) is None


def test_figure_eight_scenario_passes_for_half_weight():
    report = figure_eight_scenario(Fraction(1, 2))
    assert report["ok"]
    assert report["cap"] == 5
    assert [c["name"] for c in report["checks"]] == [
        "twist-log-bracket",
        "log-coordinate-display",
        "half-twist-power-gap",
        "boundary-conjugation",
    ]


def test_figure_eight_scenario_zero_weight():
    report = figure_eight_scenario(0)
    assert report["ok"]
    gap = report["checks"][2]
    assert gap["scale"] == "0"


def test_figure_eight_gap_records_the_blocking_coefficient():
    report = figure_eight_scenario(1)
    gap = report["checks"][2]
    assert gap["pass"]
    # the candidate multiple matches through degree 3 and fails at degree 4
    assert gap["witness"] is not None
    assert len(gap["witness"]["word"]) == 4


@pytest.mark.parametrize("cap", [7.9, "6", True, 0, -5, None])
def test_figure_eight_scenario_refuses_a_cap_that_is_not_a_positive_int(cap):
    with pytest.raises(ValueError, match="cap"):
        figure_eight_scenario(Fraction(1, 2), cap=cap)


def test_figure_eight_scenario_works_at_least_at_cap_5():
    assert figure_eight_scenario(Fraction(1, 2), cap=1)["cap"] == 5
    assert figure_eight_scenario(Fraction(1, 2), cap=6)["cap"] == 6


def test_surface_pairing_cache_clears_and_refills():
    spec = SurfaceSpec(1, 3)
    first = surface_pairing(spec)
    surface_pairing.cache_clear()
    assert surface_pairing.cache_info().currsize == 0
    again = surface_pairing(spec)
    assert again == first and again is not first
    assert surface_pairing.cache_info().currsize == 1


@pytest.mark.parametrize("genus, cap", [(True, 3), (1.0, 3), ("1", 3), (1, 3.0), (1, True),
                                        (None, 3), (1, "4"), (-1, 3)])
def test_surface_spec_refuses_what_is_not_a_positive_int(genus, cap):
    with pytest.raises(ValueError, match=r"^(genus must be at least 1|degree cap must be at least 2)$"):
        SurfaceSpec(genus, cap)
