"""Grid certificates: slope condition, concavity, and outer-map pairing."""

import math

import pytest

from gentropy import (
    EntropySpec,
    check_concavity,
    check_outer_map_pairing,
    check_slope_condition,
)
from gentropy.errors import ValidationError

# Parameter samples expected to certify through the plain slope condition
# (component derivative decreasing).  Wrapped forms with increasing outer
# map and concave component belong here too.
SLOPE_CERTIFIED = [
    ("shannon", {}),
    ("tsallis", {"q": 0.5}),
    ("tsallis", {"q": 2.0}),
    ("genetic", {}),
    ("paired", {}),
    ("hypoentropy", {"lambda": 0.5}),
    ("hypoentropy", {"lambda": 5.0}),
    ("sharma_mittal_rs", {"r": 0.5, "s": 2.0}),
    ("sharma_mittal_rs", {"r": 0.5, "s": 0.3}),
    ("universal_group", {"coeffs": [1.0, 0.4, 0.1]}),
    ("two_param", {"r": 0.0, "k": 0.3}),
    ("two_param", {"r": 0.2, "k": 0.4}),
    ("two_param", {"r": -0.2, "k": 0.6}),
    ("nath", {"tau": -1.0, "lambda": 1.0}),
    ("nath", {"alpha": 0.5, "lambda": 2.0}),
    ("havrda_charvat", {"q": 0.5}),
    ("havrda_charvat", {"q": 2.0}),
    ("mathai_Mq", {"q": -0.5}),
    ("mathai_Mq", {"q": 1.5}),
    ("mathai_Mq_star", {"q": 1.5}),
    ("mathai_Mq_star", {"q": 1.9}),
]


@pytest.mark.parametrize("spec_id,params", SLOPE_CERTIFIED)
def test_slope_condition_passes(spec_id, params):
    cert = check_slope_condition(EntropySpec(spec_id, params), grid_density=200)
    assert cert.passed, cert.to_dict()
    assert cert.witness is None
    assert cert.max_violation <= 1e-9


def test_slope_condition_counterexample_fails_with_slopes_one_two():
    cert = check_slope_condition(EntropySpec("counterexample_HE"), grid_density=200)
    assert not cert.passed
    assert cert.witness is not None
    assert cert.witness.slope_at_x == pytest.approx(1.0, abs=1e-6)
    assert cert.witness.slope_at_x_plus_p == pytest.approx(2.0, abs=1e-6)
    assert cert.witness.x < 0.25 < cert.witness.x + cert.witness.p < 0.5
    assert cert.max_violation == pytest.approx(1.0, abs=1e-6)


def test_slope_condition_grid_guard():
    """Every certificate refuses a grid density below 10."""
    cases = [("shannon", 5)] + [("counterexample_HE", density) for density in (0, 3, 9)]
    for check in (check_slope_condition, check_concavity, check_outer_map_pairing):
        for spec_id, density in cases:
            with pytest.raises(ValidationError, match="grid_density"):
                check(EntropySpec(spec_id), grid_density=density)


def test_concavity_passes_for_smooth_members():
    for spec_id, params in [
        ("paired", {}),
        ("genetic", {}),
        ("shannon", {}),
        ("kaniadakis", {"k": 0.3}),
        ("s_III", {"q": 0.8}),
        ("s_IV", {"q": 0.9}),
        ("borges_roditi", {"a": 0.8, "b": 0.3}),
    ]:
        cert = check_concavity(EntropySpec(spec_id, params))
        assert cert.passed, cert.to_dict()


def test_concavity_counterexample_fails_at_upward_kink():
    cert = check_concavity(EntropySpec("counterexample_HE"), grid_density=200)
    assert not cert.passed
    assert cert.witness is not None
    # the slope jumps up by +1 at 0.25 (1 -> 2) and at 0.75 (-2 -> -1)
    assert min(abs(cert.witness.x - 0.25), abs(cert.witness.x - 0.75)) < 0.01


def test_concavity_implies_slope_condition():
    """Wherever the concavity certificate passes, the slope one must too."""
    samples = [
        ("shannon", {}),
        ("tsallis", {"q": 2.0}),
        ("genetic", {}),
        ("paired", {}),
        ("two_param", {"r": 0.2, "k": 0.4}),
        ("s_delta", {"delta": 0.5}),
        ("kaniadakis", {"k": -0.7}),
        ("counterexample_HE", {}),
        ("borges_roditi", {"a": 0.5, "b": 0.0}),
    ]
    for spec_id, params in samples:
        spec = EntropySpec(spec_id, params)
        if check_concavity(spec).passed:
            assert check_slope_condition(spec).passed, spec.label()


def test_pairing_patterns_split_by_parameters():
    up = check_outer_map_pairing(EntropySpec("mathai_Mq_star", q=1.5))
    assert up.passed and up.detail["pattern"] == "h_increasing_phi_concave"
    down = check_outer_map_pairing(EntropySpec("mathai_Mq_star", q=0.5))
    assert down.passed and down.detail["pattern"] == "h_decreasing_phi_convex"


def test_pairing_nath_lambda_sign_split():
    positive = check_outer_map_pairing(EntropySpec("nath", alpha=0.5, **{"lambda": 2.0}))
    assert positive.passed
    assert positive.detail["pattern"] == "h_increasing_phi_concave"
    negative = check_outer_map_pairing(EntropySpec("nath", alpha=2.0, **{"lambda": -1.0}))
    assert negative.passed
    assert negative.detail["pattern"] == "h_decreasing_phi_convex"


def test_pairing_sharma_mittal():
    report = check_outer_map_pairing(EntropySpec("sharma_mittal_rs", r=2.0, s=0.5))
    assert report.passed
    assert report.detail["pattern"] == "h_decreasing_phi_convex"


def test_pairing_identity_wrap_for_plain_sum_forms():
    # no explicit outer map: treated as identity, so this is a concavity test
    assert check_outer_map_pairing(EntropySpec("shannon")).passed


def test_counterexample_fails_all_three_certificates():
    he = EntropySpec("counterexample_HE")
    assert not check_slope_condition(he).passed
    assert not check_concavity(he).passed
    assert not check_outer_map_pairing(he).passed


def test_certificate_json_is_deterministic():
    a = check_slope_condition(EntropySpec("counterexample_HE")).to_json()
    b = check_slope_condition(EntropySpec("counterexample_HE")).to_json()
    assert a == b


@pytest.mark.parametrize("phi, slope", [
    (lambda x: x * (1.0 - x), lambda x: 1.0 - 2.0 * x),  # passes
    (lambda x: x * x, lambda x: 2.0 * x),  # a rising slope fails
], ids=["concave", "convex"])
def test_slope_condition_by_central_differences_agrees_with_the_closed_form(phi, slope):
    """An h_phi_custom spec without phi_prime is judged on central differences
    of phi, as the same phi with its closed-form slope is."""
    by_differences = check_slope_condition(EntropySpec("h_phi_custom", phi=phi, zero_safe=True))
    closed = check_slope_condition(
        EntropySpec("h_phi_custom", phi=phi, phi_prime=slope, zero_safe=True)
    )
    assert by_differences.passed == closed.passed
    assert by_differences.grid_points == closed.grid_points
    assert by_differences.detail == closed.detail
    assert by_differences.max_violation == pytest.approx(closed.max_violation, rel=1e-6)
    if closed.witness is None:
        assert by_differences.witness is None
        return
    assert (by_differences.witness.x, by_differences.witness.p) == (
        closed.witness.x, closed.witness.p
    )
    assert by_differences.witness.slope_at_x == pytest.approx(closed.witness.slope_at_x)
    assert by_differences.witness.slope_at_x_plus_p == pytest.approx(
        closed.witness.slope_at_x_plus_p
    )


@pytest.mark.parametrize("slope", [
    lambda x: math.nan,
    lambda x: 1.0 - 2.0 * x if x < 0.9 else math.nan,  # the closed form, NaN past 0.9
], ids=["everywhere", "past_0.9"])
def test_slope_condition_fails_where_the_slope_is_not_a_number(slope):
    """A NaN slope is no evidence: the certificate fails there, with the point as
    its witness, instead of passing on the rest of the grid."""
    cert = check_slope_condition(
        EntropySpec("h_phi_custom", phi=lambda x: x * (1.0 - x), phi_prime=slope, zero_safe=True),
        grid_density=10,
    )
    assert not cert.passed
    assert cert.to_dict()["max_violation"] is None
    witness = cert.witness
    assert math.isnan(slope(witness.x)) or math.isnan(slope(witness.x + witness.p))


def test_concavity_fails_where_a_second_difference_is_not_finite():
    """phi of s_delta(delta=1000) overflows near 0 on a density-10 grid: the
    certificate fails at the first such stencil instead of passing."""
    cert = check_concavity(EntropySpec("s_delta", delta=1000), grid_density=10)
    assert not cert.passed
    assert cert.to_dict()["max_violation"] is None
    assert cert.witness.x == pytest.approx(1 / 11)


def test_slope_condition_fails_on_a_component_undefined_at_zero():
    """tsallis(q=0) has phi' decreasing but no phi(0): the witness is the point 0, and the
    infinite deviation is written as null."""
    cert = check_slope_condition(EntropySpec("tsallis", q=0.0), grid_density=10)
    assert not cert.passed
    assert (cert.witness.x, cert.witness.p) == (0.0, 0.0)
    assert cert.max_violation == math.inf
    assert cert.to_dict()["max_violation"] is None


def test_concavity_checks_the_interior_alone_where_phi_raises_at_zero():
    spec = EntropySpec("h_phi_custom", phi=lambda x: -x * math.log(x))
    cert = check_concavity(spec, grid_density=10)
    assert cert.passed
    assert cert.grid_points == 9  # the stencils centred at 1/11..9/11, none reading phi(0)
    assert check_concavity(EntropySpec("shannon"), grid_density=10).grid_points == 10
