"""Per-functional values, parameter domains, and catalog-wide invariants."""

import hashlib
import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st
import numpy as np
import pytest

from gentropy import (
    EntropySpec,
    FiniteDistribution,
    default_campaign_specs,
    evaluate,
    outer_map,
    phi_component,
    phi_prime,
    spec_from_json,
    spec_to_json,
)
from gentropy.distributions import _dirichlet_interior
from gentropy.errors import (
    BreakpointHit,
    DeltaExceedsBound,
    NonFinite,
    ParamOutOfDomain,
    ValidationError,
    ZeroUnsupported,
)

UNIFORM4 = FiniteDistribution([0.25] * 4)
HALF = FiniteDistribution([0.5, 0.5])
P235 = FiniteDistribution([0.2, 0.3, 0.5])


def spec(spec_id, **params):
    return EntropySpec(spec_id, params)


# ---------------------------------------------------------------------------
# Pinned values
# ---------------------------------------------------------------------------

def test_shannon_uniform():
    assert evaluate(spec("shannon"), UNIFORM4) == pytest.approx(math.log(4), abs=1e-14)


def test_counterexample_pinned_values():
    he = spec("counterexample_HE")
    assert evaluate(he, P235) == pytest.approx(1.3, abs=1e-12)
    assert evaluate(he, HALF) == pytest.approx(1.5, abs=1e-12)
    assert evaluate(he, UNIFORM4) == pytest.approx(1.0, abs=1e-12)
    assert evaluate(he, FiniteDistribution([0.2, 0.25, 0.25, 0.3])) == pytest.approx(
        1.05, abs=1e-12
    )


def test_counterexample_component_branch():
    he = spec("counterexample_HE")
    assert phi_component(he, 0.3) == pytest.approx(0.35, abs=1e-15)
    assert phi_component(he, 0.25) == pytest.approx(0.25, abs=1e-15)  # both branches
    assert phi_component(he, 0.75) == pytest.approx(0.25, abs=1e-15)


def test_tsallis_value():
    assert evaluate(spec("tsallis", q=2.0), HALF) == pytest.approx(0.5, abs=1e-14)


def test_kaniadakis_value():
    assert evaluate(spec("kaniadakis", k=0.5), HALF) == pytest.approx(
        2.0**-0.5, abs=1e-14
    )


def test_renyi_value():
    assert evaluate(spec("renyi", q=2.0), HALF) == pytest.approx(
        math.log(2), abs=1e-14
    )


def test_genetic_component():
    assert phi_component(spec("genetic"), 0.5) == pytest.approx(0.1875, abs=1e-15)


def test_shannon_component_derivative_zero():
    assert phi_prime(spec("shannon"), math.exp(-1)) == pytest.approx(0.0, abs=1e-12)


def test_paired_component_symmetric_slope():
    assert phi_prime(spec("paired"), 0.5) == pytest.approx(0.0, abs=1e-15)


def test_counterexample_slopes_and_breakpoints():
    he = spec("counterexample_HE")
    assert phi_prime(he, 0.1) == 1.0
    assert phi_prime(he, 0.3) == 2.0
    assert phi_prime(he, 0.6) == -2.0
    assert phi_prime(he, 0.9) == -1.0
    with pytest.raises(BreakpointHit):
        phi_prime(he, 0.25)


def test_universal_group_single_coefficient_is_shannon():
    ug = spec("universal_group", coeffs=[1.0])
    sh = spec("shannon")
    rng = np.random.default_rng(5)
    for _ in range(25):
        dist = FiniteDistribution(rng.dirichlet(np.ones(int(rng.integers(2, 8)))))
        assert evaluate(ug, dist) == pytest.approx(evaluate(sh, dist), abs=1e-12)


def test_hypoentropy_value_frozen():
    # frozen from a 50-digit independent evaluation of the defining formula
    got = evaluate(spec("hypoentropy", **{"lambda": 0.5}), P235)
    assert got == pytest.approx(0.1274015830065890604670897, abs=1e-14)


def test_hypoentropy_dimension_consistency():
    """The component vanishes at 0, so zero-padding never changes the value."""
    hyp = spec("hypoentropy", **{"lambda": 0.5})
    assert phi_component(hyp, 0.0) == 0.0
    base = evaluate(hyp, FiniteDistribution([0.3, 0.7]))
    for n in range(2, 13):
        padded = np.zeros(n)
        padded[:2] = [0.3, 0.7]
        assert evaluate(hyp, FiniteDistribution(padded)) == pytest.approx(
            base, abs=1e-12
        )


# ---------------------------------------------------------------------------
# Parameter domains
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "spec_id,params",
    [
        ("renyi", {"q": 0.0}),
        ("renyi", {"q": 1.0}),
        ("tsallis", {"q": -0.5}),
        ("tsallis", {"q": 1.0}),
        ("hypoentropy", {"lambda": 0.0}),
        ("sharma_mittal_rs", {"r": 1.0, "s": 2.0}),
        ("sharma_mittal_rs", {"r": 0.5, "s": 1.0}),
        ("universal_group", {"coeffs": [1.0, 1.0]}),
        ("s_cd", {"c": 0.0, "d": 1.0}),
        ("s_cd", {"c": 1.2, "d": 1.0}),
        ("s_cd", {"c": 1.0, "d": 0.0}),
        ("s_delta", {"delta": 0.0}),
        ("borges_roditi", {"a": 0.5, "b": 0.5}),
        ("borges_roditi", {"a": 1.0, "b": 0.5}),
        ("group_entropy", {"l": 0, "m": 0, "coeffs": [1.0], "sigma": 1.0}),
        ("group_entropy", {"l": -1, "m": 0, "coeffs": [-1.0, 0.9], "sigma": 1.0}),
        ("group_entropy", {"l": -1, "m": 0, "coeffs": [-0.5, 0.5], "sigma": 1.0}),
        ("s_III", {"q": 0.5}),
        ("s_III", {"q": 1.0}),
        ("s_IV", {"q": 0.45}),
        ("s_IV", {"q": 1.0}),
        ("s_IV", {"q": 0.6}),  # inside the stated range but fails the concavity gate
        ("three_param", {"q": 1.0, "alpha": 0.3, "beta": -0.1}),
        ("three_param", {"q": 0.8, "alpha": 0.6, "beta": -0.1}),
        ("three_param", {"q": 0.8, "alpha": 0.3, "beta": 0.1}),
        ("two_param", {"r": 0.0, "k": 0.0}),
        ("two_param", {"r": 0.5, "k": 0.3}),
        ("two_param", {"r": 0.6, "k": 0.7}),
        ("abe", {"k": 0.0}),
        ("kaniadakis", {"k": 0.0}),
        ("kaniadakis", {"k": 1.0}),
        ("gamma_entropy", {"gamma": 0.0}),
        ("gamma_entropy", {"gamma": 0.6}),
        ("nath", {"tau": 1.0, "lambda": 1.0}),
        ("nath", {"alpha": 2.0, "lambda": 2.0}),
        ("nath", {"alpha": 0.5, "lambda": -1.0}),
        ("havrda_charvat", {"q": -1.0}),
        ("havrda_charvat", {"q": 1.0}),
        ("mathai_Mq", {"q": 2.0}),
        ("mathai_Mq_star", {"q": 2.5}),
        ("s_cd", {"c": 0.5, "d": -2.0}),  # the incomplete gamma needs a shape 1 + d > 0
        ("s_cd", {"c": 1.0, "d": -1.0}),
    ],
)
def test_rejected_parameters(spec_id, params):
    with pytest.raises(ParamOutOfDomain):
        EntropySpec(spec_id, params)


@pytest.mark.parametrize("spec_id, params, refusal", [
    ("havrda_charvat", {"q": 0.9999999999999999}, "divides by 0.0"),  # 2**(1-q) - 1 == 0.0
    ("abe", {"k": 5e-324}, "divides by 0.0"),  # q - 1/q == 0.0
    ("abe", {"k": -5e-324}, "divides by 0.0"),
    ("hypoentropy", {"lambda": 5e-324}, "reads inf, which is not finite"),  # 1/lambda == inf
    # the outer map's m = (s - 1) / (r - 1) == inf
    ("sharma_mittal_rs", {"r": 1.0 + 2.0**-40, "s": 1e300}, "reads inf, which is not finite"),
])
def test_a_form_dividing_by_zero_or_reading_an_infinity_is_refused(spec_id, params, refusal):
    """The rules admit these parameters, but phi would divide by 0.0 or by an infinite
    1/lambda, or h would scale by an infinite m: numpy warns, or the value is NaN or
    meaningless.  The form record refuses them."""
    with pytest.raises(ParamOutOfDomain, match=f"^the form _.*{refusal}$"):
        EntropySpec(spec_id, params)


def test_s_IV_concavity_gate_grid():
    """On q = 0.51..1.49 (step 0.01, q != 1) the gate rejects the two edge bands."""
    rejected = []
    for i in range(51, 150):
        if i == 100:
            continue
        try:
            EntropySpec("s_IV", q=i / 100)
        except ParamOutOfDomain:
            rejected.append(i)
    assert rejected == list(range(51, 65)) + list(range(136, 150))


def test_unknown_and_missing_params():
    with pytest.raises(ValidationError, match="unknown parameters"):
        EntropySpec("shannon", {"q": 2.0})
    with pytest.raises(ValidationError, match="missing parameters.*q"):
        EntropySpec("renyi", {})
    with pytest.raises(ValidationError, match="unknown entropy id"):
        EntropySpec("nonsense", {})


def test_spec_json_round_trip():
    original = spec("sharma_mittal_rs", r=0.5, s=2.0)
    rebuilt = spec_from_json(spec_to_json(original))
    assert rebuilt == original
    with pytest.raises(ValidationError):
        spec_from_json('{"id": "h_phi_custom", "params": {}}')


def test_h_phi_custom_callable_params():
    custom = EntropySpec(
        "h_phi_custom",
        phi=lambda x: x * (1.0 - x),
        phi_prime=lambda x: 1.0 - 2.0 * x,
        zero_safe=True,
    )
    # sum of p(1-p) = 1 - sum p^2, matches tsallis q=2
    assert evaluate(custom, HALF) == pytest.approx(0.5, abs=1e-15)
    with pytest.raises(ValidationError):
        spec_to_json(custom)


def test_spec_to_json_rejects_any_callable_parameter():
    """A callable coefficient sequence has no JSON form: a typed error, not a TypeError."""
    series = spec("universal_group", coeffs=lambda k: 1.0 / k**2)
    with pytest.raises(ValidationError, match="callables"):
        spec_to_json(series)
    with pytest.raises(ValidationError, match="callables"):
        spec_from_json({"id": "universal_group", "params": {"coeffs": lambda k: 1.0}})


# ---------------------------------------------------------------------------
# Zero handling
# ---------------------------------------------------------------------------

ZERO_DIST = FiniteDistribution([0.0, 0.4, 0.6])


def test_zero_safe_flags_as_documented():
    flagged_false = {
        "group_entropy": {"l": -1, "m": 0, "coeffs": [-1.0, 1.0], "sigma": 0.5},
        "s_IV": {"q": 0.9},
        "three_param": {"q": 0.8, "alpha": 0.3, "beta": -0.1},
        "abe": {"k": 0.3},
        "s_cd": {"c": 0.5, "d": 1.0},
    }
    for spec_id, params in flagged_false.items():
        assert not EntropySpec(spec_id, params).descriptor().zero_safe, spec_id
        with pytest.raises(ZeroUnsupported):
            evaluate(EntropySpec(spec_id, params), ZERO_DIST)

    assert spec("two_param", r=0.3, k=0.3).descriptor().zero_safe  # r >= |k|
    assert not spec("two_param", r=0.0, k=0.3).descriptor().zero_safe
    assert spec("borges_roditi", a=0.5, b=0.2).descriptor().zero_safe
    assert not spec("borges_roditi", a=0.5, b=0.0).descriptor().zero_safe
    assert not spec("tsallis", q=0.0).descriptor().zero_safe
    assert spec("gamma_entropy", gamma=0.3).descriptor().zero_safe
    assert spec("kaniadakis", k=0.5).descriptor().zero_safe


def test_expandability_for_zero_safe_ids():
    """Appending a zero state never changes a zero-safe functional."""
    rng = np.random.default_rng(17)
    for sp in default_campaign_specs():
        if not sp.descriptor().zero_safe:
            continue
        p = rng.dirichlet(np.ones(4))
        base = evaluate(sp, FiniteDistribution(p))
        padded = evaluate(sp, FiniteDistribution(np.append(p, 0.0)))
        assert padded == pytest.approx(base, abs=1e-12), sp.label()


def test_s_delta_dimension_bound():
    wide = spec("s_delta", delta=2.0)
    evaluate(wide, P235)  # 2 <= 1 + ln 3
    with pytest.raises(DeltaExceedsBound):
        evaluate(wide, HALF)  # 2 > 1 + ln 2


def test_tsallis_q_zero_counts_support():
    counting = spec("tsallis", q=0.0)
    assert evaluate(counting, P235) == pytest.approx(2.0, abs=1e-14)
    with pytest.raises(ZeroUnsupported):
        evaluate(counting, ZERO_DIST)


# ---------------------------------------------------------------------------
# Catalog-wide invariants over the shipped parameter samples
# ---------------------------------------------------------------------------

def test_degenerate_distribution_values():
    """Everything except s_cd vanishes on the one-point distribution."""
    point = FiniteDistribution([1.0])
    for sp in default_campaign_specs() + [spec("counterexample_HE")]:
        try:
            value = evaluate(sp, point)
        except DeltaExceedsBound:
            continue  # the dimension bound excludes delta > 1 at n = 1
        if sp.id == "s_cd":
            # the defining formula leaves a positive constant at the point mass
            assert value > 0.0, sp.label()
        else:
            assert value == pytest.approx(0.0, abs=1e-12), sp.label()


def test_symmetry_invariance():
    rng = np.random.default_rng(23)
    for sp in default_campaign_specs():
        n = int(rng.integers(3, 7))
        p = _dirichlet_interior(n, rng, 1e-6)
        base = evaluate(sp, FiniteDistribution(p))
        for _ in range(4):
            perm = rng.permutation(n)
            assert evaluate(sp, FiniteDistribution(p[perm])) == pytest.approx(
                base, abs=1e-12
            ), sp.label()


def test_positivity_over_samples():
    rng = np.random.default_rng(29)
    specs = default_campaign_specs()
    for index in range(10_000):
        sp = specs[index % len(specs)]
        n = 2 + index % 5
        p = _dirichlet_interior(n, rng, 1e-6)
        try:
            value = evaluate(sp, FiniteDistribution(p))
        except DeltaExceedsBound:
            continue
        assert value >= -1e-12, (sp.label(), p)


def test_uniform_maximality_except_counterexample():
    rng = np.random.default_rng(31)
    for sp in default_campaign_specs():
        for n in (3, 5):
            try:
                top = evaluate(sp, FiniteDistribution(np.full(n, 1.0 / n)))
            except DeltaExceedsBound:
                continue
            for _ in range(40):
                p = _dirichlet_interior(n, rng, 1e-6)
                assert evaluate(sp, FiniteDistribution(p)) <= top + 1e-9, sp.label()


def test_counterexample_breaks_uniform_maximality():
    he = spec("counterexample_HE")
    top = evaluate(he, UNIFORM4)
    assert evaluate(he, FiniteDistribution([0.2, 0.25, 0.25, 0.3])) > top


def test_borges_low_b_corner_keeps_monotonicity_not_maximality():
    """With b = 0 the component is convex-decreasing: skewed distributions
    beat the uniform, yet merging entries still never raises the value."""
    corner = spec("borges_roditi", a=0.5, b=0.0)
    skewed = FiniteDistribution([0.08, 0.81, 0.11])
    uniform = FiniteDistribution([1 / 3] * 3)
    assert evaluate(corner, skewed) > evaluate(corner, uniform)
    rng = np.random.default_rng(61)
    from gentropy import coarse_grain, random_refinement_pair

    for seed in range(200):
        p = FiniteDistribution(_dirichlet_interior(5, rng, 1e-6))
        finer, coarser = random_refinement_pair(5, seed)
        assert (
            evaluate(corner, coarse_grain(p, coarser))
            <= evaluate(corner, coarse_grain(p, finer)) + 1e-9
        )


def test_decomposition_consistency():
    """h(sum of components) reproduces evaluate: every catalog row has a component."""
    rng = np.random.default_rng(37)
    for sp in default_campaign_specs() + [spec("counterexample_HE")]:
        n = 4
        p = _dirichlet_interior(n, rng, 1e-6)
        total = sum(phi_component(sp, float(v), n) for v in p)
        assert outer_map(sp, total) == pytest.approx(
            evaluate(sp, FiniteDistribution(p)), abs=1e-12
        ), sp.label()


def test_component_vanishes_at_zero():
    for sp in default_campaign_specs():
        if sp.id == "borges_roditi" and not sp.descriptor().zero_safe:
            assert phi_component(sp, 0.0) != 0.0  # the documented breakage
            continue
        assert phi_component(sp, 0.0) == 0.0, sp.label()


def test_group_entropy_component_undefined_at_zero():
    ge = EntropySpec(
        "group_entropy", {"l": -1, "m": 0, "coeffs": [-1.0, 1.0], "sigma": 0.5}
    )
    with pytest.raises(ZeroUnsupported):
        phi_component(ge, 0.0)


# ---------------------------------------------------------------------------
# Special-case collapses
# ---------------------------------------------------------------------------

def test_sharma_mittal_collapses_to_tsallis_exactly():
    rng = np.random.default_rng(41)
    q = 2.0
    sm = spec("sharma_mittal_rs", r=q, s=q)
    ts = spec("tsallis", q=q)
    for _ in range(20):
        dist = FiniteDistribution(rng.dirichlet(np.ones(5)))
        assert evaluate(sm, dist) == pytest.approx(evaluate(ts, dist), abs=1e-12)


def test_sharma_mittal_approaches_renyi():
    rng = np.random.default_rng(43)
    q = 2.0
    sm = spec("sharma_mittal_rs", r=q, s=1.0 + 1e-9)
    ry = spec("renyi", q=q)
    for _ in range(20):
        dist = FiniteDistribution(rng.dirichlet(np.ones(4)))
        assert evaluate(sm, dist) == pytest.approx(evaluate(ry, dist), abs=1e-8)


def test_havrda_charvat_is_scaled_tsallis():
    rng = np.random.default_rng(47)
    for q in (0.5, 2.0, 3.0):
        factor = (1.0 - q) / (2.0 ** (1.0 - q) - 1.0)
        hv = spec("havrda_charvat", q=q)
        ts = spec("tsallis", q=q)
        assert factor > 0.0
        for _ in range(10):
            dist = FiniteDistribution(rng.dirichlet(np.ones(4)))
            assert evaluate(hv, dist) == pytest.approx(
                factor * evaluate(ts, dist), abs=1e-8
            )


def test_abe_small_k_near_tsallis():
    """As k -> 0 the two-exponent form approaches the q -> 1 entropy family."""
    rng = np.random.default_rng(53)
    abe = spec("abe", k=1e-4)
    sh = spec("shannon")
    for _ in range(10):
        dist = FiniteDistribution(_dirichlet_interior(4, rng, 1e-6))
        assert evaluate(abe, dist) == pytest.approx(evaluate(sh, dist), abs=1e-4)


def test_mathai_is_reindexed_tsallis():
    rng = np.random.default_rng(59)
    mq = spec("mathai_Mq", q=1.5)
    ts = spec("tsallis", q=0.5)
    for _ in range(10):
        dist = FiniteDistribution(rng.dirichlet(np.ones(4)))
        assert evaluate(mq, dist) == pytest.approx(evaluate(ts, dist), abs=1e-14)


# ---------------------------------------------------------------------------
# Derivative cross-check
# ---------------------------------------------------------------------------

def central_difference(sp, x, n=2):
    h = 1e-6 * max(x, 1e-3)
    return (phi_component(sp, x + h, n) - phi_component(sp, x - h, n)) / (2.0 * h)


def test_phi_prime_matches_finite_differences():
    """Closed-form component slope vs central differences, 200 grid points."""
    for sp in default_campaign_specs() + [spec("counterexample_HE")]:
        descriptor = sp.descriptor()
        if not descriptor.phi_prime_available:
            continue
        breakpoints = sp.functional.breakpoints
        xs = np.arange(1, 201) / 201.0
        for x in xs:
            if any(abs(x - b) < 1e-4 for b in breakpoints):
                continue
            closed = phi_prime(sp, float(x))
            fd = central_difference(sp, float(x))
            assert closed == pytest.approx(fd, rel=1e-5, abs=1e-5), (sp.label(), x)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    spec=st.sampled_from([
        EntropySpec("shannon"),
        EntropySpec("tsallis", q=2.0),
        EntropySpec("renyi", q=0.5),
        EntropySpec("kaniadakis", k=0.3),
        EntropySpec("counterexample_HE"),
    ]),
)
def test_evaluate_is_permutation_symmetric(n, seed, spec):
    """Relabelling the states leaves the value unchanged up to rounding."""
    rng = np.random.default_rng(seed)
    p = _dirichlet_interior(n, rng, 1e-6)
    value = evaluate(spec, FiniteDistribution(p))
    permuted = evaluate(spec, FiniteDistribution(p[rng.permutation(n)]))
    assert permuted == pytest.approx(value, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# Form kinds against the closures they replaced
# ---------------------------------------------------------------------------

_LN2 = math.log(2.0)


def _xlogx(x):
    out = np.zeros_like(x)
    mask = x > 0.0
    out[mask] = x[mask] * np.log(x[mask])
    return out


def _he_phi(x):
    return np.select(
        [x <= 0.25, x < 0.5, x < 0.75], [x, 2.0 * x - 0.25, 1.75 - 2.0 * x], default=1.0 - x
    )


def _he_phi_prime(x):
    return np.select([x < 0.25, x < 0.5, x < 0.75], [1.0, 2.0, -2.0], default=-1.0)


def _s_delta_closures(delta):
    """phi and phi' of x g(-ln x) with g(t) = t**delta and the hand-written g'."""
    g = lambda t: np.power(t, delta)  # noqa: E731
    g_prime = lambda t: delta * np.power(t, delta - 1.0)  # noqa: E731

    def phi(x):
        out = np.zeros_like(x)
        mask = x > 0.0
        out[mask] = x[mask] * g(np.maximum(-np.log(x[mask]), 0.0))
        return out

    def phi_prime(x):
        t = np.maximum(-np.log(x), 0.0)
        return g(t) - g_prime(t)

    return phi, phi_prime


def _nath_closures(tau):
    return (lambda x: tau * _xlogx(x) / _LN2,
            lambda x: tau * (np.log(x) + 1.0) / _LN2)


# The phi and phi' each row wrote by hand before it was routed through a kind.
_REFERENCE_CLOSURES = [
    (spec("shannon"), lambda x: -_xlogx(x), lambda x: -np.log(x) - 1.0),
    (spec("paired"), lambda x: -_xlogx(x) - _xlogx(1.0 - x), lambda x: np.log((1.0 - x) / x)),
    (spec("counterexample_HE"), _he_phi, _he_phi_prime),
    *((spec("nath", tau=tau, **{"lambda": 1.0}), *_nath_closures(tau))
      for tau in (-1.0, -0.3, -2.5)),
    *((spec("s_delta", delta=delta), *_s_delta_closures(delta))
      for delta in (0.5, 1.0, 2.0, 3.7)),
]

# A dense grid on [0, 1], its ends, a step past 1, HE's knots and the
# smallest subnormal.
_KIND_GRID = np.concatenate([
    np.linspace(0.0, 1.0, 100_001), [0.0, 1.0, 1.0 + 2.0**-52, 0.25, 0.5, 0.75, 5e-324]
])


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize(
    "sp, old_phi, old_phi_prime", _REFERENCE_CLOSURES,
    ids=[sp.label() for sp, _, _ in _REFERENCE_CLOSURES],
)
def test_form_kinds_equal_the_replaced_closures_bit_for_bit(sp, old_phi, old_phi_prime):
    """Sign bits and NaN bits included; paired's phi' is compared below."""
    f = sp.functional
    with np.errstate(all="ignore"):
        assert np.array_equal(_bits(f.phi(_KIND_GRID)), _bits(old_phi(_KIND_GRID)))
        if sp.id != "paired":
            assert np.array_equal(
                _bits(f.phi_prime(_KIND_GRID)), _bits(old_phi_prime(_KIND_GRID))
            )


def test_paired_phi_prime_agrees_with_its_replaced_closure():
    """ln((1 - x)/x) overflows at the smallest subnormal; the kind stays finite."""
    x = np.linspace(1e-9, 1.0 - 1e-9, 100_001)
    kind = spec("paired").functional.phi_prime
    assert np.max(np.abs(kind(x) - np.log((1.0 - x) / x))) <= 4e-15
    with np.errstate(over="ignore"):
        assert np.log((1.0 - 5e-324) / 5e-324) == math.inf
    assert math.isfinite(kind(np.array([5e-324]))[0])


# ---------------------------------------------------------------------------
# Outer maps: the array form of each kind and the typed underflow
# ---------------------------------------------------------------------------

_OUTER_SPECS = [
    spec("renyi", q=0.5), spec("renyi", q=3.0), spec("renyi", q=944.0),
    spec("mathai_Mq_star", q=1.9), spec("nath", alpha=0.5, **{"lambda": 2.0}),
    spec("nath", alpha=2.0, **{"lambda": -1e-310}),  # log / c overflows
    spec("sharma_mittal_rs", r=0.5, s=2.0), spec("sharma_mittal_rs", r=2.0, s=0.5),
    spec("sharma_mittal_rs", r=1.0 + 2.0**-40, s=1e290),  # m * log overflows
    spec("s_cd", c=0.8, d=0.5),
]
_ONE = 1.0 + np.arange(-4, 5) * 2.0**-52
_TOTALS = np.concatenate([
    _ONE, [0.5, 0.999, 1.001, 2.0, 3.7, 5e-324, 1e-310, 1e-300, 1e-200, 1e200, 1e300, 1.7e308],
    np.random.default_rng(0).uniform(0.0, 10.0, 50),
])


def _each(fn, values):
    """``fn`` at each value alone: the hex of its float, or the type it raises."""
    out = []
    for v in values:
        try:
            out.append(float(fn(v)).hex())
        except Exception as exc:
            out.append(type(exc))
    return out


@pytest.mark.parametrize("sp", _OUTER_SPECS, ids=[sp.label() for sp in _OUTER_SPECS])
def test_outer_array_forms_equal_their_scalar_forms_bit_for_bit(sp):
    """Totals near 1, tiny and huge: each kind's array form gives the bits and
    the errors h gives each total alone; without an error, at once too."""
    h = sp.functional.h
    expected = _each(h, _TOTALS.tolist())
    with np.errstate(all="ignore"):
        assert _each(lambda t: h.array(np.array([t]))[0], _TOTALS.tolist()) == expected
        if all(isinstance(e, str) for e in expected):
            assert [v.hex() for v in h.array(_TOTALS).tolist()] == expected


@pytest.mark.parametrize("zeros", [False, True], ids=["nonzero", "zeros"])
@pytest.mark.parametrize("sp", _OUTER_SPECS, ids=[sp.label() for sp in _OUTER_SPECS])
def test_outer_values_keep_each_totals_outcome_and_warn_nowhere(sp, zeros):
    """The kernel's outer map of totals: every total gets h's value or outcome
    alone, and numpy warns nowhere Python's floats do not.  A total of 0.0
    takes the per-total fallback and, under a log kind, its typed reason."""
    from gentropy.catalog import _map_points, _outcome, _outer_value

    totals = np.concatenate([[0.0], _TOTALS, [0.0]]) if zeros else _TOTALS
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        numbers, failures = _map_points(sp, "h", totals)
        expected = [_outcome(_outer_value, sp, t) for t in totals.tolist()]
    assert caught == []
    assert [type(v) is float for v in expected] == [i not in failures for i in range(totals.size)]
    assert [str(f) for f in failures.values()] == [str(e) for e in expected if type(e) is not float]
    assert np.asarray(numbers).tobytes() == np.array(
        [v if type(v) is float else math.nan for v in expected]).tobytes()
    if zeros and sp.id != "s_cd":
        assert [f"{type(e).__name__}: {e}" for e in (failures[0], failures[totals.size - 1])] == [
            "NonFinite: the component sum is 0.0 (an underflow), and its log is not finite"
        ] * 2


def test_an_underflowed_power_sum_under_a_log_is_non_finite():
    """renyi(q=944) on the uniform n = 4 distribution: the power sum underflows
    to 0.0, and evaluate raises NonFinite, not a math domain error."""
    for sp in (spec("renyi", q=944.0), spec("sharma_mittal_rs", r=1000.0, s=2.0)):
        with pytest.raises(NonFinite, match="component sum is 0.0"):
            evaluate(sp, UNIFORM4)


# ---------------------------------------------------------------------------
# Form records against the closures they replaced, by digest
# ---------------------------------------------------------------------------

_RECORD_SPECS = [
    *default_campaign_specs(include_unstable=True),  # the 60 defaults and group_entropy's
    spec("counterexample_HE"),
    spec("nath", tau=-2.5, **{"lambda": 1.0}),
    # near-degenerate rows, where the forms' constants are closest to a division by 0
    spec("s_IV", q=1.0 + 1e-15), spec("s_IV", q=1.0 - 1e-15), spec("renyi", q=1.0 + 1e-15),
]
_HE_KNOTS = [knot + side for knot in (0.25, 0.5, 0.75) for side in (-1e-12, 0.0, 1e-12)]
_RECORD_POINTS = np.concatenate([
    [0.0, 5e-324, 1e-300, 1e-12], np.linspace(0.0, 1.0, 1001)[1:-1], _HE_KNOTS, [1.0]
])
_RECORD_SUMS = np.concatenate([
    [0.0, 5e-324, 1e-300, 1e-12, -0.5], np.linspace(0.01, 4.0, 400), [1.0, 10.0, 1e300]
])
# Computed at the parent of the form records, whose builders closed over the constants.
_RECORD_DIGESTS = {
    "phi": "50a7312147c34b716b0726bd7450a2ef7f7412dba29bd71cd8d5a3df1dd74b63",
    "phi_prime": "f079b7a420ac621c7c14a96773482885727d6e549c96147f2a63e4a1fe54aa85",
    "h": "2d8b4df053c872ff46483906113819a08304fecd5fcb226918f51c0ff2f4d4ca",
    "h_prime": "66814b8d480f7a33dbcc22a088a87e504a3765774c692fc0b48d535327e08335",
}


def _digest_part(value) -> bytes:
    """An array's bytes, or the name of the error raised in its place."""
    return value.tobytes() if isinstance(value, np.ndarray) else type(value).__name__.encode()


def _record_digests(specs) -> dict[str, str]:
    """sha256 over the specs of phi's bits on the points (batched, or point by point when
    the batch raises) with the component's flags, and of phi', h and h' through
    ``catalog._map_points``: the values and each failure's position and type."""
    from gentropy.catalog import _map_points, _outcome

    digests = {name: hashlib.sha256() for name in _RECORD_DIGESTS}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for sp in specs:
            f = sp.functional
            flags = (sp.label(), f.zero_safe, f.phi_at_zero, f.breakpoints)
            digests["phi"].update(repr(flags).encode())
            with np.errstate(all="ignore"):
                parts = [_outcome(f.phi, _RECORD_POINTS)]
                if not isinstance(parts[0], np.ndarray):
                    parts = [_outcome(f.phi, point) for point in _RECORD_POINTS.reshape(-1, 1)]
            for part in parts:
                digests["phi"].update(_digest_part(part))
            for name, points in (("phi_prime", _RECORD_POINTS), ("h", _RECORD_SUMS),
                                 ("h_prime", _RECORD_SUMS)):
                values, failures = _map_points(sp, name, points)
                kinds = sorted((i, type(error).__name__) for i, error in failures.items())
                digests[name].update(values.tobytes() + repr(kinds).encode())
    return {name: digest.hexdigest() for name, digest in digests.items()}


def test_form_records_equal_the_replaced_closures_bit_for_bit():
    """phi, phi', h and h' of every default spec, group_entropy's unstable sample, HE,
    nath at lambda = 1 and three near-degenerate rows, on points with 0.0, a subnormal,
    1e-300, 1.0 and HE's knots +-1e-12, give the bits and failures the closures gave."""
    assert _record_digests(_RECORD_SPECS) == _RECORD_DIGESTS


@pytest.mark.parametrize(
    "coeffs", [(1.0, 0.4, 0.1), lambda k: 0.5**k / math.factorial(k)], ids=["finite", "callable"]
)
def test_the_group_series_is_built_with_the_record_and_never_per_call(coeffs, monkeypatch):
    """universal_group's G and G' are built once each, with its record: phi, phi' and
    evaluate reuse them, so no call re-checks or re-divides the coefficients."""
    from gentropy import catalog

    built, series = [], catalog._group_series
    monkeypatch.setattr(catalog, "_group_series", lambda *a: built.append(a) or series(*a))
    sp = spec("universal_group", coeffs=coeffs)
    assert [integral for _, integral in built] == [False, True]
    x = np.linspace(0.01, 0.99, 50)
    sp.functional.phi(x), sp.functional.phi_prime(x), phi_prime(sp, 0.3)
    evaluate(sp, UNIFORM4), evaluate(sp, P235)
    assert len(built) == 2


@pytest.mark.parametrize("params", ['[["q", 2.0]]', '2.0', '"q"', 'null'])
def test_spec_json_params_must_be_an_object(params):
    with pytest.raises(ValidationError, match='"params" must be an object'):
        spec_from_json('{"id": "tsallis", "params": %s}' % params)
