"""Per-functional values, parameter domains, and catalog-wide invariants."""

import math

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
    ],
)
def test_rejected_parameters(spec_id, params):
    with pytest.raises(ParamOutOfDomain):
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
    """h(sum of components) reproduces evaluate wherever a component exists."""
    rng = np.random.default_rng(37)
    for sp in default_campaign_specs() + [spec("counterexample_HE")]:
        if not sp.descriptor().phi_available:
            continue
        n = 4
        p = _dirichlet_interior(n, rng, 1e-6)
        total = sum(phi_component(sp, float(v), n) for v in p)
        assert outer_map(sp, total) == pytest.approx(
            evaluate(sp, FiniteDistribution(p)), abs=1e-12
        ), sp.label()


def test_component_vanishes_at_zero():
    for sp in default_campaign_specs():
        descriptor = sp.descriptor()
        if not descriptor.phi_available:
            continue
        if sp.id == "borges_roditi" and not descriptor.zero_safe:
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
