"""Axiom residuals: basic axioms, recursivity family, and composability."""

from dataclasses import replace
from types import SimpleNamespace
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from gentropy import (
    EntropySpec,
    FiniteDistribution,
    JointDistribution,
    check_basic_axioms,
    check_product_composability,
    default_campaign_specs,
    evaluate,
    expected_conforming,
    joint_from_conditionals,
    pseudo_additivity_gamma,
    residual_escort_composability,
    residual_product_composability,
    residual_recursivity,
    residual_split_recursivity,
    residual_strong_additivity,
)
from gentropy import axioms, catalog, verify
from gentropy.axioms import AxiomResidual
from gentropy.catalog import CATALOG_IDS, outer_map_prime, phi_prime
from gentropy.distributions import _dirichlet_interior
from gentropy.errors import (
    BadInverse,
    GentropyError,
    NoDerivative,
    NonFinite,
    ParamOutOfDomain,
    TooSmall,
    UserCallableError,
    ValidationError,
    ZeroUnsupported,
)
from drawn import DRAWN
from test_verify import _with_batch_refusing_phi, _with_h_refusing_a_band

SHANNON = EntropySpec("shannon")


def random_joint(rng, rows, cols, floor=1e-4):
    cells = rng.dirichlet(np.ones(rows * cols)).reshape(rows, cols)
    while cells.min() < floor:
        cells = rng.dirichlet(np.ones(rows * cols)).reshape(rows, cols)
    return JointDistribution(cells)


# ---------------------------------------------------------------------------
# Recursivity family
# ---------------------------------------------------------------------------

def test_shannon_recursivity_exact():
    assert residual_recursivity(SHANNON, FiniteDistribution([0.2, 0.3, 0.5])) == (
        pytest.approx(0.0, abs=1e-12)
    )
    assert residual_recursivity(SHANNON, FiniteDistribution([0.25, 0.25, 0.5])) == (
        pytest.approx(0.0, abs=1e-12)
    )


def test_recursivity_needs_three_states():
    with pytest.raises(TooSmall):
        residual_recursivity(SHANNON, FiniteDistribution([0.5, 0.5]))


def test_tsallis_recursivity_nonzero_as_expected():
    spec = EntropySpec("tsallis", q=2.0)
    value = residual_recursivity(spec, FiniteDistribution([0.2, 0.3, 0.5]))
    assert abs(value) > 1e-3  # nonzero is expected, not a failure
    assert not expected_conforming(spec, "recursivity")


def test_shannon_split_recursivity():
    assert residual_split_recursivity(
        SHANNON, FiniteDistribution([0.4, 0.6]), FiniteDistribution([0.5, 0.5])
    ) == pytest.approx(0.0, abs=1e-12)


def test_split_with_point_mass_inner():
    """A no-op split leaves every vanishing-at-degenerate functional fixed."""
    inner = FiniteDistribution([1.0])
    for spec in (SHANNON, EntropySpec("tsallis", q=0.7), EntropySpec("renyi", q=2.0)):
        value = residual_split_recursivity(
            spec, FiniteDistribution([0.4, 0.6]), inner
        )
        assert value == pytest.approx(0.0, abs=1e-12), spec.label()


def test_counterexample_split_recursivity_nonzero():
    he = EntropySpec("counterexample_HE")
    value = residual_split_recursivity(
        he, FiniteDistribution([0.5, 0.5]), FiniteDistribution([0.4, 0.6])
    )
    assert abs(value) > 1e-3


def test_shannon_strong_additivity_exact():
    rng = np.random.default_rng(5)
    for _ in range(25):
        joint = random_joint(rng, 3, 3)
        assert residual_strong_additivity(SHANNON, joint) == pytest.approx(
            0.0, abs=1e-12
        )


def test_strong_additivity_on_product_equals_product_residual():
    rng = np.random.default_rng(6)
    left = FiniteDistribution(rng.dirichlet(np.ones(3)))
    right = FiniteDistribution(rng.dirichlet(np.ones(4)))
    joint = JointDistribution(np.outer(left.probs, right.probs))
    spec = EntropySpec("renyi", q=2.0)
    via_joint = residual_strong_additivity(spec, joint)
    via_product = residual_product_composability(spec, left, right, 0.0)
    assert via_joint == pytest.approx(via_product, abs=1e-12)
    assert abs(via_joint) < 1e-10  # additive on independent products


def test_renyi_strong_additivity_correlated_nonzero():
    spec = EntropySpec("renyi", q=2.0)
    joint = JointDistribution([[0.30, 0.20], [0.15, 0.35]])
    assert abs(residual_strong_additivity(spec, joint)) > 1e-4
    assert not expected_conforming(spec, "strong_additivity")


def test_strong_additivity_zero_marginal():
    with pytest.raises(ZeroUnsupported):
        residual_strong_additivity(
            SHANNON, JointDistribution([[0.0, 0.0], [0.5, 0.5]])
        )


# ---------------------------------------------------------------------------
# Product composability
# ---------------------------------------------------------------------------

def test_shannon_product_additivity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        left = FiniteDistribution(rng.dirichlet(np.ones(3)))
        right = FiniteDistribution(rng.dirichlet(np.ones(5)))
        assert residual_product_composability(
            SHANNON, left, right, 0.0
        ) == pytest.approx(0.0, abs=1e-12)


def test_renyi_product_additivity_thousand():
    rng = np.random.default_rng(8)
    spec = EntropySpec("renyi", q=2.0)
    worst = 0.0
    for index in range(1000):
        left = FiniteDistribution(rng.dirichlet(np.ones(2 + index % 5)))
        right = FiniteDistribution(rng.dirichlet(np.ones(2 + (index // 5) % 5)))
        worst = max(
            worst, abs(residual_product_composability(spec, left, right, 0.0))
        )
    assert worst <= 1e-10


@pytest.mark.parametrize("q", [0.3, 0.7, 1.5, 2.0])
def test_tsallis_product_pseudo_additivity(q):
    rng = np.random.default_rng(9)
    spec = EntropySpec("tsallis", q=q)
    gamma = pseudo_additivity_gamma(spec)
    assert gamma == pytest.approx(1.0 - q)
    worst = 0.0
    for _ in range(250):
        left = FiniteDistribution(rng.dirichlet(np.ones(3)))
        right = FiniteDistribution(rng.dirichlet(np.ones(4)))
        worst = max(
            worst, abs(residual_product_composability(spec, left, right, gamma))
        )
    assert worst <= 1e-10


def test_havrda_charvat_pseudo_additivity_constant():
    """The normalizer changes the composition constant to 2^(1-q) - 1."""
    rng = np.random.default_rng(10)
    for q in (0.5, 2.0, 3.0):
        spec = EntropySpec("havrda_charvat", q=q)
        gamma = pseudo_additivity_gamma(spec)
        assert gamma == pytest.approx(2.0 ** (1.0 - q) - 1.0)
        for _ in range(100):
            left = FiniteDistribution(rng.dirichlet(np.ones(3)))
            right = FiniteDistribution(rng.dirichlet(np.ones(3)))
            assert abs(
                residual_product_composability(spec, left, right, gamma)
            ) <= 1e-10


def test_mathai_pseudo_additivity_reindexed_constant():
    rng = np.random.default_rng(11)
    spec = EntropySpec("mathai_Mq", q=1.5)
    gamma = pseudo_additivity_gamma(spec)
    assert gamma == pytest.approx(0.5)
    for _ in range(100):
        left = FiniteDistribution(rng.dirichlet(np.ones(3)))
        right = FiniteDistribution(rng.dirichlet(np.ones(4)))
        assert abs(residual_product_composability(spec, left, right, gamma)) <= 1e-10


_AXIOM_IDS = (
    "positivity", "expandability", "symmetry", "continuity", "recursivity", "strong_additivity",
    "split_recursivity", "product_additivity", "product_pseudo_additivity", "escort_composability",
)
_CONFORMANCE_SPECS = default_campaign_specs(include_unstable=True) + [
    EntropySpec("counterexample_HE"), EntropySpec("nath", **{"lambda": 1.0, "tau": -2.5}),
    EntropySpec("h_phi_custom", phi=lambda x: -x * math.log(x) if x > 0 else 0.0, zero_safe=True),
]
# Every row with a structural axiom or a gamma; the rest conform to the basic axioms alone.
_STRUCTURAL_ROWS = {
    "shannon": ("1111111100", "0x0.0p+0"),
    **{f"renyi(q={q})": ("1111000100", "0x0.0p+0") for q in (0.5, 2.0, 3.0)},
    "tsallis(q=0.5)": ("1111000011", "0x1.0000000000000p-1"),
    "tsallis(q=2.0)": ("1111000011", "-0x1.0000000000000p+0"),
    "tsallis(q=3.0)": ("1111000011", "-0x1.0000000000000p+1"),
    "havrda_charvat(q=0.5)": ("1111000010", "0x1.a827999fcef34p-2"),
    "havrda_charvat(q=2.0)": ("1111000010", "-0x1.0000000000000p-1"),
    "havrda_charvat(q=3.0)": ("1111000010", "-0x1.8000000000000p-1"),
    "mathai_Mq(q=-0.5)": ("1111000010", "-0x1.8000000000000p+0"),
    "mathai_Mq(q=0.5)": ("1111000010", "-0x1.0000000000000p-1"),
    "mathai_Mq(q=1.5)": ("1111000010", "0x1.0000000000000p-1"),
}
_CONFORMANCE_DIGEST = "435e337661b66db82a6fb349d12607279bd4b1e4502bd32f6a28021e2900fb45"


def _conformance_row(spec) -> tuple[str, str, str | None]:
    """The spec's label, one expected_conforming bit per axiom id, and gamma's hex."""
    gamma = pseudo_additivity_gamma(spec)
    bits = "".join("1" if expected_conforming(spec, axiom) else "0" for axiom in _AXIOM_IDS)
    return spec.label(), bits, None if gamma is None else gamma.hex()


def test_conformance_and_gamma_equal_the_replaced_tables():
    """The 60 default specs, group_entropy's unstable sample, HE, nath at lambda = 1 and an
    h_phi_custom: what their records state gives the answers and gamma bits that the
    spec-id tables of ``axioms`` gave (the digest was computed with those tables)."""
    rows = [_conformance_row(spec) for spec in _CONFORMANCE_SPECS]
    assert len(rows) == 64
    assert {label: (bits, gamma) for label, bits, gamma in rows if bits[4:] != "000000"
            or gamma is not None} == _STRUCTURAL_ROWS
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == _CONFORMANCE_DIGEST



def test_every_probed_axiom_is_one_the_record_is_expected_to_satisfy():
    """The conformance specs (the 61 that ``certify`` runs among them) and an h_phi_custom
    that is not zero-safe: each residual that the two probes report is expected to be zero,
    so the ``axioms`` command judges every residual it prints.  The basic probe reports
    expandability only for a zero-safe record, and the product probe a residual only
    where gamma is known, for the axiom that gamma comes from."""
    for spec in [*_CONFORMANCE_SPECS, EntropySpec("h_phi_custom", phi=lambda x: x * (1.0 - x))]:
        residuals = [r.to_dict() for r in check_basic_axioms(spec, 20, 0)]
        product = check_product_composability(spec, 20, 0)
        residuals += [] if product is None else [product]
        probed = [r["axiom_id"] for r in residuals]
        assert ("expandability" in probed) == spec.functional.zero_safe, spec.label()
        assert all(r["expected_conforming"] is True for r in residuals), (spec.label(), probed)


def test_split_recursivity_takes_no_state_count():
    """m, the split state's index, is always ``outer.n``: the call takes no ``m``."""
    with pytest.raises(TypeError):
        residual_split_recursivity(
            SHANNON, FiniteDistribution([0.4, 0.6]), FiniteDistribution([0.5, 0.5]), m=2
        )

# The gamma formulas of the replaced table, on the parameter q
_PSEUDO_ADDITIVE_RULES = {
    "tsallis": (lambda q: 1.0 - float(q), st.one_of(
        st.just(2), st.just(np.float64(2.5)), st.integers(0, 10**6),
        st.floats(0.0, allow_nan=False, allow_infinity=False),
    )),
    "havrda_charvat": (lambda q: math.pow(2.0, 1.0 - float(q)) - 1.0, st.one_of(
        st.just(2), st.integers(1, 10**6),
        st.floats(0.0, exclude_min=True, allow_nan=False, allow_infinity=False),
    )),
    "mathai_Mq": (lambda q: float(q) - 1.0, st.one_of(
        st.just(-5), st.integers(-10**6, 1), st.floats(max_value=2.0, exclude_max=True,
                                                       allow_nan=False, allow_infinity=False),
    )),
}


@pytest.mark.parametrize("spec_id", sorted(_PSEUDO_ADDITIVE_RULES))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_gamma_has_the_bits_of_the_replaced_formulas(spec_id, data):
    """Over each pseudo-additive family's rule, int and numpy q included, gamma read from the
    record is a float with the bits of the formula the replaced table computed from q."""
    formula, qs = _PSEUDO_ADDITIVE_RULES[spec_id]
    q = data.draw(qs.filter(lambda q: q != 1), label="q")
    try:
        spec = EntropySpec(spec_id, q=q)
    except ParamOutOfDomain:  # a divisor of 0.0, as havrda_charvat's next to q = 1
        reject()
    gamma = pseudo_additivity_gamma(spec)
    assert type(gamma) is float and gamma.hex() == formula(q).hex()
    _assert_pseudo_additive_shape(spec)


def _assert_pseudo_additive_shape(spec) -> None:
    """phi = (x**e - x) / divisor with no outer map, which makes gamma the divisor."""
    f = spec.functional
    assert isinstance(f, catalog._PowerSum) and f.outer == ("identity",)
    (w, e), rest = f.terms[0], f.terms[1:]
    assert (w, rest) == (1.0, ((-1.0, 1.0),)) and e != 1.0


def test_every_pseudo_additive_record_has_the_shape_that_makes_gamma_its_divisor():
    """Each record that states product_pseudo_additivity is a power sum with terms
    ((1, e), (-1, 1)) and the identity outer map: sum_ij (p_i q_j)**e factors, so
    H(P x Q) = H(P) + H(Q) + divisor H(P) H(Q).  Int q included."""
    extra = [EntropySpec("tsallis", q=2), EntropySpec("mathai_Mq", q=-5),
             EntropySpec("havrda_charvat", q=3)]
    claimed = [spec for spec in _CONFORMANCE_SPECS + extra
               if "product_pseudo_additivity" in spec.functional.conforms]
    assert [spec.id for spec in claimed] == ["tsallis"] * 3 + ["havrda_charvat"] * 3 + [
        "mathai_Mq"] * 3 + ["tsallis", "mathai_Mq", "havrda_charvat"]
    for spec in claimed:
        _assert_pseudo_additive_shape(spec)


# ---------------------------------------------------------------------------
# Escort composability
# ---------------------------------------------------------------------------

FROZEN_JOINT = JointDistribution([[0.30, 0.20], [0.15, 0.35]])


def test_escort_identity_reduction_is_strong_additivity():
    """f = identity, alpha = 1, gamma = 0 on columns: exact for the log form."""
    rng = np.random.default_rng(12)
    for _ in range(50):
        joint = random_joint(rng, 3, 4)
        assert residual_escort_composability(
            SHANNON, joint, alpha=1.0, gamma=0.0
        ) == pytest.approx(0.0, abs=1e-10)


def test_escort_tsallis_frozen_oracle():
    """Both sides pinned by a 50-digit independent evaluation.

    At q = 0.7, alpha = q, gamma = 1 - q on the frozen correlated joint the
    two sides agree exactly; the joint value itself is pinned too.
    """
    spec = EntropySpec("tsallis", q=0.7)
    residual = residual_escort_composability(
        spec, FROZEN_JOINT, alpha=0.7, gamma=0.3
    )
    assert abs(residual) <= 1e-12
    from gentropy import evaluate

    assert evaluate(spec, FROZEN_JOINT.flattened()) == pytest.approx(
        1.66406364982549409568032, abs=1e-12
    )


def test_escort_tsallis_random_joints():
    rng = np.random.default_rng(13)
    for q in (0.3, 0.7, 1.5, 2.0):
        spec = EntropySpec("tsallis", q=q)
        for _ in range(50):
            joint = random_joint(rng, 2 + int(rng.integers(0, 3)), 2)
            assert abs(
                residual_escort_composability(spec, joint, alpha=q, gamma=1.0 - q)
            ) <= 1e-10


def test_escort_on_product_matches_product_residual_any_f():
    """All conditionals coincide on a product, so f drops out entirely."""
    rng = np.random.default_rng(14)
    left = FiniteDistribution(rng.dirichlet(np.ones(3)))
    right = FiniteDistribution(rng.dirichlet(np.ones(4)))
    joint = JointDistribution(np.outer(left.probs, right.probs))
    spec = EntropySpec("renyi", q=2.0)
    # note the column marginal of the outer product is `right`
    direct = residual_product_composability(spec, right, left, 0.25)
    for f, finv in [
        (None, None),
        (math.exp, math.log),
        (lambda x: x**3 + x, None),
    ]:
        if f is not None and finv is None:
            continue
        got = residual_escort_composability(
            spec, joint, alpha=0.8, gamma=0.25, f=f, f_inverse=finv
        )
        assert got == pytest.approx(direct, abs=1e-10)


def test_escort_bad_inverse_rejected():
    with pytest.raises(BadInverse):
        residual_escort_composability(
            SHANNON, FROZEN_JOINT, 1.0, 0.0, f=math.exp, f_inverse=lambda y: y
        )
    with pytest.raises(ValidationError):
        residual_escort_composability(SHANNON, FROZEN_JOINT, 1.0, 0.0, f=math.exp)


@pytest.mark.parametrize("f", [lambda x: math.nan, lambda x: math.inf], ids=["nan", "inf"])
def test_escort_non_finite_round_trip_rejected(f):
    """An f whose value is NaN or infinite fails the round trip: no NaN residual."""
    with pytest.raises(BadInverse, match="deviates from x"):
        residual_escort_composability(SHANNON, FROZEN_JOINT, 1.0, 0.0, f=f, f_inverse=lambda y: y)


# ---------------------------------------------------------------------------
# Basic axioms
# ---------------------------------------------------------------------------

def test_shannon_basic_axioms_tight():
    residuals = {r.axiom_id: r for r in check_basic_axioms(SHANNON, 1000, rng_seed=0)}
    assert residuals["positivity"].max_abs_residual <= 1e-12
    assert residuals["expandability"].max_abs_residual <= 1e-12
    assert residuals["symmetry"].max_abs_residual <= 1e-12
    cont = residuals["continuity"]
    assert cont.max_abs_residual <= cont.budget


def test_counterexample_passes_basic_axioms():
    he = EntropySpec("counterexample_HE")
    residuals = {r.axiom_id: r for r in check_basic_axioms(he, 1000, rng_seed=1)}
    assert residuals["positivity"].max_abs_residual <= 1e-12
    assert residuals["expandability"].max_abs_residual <= 1e-12
    assert residuals["symmetry"].max_abs_residual <= 1e-12
    assert residuals["continuity"].max_abs_residual <= residuals["continuity"].budget


def test_counterexample_fails_recursivity_family():
    """It satisfies the basic axioms yet fails every recursion identity."""
    he = EntropySpec("counterexample_HE")
    assert abs(
        residual_recursivity(he, FiniteDistribution([0.2, 0.3, 0.5]))
    ) > 1e-3
    joint = joint_from_conditionals(
        FiniteDistribution([0.5, 0.5]),
        [FiniteDistribution([0.4, 0.6]), FiniteDistribution([0.2, 0.8])],
    )
    assert abs(residual_strong_additivity(he, joint)) > 1e-3
    assert abs(
        residual_split_recursivity(
            he, FiniteDistribution([0.5, 0.5]), FiniteDistribution([0.4, 0.6])
        )
    ) > 1e-3


def test_kaniadakis_symmetry_residual():
    spec = EntropySpec("kaniadakis", k=0.3)
    residuals = {r.axiom_id: r for r in check_basic_axioms(spec, 1000, rng_seed=2)}
    assert residuals["symmetry"].max_abs_residual <= 1e-12


def test_basic_axioms_cover_campaign_set():
    """Reports never throw and respect their budgets across the catalog."""
    from gentropy import default_campaign_specs

    for spec in default_campaign_specs():
        for residual in check_basic_axioms(spec, 120, rng_seed=3):
            assert residual.cases_run >= 1
            assert residual.max_abs_residual >= 0.0
            if residual.axiom_id in ("positivity", "symmetry"):
                assert residual.max_abs_residual <= 1e-10, (
                    spec.label(),
                    residual.axiom_id,
                )
            if residual.axiom_id == "expandability":
                assert residual.max_abs_residual <= 1e-12, spec.label()
            if residual.axiom_id == "continuity":
                assert residual.max_abs_residual <= residual.budget, spec.label()


# ---------------------------------------------------------------------------
# The batched probes against the per-sample loops they replaced
# ---------------------------------------------------------------------------

def _reference_slope_budget(spec, a, b, inner_sum):
    try:
        slope = abs(phi_prime(spec, a)) + abs(phi_prime(spec, b))
    except NoDerivative:
        slope = 0.0
    outer = abs(outer_map_prime(spec, inner_sum)) if spec.functional.h else 1.0
    return 50.0 * (1.0 + slope * max(outer, 1.0))


def test_slope_budget_at_breakpoints_matches_the_per_sample_loop():
    """At HE's knots phi' raises ``BreakpointHit``, a ``NoDerivative``: the
    slope term is 0 there, as in the per-sample loop, and the budget does not raise."""
    he = EntropySpec("counterexample_HE")
    extremes = np.array([[0.5, 0.3], [0.6, 0.25], [0.75, 0.2], [0.4, 0.35]])
    inner = np.array([1.0, 1.1, 1.2, 1.3])
    expected = [_reference_slope_budget(he, a, b, y) for (a, b), y in zip(extremes, inner)]
    assert axioms._budgets(he, extremes, inner).tolist() == expected


def _sampler2_basic(samples, rng_seed, floor):
    """Sampler 2 of the basic-axiom probe, one sample at a time.

    Child streams of the seed give a row of 6 uniforms per sample for the
    bases and another for the permutations, and a padding position per
    sample.  Sample i has n = 2 + i % 5: its base is the first n uniforms
    of its row as normalised exponentials, its permutation their ranks in
    the other.  Bases at or below ``floor`` are redrawn afterwards, in
    sample order, from the base stream.
    """
    bases, perms, pads = map(np.random.default_rng, np.random.SeedSequence(rng_seed).spawn(3))
    u, w = bases.random((samples, 6)), perms.random((samples, 6))
    positions = pads.integers(0, 3 + np.arange(samples) % 5)
    draws = []
    for index in range(samples):
        n = 2 + index % 5
        e = -np.log1p(-u[index, :n])
        draws.append([e / e.sum(), np.argsort(w[index, :n]), int(positions[index])])
    for index in range(samples):
        if draws[index][0].min() <= floor:
            draws[index][0] = _dirichlet_interior(2 + index % 5, bases, floor)
    return draws


def _reference_basic_axioms(spec, samples, rng_seed):
    """The per-sample loop, one FiniteDistribution and evaluate per vector.

    It reports the number of cases each axiom ran, which may be 0.
    """
    f = spec.functional
    floor = 0.0 if f.zero_safe else 1e-6

    neg = [(0.0, {})]
    sym = [(0.0, {})]
    exp_ = [(0.0, {})]
    cont = [(0.0, 1.0, {})]
    counts = {"positivity": 0, "symmetry": 0, "expandability": 0, "continuity": 0}

    for index, (p, perm, position) in enumerate(_sampler2_basic(samples, rng_seed, floor)):
        n = 2 + index % 5
        dist = FiniteDistribution(p)
        try:
            value = evaluate(spec, dist)
        except GentropyError:
            continue

        counts["positivity"] += 1
        if -value > neg[-1][0]:
            neg.append((-value, {"probs": p.tolist(), "value": value}))

        permuted = evaluate(spec, FiniteDistribution(p[perm]))
        counts["symmetry"] += 1
        gap = abs(value - permuted)
        if gap > sym[-1][0]:
            sym.append((gap, {"probs": p.tolist(), "permutation": perm.tolist()}))

        if f.zero_safe:
            padded = np.insert(p, position, 0.0)
            try:
                expanded = evaluate(spec, FiniteDistribution(padded))
            except GentropyError:
                expanded = None
            if expanded is not None:
                counts["expandability"] += 1
                gap = abs(value - expanded)
                if gap > exp_[-1][0]:
                    exp_.append((gap, {"probs": p.tolist(), "position": position}))

        order = np.argsort(p)
        hi, lo = int(order[-1]), int(order[-2])
        shifted = p.copy()
        shifted[hi] -= 1e-8
        shifted[lo] += 1e-8
        try:
            moved = evaluate(spec, FiniteDistribution(shifted))
        except GentropyError:
            continue
        counts["continuity"] += 1
        rate = abs(moved - value) / 1e-8
        inner = float(np.sum(f.phi(p)))
        budget = _reference_slope_budget(spec, float(p[hi]), float(p[lo]), inner)
        if rate / budget > cont[-1][0] / cont[-1][1]:
            cont.append((rate, budget, {"probs": p.tolist(), "rate": rate}))

    def residual(axiom, stack, budget=None):
        return AxiomResidual(
            axiom_id=axiom,
            max_abs_residual=stack[-1][0],
            cases_run=counts[axiom],
            worst_case=stack[-1][-1] or None,
            budget=budget,
            expected_conforming=expected_conforming(spec, axiom),
        )

    results = [residual("positivity", neg)]
    if f.zero_safe:
        results.append(residual("expandability", exp_))
    results.extend([residual("symmetry", sym), residual("continuity", cont, cont[-1][1])])
    return results


def _reference_product(spec, samples, rng_seed):
    """The product-composition loop the ``axioms`` command used to run."""
    gamma = axioms.pseudo_additivity_gamma(spec)
    if gamma is None:
        return None
    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    for _ in range(max(samples // 10, 1)):
        left = FiniteDistribution(_dirichlet_interior(3, rng, 1e-6))
        right = FiniteDistribution(_dirichlet_interior(4, rng, 1e-6))
        worst = max(worst, abs(residual_product_composability(spec, left, right, gamma)))
    axiom = "product_additivity" if gamma == 0.0 else "product_pseudo_additivity"
    return {
        "axiom_id": axiom,
        "gamma": gamma,
        "max_abs_residual": worst,
        "cases_run": max(samples // 10, 1),
        "expected_conforming": expected_conforming(spec, axiom),
    }


def _outcome(fn, *args):
    """What ``fn`` returns, as plain data, or the type and message it raises."""
    try:
        result = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return result if isinstance(result, (dict, type(None))) else [r.to_dict() for r in result]


def _assert_probes_match(spec, samples, seed):
    for batched, reference in (
        (check_basic_axioms, _reference_basic_axioms),
        (check_product_composability, _reference_product),
    ):
        expected = _outcome(reference, spec, samples, seed)
        assert _outcome(batched, spec, samples, seed) == expected, (spec.label(), seed)


def _rare_nonfinite_h(y):
    return math.inf if 0.55 < y < 0.56 else y


def _with_phi_refusing_a_large_first_entry(spec):
    """``spec`` whose phi raises on a batch, or on a vector led by an entry > 0.9.

    A base led by such an entry, or a permutation that moves one to the
    front of an accepted base, raises out of the probe.
    """
    phi = spec.functional.phi

    def picky(x):
        if x.size > 12 or x[0] > 0.9:
            raise FloatingPointError("refused")
        return phi(x)

    object.__setattr__(spec, "_functional", replace(spec.functional, phi=picky))
    return spec


# Rare and frequent rejected bases and raises mid-run (the last two).  The
# h_phi_custom specs run batched; only the two whose phi refuses a batch,
# tsallis and shannon, take the kernel's per-vector path.
_PER_VECTOR_SPECS = (
    EntropySpec("h_phi_custom", phi=lambda x: x * (1.0 - x), zero_safe=True,
                phi_prime=lambda x: 1.0 - 2.0 * x, h=math.sqrt, h_prime=lambda y: 0.5 / y),
    EntropySpec("h_phi_custom", phi=lambda x: x * (1.0 - x), h=_rare_nonfinite_h),
    EntropySpec("h_phi_custom", phi=lambda x: x * (1.0 - x),
                h=lambda y: math.nan if y > 0.5 else y),
    _with_batch_refusing_phi(EntropySpec("tsallis", q=2.0)),
    EntropySpec("h_phi_custom", phi=lambda x: x * (1.0 - x),
                phi_prime=lambda x: 1.0 / (0.9 - x) if x < 0.9 else 1 / 0),
    _with_phi_refusing_a_large_first_entry(EntropySpec("shannon")),
)


@pytest.mark.slow
def test_basic_axioms_equal_per_sample_loop_exactly():
    """Every default spec and counterexample_HE, seeds 0 and 1729, exact ==.

    At full size, s_cd covers an outer map, renyi expandability with one,
    and s_delta(2) the samples that _admit rejects.
    """
    full_size = (
        SHANNON,
        EntropySpec("tsallis", q=0.7),
        EntropySpec("counterexample_HE"),
        EntropySpec("s_cd", c=0.8, d=0.5),
        EntropySpec("renyi", q=2.0),
        EntropySpec("s_delta", delta=2.0),
    )
    for seed in (0, 1729):
        for spec in default_campaign_specs() + [EntropySpec("counterexample_HE")]:
            _assert_probes_match(spec, 100, seed)
        for spec in full_size:
            _assert_probes_match(spec, 1000, seed)


@pytest.mark.parametrize("index", range(len(_PER_VECTOR_SPECS)))
def test_basic_axioms_on_per_vector_path_equal_per_sample_loop(index):
    """Rare and frequent rejected bases, a refused batch, and raises mid-run."""
    _assert_probes_match(_PER_VECTOR_SPECS[index], 300, 7)


def test_basic_axioms_raise_as_the_per_sample_loop_does():
    """A refused slope budget, and a rejected permuted vector, raise mid-run."""
    slope, permuted = _PER_VECTOR_SPECS[-2:]
    assert _outcome(check_basic_axioms, slope, 300, 7)[0] is UserCallableError
    assert _outcome(check_basic_axioms, permuted, 300, 7) == (FloatingPointError, "refused")


def _shifted_only_band(samples, seed):
    """A band of totals holding the first continuity-shifted total of the
    shannon probe that lies above its base's and permuted vector's totals
    (its padded vector's total is its base's), and that total."""
    for p, perm, _ in _sampler2_basic(samples, seed, 0.0):
        order = np.argsort(p)
        shifted = p.copy()
        shifted[order[-1]] -= 1e-8
        shifted[order[-2]] += 1e-8
        low = max(evaluate(SHANNON, FiniteDistribution(q)) for q in (p, p[perm]))
        total = evaluate(SHANNON, FiniteDistribution(shifted))
        if total > low:
            return (low, np.nextafter(total, math.inf)), total
    raise AssertionError("no shifted total lies above its base's")


@pytest.mark.parametrize("vector", ["base", "shifted"])
@pytest.mark.parametrize(
    "path", [lambda spec: spec, _with_batch_refusing_phi], ids=["batched", "per_vector"]
)
def test_basic_axioms_raise_what_the_reference_loop_raises_first(path, vector):
    """An h that raises a ``ValueError`` on some totals raises out of the
    probe at the first sample meeting one, on its base or shifted vector."""
    band, total = ((0.6, 0.7), None) if vector == "base" else _shifted_only_band(300, 7)
    spec = path(_with_h_refusing_a_band(EntropySpec("shannon"), band=band))
    expected = _outcome(_reference_basic_axioms, spec, 300, 7)
    assert expected[0] is ValueError
    assert total is None or expected[1] == f"h refused {total!r}"
    assert _outcome(check_basic_axioms, spec, 300, 7) == expected


@pytest.mark.parametrize("refusal", [ValueError, None], ids=["raising_h", "nan_h"])
@pytest.mark.parametrize(
    "path", [lambda spec: spec, _with_batch_refusing_phi], ids=["batched", "per_vector"]
)
def test_product_probe_raises_what_the_reference_loop_raises_first(path, refusal):
    """An h that raises, or gives NaN (``NonFinite``), on some vectors."""
    spec = path(_with_h_refusing_a_band(EntropySpec("shannon"), refusal))
    expected = _outcome(_reference_product, spec, 300, 7)
    assert expected[0] is (NonFinite if refusal is None else ValueError)
    assert _outcome(check_product_composability, spec, 300, 7) == expected


def test_product_probe_raises_the_error_the_kernel_recorded(monkeypatch):
    """renyi(q=944): the 12-state product's power sum underflows, and the probe
    raises the ``NonFinite`` the kernel recorded, with no second ``evaluate``."""
    calls = []
    monkeypatch.setattr(verify, "evaluate", lambda *args: calls.append(args))
    with pytest.raises(NonFinite, match="component sum is 0.0"):
        check_product_composability(EntropySpec("renyi", q=944.0), 20, 0)
    assert calls == []


def _probe_vectors(monkeypatch, spec, samples, seed):
    """The vectors ``check_basic_axioms`` hands the kernel."""
    seen = []
    kernel = verify._VectorValues

    def capture(specs, probs, plan, spec_index=None):
        masses, widths, _, (count, groups) = plan  # masses: the plan of the draws' sums, if any
        vectors = [None] * count
        for rows, ids in groups:  # each width's vectors, a row of mass ids each
            for v, row in zip(rows.tolist(), ids):
                vectors[v] = SimpleNamespace(probs=probs[row], blocks=masses)
        assert [v.probs.size for v in vectors] == widths.tolist()
        seen.extend(vectors)
        return kernel(specs, probs, plan, spec_index)

    monkeypatch.setattr(axioms, "_VectorValues", capture)
    check_basic_axioms(spec, samples, seed)
    return seen


def test_basic_axiom_vectors_follow_the_three_streams(monkeypatch):
    """Base, permuted, zero-padded and shifted vectors, from the sampler-2 draws."""
    vectors = _probe_vectors(monkeypatch, SHANNON, 60, 3)
    assert len(vectors) == 4 * 60
    for i, (p, perm, position) in enumerate(_sampler2_basic(60, 3, 0.0)):
        order = np.argsort(p)
        shifted = p.copy()
        shifted[order[-1]] -= 1e-8
        shifted[order[-2]] += 1e-8
        expected = [p, p[perm], np.insert(p, position, 0.0), shifted]
        got = [v.probs for v in vectors[4 * i : 4 * i + 4]]
        assert all(np.array_equal(v, e) for v, e in zip(got, expected))


def test_kernel_rejected_bases_leave_every_draw_unchanged(monkeypatch):
    """Bases that _admit passes but h rejects move no other sample's draws.

    The same component with an h that is finite everywhere, and with one
    that is NaN above 0.5 (most bases), gets the very same vectors.
    """
    accepting = EntropySpec("h_phi_custom", phi=lambda x: x * (1.0 - x), h=lambda y: y)
    rejecting = _PER_VECTOR_SPECS[2]
    for seed in (0, 7):
        kept = check_basic_axioms(rejecting, 300, seed)[0].cases_run
        assert 0 < kept < check_basic_axioms(accepting, 300, seed)[0].cases_run == 300
        vectors = [_probe_vectors(monkeypatch, s, 300, seed) for s in (accepting, rejecting)]
        assert len(vectors[0]) == len(vectors[1]) == 3 * 300
        for a, b in zip(*vectors):
            assert a.blocks is b.blocks is None
            assert np.array_equal(a.probs, b.probs)
        _assert_probes_match(rejecting, 300, seed)


@pytest.mark.parametrize("delta, cases", [(2.0, 160), (3.0, 0)])
def test_basic_axioms_skip_dimensions_that_admit_rejects(delta, cases):
    """delta = 2 rejects n = 2, delta = 3 every sampled n = 2..6."""
    spec = EntropySpec("s_delta", delta=delta)
    for seed in (0, 1729):
        _assert_probes_match(spec, 200, seed)
    assert {r.cases_run for r in check_basic_axioms(spec, 200, 0)} == {cases}


@pytest.mark.parametrize("spec_id, params, points", [
    ("shannon", {}, 6001), ("s_cd", {"c": 0.8, "d": 0.5}, 6000),
])
def test_basic_axioms_evaluate_phi_once_per_distinct_mass(spec_id, params, points):
    """At 1,000 samples phi reads sum(n_i + 2) = 6,000 masses, each base's n entries and
    its two continuity-shifted ones, plus the 0.0 every padded vector shares when zero-safe;
    the permuted, padded and shifted vectors read their base's masses by id."""
    spec = EntropySpec(spec_id, params)
    seen, phi = [], spec.functional.phi

    def counting(x):
        seen.append(np.size(x))
        return phi(x)

    object.__setattr__(spec, "_functional", replace(spec.functional, phi=counting))
    check_basic_axioms(spec, 1000, 0)
    assert sum(seen) == points


def test_every_family_but_the_custom_one_has_drawn_parameters():
    assert set(DRAWN) == set(CATALOG_IDS) - {"h_phi_custom"}


@pytest.mark.parametrize("family", sorted(DRAWN))
@settings(max_examples=30, deadline=None)
@given(data=st.data(), samples=st.integers(1, 60), seed=st.integers(0, 2**32))
def test_basic_axioms_equal_per_sample_loop_on_drawn_parameters(family, data, samples, seed):
    """Admitted parameters from each family's rules, 1-60 samples and any seed: the
    batched probe returns what the per-sample loop returns, or raises what it raises."""
    try:
        spec = EntropySpec(family, data.draw(DRAWN[family], label="params"))
    except GentropyError:  # outside the family's rules
        reject()
    expected = _outcome(_reference_basic_axioms, spec, samples, seed)
    assert _outcome(check_basic_axioms, spec, samples, seed) == expected


@pytest.mark.parametrize("spec_id, params", [
    # phi' scales by c / (1 - c + c*d), about 4.5e307: every slope budget overflows
    ("s_cd", {"c": 1.0, "d": 2.2250738585072014e-308}),
    # h = log(y) / (lambda ln 2) near 1e308: continuity rates overflow
    ("nath", {"lambda": -2.225073858507203e-309, "alpha": 1.9057322558837289}),
], ids=["budget", "rate"])
def test_continuity_past_the_float_range_is_inf_as_in_the_per_sample_loop(spec_id, params):
    """numpy's continuity arithmetic overflows to inf without a warning, as floats do;
    the suite makes a warning an error."""
    spec = EntropySpec(spec_id, params)
    for samples, seed in ((1, 0), (59, 253)):
        expected = _outcome(_reference_basic_axioms, spec, samples, seed)
        assert _outcome(check_basic_axioms, spec, samples, seed) == expected
