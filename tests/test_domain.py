"""Every admitted parameter evaluates or fails with a typed error.

Parameters come from each family's rules (``drawn.DRAWN``); every public entry point that
takes a spec runs on them, with the suite's ``error::RuntimeWarning`` filter on, so a numpy
overflow or invalid-value warning fails the test as a stray exception would.  Only a
``GentropyError`` may escape.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, note, settings
from hypothesis import strategies as st

from drawn import DRAWN
from gentropy import (
    EntropySpec,
    FiniteDistribution,
    check_basic_axioms,
    check_concavity,
    check_outer_map_pairing,
    check_product_composability,
    check_slope_condition,
    corollary1_check,
    evaluate,
    exhaustive_lattice_check,
    max_entropy_check,
    phi_component,
    phi_prime,
    run_monotonicity_campaign,
)
from gentropy.errors import GentropyError, NonFinite

# Admitted group_entropy parameters at which phi overflowed and numpy warned
G1 = {"l": 1, "m": 2, "sigma": 2.5841634727196956, "coeffs": (-1.0, 1.0)}
G2 = {"l": 0, "m": 2, "sigma": 5e-324,
      "coeffs": (-2.162546887163108, 3.325093774326216, -1.162546887163108)}
UNIFORM_4 = FiniteDistribution([0.25] * 4)


def _calls(spec: EntropySpec, seed: int) -> list:
    """Every public entry point on ``spec``: evaluate on uniform distributions, a point mass,
    a zero entry and Dirichlet draws; the oracles, certificates, probes and campaigns at
    small sizes; phi' and phi at the ends of their domains and inside."""
    rng = np.random.default_rng(seed)
    drawn = {n: FiniteDistribution(rng.dirichlet(np.ones(n))) for n in (2, 4, 7)}
    dists = [FiniteDistribution(np.full(n, 1.0 / n)) for n in range(2, 13)]
    dists += [FiniteDistribution([1.0]), FiniteDistribution([0.5, 0.5, 0.0]), *drawn.values()]
    calls = [partial(evaluate, spec, d) for d in dists]
    calls += [partial(check, spec, d) for check in (exhaustive_lattice_check, corollary1_check)
              for d in (UNIFORM_4, drawn[4])]
    calls += [partial(check, spec, 10)
              for check in (check_slope_condition, check_concavity, check_outer_map_pairing)]
    calls += [partial(probe, spec, 5, seed)
              for probe in (check_basic_axioms, check_product_composability)]
    calls += [partial(run_monotonicity_campaign, [spec], [3, 5], 2, seed),
              partial(max_entropy_check, spec, [2, 4], 2, seed)]
    calls += [partial(phi_prime, spec, x) for x in (1e-300, 0.3, 1.0 - 1e-16)]
    return calls + [partial(phi_component, spec, x) for x in (0.0, 1e-300, 0.5, 1.0)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=30, deadline=None, derandomize=True)
@given(params=st.fixed_dictionaries(DRAWN), seed=st.integers(0, 2**32 - 1))
@example(params={"group_entropy": G1}, seed=0)
@example(params={"group_entropy": G2}, seed=0)
def test_admitted_parameters_evaluate_or_fail_typed(params, seed):
    """One draw per family in each example; a draw that a rule reading two parameters at
    once refuses is skipped."""
    for family, drawn in params.items():
        try:
            spec = EntropySpec(family, drawn)
        except GentropyError:
            continue
        note(spec.label())
        for call in _calls(spec, seed):
            try:
                call()
            except GentropyError:
                pass


# Each call warned about an overflow at the parameters above; past the float range now
# raises NonFinite, or skips the case with that reason
_G1, _G2 = EntropySpec("group_entropy", G1), EntropySpec("group_entropy", G2)
_NON_FINITE = {
    "phi_prime(g1, 1e-300)": partial(phi_prime, _G1, 1e-300),
    "phi_component(g1, 1e-300)": partial(phi_component, _G1, 1e-300),
    "evaluate(g1, [1e-300, 1 - 1e-300])":
        partial(evaluate, _G1, FiniteDistribution([1e-300, 1.0 - 1e-300])),
    "evaluate(g2, uniform 4)": partial(evaluate, _G2, UNIFORM_4),
    "corollary1_check(g2, uniform 4)": partial(corollary1_check, _G2, UNIFORM_4),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call", _NON_FINITE.values(), ids=_NON_FINITE.keys())
def test_a_value_past_the_float_range_raises_non_finite(call):
    with pytest.raises(NonFinite):
        call()


_SKIPPING = {
    "exhaustive_lattice_check(g2, uniform 4)": partial(exhaustive_lattice_check, _G2, UNIFORM_4),
    "run_monotonicity_campaign(g2)": partial(run_monotonicity_campaign, [_G2], [3, 5], 2, 0),
    "max_entropy_check(g2)": partial(max_entropy_check, _G2, [2, 4], 2, 0),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("call", _SKIPPING.values(), ids=_SKIPPING.keys())
def test_a_case_past_the_float_range_is_skipped_as_non_finite(call):
    (summary,) = call().summary
    assert summary.skipped > 0
    assert all(reason.startswith("NonFinite: ") for reason, _ in summary.skip_reasons)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_basic_probe_runs_only_the_samples_in_the_float_range():
    """g2's basic probe rejects the samples whose value is not finite, as evaluate does."""
    residuals = check_basic_axioms(_G2, 5, 0)
    assert [r.cases_run for r in residuals] == [2, 2, 2]
