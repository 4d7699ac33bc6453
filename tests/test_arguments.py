"""The argument policy at every public entry point: one table, one rule per kind.

A count, seed, dimension, index or grid density goes through
``errors._integer``: an int (numpy integers too), not a bool, at least a
minimum, and for a probe's size at most a stated maximum (``TooLarge``).
A real argument goes through ``errors._number``: an int or float, not a
bool, finite.  Each row names one argument of one public function, a
value it accepts, and the values it refuses; a refusal is always a typed
``GentropyError``, never numpy's or Python's own error, a truncation or a
parse.  JSON input is refused the same way, whatever value or text it holds:
the readers raise only ``GentropyError`` and the CLI exits 2, never 3.
"""

import contextlib
import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gentropy.axioms import (
    check_basic_axioms,
    check_product_composability,
    residual_escort_composability,
    residual_product_composability,
    residual_recursivity,
    residual_split_recursivity,
)
from gentropy.catalog import (
    CATALOG_IDS,
    EntropySpec,
    outer_map,
    outer_map_prime,
    phi_component,
    phi_prime,
    spec_from_json,
    transform_between,
)
from gentropy.classify import (
    check_concavity,
    check_outer_map_pairing,
    check_slope_condition,
    check_transform_consistency,
)
from gentropy.cli import main
from gentropy.distributions import (
    FiniteDistribution,
    JointDistribution,
    escort,
    from_weights,
    merge_pair,
    sample_dirichlet_uniform,
)
from gentropy.errors import (
    DomainViolation,
    GentropyError,
    ParamOutOfDomain,
    TooLarge,
    UserCallableError,
    ValidationError,
    ZeroUnsupported,
)
from gentropy.partitions import Partition, bell_number, enumerate_partitions, random_refinement_pair
from gentropy.special import (
    check_series_coefficients,
    universal_group_G,
    universal_group_G_prime,
    upper_incomplete_gamma,
)
from gentropy.verify import (
    corollary1_check,
    counterexample_suite,
    exhaustive_lattice_check,
    max_entropy_check,
    replay_case,
    report_from_json,
    run_monotonicity_campaign,
)

SHANNON = EntropySpec("shannon")
RENYI = EntropySpec("renyi", q=2.0)
TSALLIS = EntropySpec("tsallis", q=2.0)
DIST = FiniteDistribution([0.2, 0.3, 0.5])
HALVES = FiniteDistribution([0.5, 0.5])
JOINT = JointDistribution([[0.1, 0.2], [0.3, 0.4]])

BAD = (2.5, True, "3", -1, math.nan, math.inf)
BAD_REAL = (True, "3", math.nan, math.inf)  # 2.5 and -1 are reals; a row adds them if refused

# (function, argument, call with that argument set to v, a value it accepts, values it refuses)
INTEGER_ROWS = [
    ("sample_dirichlet_uniform", "n", lambda v: sample_dirichlet_uniform(v, 0), 3, BAD),
    ("sample_dirichlet_uniform", "rng_seed", lambda v: sample_dirichlet_uniform(3, v), 0, BAD),
    ("random_refinement_pair", "n", lambda v: random_refinement_pair(v, 0), 4, BAD),
    ("random_refinement_pair", "rng_seed", lambda v: random_refinement_pair(4, v), 0, BAD),
    ("bell_number", "n", bell_number, 3, BAD),
    ("Partition.identity", "n", Partition.identity, 3, BAD + (0,)),
    ("Partition.total", "n", Partition.total, 3, BAD + (0,)),
    ("enumerate_partitions", "n", lambda v: next(enumerate_partitions(v)), 3, BAD),
    ("merge_pair", "i", lambda v: merge_pair(DIST, v, 1), 0, BAD),
    ("merge_pair", "j", lambda v: merge_pair(DIST, 0, v), 1, BAD),
    ("check_transform_consistency", "samples",
     lambda v: check_transform_consistency(TSALLIS, RENYI, samples=v), 3, BAD + (0,)),
    ("check_transform_consistency", "rng_seed",
     lambda v: check_transform_consistency(TSALLIS, RENYI, samples=3, rng_seed=v), 0, BAD),
    ("check_basic_axioms", "samples", lambda v: check_basic_axioms(SHANNON, v, 0), 5, BAD + (0,)),
    ("check_basic_axioms", "rng_seed", lambda v: check_basic_axioms(SHANNON, 5, v), 0, BAD),
    ("check_product_composability", "samples",
     lambda v: check_product_composability(TSALLIS, v, 0), 20, BAD + (0,)),
    ("check_product_composability", "rng_seed",
     lambda v: check_product_composability(TSALLIS, 20, v), 0, BAD),
    ("check_slope_condition", "grid_density",
     lambda v: check_slope_condition(SHANNON, v), 10, BAD),
    ("check_concavity", "grid_density", lambda v: check_concavity(SHANNON, v), 10, BAD),
    ("check_outer_map_pairing", "grid_density",
     lambda v: check_outer_map_pairing(SHANNON, v), 10, BAD),
    ("run_monotonicity_campaign", "n",
     lambda v: run_monotonicity_campaign([SHANNON], [v], 1, 0), 3, BAD),
    ("run_monotonicity_campaign", "cases_per_cell",
     lambda v: run_monotonicity_campaign([SHANNON], [3], v, 0), 1, BAD + (0,)),
    ("run_monotonicity_campaign", "rng_seed",
     lambda v: run_monotonicity_campaign([SHANNON], [3], 1, v), 0, BAD),
    ("replay_case", "spec_index", lambda v: replay_case([SHANNON], v, 3, 0, 0), 0, BAD),
    ("replay_case", "n", lambda v: replay_case([SHANNON], 0, v, 0, 0), 3, BAD),
    ("replay_case", "case", lambda v: replay_case([SHANNON], 0, 3, v, 0), 0, BAD),
    ("replay_case", "rng_seed", lambda v: replay_case([SHANNON], 0, 3, 0, v), 0, BAD),
    ("max_entropy_check", "n", lambda v: max_entropy_check(SHANNON, [v], 2, 0), 2, BAD),
    ("max_entropy_check", "samples",
     lambda v: max_entropy_check(SHANNON, [2], v, 0), 2, BAD + (0,)),
    ("max_entropy_check", "rng_seed", lambda v: max_entropy_check(SHANNON, [2], 2, v), 0, BAD),
    ("phi_component", "n", lambda v: phi_component(SHANNON, 0.5, v), 2, BAD + (0,)),
]

REAL_ROWS = [
    ("escort", "alpha", lambda v: escort(DIST, v), 2.5, BAD_REAL + (-1,)),
    ("phi_component", "x", lambda v: phi_component(SHANNON, v), 0.5, BAD),
    ("phi_prime", "x", lambda v: phi_prime(SHANNON, v), 0.5, BAD),
    ("upper_incomplete_gamma", "a", lambda v: upper_incomplete_gamma(v, 1.0), 2.5,
     BAD_REAL + (-1,)),
    ("transform_between", "value", lambda v: transform_between(TSALLIS, "renyi", v), 0.5,
     BAD_REAL),
    ("outer_map", "y", lambda v: outer_map(RENYI, v), 2.5, BAD_REAL + (-1,)),
    ("outer_map_prime", "y", lambda v: outer_map_prime(RENYI, v), 2.5, BAD_REAL + (0,)),
    ("universal_group_G", "t", lambda v: universal_group_G((1.0, 0.4), v), 0.5, BAD_REAL),
    ("run_monotonicity_campaign", "tolerance",
     lambda v: run_monotonicity_campaign([SHANNON], [3], 1, 0, tolerance=v), 1e-9,
     BAD_REAL + (-1,)),
    ("exhaustive_lattice_check", "tolerance",
     lambda v: exhaustive_lattice_check(SHANNON, DIST, tolerance=v), 1e-9, BAD_REAL + (-1,)),
    ("corollary1_check", "tolerance",
     lambda v: corollary1_check(SHANNON, DIST, tolerance=v), 1e-9, BAD_REAL + (-1,)),
    ("max_entropy_check", "tolerance",
     lambda v: max_entropy_check(SHANNON, [3], 2, 0, tolerance=v), 1e-9, BAD_REAL + (-1,)),
    ("replay_case", "tolerance",
     lambda v: replay_case([SHANNON], 0, 3, 0, 0, tolerance=v), 1e-9, BAD_REAL + (-1,)),
    ("counterexample_suite", "tolerance", counterexample_suite, 1e-12, BAD_REAL + (-1,)),
    ("residual_product_composability", "gamma",
     lambda v: residual_product_composability(TSALLIS, DIST, HALVES, v), -1.0, BAD_REAL),
    ("residual_escort_composability", "gamma",
     lambda v: residual_escort_composability(TSALLIS, JOINT, 1.0, v), -1.0, BAD_REAL),
]

ROWS = INTEGER_ROWS + REAL_ROWS


def _row_id(row):
    return f"{row[0]}-{row[1]}"


@pytest.mark.parametrize("row", ROWS, ids=map(_row_id, ROWS))
def test_each_argument_takes_its_valid_value(row):
    """The row's call is well formed: only the argument under test can make it fail."""
    _, _, call, valid, _ = row
    call(valid)


@pytest.mark.parametrize("row", ROWS, ids=map(_row_id, ROWS))
def test_each_argument_refuses_what_its_rule_refuses(row):
    _, _, call, _, refused = row
    for value in refused:
        with pytest.raises(GentropyError):
            call(value)


@pytest.mark.parametrize("row", INTEGER_ROWS, ids=map(_row_id, INTEGER_ROWS))
def test_integer_arguments_refuse_non_integers_with_validation_error(row):
    """2.5 is not truncated to 2, nor "3" parsed to 3; numpy integers are integers."""
    _, _, call, valid, _ = row
    for value in (2.5, float(valid), str(valid), True):
        with pytest.raises(ValidationError, match="integer"):
            call(value)
    call(np.int64(valid))


@pytest.mark.parametrize("row", REAL_ROWS, ids=map(_row_id, REAL_ROWS))
def test_real_arguments_refuse_non_numbers_with_param_out_of_domain(row):
    _, _, call, _, _ = row
    for value in BAD_REAL:
        with pytest.raises(ParamOutOfDomain, match="finite number"):
            call(value)


def test_a_zero_tolerance_is_allowed():
    """A negative tolerance is refused; 0 asks for no slack and is taken."""
    for _, argument, call, _, _ in REAL_ROWS:
        if argument == "tolerance":
            call(0)
            call(0.0)


def test_sampled_checks_refuse_an_empty_list_of_dimensions():
    """With no n nothing is checked, and a passing report would say otherwise."""
    for call in (lambda: run_monotonicity_campaign([SHANNON], [], 3, 0),
                 lambda: max_entropy_check(SHANNON, [], 5, 0)):
        with pytest.raises(ValidationError, match="no dimension"):
            call()


# Calls that each returned, or raised an error of Python or numpy, before the
# policy was applied at every entry point.
PINNED = {
    "sample_dirichlet_uniform(2.5, 0)": lambda: sample_dirichlet_uniform(2.5, 0),
    "sample_dirichlet_uniform(3, -1)": lambda: sample_dirichlet_uniform(3, -1),
    "random_refinement_pair(3.5, 0)": lambda: random_refinement_pair(3.5, 0),
    "random_refinement_pair(4, -1)": lambda: random_refinement_pair(4, -1),
    "run_monotonicity_campaign n=3.5": lambda: run_monotonicity_campaign([SHANNON], [3.5], 1, 0),
    "replay_case n=3.5": lambda: replay_case([SHANNON], 0, 3.5, 0, 0),
    "max_entropy_check n=2.5": lambda: max_entropy_check(SHANNON, [2.5], 2, 0),
    "check_basic_axioms samples=2.5": lambda: check_basic_axioms(SHANNON, 2.5, 0),
    "check_transform_consistency rng_seed=-1":
        lambda: check_transform_consistency(TSALLIS, RENYI, rng_seed=-1),
    "check_slope_condition 200.9": lambda: check_slope_condition(SHANNON, 200.9),
    "check_slope_condition '200'": lambda: check_slope_condition(SHANNON, "200"),
    "merge_pair i=0.0": lambda: merge_pair(DIST, 0.0, 1),
    "escort alpha='a'": lambda: escort(DIST, "a"),
    "phi_prime x='0.5'": lambda: phi_prime(SHANNON, "0.5"),
    "upper_incomplete_gamma('2', 1.0)": lambda: upper_incomplete_gamma("2", 1.0),
    "upper_incomplete_gamma(True, 1.0)": lambda: upper_incomplete_gamma(True, 1.0),
    "upper_incomplete_gamma(2.0, '1')": lambda: upper_incomplete_gamma(2.0, "1"),
    "upper_incomplete_gamma(2.0, True)": lambda: upper_incomplete_gamma(2.0, True),
    "transform_between(tsallis, 'renyi', '0.5')":
        lambda: transform_between(TSALLIS, "renyi", "0.5"),
    "transform_between(tsallis, 'havrda_charvat', True)":
        lambda: transform_between(TSALLIS, "havrda_charvat", True),
    "universal_group_G(5, 0.5)": lambda: universal_group_G(5, 0.5),
    "universal_group_G(['1.5', True], 0.5)": lambda: universal_group_G(["1.5", True], 0.5),
    "check_series_coefficients([1e400])": lambda: check_series_coefficients([1e400]),
    "outer_map(renyi, -1.0)": lambda: outer_map(RENYI, -1.0),
    "outer_map_prime(renyi, 0.0)": lambda: outer_map_prime(RENYI, 0.0),
    "outer_map_prime(sharma_mittal_rs(r=1000, s=2), 1e-310)":
        lambda: outer_map_prime(EntropySpec("sharma_mittal_rs", r=1000, s=2), 1e-310),
    "EntropySpec s_cd d=-2": lambda: EntropySpec("s_cd", c=0.5, d=-2),
}


@pytest.mark.parametrize("call", PINNED.values(), ids=PINNED.keys())
def test_pinned_calls_raise_a_typed_error(call):
    with pytest.raises(GentropyError):
        call()


def test_outer_maps_raise_domain_violation_outside_their_domain():
    with pytest.raises(DomainViolation):
        outer_map(RENYI, -1.0)
    with pytest.raises(DomainViolation):
        outer_map_prime(RENYI, 0.0)


def test_incomplete_gamma_lower_limit_is_a_real_number_not_parsed():
    """A str, bytes or bool lower limit, alone or in an array, is refused;
    ints and floats, alone or in arrays, are taken."""
    for x in ("1", b"1", True, np.array([0.5, 1.0]) > 0.7, np.array(["1.0"]), [1.0, "2"]):
        with pytest.raises(ValidationError, match="lower limit"):
            upper_incomplete_gamma(2.0, x)
    one = upper_incomplete_gamma(2.0, 1.0)
    assert upper_incomplete_gamma(2.0, 1) == one == upper_incomplete_gamma(2.0, np.int64(1))
    assert upper_incomplete_gamma(2.0, np.array([1, 2])).tolist()[0] == one


# Bool entries that were taken as the numbers 1.0 and 0.0: a bool list or
# array, and a bool or np.bool_ mixed into a float list (coerced by np.asarray).
BOOL_ENTRIES = {
    "FiniteDistribution([True, False])": lambda: FiniteDistribution([True, False]),
    "FiniteDistribution(bool array)": lambda: FiniteDistribution(np.array([True, False])),
    "FiniteDistribution([0.0, True])": lambda: FiniteDistribution([0.0, True]),
    "FiniteDistribution((np.True_, 0.0))": lambda: FiniteDistribution((np.True_, 0.0)),
    "JointDistribution([[0.0, True]])": lambda: JointDistribution([[0.0, True]]),
    "from_weights([True, 1.0])": lambda: from_weights([True, 1.0]),
    "upper_incomplete_gamma(2.0, [1.0, True])": lambda: upper_incomplete_gamma(2.0, [1.0, True]),
    "upper_incomplete_gamma(2.0, (np.False_, 2))":
        lambda: upper_incomplete_gamma(2.0, (np.False_, 2)),
}


@pytest.mark.parametrize("call", BOOL_ENTRIES.values(), ids=BOOL_ENTRIES.keys())
def test_bool_entries_are_refused_not_taken_as_numbers(call):
    with pytest.raises(ValidationError):
        call()


def test_spec_params_take_a_mapping_or_a_list_of_pairs():
    assert EntropySpec("tsallis", {"q": 2.0}) == EntropySpec("tsallis", [("q", 2.0)]) == TSALLIS


def test_callable_coefficients_stay_allowed():
    coeffs = lambda k: 0.5**k / math.factorial(k)  # noqa: E731
    assert universal_group_G(coeffs, 1.0) > 0.0 and universal_group_G_prime(coeffs, 1.0) > 0.0


@pytest.mark.parametrize("l, m", [(-1.0, 0.0), (-1, 0)])
def test_group_entropy_keeps_integral_float_bounds(l, m):
    params = {"l": l, "m": m, "coeffs": (-1.0, 1.0), "sigma": 0.5}
    assert EntropySpec("group_entropy", params).params["l"] == -1
    with pytest.raises(ParamOutOfDomain):
        EntropySpec("group_entropy", {**params, "l": -0.5})


GROUP = {"l": -1, "m": 1, "sigma": 0.5}
# Domain refusals beyond the argument rules: (call, the typed error, its message)
REFUSALS = {
    "residual_recursivity zero head": (
        lambda: residual_recursivity(SHANNON, FiniteDistribution([0.0, 0.0, 1.0])),
        ZeroUnsupported, "zero total mass"),
    "residual_split_recursivity zero tail": (
        lambda: residual_split_recursivity(
            SHANNON, FiniteDistribution([0.5, 0.5, 0.0]), FiniteDistribution([0.5, 0.5])),
        ZeroUnsupported, "positive mass"),
    "residual_escort_composability zero column": (
        lambda: residual_escort_composability(
            SHANNON, JointDistribution([[0.5, 0.0], [0.5, 0.0]]), 1.0, 0.0),
        ZeroUnsupported, "column marginals"),
    "group_entropy sigma": (
        lambda: EntropySpec("group_entropy", {**GROUP, "coeffs": (-1.0, 1.0, 0.0), "sigma": 0.0}),
        ParamOutOfDomain, "sigma > 0"),
    "group_entropy coefficient count": (
        lambda: EntropySpec("group_entropy", {**GROUP, "coeffs": (-1.0, 1.0)}),
        ParamOutOfDomain, "coefficients k_l..k_m, got 2"),
    "group_entropy zero end coefficient": (
        lambda: EntropySpec("group_entropy", {**GROUP, "coeffs": (-1.0, 1.0, 0.0)}),
        ParamOutOfDomain, "k_m != 0"),
    "nath lambda = 1 with alpha": (
        lambda: EntropySpec("nath", {"lambda": 1.0, "alpha": 0.5}),
        ParamOutOfDomain, "takes tau, not alpha"),
    "nath lambda != 1 with tau": (
        lambda: EntropySpec("nath", {"lambda": 2.0, "tau": -1.0}),
        ParamOutOfDomain, "takes alpha, not tau"),
    "h_phi_custom phi not callable": (
        lambda: EntropySpec("h_phi_custom", phi=0.5), ParamOutOfDomain, "callable 'phi'"),
    "h_phi_custom h not callable": (
        lambda: EntropySpec("h_phi_custom", phi=lambda x: x, h=0.5),
        ParamOutOfDomain, "'h' must be callable"),
    "EntropySpec params a str": (
        lambda: EntropySpec("tsallis", "q"), ValidationError, "'params' must be a mapping"),
    "EntropySpec params an int": (
        lambda: EntropySpec("tsallis", 5), ValidationError, "'params' must be a mapping, got 5"),
    "residual_escort_composability f not callable": (
        lambda: residual_escort_composability(SHANNON, JOINT, 1.0, 0.0, "x", lambda y: y),
        ValidationError, "escort f must be callable, got 'x'"),
    "residual_escort_composability f raises": (
        lambda: residual_escort_composability(SHANNON, JOINT, 1.0, 0.0, lambda y: 1 / 0, abs),
        UserCallableError, "escort f raised ZeroDivisionError: division by zero"),
    "Partition.from_json not an object": (
        lambda: Partition.from_json("[[0], [1]]"), ValidationError, "partition JSON must be"),
    "FiniteDistribution.from_json not an object": (
        lambda: FiniteDistribution.from_json("[0.5, 0.5]"), ValidationError,
        "distribution JSON must be"),
    "FiniteDistribution.from_csv bad row": (
        lambda: FiniteDistribution.from_csv("0.5\nhalf\n"), ValidationError, "bad CSV"),
    "check_series_coefficients negative": (
        lambda: check_series_coefficients([1.0, -0.1]), ParamOutOfDomain, "nonnegative"),
    # an oracle's arguments are refused before it evaluates anything
    "corollary1_check tolerance before a raising h": (
        lambda: corollary1_check(
            EntropySpec("h_phi_custom", phi=lambda x: x, h=lambda y: 1 / 0), DIST, tolerance=-1.0),
        ParamOutOfDomain, "'tolerance' must be >= 0"),
    "corollary1_check n = 9 before a refused zero": (
        lambda: corollary1_check(
            EntropySpec("abe", k=0.3), FiniteDistribution([0.0] + [0.125] * 8)),
        TooLarge, "limited to n <= 8"),
    # a probe's size is refused before anything of that size is allocated
    "check_slope_condition grid_density above 2000": (
        lambda: check_slope_condition(SHANNON, 2001), TooLarge, "'grid_density' must be <= 2000"),
    "check_concavity grid_density above 2000": (
        lambda: check_concavity(SHANNON, 10**6), TooLarge, "'grid_density' must be <= 2000"),
    "check_outer_map_pairing grid_density above 2000": (
        lambda: check_outer_map_pairing(SHANNON, 2001), TooLarge, "'grid_density' must be <="),
    "check_basic_axioms samples above 10**6": (
        lambda: check_basic_axioms(SHANNON, 10**6 + 1, 0), TooLarge, "'samples' must be <="),
    "check_product_composability samples above 10**6, no gamma": (
        lambda: check_product_composability(EntropySpec("abe", k=0.3), 10**9, 0), TooLarge,
        "'samples' must be <= 1000000"),
    "check_transform_consistency samples above 10**6": (
        lambda: check_transform_consistency(TSALLIS, RENYI, samples=10**6 + 1), TooLarge,
        "'samples' must be <= 1000000"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_domain_refusals_raise_their_typed_error(call, error, message):
    with pytest.raises(error, match=message):
        call()


# The JSON boundary: any JSON value, or any text, read by each reader.  Keys are
# drawn from the names the readers look for, so that values reach past the
# top-level shape checks into the constructors.
_NAMES = ["blocks", "coeffs", "entries", "id", "params", "probs", "q", "summary"]
_SCALARS = (st.none() | st.booleans() | st.integers() | st.text(max_size=6)
            | st.floats(allow_nan=False, allow_infinity=False))
_VALUES = st.recursive(_SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
    st.sampled_from(_NAMES) | st.text(max_size=3), inner, max_size=4), max_leaves=12)
_SPECS = st.fixed_dictionaries({"id": st.sampled_from(CATALOG_IDS) | _VALUES,
                                "params": st.dictionaries(st.sampled_from(_NAMES), _VALUES)})
_TEXTS = st.one_of(_VALUES.map(json.dumps), _SPECS.map(json.dumps), st.text(max_size=40))
_READERS = (spec_from_json, FiniteDistribution.from_json, Partition.from_json, report_from_json)
_DEEP = "[" * 100_000  # past the parser's recursion limit


def _exit_code(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code != 3, err.getvalue()[-2000:]
    return code


def _read_or_refuse(text, path):
    """Each reader reads ``text`` or raises a ``GentropyError``, and so does
    ``spec_from_json`` on its value; the CLI takes it inline and from ``path``
    and exits 0 or 2."""
    for read in _READERS:
        with contextlib.suppress(GentropyError):
            read(text)
    with contextlib.suppress(GentropyError, ValueError, RecursionError):  # no JSON value
        value = json.loads(text)
        with contextlib.suppress(GentropyError):
            spec_from_json(value)
    path.write_text(text, encoding="utf-8", errors="surrogatepass")  # a lone surrogate: no UTF-8
    for source in (text, str(path)):  # inline, or a path when it does not look like JSON
        assert _exit_code(["compute", f"--entropy={source}", "--dist=[0.5, 0.5]"]) in (0, 2)
        assert _exit_code(["compute", '--entropy={"id": "shannon"}', f"--dist={source}"]) in (0, 2)
        assert _exit_code(["coarsen", "--dist=[0.5, 0.5]", f"--partition={source}"]) in (0, 2)


@settings(max_examples=150, deadline=None)
@given(text=_TEXTS)
def test_json_input_is_read_or_refused_with_a_typed_error(text, tmp_path_factory):
    _read_or_refuse(text, tmp_path_factory.mktemp("source") / "input")


@pytest.mark.parametrize("text", [_DEEP, '{"id": ["x"]}', '{"id": {"a": 1}}', "not json"],
                         ids=["100000-deep", "list id", "object id", "not json"])
def test_json_input_that_once_escaped_is_refused_with_a_typed_error(text, tmp_path):
    _read_or_refuse(text, tmp_path / "input")


def test_a_refusal_shows_a_value_nested_near_the_parse_limit():
    """Run from the top of a fresh interpreter, where ``json.loads`` still reads
    lists nested 980 deep and fails by 999, each reader refuses such a value in
    a parameter or as an id with a ``GentropyError``: its message shows the value
    abbreviated, and never recurses past the stack in ``repr``."""
    from test_cli import _CHILD_ENV

    code = "\n".join((
        "from gentropy.catalog import spec_from_json",
        "from gentropy.errors import GentropyError",
        "for depth in range(980, 1000):",
        "    deep = '[' * depth + '1' + ']' * depth",
        "    for key in ('\"id\": \"universal_group\", \"params\": {\"coeffs\": %s}',",
        "                '\"id\": \"tsallis\", \"params\": {\"q\": %s}', '\"id\": %s'):",
        "        try:",
        "            spec_from_json('{' + key % deep + '}')",
        "        except GentropyError as exc:",
        "            print(depth, type(exc).__name__)",
    ))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_CHILD_ENV, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 3 * 20
