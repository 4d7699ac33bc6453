"""Admitted parameters for every catalog family but ``h_phi_custom``, as hypothesis strategies.

``DRAWN[family]`` draws a parameter dict from the family's ranges and the edges of its rules
and checks (each edge with its two float neighbours).  A draw may still break a rule that
reads two parameters at once; ``EntropySpec`` refuses those with a ``GentropyError``, and a
test rejects that example.  ``h_phi_custom`` is left out: its parameters are callables that no
rule bounds.
"""

import math

from hypothesis import strategies as st

from gentropy.catalog import _FAMILIES


def _near(*edges):
    """Each edge and its two float neighbours."""
    return [x for e in edges
            for x in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf))]


def _real(lo, hi, *edges, rules=()):
    """A float in [lo, hi], or an edge or a float beside one, that each of ``rules`` admits."""

    def admits(x):
        return all(ok(x) for ok in rules)

    return st.one_of(st.sampled_from([x for x in _near(*edges) if admits(x)]),
                     st.floats(lo, hi).filter(admits))


def _one_parameter_rules(family, name):
    """The checks of the rules of ``family`` that read ``name`` alone; its other rules and
    checks reject at construction."""
    return [ok for names, ok, _ in _FAMILIES[family].rules if names == name]


def _group_params(l, three, t, sigma):
    """l < m with the coefficients k_l..k_m that sum to 0 and weight j by k_j to 1."""
    return {"l": l, "m": l + 1 + three, "sigma": sigma,
            "coeffs": (t - 1.0, 1.0 - 2.0 * t, t) if three else (-1.0, 1.0)}


_ORDER_Q = {"q": (0.0, 20.0, 0.0, 1.0)}
_INNER_Q = {"q": (0.5, 1.5, 0.5, 1.0, 1.5)}
_MATHAI_Q = {"q": (-10.0, 2.0, 1.0, 2.0)}
# Each parameter's range and the edges of its family's rules and checks
DRAWN_RANGES = {
    "shannon": {}, "genetic": {}, "paired": {}, "counterexample_HE": {},
    "renyi": _ORDER_Q, "tsallis": _ORDER_Q, "havrda_charvat": _ORDER_Q,
    "hypoentropy": {"lambda": (0.0, 100.0, 0.0)},
    "sharma_mittal_rs": {"r": (0.0, 10.0, 0.0, 1.0), "s": (-10.0, 10.0, 1.0)},
    "s_cd": {"c": (0.0, 1.0, 0.0, 1.0), "d": (-1.0, 10.0, -1.0, 0.0)},
    "s_delta": {"delta": (0.0, 3.0, 0.0, *(1.0 + math.log(n) for n in range(2, 7)))},
    "borges_roditi": {"a": (0.0, 1.0, 0.0, 1.0), "b": (0.0, 1.0, 0.0, 1.0)},
    "s_III": {"q": (2.0 / 3.0, 1.0, 2.0 / 3.0, 1.0)},
    "s_IV": _INNER_Q,
    "three_param": {**_INNER_Q, "alpha": (0.0, 0.5, 0.0, 0.5), "beta": (-0.25, 0.0, -0.25, 0.0)},
    "two_param": dict.fromkeys(("r", "k"), (-1.0, 1.0, -1.0, -0.5, 0.0, 0.5, 1.0)),
    "abe": {"k": (-5.0, 5.0, 0.0)},
    "kaniadakis": {"k": (-1.0, 1.0, -1.0, 0.0, 1.0)},
    "gamma_entropy": {"gamma": (-1.0, 1.0, -2.0 / 3.0, -1.0 / 3.0, 0.0, 1.0 / 3.0, 0.5)},
    "mathai_Mq": _MATHAI_Q, "mathai_Mq_star": _MATHAI_Q,
}
# Every family's parameters but h_phi_custom's, which are callables no rule bounds
DRAWN = {
    **{family: st.fixed_dictionaries({
        name: _real(*bounds, rules=_one_parameter_rules(family, name))
        for name, bounds in ranges.items()
    }) for family, ranges in DRAWN_RANGES.items()},
    "universal_group": st.fixed_dictionaries(
        {"coeffs": st.lists(_real(0.0, 2.0, 0.0), min_size=1, max_size=3)}
    ),
    "nath": st.one_of(
        st.fixed_dictionaries({"lambda": st.just(1.0), "tau": _real(-10.0, 0.0, 0.0)}),
        st.fixed_dictionaries(dict.fromkeys(("lambda", "alpha"), _real(-5.0, 5.0, 0.0, 1.0))),
    ),
    "group_entropy": st.builds(_group_params, st.integers(-3, 1), st.booleans(),
                               _real(-2.0, 2.0, 0.0, 0.5, 1.0), _real(0.0, 3.0, 0.0)),
}
