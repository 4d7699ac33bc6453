"""
Axiom residuals and value transforms
====================================

Structural identities (recursivity, strong additivity, product
composability, escort composition) are checked as signed residuals; each
functional's catalog record states which identities it is expected to
satisfy.  Functionals that are monotone images of each other share
all ordering structure; the registered transforms make that exact.
"""

from gentropy import (
    EntropySpec,
    FiniteDistribution,
    JointDistribution,
    check_basic_axioms,
    check_transform_consistency,
    evaluate,
    expected_conforming,
    matched_transform_target,
    pseudo_additivity_gamma,
    residual_escort_composability,
    residual_product_composability,
    residual_recursivity,
    residual_strong_additivity,
    transform_between,
)

shannon = EntropySpec("shannon")
tsallis = EntropySpec("tsallis", q=0.7)
renyi = EntropySpec("renyi", q=2.0)

P = FiniteDistribution([0.2, 0.3, 0.5])
J = JointDistribution([[0.30, 0.20], [0.15, 0.35]])  # correlated

# -- recursivity and strong additivity ----------------------------------------
print("log form, recursivity residual:      ", residual_recursivity(shannon, P))
print("log form, strong additivity residual:", residual_strong_additivity(shannon, J))
print("power form, recursivity residual:    ", residual_recursivity(tsallis, P),
      "(expected conforming:", str(expected_conforming(tsallis, "recursivity")) + ")")

# -- product composability: H(PxQ) = H(P) + H(Q) + gamma H(P) H(Q) --------------
Q = FiniteDistribution([0.4, 0.6])
for spec in (shannon, renyi, tsallis, EntropySpec("havrda_charvat", q=2.0)):
    gamma = pseudo_additivity_gamma(spec)
    r = residual_product_composability(spec, P, Q, gamma)
    print(f"product composition {spec.label():<24} gamma={gamma:+.4f} residual={r:.2e}")

# -- escort composition holds for the power form on ANY joint -------------------
r = residual_escort_composability(tsallis, J, alpha=0.7, gamma=0.3)
print("\nescort composition residual on a correlated joint:", r)

# -- basic axioms report, never throw -------------------------------------------
for res in check_basic_axioms(EntropySpec("kaniadakis", k=0.3), samples=300, rng_seed=0):
    print(f"  {res.axiom_id:<14} worst {res.max_abs_residual:.2e} over {res.cases_run} cases")

# -- transforms: the log form of the power sum ----------------------------------
value = evaluate(tsallis, P)
mapped = transform_between(tsallis, "renyi", value)
print("\npower-sum value mapped through the log transform:", mapped)
print("direct log-family evaluation:                     ",
      evaluate(EntropySpec("renyi", q=0.7), P))

# ordering consistency across a registered pair
target = matched_transform_target(tsallis, "renyi")
report = check_transform_consistency(tsallis, target, samples=400, rng_seed=5)
print("ordering preserved on sampled pairs:", report.passed,
      f"(compared {report.compared_pairs} pairs)")
