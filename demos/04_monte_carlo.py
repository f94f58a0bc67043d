# Monte Carlo estimation of the jackknife moments on a space far too big
# to enumerate (3^40 outcomes), cross-checked against exact values on a
# small slice of the same construction.

import jackvar as jv

die = jv.DiscreteDistribution([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25])


def make(n):
    # the estimators never build the joint grid, so any n works
    space = jv.build_space([die] * n)
    # S = sum_i x_i: linear, so the order-1 moments carry everything and
    # the exact values are easy to see by hand
    stat = jv.Statistic.polynomial(
        [(1.0, tuple(1 if c == i else 0 for c in range(n))) for i in range(n)]
    )
    return space, stat


# Small slice first: exact engine vs estimators.
space5, stat5 = make(5)
cache = jv.CondExpCache(jv.tabulate(stat5, space5))
jack = jv.jackknife_spectrum(cache)
cfg = jv.McConfig(seed=7, outer_samples=40_000)
print("n=5 cross-check (exact vs estimate +- 1 SE):")
for k in (1, 2):
    est = jv.estimate_iterated_jackknife(space5, stat5, k, cfg)
    print(f"  total_{k}:     {jack.ej[k-1]:8.4f}  vs  {est.mean:8.4f} +- {est.std_error:.4f}")
    estk = jv.estimate_projected_jackknife(space5, stat5, k, cfg)
    print(f"  projected_{k}: {jack.ek[k-1]:8.4f}  vs  {estk.mean:8.4f} +- {estk.std_error:.4f}")

# Same seed, same answer: estimation is a pure function of (seed, config).
again = jv.estimate_iterated_jackknife(space5, stat5, 2, cfg)
print("bit-identical rerun:", again == jv.estimate_iterated_jackknife(space5, stat5, 2, cfg))

# Now 40 coordinates: ~1.2e19 outcomes, exact enumeration is hopeless but
# the estimators only ever evaluate S at sampled points.  Each order's
# coordinate subsets are enumerated per row while there are at most 64 of
# them (the 40 singletons of order 1) and sampled one per row past that
# (780 pairs, 9880 triples), so the bracket below uses both plans.
space40, stat40 = make(40)
cfg40 = jv.McConfig(seed=11, outer_samples=20_000)
v = jv.estimate_variance(space40, stat40, cfg40)
print(f"\nn=40: Var estimate {v.mean:.3f} +- {v.std_error:.3f} "
      f"(linear statistic: exact is {40 * 0.5})")
b = jv.estimate_bracket(space40, stat40, 1, cfg40)
print(f"bracket p=1: [{b.lower_jk.mean:.3f} +- {b.lower_jk.std_error:.3f}, "
      f"{b.upper_jk.mean:.3f} +- {b.upper_jk.std_error:.3f}]")
