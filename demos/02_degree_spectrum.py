# The degree spectrum: how much variance each interaction order carries.
# This is the discrete cousin of Sobol variance components.

import math

import jackvar as jv

rad = jv.DiscreteDistribution.rademacher()
space = jv.build_space([rad] * 3)

# S = x1 x2 + x1 x3 + x2 x3: a pure pairwise-interaction statistic.
pairwise = jv.Statistic.pair_interaction({-1.0: -1.0, 1.0: 1.0})
cache = jv.CondExpCache(jv.tabulate(pairwise, space))
decomp = jv.decompose(cache)

print("mean:", decomp.mean)
print("degree spectrum (Var by interaction order):", decomp.spectrum)
print("total variance:", jv.variance(cache.base))

# Every component is degenerate (averaging over any of its own coordinates
# gives zero) and they are orthogonal, so the squared masses add up.
for iset, mass in sorted(decomp.masses.items(), key=lambda kv: kv[0].indices):
    print(f"  E h{iset.indices}^2 = {mass:.6f}")

# A mixed statistic: linear part plus one pairwise term.
mixed = jv.Statistic.polynomial([(1.0, (1, 0, 0)), (0.5, (0, 1, 1))])
mcache = jv.CondExpCache(jv.tabulate(mixed, space))
mdecomp = jv.decompose(mcache)
print("\nmixed statistic spectrum:", mdecomp.spectrum)

# The jackknife moments see the same spectrum through binomial weights:
# total_k / k! = sum_{j >= k} C(j,k) Var f_j, projected_k / k! = Var f_k.
jack = jv.jackknife_spectrum(mcache)
res = jv.identity_residuals(jack, mdecomp.spectrum, jv.variance(mcache.base))
print("cross-identity residuals:", res.spectrum_total, res.spectrum_projected, res.spectrum_mix)
print("projected moments / k! :",
      [jack.ek[k] / math.factorial(k + 1) for k in range(space.n)])
