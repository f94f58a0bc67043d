# Walk through the exact engine on a tiny space: two fair coins valued
# +-1 and the product statistic S = x1 * x2.

import numpy as np

import jackvar as jv

rad = jv.DiscreteDistribution.rademacher()
space = jv.build_space([rad, rad])
print("space:", space)
print("outcomes (coordinate 1 fastest):", [space.outcome(i) for i in range(4)])

product = jv.Statistic.polynomial([(1.0, (1, 1))])
table = jv.tabulate(product, space)
print("S tabulated:", table.values)
print("E S =", jv.expectation(table), " Var S =", jv.variance(table))

# Conditional means: averaging out coordinate 1 kills the product entirely,
# so all the variance lives in the pure interaction.
cache = jv.CondExpCache(table)
print("avg over x1:", cache.cond_expect([1]).values)
print("avg over x2:", cache.cond_expect([2]).values)
print("avg over both:", cache.cond_expect([1, 2]).values)

# Iterated conditional variances, the building block of everything else.
for indices in ([1], [2], [1, 2]):
    v = jv.iterated_variance(cache, indices)
    print(f"var{tuple(indices)}:", v.values)

# The two computation paths (defining recursion vs inclusion-exclusion)
# agree to machine precision; the library tests this on every instance.
a = jv.iterated_variance(cache, [1, 2]).values
b = jv.iterated_variance_ie(cache, [1, 2]).values
print("recursion vs inclusion-exclusion:", np.max(np.abs(a - b)))

# Replace-one-coordinate differences give the same quantities without any
# conditional machinery: E[(difference over I)^2] = 2^|I| E[var(I) S].
for indices in ([1], [1, 2]):
    m = jv.iterated_difference_moment(table, indices)
    print(f"difference moment {tuple(indices)}: {m} = 2^|I| * E var = "
          f"{2**len(indices)} * {m / 2**len(indices)}")
