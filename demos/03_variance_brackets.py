# Two-sided variance brackets from truncated alternating series, and the
# exact identities they are built on.

import numpy as np

import jackvar as jv

# A 6-coordinate instance with non-identical skewed coordinates, so the
# series has several meaningful terms.
rng = np.random.Generator(np.random.Philox(key=2024))
dists = [
    jv.DiscreteDistribution(rng.uniform(-1, 1, 3), (0.2, 0.3, 0.5))
    for _ in range(6)
]
space = jv.build_space(dists)
stat = jv.Statistic.table(rng.uniform(-1, 1, space.n_outcomes))

cache = jv.CondExpCache(jv.tabulate(stat, space))
report = jv.exact_report(cache)

print(f"n = {report.n}, Var S = {report.var_exact:.6f}")
print("total moments    :", np.round(report.ej, 6))
print("projected moments:", np.round(report.ek, 6))

print("\ndepth   lower_J     lower_JK    Var         upper_JK    upper_J")
for b in report.brackets:
    print(f"p={b.p}   {b.lower_j:10.6f} {b.lower_jk:11.6f} "
          f"{report.var_exact:11.6f} {b.upper_jk:11.6f} {b.upper_j:10.6f}")

# The projected corrections always tighten both sides; whether consecutive
# brackets nest is not guaranteed and not asserted.

print("\ndepth-zero chains:")
p0 = report.p0_chain
print(f"  0 <= {p0.ek1:.6f} <= {p0.var:.6f} <= {p0.ej1:.6f}")
print(f"  0 <= {p0.half_ek2:.6f} <= {p0.bias:.6f} <= {p0.half_ej2:.6f}")

print("\nexact-series residuals:", report.identity_residuals)

if report.corollary:
    c = report.corollary
    print(f"\nlowest active degree d={c.degree}: "
          f"{c.lower:.6f} <= Var <= {c.upper:.6f}")
