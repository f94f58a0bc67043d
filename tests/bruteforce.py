"""Independent brute-force oracle for the exact engine.

Everything here is deliberately primitive: plain Python floats, dict-based
tables, nested loops over explicitly enumerated outcomes.  No numpy, no code
shared with the library.  Used by the test suite as the reference for every
exact quantity and for the Philox words under the Monte Carlo streams, and
runnable as a script to print the fixture values.

The one exception is `alternating_eval`, the reference for the Monte Carlo
engine's alternating differences: it must match them bit for bit on index
blocks, so it takes numpy blocks and evaluates S through the library's
`Statistic.on_indices`, but sums each subset's 2^k terms on its own.
"""

import itertools
import math

import numpy as np


def outcome_indices(shape):
    """All joint index tuples, coordinate 1 varying fastest."""
    total = 1
    for m in shape:
        total *= m
    out = []
    for flat in range(total):
        r = flat
        t = []
        for m in shape:
            t.append(r % m)
            r //= m
        out.append(tuple(t))
    return out


class BruteSpace:
    def __init__(self, supports, probs):
        self.supports = [list(map(float, s)) for s in supports]
        self.probs = [[float(x) for x in p] for p in probs]
        for p in self.probs:
            z = sum(p)
            for i in range(len(p)):
                p[i] /= z
        self.n = len(supports)
        self.shape = tuple(len(s) for s in self.supports)
        self.indices = outcome_indices(self.shape)

    def weight(self, idx):
        w = 1.0
        for axis, i in enumerate(idx):
            w *= self.probs[axis][i]
        return w

    def values(self, idx):
        return tuple(self.supports[axis][i] for axis, i in enumerate(idx))


def tabulate(space, fn):
    return {idx: float(fn(space.values(idx))) for idx in space.indices}


def statistic_at(space, kind, params, idx):
    """The catalog statistic at one joint index tuple, from its definition."""
    x = space.values(idx)
    if kind == "table":  # params holds one value per outcome, coordinate 1 fastest
        flat, stride = 0, 1
        for i, m in zip(idx, space.shape):
            flat += i * stride
            stride *= m
        return params[flat]
    if kind == "sum":
        return sum(w * v for w, v in zip(params, x))
    if kind == "max":
        return max(x)
    if kind == "ustat2":
        g = dict(params)
        return sum(g[x[i]] * g[x[j]] for i in range(len(x)) for j in range(i + 1, len(x)))
    return sum(c * math.prod(v**e for v, e in zip(x, exps)) for c, exps in params)  # poly


def mean(space, table):
    return sum(space.weight(idx) * table[idx] for idx in space.indices)


def variance(space, table):
    m = mean(space, table)
    return sum(space.weight(idx) * (table[idx] - m) ** 2 for idx in space.indices)


def cond_mean(space, table, coords):
    """Average the table over the 1-based coordinates in `coords`."""
    coords = sorted(set(coords))
    axes = [c - 1 for c in coords]
    out = {}
    for idx in space.indices:
        acc = 0.0
        for repl in itertools.product(*[range(space.shape[a]) for a in axes]):
            w = 1.0
            j = list(idx)
            for a, r in zip(axes, repl):
                j[a] = r
                w *= space.probs[a][r]
            acc += w * table[tuple(j)]
        out[idx] = acc
    return out


def iterated_variance(space, table, order):
    """Var along the 1-based index sequence `order`, straight from the recursion."""
    if len(order) == 0:
        raise ValueError("empty index sequence")
    if len(order) == 1:
        m = cond_mean(space, table, order)
        sq = {idx: (table[idx] - m[idx]) ** 2 for idx in space.indices}
        return cond_mean(space, sq, order)
    head, rest = order[0], list(order[1:])
    a = cond_mean(space, iterated_variance(space, table, rest), [head])
    b = iterated_variance(space, cond_mean(space, table, [head]), rest)
    return {idx: a[idx] - b[idx] for idx in space.indices}


def hoeffding_components(space, table):
    """Residualization route: peel degrees off one subset at a time."""
    n = space.n
    total = mean(space, table)
    comps = {}
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(1, n + 1), size):
            resid = dict(table)
            for idx in space.indices:
                resid[idx] -= total
            for sub, h in comps.items():
                if set(sub) <= set(subset):
                    for idx in space.indices:
                        resid[idx] -= h[idx]
            drop = [c for c in range(1, n + 1) if c not in subset]
            comps[subset] = cond_mean(space, resid, drop) if drop else resid
    return total, comps


def degree_spectrum(space, table):
    _, comps = hoeffding_components(space, table)
    spectrum = [0.0] * space.n
    for subset, h in comps.items():
        spectrum[len(subset) - 1] += mean(space, {i: h[i] ** 2 for i in space.indices})
    return spectrum


def expected_j(space, table, k):
    acc = 0.0
    for subset in itertools.combinations(range(1, space.n + 1), k):
        acc += mean(space, iterated_variance(space, table, list(subset)))
    return math.factorial(k) * acc


def expected_k(space, table, k):
    acc = 0.0
    for subset in itertools.combinations(range(1, space.n + 1), k):
        comp = [c for c in range(1, space.n + 1) if c not in subset]
        g = cond_mean(space, table, comp) if comp else dict(table)
        acc += mean(space, iterated_variance(space, g, list(subset)))
    return math.factorial(k) * acc


def expected_r(space, table, k):
    acc = 0.0
    for subset in itertools.combinations(range(1, space.n + 1), k):
        prefix = list(range(1, subset[0]))
        g = cond_mean(space, table, prefix) if prefix else dict(table)
        acc += mean(space, iterated_variance(space, g, list(subset)))
    return acc


def difference_moment(space, fn, subset):
    """E[(iterated difference)^2] over base coords plus one fresh copy per index."""
    subset = sorted(subset)
    ext_supports = space.supports + [space.supports[c - 1] for c in subset]
    ext_probs = space.probs + [space.probs[c - 1] for c in subset]
    ext = BruteSpace(ext_supports, ext_probs)
    n = space.n
    acc = 0.0
    for idx in ext.indices:
        vals = ext.values(idx)
        d = 0.0
        for r in range(len(subset) + 1):
            for repl in itertools.combinations(range(len(subset)), r):
                w = list(vals[:n])
                for pos in repl:
                    w[subset[pos] - 1] = vals[n + pos]
                d += (-1) ** r * fn(tuple(w))
        acc += ext.weight(idx) * d * d
    return acc


def unrank_combination(rank, n, k):
    """The k-combination of {0..n-1} with lexicographic rank `rank`, one slot at a time."""
    out = []
    c = 0
    for remaining in range(k, 0, -1):
        while math.comb(n - c - 1, remaining - 1) <= rank:
            rank -= math.comb(n - c - 1, remaining - 1)
            c += 1
        out.append(c)
        c += 1
    return tuple(out)


def philox4x64_10(counter, key):
    """Philox4x64-10 (Salmon et al., SC'11) of four counter words under two key words."""
    mask = (1 << 64) - 1
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for _ in range(10):
        p0, p1 = 0xD2E7470EE14C6C93 * c0, 0xCA5A826395121157 * c2
        c0, c1, c2, c3 = (p1 >> 64) ^ c1 ^ k0, p1 & mask, (p0 >> 64) ^ c3 ^ k1, p0 & mask
        k0, k1 = (k0 + 0x9E3779B97F4A7C15) & mask, (k1 + 0xBB67AE8584CAA73B) & mask
    return c0, c1, c2, c3


def alternating_eval(space, statistic, base_idx, repl_idx, positions):
    """sum_{J subset of row's position set} (-1)^|J| S(base with J columns replaced).

    positions: (N, k) 0-based coordinate columns, possibly different per row.
    2^k evaluations of S per row; J runs through the local bitmasks `bits`.
    """
    count, k = positions.shape
    rows = np.arange(count)[:, None]
    total = np.zeros(count)
    for bits in range(1 << k):
        chosen = positions[:, [t for t in range(k) if bits >> t & 1]]
        mix = base_idx.copy()
        if chosen.shape[1]:
            mix[rows, chosen] = repl_idx[rows, chosen]
        sign = -1.0 if bin(bits).count("1") % 2 else 1.0
        total += sign * statistic.on_indices(space, mix)
    return total


def classical_jackknife(values):
    m = len(values)
    bar = sum(values) / m
    return sum((v - bar) ** 2 for v in values)


def classical_pairwise(values):
    m = len(values)
    acc = 0.0
    for i in range(m):
        for j in range(i + 1, m):
            acc += (values[i] - values[j]) ** 2
    return acc / m


RADEMACHER = ([-1.0, 1.0], [0.5, 0.5])


def fixture(name):
    if name == "RAD2-PROD":
        space = BruteSpace([RADEMACHER[0]] * 2, [RADEMACHER[1]] * 2)
        return space, lambda x: x[0] * x[1]
    if name == "RAD2-SUM":
        space = BruteSpace([RADEMACHER[0]] * 2, [RADEMACHER[1]] * 2)
        return space, lambda x: x[0] + x[1]
    if name == "RAD3-U2":
        space = BruteSpace([RADEMACHER[0]] * 3, [RADEMACHER[1]] * 3)
        return space, lambda x: x[0] * x[1] + x[0] * x[2] + x[1] * x[2]
    raise KeyError(name)


def fixture_summary(name):
    space, fn = fixture(name)
    table = tabulate(space, fn)
    n = space.n
    return {
        "var": variance(space, table),
        "ej": [expected_j(space, table, k) for k in range(1, n + 1)],
        "ek": [expected_k(space, table, k) for k in range(1, n + 1)],
        "er": [expected_r(space, table, k) for k in range(1, n + 1)],
        "spectrum": degree_spectrum(space, table),
    }


if __name__ == "__main__":
    for name in ("RAD2-PROD", "RAD2-SUM", "RAD3-U2"):
        s = fixture_summary(name)
        print(name)
        for key, val in s.items():
            print(f"  {key}: {val}")
