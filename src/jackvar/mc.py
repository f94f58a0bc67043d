"""Monte Carlo estimators for spaces too large to enumerate.

Randomness discipline
---------------------
All draws come from Philox4x64-10 counter-based generators (Salmon et al.,
SC'11, "Parallel random numbers: as easy as 1, 2, 3").  The stream for
logical purpose `tag` under seed `s` uses the 128-bit key
``s | (tag << 64)``; sample index i uses that key with the 256-bit counter
preset to ``i << 128``.  The seed, the tag and the index must each fit in
one 64-bit word; anything else raises `ModelError`, never wraps.
`stream_rng` gives that stream as numpy's ``np.random.Philox`` Generator.
Consequences:

  * streams for outer draws, copies, subset choices, and inner completions
    are independent by construction (distinct tags / counter blocks);
  * every per-sample contribution depends only on (seed, tag, i), so
    splitting a run into blocks [0,a), [a,b), ... and concatenating the
    per-sample contribution arrays reproduces the single-block arrays
    bit-for-bit for any partition;
  * merging is one pairwise ``np.sum`` over the concatenated contribution
    array (mean = sum / N), hence identical for any block partition of the
    same total.

One block driver
----------------
An estimator is a stream tag, a count of uniforms per sample row, and a
function from a block of uniform rows to one contribution per row.
`_contributions` draws the rows BLOCK_ROWS at a time with `_uniform_block`,
maps each block and concatenates; `_estimate_from` reduces once.  Memory
is bounded by one block of uniforms, indices and statistic values, plus
8 bytes per sample.  BLOCK_ROWS is a constant, not an option, because no
partition changes a result; that holds because every step is row-local
(`Statistic.on_indices` uses no BLAS product, whose rounding depends on
the block shape).

The block generator
-------------------
`_uniform_block` computes Philox4x64-10 in numpy for a whole block of rows
at once, bit-identical to the rows of `stream_rng`, which stays as the
reference the tests compare against: row i, 4-word group b of the row is
the cipher of the counter (b+1, 0, i, 0) under the key (seed, tag), 10
rounds with the 64x64 -> 128-bit products split into 32-bit halves, and
each word w becomes the uniform (w >> 11) * 2^-53, as ``Generator.random``
does.  Building one numpy Generator per row cost more than all the
statistic evaluations of a pass.  The rounds run on _TILE_ROWS rows at a
time, because the round temporaries scale with the rows in flight: an
8192 x 81 block peaks at about 26 MB of numpy allocations untiled and 8 MB
in tiles of 1024 rows, no slower.  Like BLOCK_ROWS, the tile size cannot
change a result.  Sampled k-subsets are unranked for all rows at once by
`_unrank_combinations`.

Estimator constructions
-----------------------
Order-k total moment: draw the coordinates and one independent copy per
coordinate, pick a sorted k-subset, form the alternating replace-on-subset
difference D, and contribute weight * D^2 / 2^k.  With enumerated subsets
the weight is k!; with a uniformly sampled subset it is k! * C(n,k).

Order-k projected moment: the degenerate component h of a subset I is
estimated by the same alternating sum run the other way around (keep the
drawn coordinates on J, fill the rest from a fresh completion); two such
sums with independent completions are conditionally independent given the
kept coordinates, so their product is unbiased for h^2.  Products are
averaged over `inner_pairs` completion pairs.  A nested mean-then-square
would be biased; the pair-product form is exact in expectation, which is
the point of this library.  Point estimates can come out negative on finite
samples; they are reported unclamped and flagged.

Brackets combine per-order estimates with the coefficients of
`bounds.bracket_terms`, the same ones the exact engine uses.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bounds import bracket_terms
from .jackknife import factorial
from .model import ModelError, NonFiniteError, ProductSpace, Statistic, as_index_set

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_INT64_MAX = (1 << 63) - 1

# Philox4x64-10 constants (Salmon et al., SC'11): round multipliers and key bumps
_PHILOX_M0, _PHILOX_M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_PHILOX_W0, _PHILOX_W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10

TAG_OUTCOME = 1
TAG_VAR = 2
TAG_BIAS = 3
TAG_TOTAL_BASE = 1 << 16  # + k
TAG_PROJECTED_BASE = 2 << 16  # + k
TAG_DIFF_BASE = 3 << 16  # + subset bitmask

ENUMERATE_SUBSET_LIMIT = 64
BLOCK_ROWS = 8192
_TILE_ROWS = 1024  # rows of Philox words in flight; bounds the generator's scratch


@dataclass(frozen=True)
class McConfig:
    """Estimation settings; seed is a 64-bit integer."""

    seed: int
    outer_samples: int
    inner_pairs: int = 1
    ks: tuple[int, ...] | None = None
    subset_mode: str = "auto"

    def __post_init__(self):
        _word64("seed", self.seed)
        if self.outer_samples < 2:
            raise ModelError("outer_samples must be >= 2")
        if self.inner_pairs < 1:
            raise ModelError("inner_pairs must be >= 1")
        if self.subset_mode not in ("auto", "enumerate", "sample"):
            raise ModelError(f"unknown subset_mode {self.subset_mode!r}")
        if self.ks is not None:
            object.__setattr__(self, "ks", tuple(int(k) for k in self.ks))


@dataclass(frozen=True)
class McEstimate:
    mean: float
    std_error: float
    samples: int
    flagged_negative: bool = False


@dataclass(frozen=True)
class BracketEstimate:
    """Point estimates with propagated standard errors for one bracket."""

    p: int
    lower_j: McEstimate
    lower_jk: McEstimate
    upper_jk: McEstimate
    upper_j: McEstimate


def _word64(what: str, value: int) -> int:
    """A seed or stream tag as one 64-bit key word; out of range raises, never wraps."""
    value = int(value)
    if not 0 <= value <= _MASK64:
        raise ModelError(f"{what} {value} is outside the 64-bit key word 0..2^64-1")
    return value


def stream_rng(seed: int, tag: int, index: int) -> np.random.Generator:
    """Generator for one (purpose, sample index) pair; see module docstring."""
    key = _word64("seed", seed) | (_word64("stream tag", tag) << 64)
    return np.random.Generator(np.random.Philox(key=key, counter=int(index) << 128))


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low 64-bit words of the 128-bit product m * x, through 32-bit halves."""
    m_hi, m_lo = np.uint64(m >> 32), np.uint64(m & _MASK32)
    x_hi, x_lo = x >> 32, x & _MASK32
    hi_lo = x_hi * m_lo
    cross = ((x_lo * m_lo) >> 32) + (hi_lo & _MASK32) + x_lo * m_hi  # < 2^64
    return x_hi * m_hi + (hi_lo >> 32) + (cross >> 32), x * np.uint64(m)


def _philox_round(ctr, key):
    """One Philox4x64 round on four broadcasting counter words."""
    hi0, lo0 = _mulhilo(_PHILOX_M0, ctr[0])
    hi1, lo1 = _mulhilo(_PHILOX_M1, ctr[2])
    return hi1 ^ ctr[1] ^ key[0], lo1, hi0 ^ ctr[3] ^ key[1], lo0


def _uniform_block(seed: int, tag: int, start: int, count: int, width: int) -> np.ndarray:
    """(count, width) uniforms; row r is stream_rng(seed, tag, start + r).random(width)."""
    k0, k1 = _word64("seed", seed), _word64("stream tag", tag)
    if not 0 <= start <= start + count <= 1 << 64:
        raise ModelError(
            f"sample rows {start}..{start + count - 1} are outside the 64-bit counter word 0..2^64-1"
        )
    keys = []
    for _ in range(_PHILOX_ROUNDS):
        keys.append((np.uint64(k0), np.uint64(k1)))
        k0, k1 = (k0 + _PHILOX_W0) & _MASK64, (k1 + _PHILOX_W1) & _MASK64
    blocks = -(-width // 4)
    first = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]  # counter word 0 = block + 1
    words = np.empty((min(count, _TILE_ROWS), blocks, 4), dtype=np.uint64)
    out = np.empty((count, width))
    for lo in range(0, count, _TILE_ROWS):
        rows = min(_TILE_ROWS, count - lo)
        index = np.uint64(start + lo) + np.arange(rows, dtype=np.uint64)[:, None]
        ctr = (first, np.uint64(0), index, np.uint64(0))  # counter word 2 = row index
        for key in keys:
            ctr = _philox_round(ctr, key)
        tile = words[:rows]
        for j in range(4):
            tile[..., j] = ctr[j]
        out[lo : lo + rows] = (tile.reshape(rows, 4 * blocks)[:, :width] >> 11) * 2.0**-53
    return out


def _cdfs(space: ProductSpace) -> list[np.ndarray]:
    return [np.cumsum(space.axis_probs(c)) for c in range(1, space.n + 1)]


def _indices_from_uniform(cdfs, u: np.ndarray, coords=None) -> np.ndarray:
    """Inverse-CDF per column; column j maps to coords[j] (1-based), default 1..n."""
    if coords is None:
        coords = range(1, u.shape[-1] + 1)
    idx = np.empty(u.shape, dtype=np.int64)
    for j, c in enumerate(coords):
        cdf = cdfs[c - 1]
        idx[..., j] = np.minimum(
            np.searchsorted(cdf, u[..., j], side="right"), cdf.size - 1
        )
    return idx


def sample_outcomes(space: ProductSpace, count: int, seed: int, start: int = 0) -> np.ndarray:
    """(count, n) outcome values; row i depends only on (seed, start + i)."""
    u = _uniform_block(seed, TAG_OUTCOME, start, count, space.n)
    idx = _indices_from_uniform(_cdfs(space), u)
    vals = np.empty_like(u)
    for c in range(space.n):
        vals[:, c] = space.axis_values(c + 1)[idx[:, c]]
    return vals


def _contributions(space, statistic, cfg, tag, width, contribute, start=0, count=None) -> np.ndarray:
    """Rows [start, start + count) of contribute(cdfs, u), count defaulting to all."""
    statistic.validate(space)
    cdfs = _cdfs(space)
    stop = start + (cfg.outer_samples if count is None else count)
    out = np.concatenate([
        contribute(cdfs, _uniform_block(cfg.seed, tag, lo, min(BLOCK_ROWS, stop - lo), width))
        for lo in range(start, stop, BLOCK_ROWS)
    ])
    if not np.isfinite(out).all():
        raise NonFiniteError("the statistic overflows on sampled outcomes: non-finite contributions")
    return out


def _alternating_eval(space, statistic, base_idx, repl_idx, positions) -> np.ndarray:
    """sum_{J subset of row's position set} (-1)^|J| S(base with J columns replaced).

    positions: (N, k) 0-based coordinate columns, possibly different per row.
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


def _unrank_combinations(ranks: np.ndarray, n: int, k: int) -> np.ndarray:
    """(rows, k) sorted k-subsets of {0..n-1}: row r has lexicographic rank ranks[r].

    Slot by slot: before[j] counts the ways to fill this slot and the ones
    after it with this slot's entry below slot + j, so a row whose entry
    may start at c, with remaining rank r, takes the last entry e with
    before[e - slot] <= before[c - slot] + r.  Every count is at most
    C(n, k), so int64 holds them when it holds the ranks.
    """
    rank = np.array(ranks, dtype=np.int64)
    out = np.empty((rank.size, k), dtype=np.int64)
    c = np.zeros(rank.size, dtype=np.int64)
    for slot in range(k):
        counts = [math.comb(n - 1 - e, k - 1 - slot) for e in range(slot, n)]
        before = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        target = before[c - slot] + rank
        c = slot + np.searchsorted(before, target, side="right") - 1
        rank = target - before[c - slot]
        out[:, slot] = c
        c = c + 1
    return out


def _over_subsets(cfg: McConfig, n: int, k: int, rank_u: np.ndarray, term, weight: float) -> np.ndarray:
    """Unbiased per-row estimate of weight * sum of term(positions) over all k-subsets.

    Either every sorted k-subset is enumerated, or each row takes the one
    subset of lexicographic rank floor(rank_u * C(n,k)) with weight scaled
    by C(n,k).  positions is a (rows, k) array of 0-based columns.
    """
    count = rank_u.shape[0]
    if cfg.subset_mode == "enumerate" or (
        cfg.subset_mode == "auto" and math.comb(n, k) <= ENUMERATE_SUBSET_LIMIT
    ):
        total = np.zeros(count)
        for subset in itertools.combinations(range(n), k):
            total += term(np.broadcast_to(np.asarray(subset), (count, k)))
        return weight * total
    n_subsets = math.comb(n, k)
    if n_subsets > _INT64_MAX:
        raise ModelError(f"C({n},{k}) = {n_subsets} subsets exceed the 64-bit rank range 0..2^63-1")
    ranks = np.minimum((rank_u * n_subsets).astype(np.int64), n_subsets - 1)
    return (weight * n_subsets) * term(_unrank_combinations(ranks, n, k))


def _check_k(space: ProductSpace, k: int) -> float:
    """k! for an order in 1..n; an order out of range or past the float range of k! raises."""
    if not 1 <= k <= space.n:
        raise ModelError(f"order k={k} out of range 1..{space.n}")
    return factorial(k)


def _estimate_from(contribs: np.ndarray, flag_negative: bool = False) -> McEstimate:
    count = contribs.size
    mean = float(np.sum(contribs) / count)
    var = float(np.sum((contribs - mean) ** 2) / (count - 1)) if count > 1 else 0.0
    se = math.sqrt(max(var, 0.0) / count)
    return McEstimate(
        mean=mean,
        std_error=se,
        samples=count,
        flagged_negative=bool(flag_negative and mean < 0.0),
    )


def estimate_iterated_jackknife(
    space: ProductSpace, statistic: Statistic, k: int, cfg: McConfig
) -> McEstimate:
    """Unbiased estimate of the order-k total jackknife moment."""
    kf = _check_k(space, k)
    n = space.n

    def contribute(cdfs, u):
        x = _indices_from_uniform(cdfs, u[:, :n])
        y = _indices_from_uniform(cdfs, u[:, n : 2 * n])

        def squared_difference(pos):
            d = _alternating_eval(space, statistic, x, y, pos)
            return d * d

        weight = kf / 2.0**k
        return _over_subsets(cfg, n, k, u[:, 2 * n], squared_difference, weight)

    return _estimate_from(
        _contributions(space, statistic, cfg, TAG_TOTAL_BASE + k, 2 * n + 1, contribute)
    )


def estimate_projected_jackknife(
    space: ProductSpace, statistic: Statistic, k: int, cfg: McConfig
) -> McEstimate:
    """Unbiased estimate of the order-k projected jackknife moment.

    May be negative on finite samples even though the target is >= 0; such
    estimates are returned unclamped with flagged_negative set.
    """
    kf = _check_k(space, k)
    n = space.n
    m = cfg.inner_pairs
    sign = (-1.0) ** k  # h = (-1)^k * alternating sum with completion as base

    def contribute(cdfs, u):
        count = u.shape[0]
        x = _indices_from_uniform(cdfs, u[:, :n])
        completions = _indices_from_uniform(cdfs, u[:, n : n + 2 * m * n].reshape(count, 2 * m, n))

        def pair_products(pos):
            acc = np.zeros(count)
            for pair in range(m):
                h1 = sign * _alternating_eval(space, statistic, completions[:, 2 * pair], x, pos)
                h2 = sign * _alternating_eval(space, statistic, completions[:, 2 * pair + 1], x, pos)
                acc += h1 * h2
            return acc / m

        return _over_subsets(cfg, n, k, u[:, -1], pair_products, kf)

    contribs = _contributions(
        space, statistic, cfg, TAG_PROJECTED_BASE + k, n + 2 * m * n + 1, contribute
    )
    return _estimate_from(contribs, flag_negative=True)


def estimate_variance(space: ProductSpace, statistic: Statistic, cfg: McConfig) -> McEstimate:
    """Unbiased variance estimate from independent-draw half squared differences."""
    n = space.n

    def contribute(cdfs, u):
        x = _indices_from_uniform(cdfs, u[:, :n])
        x2 = _indices_from_uniform(cdfs, u[:, n:])
        d = statistic.on_indices(space, x) - statistic.on_indices(space, x2)
        return 0.5 * d * d

    return _estimate_from(_contributions(space, statistic, cfg, TAG_VAR, 2 * n, contribute))


def estimate_difference_moment(
    space: ProductSpace, statistic: Statistic, indices, cfg: McConfig
) -> McEstimate:
    """Sampled second moment of the iterated replace-on-subset difference."""
    iset = as_index_set(indices).check_range(space.n)
    if len(iset) == 0:
        raise ModelError("difference moment needs a nonempty index set")
    tag = TAG_DIFF_BASE + iset.mask
    if tag > _MASK64:
        raise ModelError(
            f"index set {list(iset.indices)} has no stream: its tag TAG_DIFF_BASE + bitmask = {tag} "
            "exceeds the 64-bit limit 2^64-1 (any coordinate above 64 overflows it)"
        )
    n = space.n
    cols = [i - 1 for i in iset.indices]

    def contribute(cdfs, u):
        x = _indices_from_uniform(cdfs, u[:, :n])
        repl = x.copy()
        repl[:, cols] = _indices_from_uniform(cdfs, u[:, n:], coords=iset.indices)
        pos = np.broadcast_to(np.asarray(cols), (u.shape[0], len(cols)))
        d = _alternating_eval(space, statistic, x, repl, pos)
        return d * d

    return _estimate_from(
        _contributions(space, statistic, cfg, tag, n + len(cols), contribute)
    )


def assemble_bracket(n: int, p: int, moment) -> BracketEstimate:
    """Bracket scalars from per-order estimates; moment(family, k) gives each part.

    The parts come from independent streams, so the variance of a signed
    combination is the coefficient-weighted sum of the part variances.
    """

    def combine(terms) -> McEstimate:
        parts = [(coef, moment(family, k)) for family, k, coef in terms]
        mean = sum(coef * est.mean for coef, est in parts)
        var = sum((coef * est.std_error) ** 2 for coef, est in parts)
        return McEstimate(mean=float(mean), std_error=math.sqrt(var), samples=parts[0][1].samples)

    return BracketEstimate(p=p, **{side: combine(t) for side, t in bracket_terms(n, p).items()})


def moment_estimates(space: ProductSpace, statistic: Statistic, cfg: McConfig):
    """moment(family, k) for family "ej" or "ek", estimating each pair once."""
    estimators = {"ej": estimate_iterated_jackknife, "ek": estimate_projected_jackknife}
    return functools.cache(lambda family, k: estimators[family](space, statistic, k, cfg))


def estimate_bracket(
    space: ProductSpace, statistic: Statistic, p: int, cfg: McConfig
) -> BracketEstimate:
    """Bracket scalars assembled from independent per-order estimation runs."""
    return assemble_bracket(space.n, p, moment_estimates(space, statistic, cfg))


def efron_stein_bias(space: ProductSpace, statistic: Statistic, cfg: McConfig) -> McEstimate:
    """Estimated upward bias of the classical resampled variance estimate.

    Draws the n coordinates plus a single shared replacement, forms the
    n+1 leave-one-in resampled values, and subtracts an independent
    half-squared-difference variance estimate.  The target is >= 0 for a
    symmetric statistic of iid coordinates; symmetry is the caller's
    responsibility, iid-ness is checked here because the construction is
    only stated for identical laws.
    """
    if not space.iid():
        raise ModelError("bias construction requires identically distributed coordinates")
    n = space.n

    def contribute(cdfs, u):
        x = _indices_from_uniform(cdfs, u[:, :n])
        copy = _indices_from_uniform(cdfs, u[:, n : n + 1], coords=[1])
        x2 = _indices_from_uniform(cdfs, u[:, n + 1 :])
        base_vals = statistic.on_indices(space, x)
        resampled = np.empty((u.shape[0], n + 1))
        for i in range(n):
            mix = x.copy()
            mix[:, i] = copy[:, 0]
            resampled[:, i] = statistic.on_indices(space, mix)
        resampled[:, n] = base_vals
        centered = resampled - resampled.mean(axis=1, keepdims=True)
        leave_one_spread = (centered * centered).sum(axis=1)
        half_sq = 0.5 * (base_vals - statistic.on_indices(space, x2)) ** 2
        return leave_one_spread - half_sq

    return _estimate_from(_contributions(space, statistic, cfg, TAG_BIAS, 2 * n + 1, contribute))
