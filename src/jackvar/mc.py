"""Monte Carlo estimators for spaces too large to enumerate.

Randomness discipline
---------------------
All draws come from Philox4x64-10 (Salmon et al., SC'11, "Parallel random
numbers: as easy as 1, 2, 3"), through numpy's C generator.  Logical
purpose `tag` under seed `s` has one flat stream, ``np.random.Philox`` with
the 128-bit key ``s | (tag << 64)``: its word j is word j mod 4 of the
cipher of the 256-bit counter j // 4 + 1.  A sample row of `width`
uniforms owns B = ceil(width / 4) of the stream's 4-word blocks: row r
reads words r*4B .. (r+1)*4B - 1 and keeps the first `width`.  The seed
and the tag must each fit in one 64-bit word and the rows in 0..2^64-1;
anything else raises `ModelError`, never wraps.  `stream_rng(seed, tag,
index)` gives the stream positioned at block `index` (any 256-bit counter
value).
Consequences:

  * streams for outer draws, copies, subset choices, and inner completions
    are independent by construction (distinct tags, distinct keys);
  * every per-sample contribution depends only on (seed, tag, i), so
    splitting a run into blocks [0,a), [a,b), ... and concatenating the
    per-sample contribution arrays reproduces the single-block arrays
    bit-for-bit for any partition;
  * merging is one pairwise ``np.sum`` over the concatenated contribution
    array (mean = sum / N), hence identical for any block partition of the
    same total.

One block driver
----------------
An estimator is a stream tag, a count of uniforms per sample row, its
draws and a function from a block of rows to one contribution per row.
A draw is a list of coordinates: the row's next columns, each turned into
a support index by its coordinate's CDF.  `_contributions` pays the
per-estimate setup once, before the first block: `_Setup` binds S to the
space (`Statistic._bind`, which refuses a misfit) and `_cdf_runs` groups
each draw's columns into runs that share a CDF.  It then draws the rows
BLOCK_ROWS = 1024 at a time with `_uniform_block`, inverts each draw of
the block with its runs (`_invert`), maps the block and concatenates;
`_estimate_from` reduces once.  Within a block the layers are: uniforms,
inverse CDF, statistic evaluation and the per-row contribution.  S is
evaluated in one of two ways, both from the one binding.
`_Setup.evaluate` (`Statistic._on_rows`, which checks the index rows)
evaluates whole rows: the variance's draws, the bias's fresh draw, and
every replaced set of `max` and `poly`.  `_replaced`, the one place two
index blocks mix, evaluates a replaced set J of `table`, `sum` and
`ustat2` from the binding's term tables: it sums each feature over the
base row once, as `Statistic._at` does, and adds the change at each
position of J, so a set costs O(|J|) numpy calls in place of O(n).

Memory is bounded per block.  A row of `width` uniforms is drawn as 4B <=
width + 3 float64 values and inverted into at most as many int64 indices,
so each of those two arrays takes at most 8 * 1024 * (width + 3) bytes
(640 KiB for the 80 columns of a variance at n = 40); the uniforms are
freed once inverted, before S is evaluated.  Add the statistic values of
the block, for `table`, `sum` and `ustat2` one block column of changes
per position and feature (two features for `ustat2`), at most 64 running
differences of one block column per completion in an enumerated moment,
and 8 bytes per sample.  BLOCK_ROWS is a constant, not an option, because
no partition changes a result; that holds because every step is row-local
(no BLAS product or row reduction, whose rounding depends on the block
shape).  A smaller block costs only the per-block numpy calls, since the
binding and the runs are not rebuilt; an estimate of R rows makes
ceil(R / 1024) blocks and one binding.

The block generator
-------------------
`_uniform_block` draws rows a .. a + count - 1 as one call into numpy's C
Philox: ``stream_rng(seed, tag, a * B).random(count * 4 * B)``, reshaped
to (count, 4B) and sliced to `width` columns.  Each row is a fixed range
of its stream, so no split of a block into smaller ones moves a bit.  The
uniform of word w is (w >> 11) * 2^-53, as ``Generator.random`` computes
it; numpy's stream policy (NEP 19) fixes the raw words, and a test pins
that conversion against ``random_raw``, so a numpy change fails a test
instead of moving estimates.  The generator's memory is the block's
(count, 4B) float64 array.  Sampled k-subsets are unranked for all rows
at once by `_unrank_combinations`.

Estimator constructions
-----------------------
Both order-k moments sum a term over the C(n,k) coordinate subsets.  A row
enumerates them while C(n,k) <= ENUMERATE_SUBSET_LIMIT = 64 and otherwise
samples one, weighted by C(n,k); `_enumerates` is that rule, and nothing
else picks the plan.  Enumerating removes the subset-choice variance at
C(n,k) terms per row, which 64 caps: n = 10 enumerates orders 1 and 2
(10 and 45 subsets) and samples order 3.

The moments and the bias are built from one object, S with a coordinate
set J taken from independent copies; `_replaced` is its one evaluator.
`_differences` forms the alternating differences D_I = sum_{J in I}
(-1)^|J| S(x with J replaced) of every plan (each k-subset of the n
positions, one sampled k-subset per row, a difference moment's set): it
evaluates S once per J of at most k positions, in increasing bitmask
order, and adds it into each D_I containing J, in the order of I's own
bits.  So an enumerated row costs sum_{j<=k} C(n, j) evaluations per
completion (56 in place of 180 for order 2 at n = 10) and one subset 2^k.

Order-k total moment: draw the coordinates and one independent copy per
coordinate; the term is k! * D^2 / 2^k, D the alternating replace-on-subset
difference.

Order-k projected moment: the degenerate component h of a subset I is
(-1)^k times the same alternating sum run the other way around (keep the
drawn coordinates on J, fill the rest from a fresh completion).  The sums
D and D' over a row's two independent completions are conditionally
independent given the kept coordinates, so the term k! * D * D' is unbiased
for k! * h^2 (the signs cancel).  A nested mean-then-square would be
biased; the pair-product form is exact in expectation, which is the point
of this library.  Point estimates can come out negative on finite samples;
they are reported unclamped and flagged.

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
from .model import ModelError, NonFiniteError, ProductSpace, Statistic, _accumulate, as_index_set, as_integer

_MASK64 = (1 << 64) - 1
_INT64_MAX = (1 << 63) - 1

TAG_OUTCOME = 1
TAG_VAR = 2
TAG_BIAS = 3
TAG_TOTAL_BASE = 1 << 16  # + k
TAG_PROJECTED_BASE = 2 << 16  # + k
TAG_DIFF_BASE = 3 << 16  # + subset bitmask

ENUMERATE_SUBSET_LIMIT = 64
BLOCK_ROWS = 1024
_COUNT_SUPPORT = 64  # largest support inverted by counting thresholds; faster, never different


@dataclass(frozen=True)
class McConfig:
    """A 64-bit seed and a sample count: Python or numpy integers, never truncated.

    The estimators fix everything else (subset plan, one completion pair).
    """

    seed: int
    outer_samples: int

    def __post_init__(self):
        _word64("seed", self.seed)
        if as_integer("outer_samples", self.outer_samples) < 2:
            raise ModelError("outer_samples must be >= 2")


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
    value = as_integer(what, value)
    if not 0 <= value <= _MASK64:
        raise ModelError(f"{what} {value} is outside the 64-bit key word 0..2^64-1")
    return value


def stream_rng(seed: int, tag: int, index: int) -> np.random.Generator:
    """The stream of (seed, tag) positioned at 4-word block `index`; see module docstring."""
    key = _word64("seed", seed) | (_word64("stream tag", tag) << 64)
    index = as_integer("block index", index)
    if not 0 <= index < 1 << 256:
        raise ModelError(f"block index {index} is outside the 256-bit counter 0..2^256-1")
    return np.random.Generator(np.random.Philox(key=key, counter=index))


def _uniform_block(seed: int, tag: int, start: int, count: int, width: int) -> np.ndarray:
    """(count, width) uniforms; row r is row start + r of the flat (seed, tag) stream."""
    start, count = as_integer("start", start), as_integer("count", count)
    if not 0 <= start <= start + count <= 1 << 64:
        raise ModelError(
            f"sample rows {start}..{start + count - 1} are outside the row range 0..2^64-1"
        )
    blocks = -(-width // 4)
    rng = stream_rng(seed, tag, start * blocks)
    return rng.random(count * 4 * blocks).reshape(count, 4 * blocks)[:, :width]


def _cdfs(space: ProductSpace) -> list[np.ndarray]:
    return [np.cumsum(space.axis_probs(c)) for c in range(1, space.n + 1)]


def _indices_from_uniform(cdfs, u: np.ndarray, coords=None) -> np.ndarray:
    """Inverse CDF per column; column j maps to coords[j] (1-based), default 1..n.

    The index of u under a CDF of m entries is min(searchsorted(cdf, u,
    "right"), m - 1).  A CDF never decreases, so that is the count of the
    m - 1 thresholds cdf[:-1] at or below u, however u meets them.  Each
    run of adjacent columns with one CDF (the whole block on an iid space)
    is inverted at once, in place in the index array: a support of at most
    _COUNT_SUPPORT points by adding up one comparison per threshold (a
    boolean mask of the run at a time), a larger one by a binary search.
    """
    if coords is None:
        coords = range(1, u.shape[-1] + 1)
    return _invert(_cdf_runs(cdfs, coords), u)


def _cdf_runs(cdfs, coords) -> list[tuple[int, int, np.ndarray]]:
    """(start, stop, thresholds) of each run of adjacent columns with one CDF.

    Column j is read by the CDF of coordinate coords[j] (1-based); a run's
    thresholds are its CDF without the last entry.  An estimate builds its
    runs once (`_contributions`) and inverts every block with them.
    """
    runs, stop = [], 0
    for _, run in itertools.groupby((cdfs[c - 1] for c in coords), key=np.ndarray.tobytes):
        thresholds = next(run)[:-1]
        start, stop = stop, stop + 1 + sum(1 for _ in run)
        runs.append((start, stop, thresholds))
    return runs


def _invert(runs, u: np.ndarray) -> np.ndarray:
    """Support indices of u, whose columns are the runs of `_cdf_runs`; see `_indices_from_uniform`."""
    idx = np.empty(u.shape, dtype=np.int64)
    for start, stop, thresholds in runs:
        out, block = idx[..., start:stop], u[..., start:stop]
        if thresholds.size < _COUNT_SUPPORT:
            out.fill(0)
            for t in thresholds:
                out += block >= t
        else:
            out[...] = np.searchsorted(thresholds, block, side="right")
    return idx


def sample_outcomes(space: ProductSpace, count: int, seed: int, start: int = 0) -> np.ndarray:
    """(count, n) outcome values; row i depends only on (seed, start + i)."""
    u = _uniform_block(seed, TAG_OUTCOME, start, count, space.n)
    idx = _indices_from_uniform(_cdfs(space), u)
    vals = np.empty_like(u)
    for c in range(space.n):
        vals[:, c] = space.axis_values(c + 1)[idx[:, c]]
    return vals


class _Setup:
    """What an estimate fixes before its first block: S bound to the space.

    Building one runs `Statistic._bind`, which raises if S does not fit;
    nothing else in the engine binds.  For a kind whose binding has a
    finish it also concatenates each feature's tables and records each
    coordinate's offset into them, which `_replaced` gathers from.
    """

    def __init__(self, space: ProductSpace, statistic: Statistic):
        self.space, self.statistic = space, statistic
        self.binding = statistic._bind(space)
        self.features, self.finish = self.binding
        if self.finish is not None:
            self.offsets = np.concatenate(([0], np.cumsum(space.shape[:-1], dtype=np.int64)))
            self.flat = [np.concatenate(tables) for tables in self.features]

    def evaluate(self, idx: np.ndarray) -> np.ndarray:
        """S at whole index rows: `Statistic._on_rows` on the one binding, rows still checked."""
        return self.statistic._on_rows(self.space, self.binding, idx)


def _contributions(space, statistic, cfg, tag, width, draws, contribute, start=0, count=None) -> np.ndarray:
    """Rows [start, start + count) of contribute(setup, idx, rest), count defaulting to all.

    A block of (rows, width) uniforms holds the draws in its first
    columns, one after another: draws[d] lists the coordinate (1-based)
    whose CDF reads each column of draw d, and idx[d] is its (rows,
    len(draws[d])) array of support indices.  rest is a copy of the
    columns after the draws, so the block's uniforms are freed before S is
    evaluated.  The `_Setup` and each draw's inverse-CDF runs are built
    once, before the first block.
    """
    setup = _Setup(space, statistic)
    cdfs = _cdfs(space)
    ends = list(itertools.accumulate(map(len, draws), initial=0))
    plan = [(lo, hi, _cdf_runs(cdfs, coords)) for lo, hi, coords in zip(ends, ends[1:], draws)]
    stop = start + (cfg.outer_samples if count is None else count)

    def block(lo):
        u = _uniform_block(cfg.seed, tag, lo, min(BLOCK_ROWS, stop - lo), width)
        idx = [_invert(runs, u[:, a:b]) for a, b, runs in plan]
        rest = u[:, ends[-1] :].copy()
        del u
        return contribute(setup, idx, rest)

    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite contribution is refused just below
        out = np.concatenate([block(lo) for lo in range(start, stop, BLOCK_ROWS)])
    if not np.isfinite(out).all():
        raise NonFiniteError("the statistic overflows on sampled outcomes: non-finite contributions")
    return out


def _replaced(setup: _Setup, base, repl, positions, masks):
    """(J, S(base with the positions in J taken from repl)) for each bitmask J of masks.

    Bit t of J stands for positions[..., t]: one (width,) column list shared
    by every row, or one (rows, width) list per row.  This is the only
    place an estimator mixes two index blocks.  An additive kind (one
    whose binding has a finish) sums each feature over the base row once,
    as `Statistic._at` does, and adds the change of J's positions to it in
    ascending bit order, so a set costs O(|J|); `max` and `poly` evaluate a
    mixed copy of the block.
    """
    positions = np.asarray(positions)
    rows = np.arange(base.shape[0]) if positions.ndim == 2 else slice(None)  # row r reads its own columns
    columns = list(positions.T)  # position t's column: one for every row, or one per row
    if setup.finish is not None:
        sums = [_accumulate(tables, base.T) for tables in setup.features]
        deltas = []  # deltas[t][f]: the change of feature f at position t, one block column each
        for col in columns:
            at = setup.offsets[col]  # the column's first entry in each feature's flat tables
            at_base, at_repl = at + base[rows, col], at + repl[rows, col]
            deltas.append([flat[at_repl] - flat[at_base] for flat in setup.flat])
    for mask in masks:
        bits = [t for t in range(len(columns)) if mask >> t & 1]
        if setup.finish is None:
            mix = base.copy()
            for t in bits:
                mix[rows, columns[t]] = repl[rows, columns[t]]
            yield mask, setup.evaluate(mix)
            continue
        mixed = sums
        for t in bits:
            mixed = [total + delta for total, delta in zip(mixed, deltas[t])]
        yield mask, setup.finish(*mixed)


def _masks(width: int, k: int):
    """Bitmasks below 2^width with at most k bits set, increasing, lazily.

    A mask with too many bits skips past every mask sharing its bits above
    its lowest set bit, all of which have as many.
    """
    mask = 0
    while mask < 1 << width:
        if mask.bit_count() <= k:
            yield mask
            mask += 1
        else:
            mask += mask & -mask


def _differences(setup: _Setup, base, repl, positions, k, subsets) -> list[np.ndarray]:
    """D_I = sum_{J subset of I} (-1)^|J| S(base with J taken from repl) for each I of subsets.

    subsets are k-bit masks over `positions` (as in `_replaced`).  Each J of
    at most k bits is evaluated once, in increasing order, and added into
    every D_I containing it (only itself if it has k bits), so each D_I
    gets its 2^k terms in the order of its own bits.
    """
    diffs = [np.zeros(base.shape[0]) for _ in subsets]
    where = {mask: w for w, mask in enumerate(subsets)}
    width = np.shape(positions)[-1]
    for J, value in _replaced(setup, base, repl, positions, _masks(width, k)):
        term = -value if J.bit_count() % 2 else value
        targets = [where[J]] if J in where else [w for w, mask in enumerate(subsets) if mask & J == J]
        for w in targets:
            diffs[w] += term
    return diffs


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


def _enumerates(n: int, k: int) -> bool:
    """The subset plan of an order-k moment: enumerate all C(n,k) subsets (True) or sample one."""
    return math.comb(n, k) <= ENUMERATE_SUBSET_LIMIT


def _over_subsets(setup: _Setup, k: int, rank_u: np.ndarray, completions, weight: float) -> np.ndarray:
    """Unbiased per-row estimate of weight * sum over all k-subsets I of D_I D'_I.

    completions holds one (base, repl) pair of index blocks, whose
    alternating difference D_I is squared, or two, whose D_I are
    multiplied.  Where `_enumerates(n, k)`, all subsets are enumerated and
    the products summed in itertools.combinations order; otherwise a row
    takes the subset of lexicographic rank floor(rank_u * C(n,k)), weighted
    by C(n,k).
    """
    n = setup.space.n
    n_subsets = math.comb(n, k)
    if _enumerates(n, k):
        subsets = [sum(1 << c for c in s) for s in itertools.combinations(range(n), k)]
        diffs = [_differences(setup, base, repl, np.arange(n), k, subsets) for base, repl in completions]
        total = np.zeros(rank_u.shape[0])
        for d in zip(*diffs):
            total += d[0] * d[-1]
        return weight * total
    ranks = np.minimum((rank_u * n_subsets).astype(np.int64), n_subsets - 1)
    positions = _unrank_combinations(ranks, n, k)
    d = [_differences(setup, base, repl, positions, k, [(1 << k) - 1])[0] for base, repl in completions]
    return (weight * n_subsets) * (d[0] * d[-1])


def _check_k(space: ProductSpace, k: int) -> tuple[int, float]:
    """(k, k!) for an order in 1..n; raises past the float range of k! or the int64 subset ranks."""
    k = as_integer("order k", k)
    if not 1 <= k <= space.n:
        raise ModelError(f"order k={k} out of range 1..{space.n}")
    kf = factorial(k)
    n_subsets = math.comb(space.n, k)
    if n_subsets > _INT64_MAX:
        raise ModelError(f"C({space.n},{k}) = {n_subsets} subsets exceed the 64-bit rank range 0..2^63-1")
    return k, kf


def evaluations_per_row(space: ProductSpace, family: str, k: int = 0) -> int:
    """Evaluations of S per sample row of one estimator: replaced sets and whole rows.

    A replaced set is a whole-row evaluation (`_Setup.evaluate`) for `max`
    and `poly`, and a sum of changes from `Statistic._bind`'s tables
    (`_replaced`) otherwise.

    family is "ej" or "ek" for the total or projected moment of order k,
    "diff" for the difference moment of a k-coordinate set, "var" or
    "bias".  A moment evaluates S once per replaced set of at most k of its
    `width` positions (`_differences`): all n where `_enumerates`, the k
    sampled or given ones otherwise; a projected moment does so for each
    of its two completions.  An order the moment estimators refuse raises
    here as it does there.
    """
    n = space.n
    if family == "var":
        return 2
    if family == "bias":
        return n + 2
    if family == "diff":
        completions, width = 1, k
    else:
        completions = {"ej": 1, "ek": 2}[family]
        k, _ = _check_k(space, k)
        width = n if _enumerates(n, k) else k
    return completions * sum(math.comb(width, j) for j in range(k + 1))


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
    k, kf = _check_k(space, k)
    n = space.n

    def contribute(setup, idx, rest):
        x, y = idx  # the coordinates and their copies
        return _over_subsets(setup, k, rest[:, 0], [(x, y)], kf / 2.0**k)  # rest[:, 0]: the subset rank

    coords = range(1, n + 1)
    return _estimate_from(
        _contributions(space, statistic, cfg, TAG_TOTAL_BASE + k, 2 * n + 1, [coords] * 2, contribute)
    )


def estimate_projected_jackknife(
    space: ProductSpace, statistic: Statistic, k: int, cfg: McConfig
) -> McEstimate:
    """Unbiased estimate of the order-k projected jackknife moment.

    May be negative on finite samples even though the target is >= 0; such
    estimates are returned unclamped with flagged_negative set.
    """
    k, kf = _check_k(space, k)
    n = space.n

    def contribute(setup, idx, rest):
        x, first, second = idx  # the coordinates and two completions
        return _over_subsets(setup, k, rest[:, 0], [(first, x), (second, x)], kf)

    coords = range(1, n + 1)
    contribs = _contributions(space, statistic, cfg, TAG_PROJECTED_BASE + k, 3 * n + 1, [coords] * 3, contribute)
    return _estimate_from(contribs, flag_negative=True)


def estimate_variance(space: ProductSpace, statistic: Statistic, cfg: McConfig) -> McEstimate:
    """Unbiased variance estimate from independent-draw half squared differences."""
    n = space.n

    def contribute(setup, idx, rest):
        # both draws x, x2 as one draw of 2n columns, evaluated at once as index rows 2r and 2r + 1
        values = setup.evaluate(idx[0].reshape(-1, n))
        d = values[0::2] - values[1::2]
        return 0.5 * d * d

    draw = [*range(1, n + 1)] * 2
    return _estimate_from(_contributions(space, statistic, cfg, TAG_VAR, 2 * n, [draw], contribute))


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

    def contribute(setup, idx, rest):
        x, copies = idx
        repl = np.zeros_like(x)  # the fresh copies; `_replaced` reads only their columns
        repl[:, cols] = copies
        (d,) = _differences(setup, x, repl, cols, len(cols), [(1 << len(cols)) - 1])
        return d * d

    draws = [range(1, n + 1), iset.indices]
    return _estimate_from(
        _contributions(space, statistic, cfg, tag, n + len(cols), draws, contribute)
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

    def contribute(setup, idx, rest):
        x, copy, x2 = idx  # the coordinates, one copy shared by all of them, a fresh draw
        masks = [1 << i for i in range(n)] + [0]  # the n leave-one-in values, then the base value
        replaced = _replaced(setup, x, np.broadcast_to(copy, x.shape), np.arange(n), masks)
        resampled = np.column_stack([value for _, value in replaced])
        base_vals = resampled[:, n]
        centered = resampled - resampled.mean(axis=1, keepdims=True)
        leave_one_spread = (centered * centered).sum(axis=1)
        half_sq = 0.5 * (base_vals - setup.evaluate(x2)) ** 2
        return leave_one_spread - half_sq

    coords = range(1, n + 1)
    draws = [coords, [1], coords]
    return _estimate_from(_contributions(space, statistic, cfg, TAG_BIAS, 2 * n + 1, draws, contribute))
