"""Command-line front end.

Subcommands:
  run <config.json> [--engine exact|mc|both] [--seed N] [--out PATH]
  selfcheck [--instances N] [--seed N]

`run` reads one strict JSON config, drives the exact and/or Monte Carlo
engine, and writes a JSON report (and optionally a CSV bracket table).
Each flag is checked as the config field it overrides: `--engine` as
`engine`, `--seed` as `mc.seed` (on a run that includes mc), `--out` as
`output.path`.  Exit codes: 0 success, 1 config, engine or write error
(an output file that cannot be written, or standard output closed by its
reader), 2 identity-suite failure.

Config schema (all fields except `distributions` and `statistic` optional):

{
  "distributions": [{"support": [..], "probs": [..]}, ...],
  "statistic": {"kind": "table|sum|max|ustat2|poly", "params": {...}},
  "engine": "exact" | "mc" | "both",            # default "exact"
  "mc": {"seed": 0, "outer_samples": 10000, "ks": [1, 2] | null | "all"},
  "bounds": {"p_values": [1, 2] | null | "all"},
  "output": {"format": "json" | "csv" | "both", "path": "report"}
}

statistic params per kind:
  table  {"values": [one per joint outcome, coordinate 1 fastest]}
  sum    {"weights": [w_1..w_n]}
  max    {}
  ustat2 {"g": [[support_value, g_value], ...]}
  poly   {"terms": [[coef, [e_1..e_n]], ...]}

A field outside this schema is refused (exit 1), never ignored.  Values
are decoded by the constructors they feed, and a refusal follows the
field's place ("distributions[0]: support: ...").  JSON has one number
type, so the integer fields (`mc.seed`, `mc.outer_samples`, `mc.ks`,
`bounds.p_values`, poly exponents) take 2.0 as 2 and refuse 1.7.  `mc.ks`
and `bounds.p_values` name every order (ks 1..n, p_values 1..n//2) when
absent, null or "all", and otherwise list distinct orders.  An MC run
whose samples times statistic evaluations per row, summed over the
variance and every moment its orders and brackets need, exceed
MC_EVALUATION_LIMIT is refused (exit 1) before either engine starts.

JSON reals are emitted with Python's shortest round-trip repr, so parsing
the report back yields bit-identical floats.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
import time
from dataclasses import dataclass

from . import __version__
from .bounds import BoundsReport, bracket_terms, exact_report
from .conditional import CondExpCache
from .mc import McConfig, assemble_bracket, estimate_variance, evaluations_per_row, moment_estimates
from .model import STATISTIC_PARAMS, DiscreteDistribution, ModelError, NonFiniteError, ProductSpace, \
    Statistic, build_space, tabulate
from .selfcheck import run_battery

ENGINES = ("exact", "mc", "both")
FORMATS = ("json", "csv", "both")

CSV_COLUMNS = ("p", "lower_J", "lower_JK", "var", "upper_JK", "upper_J")

# statistic evaluations one MC run may request: about a minute at the 2e7
# per CPU second of full evaluations (4-point n = 10 `max`, 2-core host),
# about 10 s at the 9e7 of replaced sets added by deltas (binary n = 12
# `sum`); the default orders of binary n = 30 would ask for 8e13
MC_EVALUATION_LIMIT = 10**9

# the documented schema: every field each config object may hold
ROOT_FIELDS = ("distributions", "statistic", "engine", "mc", "bounds", "output")
MC_FIELDS = ("seed", "outer_samples", "ks")  # and model.STATISTIC_PARAMS, each kind's params fields


class ConfigError(ValueError):
    """Config parsing/validation failure; message names the offending field."""


@dataclass(frozen=True)
class InstanceConfig:
    space: ProductSpace
    statistic: Statistic
    engine: str
    mc: McConfig | None
    ks: tuple[int, ...]  # MC orders to report
    p_values: tuple[int, ...]  # bracket depths to report
    out_format: str
    out_path: str


def _known(d: dict, keys: tuple, where: str) -> None:
    """Refuse any field outside the documented schema rather than ignore it."""
    unknown = [key for key in d if key not in keys]
    if unknown:
        raise ConfigError(f"{where}: unknown field {unknown[0]!r}; expected one of {keys}")


def _need(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return d[key]


def _integer(x, where: str) -> int:
    """An int, or a float with an integral value; anything else is refused, never rounded."""
    if isinstance(x, float) and x.is_integer():  # False for NaN and Infinity
        return int(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise ConfigError(f"{where}: expected an integer, got {x!r}")


def _orders(x, top: int, where: str, name: str) -> tuple[int, ...]:
    """Every order 1..top when `x` is null or "all", else an array of distinct integers in 1..top."""
    if x is None or x == "all":
        return tuple(range(1, top + 1))
    if not isinstance(x, list):
        raise ConfigError(f'{where}: expected null, "all" or an array of integers')
    orders = tuple(_integer(v, where) for v in x)
    seen = set()
    for v in orders:
        if not 1 <= v <= top:
            raise ConfigError(f"{where}: {name.format(v)} out of range 1..{top}")
        if v in seen:
            raise ConfigError(f"{where}: {name.format(v)} is repeated")
        seen.add(v)
    return orders


def _parse_statistic(d, where: str, space: ProductSpace) -> Statistic:
    """The statistic built by its constructor and checked against `space`."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object")
    _known(d, ("kind", "params"), where)
    kind = _need(d, "kind", where)
    params = d.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{where}.params: expected an object")
    if not isinstance(kind, str) or kind not in STATISTIC_PARAMS:  # a list or an object is no kind either
        raise ConfigError(f"{where}.kind: unknown statistic kind {kind!r}")
    fields = STATISTIC_PARAMS[kind]
    _known(params, fields, f"{where}.params")
    values = [_need(params, field, f"{where}.params") for field in fields]
    if kind == "poly" and isinstance(values[0], list):  # JSON has one number type: exponent 2.0 is the integer 2
        values[0] = [
            [term[0], [_integer(e, f"{where}.params.terms[{t}]") for e in term[1]]]
            if isinstance(term, list) and len(term) == 2 and isinstance(term[1], list) else term
            for t, term in enumerate(values[0])
        ]
    try:
        statistic = Statistic(kind, *values)
        statistic.validate(space)
    except ModelError as e:
        raise ConfigError(f"{where}: {e}") from e
    return statistic


def parse_config(raw: dict) -> InstanceConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root: expected a JSON object")
    _known(raw, ROOT_FIELDS, "config root")
    dists_raw = _need(raw, "distributions", "config root")
    if not isinstance(dists_raw, list) or not dists_raw:
        raise ConfigError("distributions: expected a non-empty array")
    dists = []
    for i, d in enumerate(dists_raw):
        where = f"distributions[{i}]"
        if not isinstance(d, dict):
            raise ConfigError(f"{where}: expected an object")
        _known(d, ("support", "probs"), where)
        support, probs = _need(d, "support", where), _need(d, "probs", where)
        try:
            dists.append(DiscreteDistribution(support, probs))
        except ModelError as e:
            raise ConfigError(f"{where}: {e}") from e
    space = build_space(dists)  # cannot refuse: dists is a non-empty list of distributions

    statistic = _parse_statistic(_need(raw, "statistic", "config root"), "statistic", space)

    engine = raw.get("engine", "exact")
    if engine not in ENGINES:
        raise ConfigError(f"engine: expected one of {ENGINES}, got {engine!r}")

    mc_cfg = None
    mc_raw = {}
    if engine in ("mc", "both"):
        mc_raw = raw.get("mc")
        if not isinstance(mc_raw, dict):
            raise ConfigError("mc: section required when engine includes mc")
        _known(mc_raw, MC_FIELDS, "mc")
        try:
            mc_cfg = McConfig(
                seed=_integer(mc_raw.get("seed", 0), "mc.seed"),
                outer_samples=_integer(mc_raw.get("outer_samples", 10000), "mc.outer_samples"),
            )
        except ModelError as e:
            raise ConfigError(f"mc: {e}") from e
    elif "mc" in raw:
        raise ConfigError("mc: section present but engine does not include mc")
    ks = _orders(mc_raw.get("ks"), space.n, "mc.ks", "order {}")

    bounds_raw = raw.get("bounds", {})
    if not isinstance(bounds_raw, dict):
        raise ConfigError("bounds: expected an object")
    _known(bounds_raw, ("p_values",), "bounds")
    p_values = _orders(bounds_raw.get("p_values"), space.n // 2, "bounds.p_values", "p={}")

    out_raw = raw.get("output", {})
    if not isinstance(out_raw, dict):
        raise ConfigError("output: expected an object")
    _known(out_raw, ("format", "path"), "output")
    out_format = out_raw.get("format", "json")
    if out_format not in FORMATS:
        raise ConfigError(f"output.format: expected one of {FORMATS}, got {out_format!r}")
    out_path = out_raw.get("path", "report")
    if not isinstance(out_path, str) or not out_path:
        raise ConfigError("output.path: expected a non-empty string")

    return InstanceConfig(
        space=space,
        statistic=statistic,
        engine=engine,
        mc=mc_cfg,
        ks=ks,
        p_values=p_values,
        out_format=out_format,
        out_path=out_path,
    )


def _check_mc_cost(cfg: InstanceConfig) -> None:
    """Refuse a run whose samples times evaluations per row exceed MC_EVALUATION_LIMIT.

    Counts each (family, k) moment once, as `moment_estimates` estimates it,
    plus the variance; an order the estimators refuse raises here first.
    """
    space = cfg.space
    moments = {(family, k) for family in ("ej", "ek") for k in cfg.ks}
    for p in cfg.p_values:
        for terms in bracket_terms(space.n, p).values():
            moments.update((family, k) for family, k, _ in terms)
    per_row = evaluations_per_row(space, "var")
    per_row += sum(evaluations_per_row(space, family, k) for family, k in sorted(moments))
    evaluations = cfg.mc.outer_samples * per_row
    if evaluations > MC_EVALUATION_LIMIT:
        raise ModelError(
            f"{evaluations} statistic evaluations ({cfg.mc.outer_samples} samples x {per_row} per row) "
            f"exceed the limit of {MC_EVALUATION_LIMIT} per run; request fewer mc.ks, "
            "bounds.p_values or mc.outer_samples"
        )


def _mc_section(cfg: InstanceConfig) -> dict:
    space, stat, mc_cfg = cfg.space, cfg.statistic, cfg.mc

    def as_dict(est):
        d = {"mean": est.mean, "std_error": est.std_error, "samples": est.samples}
        if est.flagged_negative:
            d["flagged_negative"] = True
        return d

    moment = moment_estimates(space, stat, mc_cfg)  # each (family, k) estimated once
    section = {
        "seed": mc_cfg.seed,
        "outer_samples": mc_cfg.outer_samples,
        "var": as_dict(estimate_variance(space, stat, mc_cfg)),
        "ej": {str(k): as_dict(moment("ej", k)) for k in cfg.ks},
        "ek": {str(k): as_dict(moment("ek", k)) for k in cfg.ks},
    }
    brackets = []
    for p in cfg.p_values:
        b = assemble_bracket(space.n, p, moment)
        brackets.append(
            {
                "p": b.p,
                "lower_j": as_dict(b.lower_j),
                "lower_jk": as_dict(b.lower_jk),
                "upper_jk": as_dict(b.upper_jk),
                "upper_j": as_dict(b.upper_j),
            }
        )
    section["brackets"] = brackets
    return section


def _write_csv(path: str, report: BoundsReport | None, mc_section: dict | None):
    """One row per p: (p, lower_J, lower_JK, var, upper_JK, upper_J)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        if report is not None:
            for b in report.brackets:
                writer.writerow(
                    [b.p, b.lower_j, b.lower_jk, report.var_exact, b.upper_jk, b.upper_j]
                )
        elif mc_section is not None:
            for b in mc_section["brackets"]:
                writer.writerow(
                    [
                        b["p"],
                        b["lower_j"]["mean"],
                        b["lower_jk"]["mean"],
                        mc_section["var"]["mean"],
                        b["upper_jk"]["mean"],
                        b["upper_j"]["mean"],
                    ]
                )


def _override(raw: dict, section: str, field: str, value) -> None:
    """Write a flag into the config field it overrides; parse_config checks it there."""
    fields = raw.setdefault(section, {})  # a flag may synthesize a default section
    if isinstance(fields, dict):  # parse_config refuses any other section
        fields[field] = value


def _write_json(path: str, doc) -> None:
    """`doc` as indented JSON and a newline, in one write.

    The bytes are `json.dump(doc, fh, indent=2)`'s; `json.dump` would hand
    the file one token at a time."""
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2) + "\n")


def cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except OSError as e:
        print(f"error: cannot read {args.config}: {e}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as e:
        print(f"error: {args.config}:{e.lineno}:{e.colno}: {e.msg}", file=sys.stderr)
        return 1
    if isinstance(raw, dict):  # parse_config refuses any other root
        if args.engine:
            raw["engine"] = args.engine
            if args.engine == "exact":
                raw.pop("mc", None)  # the override makes the section unused
            else:
                raw.setdefault("mc", {})
        if args.seed is not None and raw.get("engine", "exact") in ("mc", "both"):
            _override(raw, "mc", "seed", args.seed)
        if args.out is not None:
            _override(raw, "output", "path", args.out)
    try:
        cfg = parse_config(raw)
    except ConfigError as e:
        print(f"error: {args.config}: {e}", file=sys.stderr)
        return 1

    t0 = time.perf_counter()
    report = None
    mc_section = None
    try:
        if cfg.mc is not None:  # before either engine starts
            where = "mc engine"
            _check_mc_cost(cfg)
        if cfg.engine in ("exact", "both"):
            where = "exact engine"
            cache = CondExpCache(tabulate(cfg.statistic, cfg.space))
            report = exact_report(cache, p_values=cfg.p_values)
        if cfg.engine in ("mc", "both"):
            where = "mc engine"
            mc_section = _mc_section(cfg)
    except ModelError as e:  # a size, order or sampler limit of the engine, or S overflows
        where = "statistic" if isinstance(e, NonFiniteError) else where
        print(f"error: {args.config}: {where}: {e}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - t0

    doc = {
        "version": __version__,
        "engine": cfg.engine,
        "seed": cfg.mc.seed if cfg.mc else None,
        "wall_time_s": wall,
        "n": cfg.space.n,
        "outcomes": cfg.space.n_outcomes,
    }
    if report is not None:
        doc["exact"] = report.to_dict()
    if mc_section is not None:
        doc["mc"] = mc_section

    wrote = []
    try:
        if cfg.out_format in ("json", "both"):
            path = cfg.out_path + ".json"
            _write_json(path, doc)
            wrote.append(path)
        if cfg.out_format in ("csv", "both"):
            path = cfg.out_path + ".csv"
            _write_csv(path, report, mc_section)
            wrote.append(path)
    except OSError as e:
        print(f"error: cannot write {path}: {e}", file=sys.stderr)
        return 1

    if report is not None:
        print(f"var_exact = {report.var_exact!r}")
    if mc_section is not None:
        v = mc_section["var"]
        print(f"var_mc = {v['mean']!r} +- {v['std_error']!r}")
    for path in wrote:
        print(f"wrote {path}")
    return 0


def cmd_selfcheck(args) -> int:
    if args.instances < 1:  # a battery of no instances would pass vacuously
        print(f"error: --instances: expected at least 1, got {args.instances}", file=sys.stderr)
        return 1
    if not 0 <= args.seed < 1 << 64:
        print(f"error: --seed: expected 0..2^64-1, got {args.seed}", file=sys.stderr)
        return 1
    result = run_battery(args.instances, args.seed)
    print(f"selfcheck: {result.instances} instances, seed {result.seed}, "
          f"{result.elapsed_s:.1f}s")
    for line in result.summary_lines():
        print(line)
    if result.passed:
        print("selfcheck: PASS")
        return 0
    first = result.failures[0]
    print(f"selfcheck: FAIL on instance {first['index']}: {first['bad']}", file=sys.stderr)
    path = f"selfcheck_failure_{first['index']}.json"
    try:
        _write_json(path, first["config"])
    except OSError as e:
        print(f"error: cannot write {path}: {e}", file=sys.stderr)
        return 1
    print(f"replay config written to {path}", file=sys.stderr)
    return 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `jackvar` argument parser, built once per process.

    Parsing leaves it unchanged: each `parse_args` call fills a fresh
    namespace, so no flag of one `main` call reaches the next."""
    parser = argparse.ArgumentParser(
        prog="jackvar",
        description="Exact and Monte Carlo variance decomposition via iterated jackknives",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the engines on a JSON instance config")
    p_run.add_argument("config", help="path to the instance config (JSON)")
    p_run.add_argument("--engine", choices=ENGINES, help="override engine")
    p_run.add_argument("--seed", type=int, help="override mc.seed on a run that includes mc")
    p_run.add_argument("--out", help="override output.path, the output path base")
    p_run.set_defaults(fn=cmd_run)

    p_check = sub.add_parser("selfcheck", help="run the randomized identity battery")
    p_check.add_argument("--instances", type=int, default=200)
    p_check.add_argument("--seed", type=int, default=7)
    p_check.set_defaults(fn=cmd_selfcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a buffered stdout meets a closed reader here
    except BrokenPipeError:
        # the reader of stdout has gone (`jackvar selfcheck | head -1`): point
        # stdout at devnull, so the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: standard output was closed before all output was written", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
