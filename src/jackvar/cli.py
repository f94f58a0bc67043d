"""Command-line front end.

Subcommands:
  run <config.json> [--engine exact|mc|both] [--seed N] [--out PATH]
  selfcheck [--instances N] [--seed N]

`run` reads one strict JSON config, drives the exact and/or Monte Carlo
engine, and writes a JSON report (and optionally a CSV bracket table).
Exit codes: 0 success, 1 config/schema error, 2 identity-suite failure
(selfcheck only).

Config schema (all fields except `distributions` and `statistic` optional):

{
  "distributions": [{"support": [..], "probs": [..]}, ...],
  "statistic": {"kind": "table|sum|max|ustat2|poly", "params": {...}},
  "engine": "exact" | "mc" | "both",            # default "exact"
  "mc": {"seed": 0, "outer_samples": 10000,
         "inner_pairs": 1, "ks": [1, 2], "subset_mode": "auto"},
  "bounds": {"p_values": [1, 2] | "all"},
  "output": {"format": "json" | "csv" | "both", "path": "report"}
}

statistic params per kind:
  table  {"values": [one per joint outcome, coordinate 1 fastest]}
  sum    {"weights": [w_1..w_n]}
  max    {}
  ustat2 {"g": [[support_value, g_value], ...]}
  poly   {"terms": [[coef, [e_1..e_n]], ...]}

A field outside this schema is refused (exit 1), never ignored.

JSON reals are emitted with Python's shortest round-trip repr, so parsing
the report back yields bit-identical floats.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import dataclass

from . import __version__
from .bounds import BoundsReport, exact_report
from .conditional import CondExpCache
from .mc import McConfig, assemble_bracket, estimate_variance, moment_estimates
from .model import DiscreteDistribution, ModelError, NonFiniteError, ProductSpace, \
    Statistic, build_space, tabulate
from .selfcheck import run_battery

ENGINES = ("exact", "mc", "both")
FORMATS = ("json", "csv", "both")

CSV_COLUMNS = ("p", "lower_J", "lower_JK", "var", "upper_JK", "upper_J")

# the documented schema: every field each config object may hold
ROOT_FIELDS = ("distributions", "statistic", "engine", "mc", "bounds", "output")
MC_FIELDS = ("seed", "outer_samples", "inner_pairs", "ks", "subset_mode")
STATISTIC_PARAMS = {
    "table": ("values",), "sum": ("weights",), "max": (), "ustat2": ("g",), "poly": ("terms",),
}


class ConfigError(ValueError):
    """Config parsing/validation failure; message names the offending field."""


@dataclass
class InstanceConfig:
    space: ProductSpace
    statistic: Statistic
    engine: str
    mc: McConfig | None
    p_values: list | None  # None = all valid p
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


def _reals(x, where: str) -> list[float]:
    """JSON numbers as floats; booleans, strings and ints beyond float range are refused."""
    if not isinstance(x, list) or not set(map(type, x)) <= {int, float}:  # bool is not int here
        raise ConfigError(f"{where}: expected an array of numbers")
    try:
        return [float(v) for v in x]
    except OverflowError:
        raise ConfigError(f"{where}: expected numbers within the float range") from None


def _integer(x, where: str) -> int:
    """An int, or a float with an integral value; anything else is refused, never rounded."""
    if isinstance(x, float) and x.is_integer():  # False for NaN and Infinity
        return int(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    raise ConfigError(f"{where}: expected an integer, got {x!r}")


def _parse_statistic(d, where: str) -> Statistic:
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object")
    _known(d, ("kind", "params"), where)
    kind = _need(d, "kind", where)
    params = d.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError(f"{where}.params: expected an object")
    if kind in STATISTIC_PARAMS:
        _known(params, STATISTIC_PARAMS[kind], f"{where}.params")
    try:
        if kind == "table":
            return Statistic.table(_reals(_need(params, "values", f"{where}.params"), f"{where}.params.values"))
        if kind == "sum":
            return Statistic.linear(_reals(_need(params, "weights", f"{where}.params"), f"{where}.params.weights"))
        if kind == "max":
            return Statistic.coordinate_max()
        if kind == "ustat2":
            pairs = _need(params, "g", f"{where}.params")
            if not isinstance(pairs, list) or not all(
                isinstance(p, list) and len(p) == 2 for p in pairs
            ):
                raise ConfigError(f"{where}.params.g: expected [[value, g_value], ...]")
            return Statistic.pair_interaction(
                [_reals(p, f"{where}.params.g[{i}]") for i, p in enumerate(pairs)]
            )
        if kind == "poly":
            terms = _need(params, "terms", f"{where}.params")
            if not isinstance(terms, list):
                raise ConfigError(f"{where}.params.terms: expected an array")
            parsed = []
            for t, term in enumerate(terms):
                if not isinstance(term, list) or len(term) != 2 or not isinstance(term[1], list):
                    raise ConfigError(f"{where}.params.terms[{t}]: expected [coef, [exponents]]")
                (coef,) = _reals(term[:1], f"{where}.params.terms[{t}]")
                exps = [_integer(e, f"{where}.params.terms[{t}]") for e in term[1]]
                parsed.append((coef, exps))
            return Statistic.polynomial(parsed)
    except ModelError as e:
        raise ConfigError(f"{where}: {e}") from e
    raise ConfigError(f"{where}.kind: unknown statistic kind {kind!r}")


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
        support = _reals(_need(d, "support", where), f"{where}.support")
        probs = _reals(_need(d, "probs", where), f"{where}.probs")
        try:
            dists.append(DiscreteDistribution(support, probs))
        except ModelError as e:
            raise ConfigError(f"{where}: {e}") from e
    try:
        space = build_space(dists)
    except ModelError as e:
        raise ConfigError(f"distributions: {e}") from e

    statistic = _parse_statistic(_need(raw, "statistic", "config root"), "statistic")
    try:
        statistic.validate(space)
    except ModelError as e:
        raise ConfigError(f"statistic: {e}") from e

    engine = raw.get("engine", "exact")
    if engine not in ENGINES:
        raise ConfigError(f"engine: expected one of {ENGINES}, got {engine!r}")

    mc_cfg = None
    if engine in ("mc", "both"):
        mc_raw = raw.get("mc")
        if not isinstance(mc_raw, dict):
            raise ConfigError("mc: section required when engine includes mc")
        _known(mc_raw, MC_FIELDS, "mc")
        ks = mc_raw.get("ks")
        if ks is not None:
            if not isinstance(ks, list):
                raise ConfigError("mc.ks: expected an array of integers")
            ks = [_integer(k, "mc.ks") for k in ks]
        try:
            mc_cfg = McConfig(
                seed=_integer(mc_raw.get("seed", 0), "mc.seed"),
                outer_samples=_integer(mc_raw.get("outer_samples", 10000), "mc.outer_samples"),
                inner_pairs=_integer(mc_raw.get("inner_pairs", 1), "mc.inner_pairs"),
                ks=ks,
                subset_mode=mc_raw.get("subset_mode", "auto"),
            )
        except ModelError as e:
            raise ConfigError(f"mc: {e}") from e
        if mc_cfg.ks is not None:
            for k in mc_cfg.ks:
                if not 1 <= k <= space.n:
                    raise ConfigError(f"mc.ks: order {k} out of range 1..{space.n}")
    elif "mc" in raw:
        raise ConfigError("mc: section present but engine does not include mc")

    p_values = None
    bounds_raw = raw.get("bounds", {})
    if not isinstance(bounds_raw, dict):
        raise ConfigError("bounds: expected an object")
    _known(bounds_raw, ("p_values",), "bounds")
    pv = bounds_raw.get("p_values", "all")
    if pv != "all":
        if not isinstance(pv, list):
            raise ConfigError('bounds.p_values: expected "all" or an array of integers')
        pv = [_integer(p, "bounds.p_values") for p in pv]
        for p in pv:
            if not 1 <= p <= space.n // 2:
                raise ConfigError(
                    f"bounds.p_values: p={p} out of range 1..{space.n // 2}"
                )
        p_values = pv

    out_raw = raw.get("output", {})
    if not isinstance(out_raw, dict):
        raise ConfigError("output: expected an object")
    _known(out_raw, ("format", "path"), "output")
    out_format = out_raw.get("format", "json")
    if out_format not in FORMATS:
        raise ConfigError(f"output.format: expected one of {FORMATS}, got {out_format!r}")
    out_path = out_raw.get("path", "report")

    return InstanceConfig(
        space=space,
        statistic=statistic,
        engine=engine,
        mc=mc_cfg,
        p_values=p_values,
        out_format=out_format,
        out_path=str(out_path),
    )


def _mc_section(cfg: InstanceConfig) -> dict:
    space, stat, mc_cfg = cfg.space, cfg.statistic, cfg.mc
    n = space.n
    ks = list(mc_cfg.ks) if mc_cfg.ks else list(range(1, n + 1))

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
        "ej": {str(k): as_dict(moment("ej", k)) for k in ks},
        "ek": {str(k): as_dict(moment("ek", k)) for k in ks},
    }
    p_values = cfg.p_values if cfg.p_values is not None else range(1, n // 2 + 1)
    brackets = []
    for p in p_values:
        b = assemble_bracket(n, p, moment)
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
    if args.engine and isinstance(raw, dict):
        raw["engine"] = args.engine
        if args.engine == "exact":
            raw.pop("mc", None)  # the override makes the section unused
        else:
            raw.setdefault("mc", {})  # flags may synthesize a default section
    if (
        args.seed is not None
        and isinstance(raw, dict)
        and raw.get("engine", "exact") in ("mc", "both")
    ):
        raw.setdefault("mc", {})["seed"] = args.seed
    try:
        cfg = parse_config(raw)
    except ConfigError as e:
        print(f"error: {args.config}: {e}", file=sys.stderr)
        return 1
    if args.out:
        cfg.out_path = args.out

    t0 = time.perf_counter()
    report = None
    mc_section = None
    try:
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
    if cfg.out_format in ("json", "both"):
        path = cfg.out_path + ".json"
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        wrote.append(path)
    if cfg.out_format in ("csv", "both"):
        path = cfg.out_path + ".csv"
        _write_csv(path, report, mc_section)
        wrote.append(path)

    if report is not None:
        print(f"var_exact = {report.var_exact!r}")
    if mc_section is not None:
        v = mc_section["var"]
        print(f"var_mc = {v['mean']!r} +- {v['std_error']!r}")
    for path in wrote:
        print(f"wrote {path}")
    return 0


def cmd_selfcheck(args) -> int:
    result = run_battery(args.instances, args.seed)
    print(f"selfcheck: {result.instances} instances, seed {result.seed}, "
          f"{result.elapsed_s:.1f}s")
    for line in result.summary_lines():
        print(line)
    if result.passed:
        print("selfcheck: PASS")
        return 0
    first = result.failures[0]
    path = f"selfcheck_failure_{first['index']}.json"
    with open(path, "w") as fh:
        json.dump(first["config"], fh, indent=2)
        fh.write("\n")
    print(f"selfcheck: FAIL on instance {first['index']}: {first['bad']}", file=sys.stderr)
    print(f"replay config written to {path}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jackvar",
        description="Exact and Monte Carlo variance decomposition via iterated jackknives",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the engines on a JSON instance config")
    p_run.add_argument("config", help="path to the instance config (JSON)")
    p_run.add_argument("--engine", choices=ENGINES, help="override the config engine")
    p_run.add_argument("--seed", type=int, help="override the Monte Carlo seed")
    p_run.add_argument("--out", help="override the output path base")
    p_run.set_defaults(fn=cmd_run)

    p_check = sub.add_parser("selfcheck", help="run the randomized identity battery")
    p_check.add_argument("--instances", type=int, default=200)
    p_check.add_argument("--seed", type=int, default=7)
    p_check.set_defaults(fn=cmd_selfcheck)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
