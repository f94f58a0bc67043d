import argparse
import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import pytest

import jackvar as jv
from jackvar import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


RAD2_PROD_CONFIG = {
    "distributions": [
        {"support": [-1.0, 1.0], "probs": [0.5, 0.5]},
        {"support": [-1.0, 1.0], "probs": [0.5, 0.5]},
    ],
    "statistic": {"kind": "poly", "params": {"terms": [[1.0, [1, 1]]]}},
    "engine": "exact",
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestRunExact:
    def test_fixture_report(self, tmp_path):
        doc = dict(RAD2_PROD_CONFIG)
        doc["output"] = {"format": "both", "path": str(tmp_path / "out")}
        rc = cli.main(["run", write_config(tmp_path, doc)])
        assert rc == 0
        report = json.loads((tmp_path / "out.json").read_text())
        assert report["engine"] == "exact"
        assert report["version"] == jv.__version__
        assert report["wall_time_s"] >= 0.0
        exact = report["exact"]
        assert exact["var_exact"] == 1.0
        assert exact["ej"] == [2.0, 2.0]
        assert exact["ek"] == [0.0, 2.0]
        assert exact["spectrum"] == [0.0, 1.0]

    def test_csv_columns(self, tmp_path):
        doc = dict(RAD2_PROD_CONFIG)
        doc["output"] = {"format": "csv", "path": str(tmp_path / "out")}
        assert cli.main(["run", write_config(tmp_path, doc)]) == 0
        lines = (tmp_path / "out.csv").read_text().strip().splitlines()
        assert lines[0] == "p,lower_J,lower_JK,var,upper_JK,upper_J"
        row = lines[1].split(",")
        assert row[0] == "1"
        assert [float(x) for x in row[1:]] == [1.0, 1.0, 1.0, 1.0, 2.0]

    def test_json_round_trip(self, tmp_path):
        doc = dict(RAD2_PROD_CONFIG)
        doc["output"] = {"format": "json", "path": str(tmp_path / "out")}
        assert cli.main(["run", write_config(tmp_path, doc)]) == 0
        report = json.loads((tmp_path / "out.json").read_text())
        parsed = jv.BoundsReport.from_dict(report["exact"])
        cache = jv.CondExpCache(
            jv.tabulate(jv.Statistic.polynomial([(1.0, (1, 1))]), jv.build_space(
                [jv.DiscreteDistribution.rademacher()] * 2))
        )
        assert parsed == jv.exact_report(cache)

    def test_out_override(self, tmp_path):
        rc = cli.main(
            ["run", write_config(tmp_path, RAD2_PROD_CONFIG), "--out", str(tmp_path / "alt")]
        )
        assert rc == 0
        assert (tmp_path / "alt.json").exists()


class TestProcessWideState:
    """The parser is built once per process; writing the report is one `json.dumps`."""

    def test_write_json_bytes_are_json_dump(self, tmp_path):
        doc = {"version": jv.__version__, "seed": None, "wall_time_s": 0.1 + 0.2, "n": 3,
               "exact": {"ej": [1e-300, -0.0, 2.5e300], "brackets": [], "corollary": None},
               "mc": {"ej": {"1": {"mean": 1 / 3, "flagged_negative": True}}}, "name": "\u00e9"}
        cli._write_json(str(tmp_path / "one.json"), doc)
        with open(tmp_path / "reference.json", "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        assert (tmp_path / "one.json").read_bytes() == (tmp_path / "reference.json").read_bytes()

    def test_no_flag_leaks_into_the_next_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        config = write_config(tmp_path, dict(RAD2_PROD_CONFIG, output={"path": str(out)}))

        def run(*flags):
            assert cli.main(["run", config, *flags]) == 0
            report = json.loads(out.with_suffix(".json").read_text())
            del report["wall_time_s"]
            return report, capsys.readouterr().out

        assert run("--engine", "both", "--seed", "3")[0]["seed"] == 3
        warm = run()
        cli.build_parser.cache_clear()
        assert run() == warm
        assert warm[0]["engine"] == "exact" and warm[0]["seed"] is None and "mc" not in warm[0]
        assert cli.build_parser() is cli.build_parser()


class TestFlagsAreConfigFields:
    """Each `run` flag is checked as the config field it overrides."""

    def test_empty_out_is_refused(self, tmp_path, capsys, monkeypatch):
        # it used to be ignored, and the report went to the config's output.path
        monkeypatch.chdir(tmp_path)
        doc = dict(RAD2_PROD_CONFIG, output={"path": "fromcfg"})
        assert cli.main(["run", write_config(tmp_path, doc), "--out", ""]) == 1
        err = capsys.readouterr().err
        assert "output.path: expected a non-empty string" in err and "Traceback" not in err
        assert [f.name for f in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("section", [5, None, ["x"], "x"], ids=["int", "null", "array", "string"])
    def test_out_on_a_non_object_output_section(self, tmp_path, capsys, section):
        doc = dict(RAD2_PROD_CONFIG, output=section)
        assert cli.main(["run", write_config(tmp_path, doc), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "output: expected an object" in err and "Traceback" not in err
        assert not (tmp_path / "out.json").exists()

    def test_out_flag_writes_what_output_path_writes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.time, "perf_counter", lambda: 0.0)  # wall_time_s 0.0 in both
        doc = dict(RAD2_PROD_CONFIG, engine="both", mc={"seed": 3, "outer_samples": 200})
        by_field = dict(doc, output={"format": "both", "path": str(tmp_path / "field")})
        assert cli.main(["run", write_config(tmp_path, by_field, "field.json")]) == 0
        by_flag = dict(doc, output={"format": "both", "path": str(tmp_path / "unused")})
        assert cli.main(["run", write_config(tmp_path, by_flag, "flag.json"), "--out", str(tmp_path / "flag")]) == 0
        for ext in (".json", ".csv"):
            assert (tmp_path / f"flag{ext}").read_bytes() == (tmp_path / f"field{ext}").read_bytes()
        assert not (tmp_path / "unused.json").exists()

    @pytest.mark.parametrize("engine", ["exact", "mc", "both"])
    @pytest.mark.parametrize("orders", [
        {}, {"ks": None}, {"p_values": "all"}, {"p_values": None}, {"ks": "all"},
        {"ks": None, "p_values": None}, {"ks": "all", "p_values": "all"},
    ], ids=["absent", "ks-null", "p-all", "p-null", "ks-all", "both-null", "both-all"])
    def test_default_orders_are_resolved(self, engine, orders):
        # absent, null and "all" mean every order, for both fields alike
        doc = dict(RAD2_PROD_CONFIG, engine=engine, distributions=RAD2_PROD_CONFIG["distributions"] * 3,
                   statistic={"kind": "max", "params": {}})
        if engine != "exact":
            doc["mc"] = {"ks": orders["ks"]} if "ks" in orders else {}
        if "p_values" in orders:
            doc["bounds"] = {"p_values": orders["p_values"]}
        cfg = cli.parse_config(doc)
        assert (cfg.ks, cfg.p_values) == ((1, 2, 3, 4, 5, 6), (1, 2, 3))

    @pytest.mark.parametrize("value", ["ALL", "every", 2, {}, True])
    @pytest.mark.parametrize("section, field", [("mc", "ks"), ("bounds", "p_values")])
    def test_orders_are_null_all_or_an_array(self, section, field, value):
        doc = dict(RAD2_PROD_CONFIG, engine="mc", mc={})
        doc[section] = {field: value}
        message = f'{section}.{field}: expected null, "all" or an array of integers'
        with pytest.raises(cli.ConfigError, match=f"^{re.escape(message)}$"):
            cli.parse_config(doc)


class TestUnwritableOutput:
    """An output file that cannot be written is one error line and exit 1, not a traceback."""

    @pytest.mark.parametrize("how", ["flag", "field"])
    def test_run(self, tmp_path, capsys, how):
        missing = str(tmp_path / "sub" / "dir" / "x")
        doc = dict(RAD2_PROD_CONFIG, output={"format": "csv", "path": missing if how == "field" else "unused"})
        flags = ["--out", missing] if how == "flag" else []
        assert cli.main(["run", write_config(tmp_path, doc), *flags]) == 1
        out, err = capsys.readouterr()
        assert err.startswith(f"error: cannot write {missing}.csv: ") and err.count("\n") == 1
        assert "wrote" not in out

    def test_selfcheck_replay(self, tmp_path, monkeypatch, capsys):
        import jackvar.selfcheck as sc

        real = sc.identity_residuals
        monkeypatch.setattr(sc, "identity_residuals", lambda *a: dataclasses.replace(real(*a), spectrum_total=1.0))
        monkeypatch.chdir(tmp_path)
        for index in range(3):  # a directory where the replay file would go
            (tmp_path / f"selfcheck_failure_{index}.json").mkdir()
        assert cli.main(["selfcheck", "--instances", "3", "--seed", "3"]) == 1
        err = capsys.readouterr().err
        assert "selfcheck: FAIL on instance 0" in err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and errors[0].startswith("error: cannot write selfcheck_failure_0.json: ")
        assert "Traceback" not in err


class TestRunMc:
    def test_engine_override_with_seed(self, tmp_path):
        doc = dict(RAD2_PROD_CONFIG)
        doc["output"] = {"format": "json", "path": str(tmp_path / "out")}
        rc = cli.main(
            ["run", write_config(tmp_path, doc), "--engine", "mc", "--seed", "42"]
        )
        assert rc == 0
        report = json.loads((tmp_path / "out.json").read_text())
        assert report["engine"] == "mc"
        assert report["seed"] == 42
        assert "exact" not in report
        # point estimates sit within reported 4 sigma of the exact values
        ej = report["mc"]["ej"]
        for k, exact in (("1", 2.0), ("2", 2.0)):
            est = ej[k]
            assert abs(est["mean"] - exact) <= 4 * est["std_error"]
        var = report["mc"]["var"]
        assert abs(var["mean"] - 1.0) <= 4 * var["std_error"]

    def test_engine_both(self, tmp_path):
        doc = dict(RAD2_PROD_CONFIG)
        doc["engine"] = "both"
        doc["mc"] = {"seed": 7, "outer_samples": 2000}
        doc["output"] = {"format": "both", "path": str(tmp_path / "out")}
        assert cli.main(["run", write_config(tmp_path, doc)]) == 0
        report = json.loads((tmp_path / "out.json").read_text())
        assert "exact" in report and "mc" in report
        assert report["mc"]["brackets"][0]["p"] == 1

    def test_determinism(self, tmp_path):
        doc = dict(RAD2_PROD_CONFIG)
        doc["engine"] = "mc"
        doc["mc"] = {"seed": 5, "outer_samples": 1000}
        cfg = write_config(tmp_path, doc)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert cli.main(["run", cfg, "--out", out1]) == 0
        assert cli.main(["run", cfg, "--out", out2]) == 0
        a = json.loads((tmp_path / "a.json").read_text())
        b = json.loads((tmp_path / "b.json").read_text())
        assert a["mc"] == b["mc"]

    def test_downgrade_override_drops_mc_section(self, tmp_path):
        doc = dict(RAD2_PROD_CONFIG)
        doc["engine"] = "both"
        doc["mc"] = {"seed": 5, "outer_samples": 1000}
        doc["output"] = {"format": "json", "path": str(tmp_path / "out")}
        rc = cli.main(["run", write_config(tmp_path, doc), "--engine", "exact"])
        assert rc == 0
        report = json.loads((tmp_path / "out.json").read_text())
        assert report["engine"] == "exact" and "mc" not in report


    def test_brackets_match_fresh_estimates(self, tmp_path, monkeypatch):
        # the report estimates each (family, k) once, for ks and brackets
        # together; fresh estimate_bracket runs must give the same numbers
        from jackvar import mc

        doc = {
            "distributions": [{"support": [0.0, 1.0, 3.0], "probs": [0.2, 0.5, 0.3]}] * 4,
            "statistic": {"kind": "ustat2", "params": {"g": [[0.0, 0.5], [1.0, -1.0], [3.0, 2.0]]}},
            "engine": "mc",
            "mc": {"seed": 11, "outer_samples": 300, "ks": [1, 3]},
            "output": {"format": "json", "path": str(tmp_path / "out")},
        }
        calls = []
        for name in ("estimate_iterated_jackknife", "estimate_projected_jackknife"):
            real = getattr(mc, name)
            monkeypatch.setattr(mc, name, lambda *a, _f=real, _n=name: calls.append((_n, a[2])) or _f(*a))
        assert cli.main(["run", write_config(tmp_path, doc)]) == 0
        monkeypatch.undo()
        assert len(calls) == len(set(calls)) == 8  # ej and ek at k = 1..4, once each
        report = json.loads((tmp_path / "out.json").read_text())["mc"]
        cfg = cli.parse_config(doc)
        assert [b["p"] for b in report["brackets"]] == [1, 2]
        for b in report["brackets"]:
            fresh = jv.estimate_bracket(cfg.space, cfg.statistic, b["p"], cfg.mc)
            for side in ("lower_j", "lower_jk", "upper_jk", "upper_j"):
                est = getattr(fresh, side)
                assert b[side] == {"mean": est.mean, "std_error": est.std_error, "samples": 300}
        for k in ("1", "3"):
            est = jv.estimate_projected_jackknife(cfg.space, cfg.statistic, int(k), cfg.mc)
            assert report["ek"][k]["mean"] == est.mean


class TestConfigErrors:
    def test_malformed_probs_names_distribution(self, tmp_path, capsys):
        doc = dict(RAD2_PROD_CONFIG)
        doc["distributions"] = [
            {"support": [-1.0, 1.0], "probs": [0.5, 0.5]},
            {"support": [-1.0, 1.0], "probs": [0.5, 0.4]},
        ]
        rc = cli.main(["run", write_config(tmp_path, doc)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "distributions[1]" in err

    def test_bad_json_line_anchored(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "distributions": [,]\n}\n')
        rc = cli.main(["run", str(path)])
        assert rc == 1
        assert ":2:" in capsys.readouterr().err

    def test_negative_poly_exponent(self, tmp_path, capsys):
        # refused when the statistic is built, with the message validate used to give
        doc = dict(RAD2_PROD_CONFIG)
        doc["statistic"] = {"kind": "poly", "params": {"terms": [[1.0, [1, -1]]]}}
        path = write_config(tmp_path, doc)
        assert cli.main(["run", path]) == 1
        assert capsys.readouterr().err == f"error: {path}: statistic: poly term 0 has a negative exponent\n"

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["run", str(tmp_path / "nope.json")]) == 1

    def test_unknown_engine(self, tmp_path, capsys):
        doc = dict(RAD2_PROD_CONFIG)
        doc["engine"] = "quantum"
        assert cli.main(["run", write_config(tmp_path, doc)]) == 1
        assert "engine" in capsys.readouterr().err

    def test_mc_engine_without_section(self, tmp_path, capsys):
        doc = dict(RAD2_PROD_CONFIG)
        doc["engine"] = "mc"
        assert cli.main(["run", write_config(tmp_path, doc)]) == 1
        assert "mc" in capsys.readouterr().err

    @pytest.mark.parametrize("section", [5, None, [1]], ids=["int", "null", "array"])
    @pytest.mark.parametrize("flags", [["--engine", "mc"], []], ids=["engine-flag", "engine-field"])
    def test_seed_flag_on_a_non_object_mc_section(self, tmp_path, capsys, section, flags):
        doc = dict(RAD2_PROD_CONFIG, engine="mc", mc=section)
        assert cli.main(["run", write_config(tmp_path, doc), *flags, "--seed", "3"]) == 1
        err = capsys.readouterr().err
        assert "mc: section required when engine includes mc" in err
        assert "Traceback" not in err

    def test_mc_section_without_engine(self, tmp_path, capsys):
        doc = dict(RAD2_PROD_CONFIG)
        doc["mc"] = {"seed": 1, "outer_samples": 100}
        assert cli.main(["run", write_config(tmp_path, doc)]) == 1

    def test_statistic_errors_are_config_errors(self, tmp_path, capsys):
        doc = dict(RAD2_PROD_CONFIG)
        doc["statistic"] = {"kind": "table", "params": {"values": [1.0, 2.0]}}
        assert cli.main(["run", write_config(tmp_path, doc)]) == 1
        assert "statistic" in capsys.readouterr().err

    def test_bad_p_values(self, tmp_path, capsys):
        doc = dict(RAD2_PROD_CONFIG)
        doc["bounds"] = {"p_values": [5]}
        assert cli.main(["run", write_config(tmp_path, doc)]) == 1
        assert "p_values" in capsys.readouterr().err

    def test_bad_mc_ks(self, tmp_path, capsys):
        doc = dict(RAD2_PROD_CONFIG)
        doc["engine"] = "mc"
        doc["mc"] = {"seed": 1, "outer_samples": 100, "ks": [7]}
        assert cli.main(["run", write_config(tmp_path, doc)]) == 1
        assert "ks" in capsys.readouterr().err

    @pytest.mark.parametrize("fields, message", [
        pytest.param(fields, message, id=name) for name, fields, message in [
            ("path-null", {"output": {"path": None}}, "output.path: expected a non-empty string"),
            ("path-array", {"output": {"path": ["x"]}}, "output.path: expected a non-empty string"),
            ("path-empty", {"output": {"path": ""}}, "output.path: expected a non-empty string"),
            ("p-repeated", {"bounds": {"p_values": [1, 1]}}, "bounds.p_values: p=1 is repeated"),
            ("k-repeated", {"engine": "mc", "mc": {"seed": 1, "outer_samples": 100, "ks": [2, 1, 2]}},
             "mc.ks: order 2 is repeated"),
            ("g-repeated", {"distributions": [{"support": [0.0, 1.0], "probs": [0.5, 0.5]}] * 2,
                            "statistic": {"kind": "ustat2", "params": {"g": [[0, 1], [1, 2], [1, 5]]}}},
             "statistic: params.g[2]: support value 1.0 repeats params.g[1]"),
        ]
    ])
    def test_refused_values(self, tmp_path, capsys, monkeypatch, fields, message):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", write_config(tmp_path, dict(RAD2_PROD_CONFIG, **fields))]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert [f.name for f in tmp_path.iterdir()] == ["config.json"]

    def test_exact_engine_n_cap(self, tmp_path, capsys):
        # one outcome, but 2^25 subset masses: the cap counts those too
        doc = dict(RAD2_PROD_CONFIG)
        doc["distributions"] = [{"support": [0.0], "probs": [1.0]}] * 25
        doc["statistic"] = {"kind": "max", "params": {}}
        assert cli.main(["run", write_config(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert "exact engine: the subset masses: 33554432 float64 values" in err and "(268435456 bytes)" in err
        assert "statistic:" not in err


class TestSizeRule:
    def test_mc_engine_never_builds_the_grid(self, tmp_path):
        doc = {
            "distributions": [{"support": [-1.0, 1.0], "probs": [0.5, 0.5]}] * 30,
            "statistic": {"kind": "sum", "params": {"weights": [1.0] * 30}},
            "engine": "mc",
            "mc": {"seed": 3, "outer_samples": 200, "ks": [1]},
            "bounds": {"p_values": [1]},
            "output": {"path": str(tmp_path / "out")},
        }
        assert cli.main(["run", write_config(tmp_path, doc)]) == 0
        report = json.loads((tmp_path / "out.json").read_text())
        assert report["outcomes"] == 1 << 30 and report["mc"]["brackets"][0]["p"] == 1

    def test_wide_coordinate_is_refused(self, tmp_path, capsys):
        # 5000 outcomes, but the masses' 5000 x 5000 basis matrix exceeds the default cap
        doc = dict(RAD2_PROD_CONFIG, statistic={"kind": "max", "params": {}},
                   distributions=[{"support": list(range(5000)), "probs": [0.0002] * 5000}],
                   output={"path": str(tmp_path / "out")})
        assert cli.main(["run", write_config(tmp_path, doc)]) == 1
        assert "exact engine: the subset masses: 25000000 float64 values" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    def test_more_axes_than_numpy_allows(self, tmp_path, capsys):
        doc = dict(RAD2_PROD_CONFIG)
        doc["distributions"] = [{"support": [0.0], "probs": [1.0]}] * 66
        doc["statistic"] = {"kind": "max", "params": {}}
        assert cli.main(["run", write_config(tmp_path, doc)]) == 1
        assert "exact engine: the joint grid: 66 axes" in capsys.readouterr().err


class TestNonFiniteInputs:
    """JSON accepts NaN and Infinity; every such input is a config error."""

    def run(self, tmp_path, capsys, doc):
        rc = cli.main(["run", write_config(tmp_path, doc)])
        return rc, capsys.readouterr().err

    def test_table_value(self, tmp_path, capsys):
        doc = dict(RAD2_PROD_CONFIG)
        doc["statistic"] = {"kind": "table", "params": {"values": [1.0, float("nan"), 0.0, 2.0]}}
        rc, err = self.run(tmp_path, capsys, doc)
        assert rc == 1 and "statistic: params.values[1]" in err

    def test_probability(self, tmp_path, capsys):
        doc = dict(RAD2_PROD_CONFIG)
        doc["distributions"] = [{"support": [-1.0, 1.0], "probs": [float("nan"), 1.0]}] * 2
        rc, err = self.run(tmp_path, capsys, doc)
        assert rc == 1 and "distributions[0]" in err

    def test_poly_exponent(self, tmp_path, capsys):
        doc = dict(RAD2_PROD_CONFIG)
        doc["statistic"] = {"kind": "poly", "params": {"terms": [[1.0, [1, float("inf")]]]}}
        rc, err = self.run(tmp_path, capsys, doc)
        assert rc == 1 and "statistic.params.terms[0]" in err

    def test_mc_seed(self, tmp_path, capsys):
        doc = dict(RAD2_PROD_CONFIG, engine="mc", mc={"seed": float("nan")})
        rc, err = self.run(tmp_path, capsys, doc)
        assert rc == 1 and "mc.seed" in err

    @pytest.mark.parametrize("engine", ["exact", "mc"])
    def test_statistic_overflow(self, tmp_path, capsys, engine):
        doc = dict(RAD2_PROD_CONFIG, engine=engine)
        doc["distributions"] = [{"support": [1.0, 1e200], "probs": [0.5, 0.5]}] * 2
        doc["statistic"] = {"kind": "poly", "params": {"terms": [[1.0, [2, 0]]]}}
        if engine == "mc":
            doc["mc"] = {"seed": 1, "outer_samples": 100}
        rc, err = self.run(tmp_path, capsys, doc)
        assert rc == 1 and "statistic:" in err and "finite" in err

    @pytest.mark.parametrize("engine", ["exact", "mc"])
    @pytest.mark.parametrize("statistic", [
        {"kind": "poly", "params": {"terms": [[1.0, [2, 0]]]}},
        {"kind": "sum", "params": {"weights": [1e200, 1.0]}},
    ], ids=["poly", "sum"])
    def test_statistic_overflow_is_one_stderr_line(self, tmp_path, engine, statistic):
        # numpy's RuntimeWarnings and the library lines they point at used to come first
        doc = dict(RAD2_PROD_CONFIG, engine=engine, statistic=statistic)
        doc["distributions"] = [{"support": [1.0, 1e200], "probs": [0.5, 0.5]}] * 2
        if engine == "mc":
            doc["mc"] = {"seed": 1, "outer_samples": 100}
        config = write_config(tmp_path, doc)
        path = os.pathsep.join(p for p in (str(README.parent / "src"), os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "jackvar.cli", "run", config],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        (line,) = proc.stderr.splitlines()
        assert line.startswith(f"error: {config}: statistic: ") and "finite" in line


def _with(**fields):
    """RAD2_PROD_CONFIG with top-level fields replaced."""
    return dict(RAD2_PROD_CONFIG, **fields)


MC_RUN = {"seed": 1, "outer_samples": 100}


class TestExactNumbers:
    """Number fields are taken exactly or refused: no rounding, no booleans."""

    @pytest.mark.parametrize(
        "field, doc",
        [pytest.param(field, doc, id=name) for name, field, doc in [
            ("mc.seed", "mc.seed", _with(engine="mc", mc=dict(MC_RUN, seed=2.9))),
            ("mc.outer_samples", "mc.outer_samples", _with(engine="mc", mc=dict(MC_RUN, outer_samples=100.9))),
            ("mc.ks", "mc.ks", _with(engine="mc", mc=dict(MC_RUN, ks=[1.5]))),
            ("statistic.params.terms[0]", "statistic.params.terms[0]",
             _with(statistic={"kind": "poly", "params": {"terms": [[1.0, [1, 1.7]]]}})),
            # the constructor refuses a distribution's reals; the CLI prefixes where it is
            ("distributions[0].support", "distributions[0]: support",
             _with(distributions=[{"support": [True, False], "probs": [0.5, 0.5]}] * 2)),
            ("bounds.p_values", "bounds.p_values", _with(bounds={"p_values": [True]})),
            ("distributions[1].probs", "distributions[1]: probs",
             _with(distributions=[RAD2_PROD_CONFIG["distributions"][0],
                                  {"support": [0.0, 1.0], "probs": [10**400, 0.5]}])),
        ]],
    )
    def test_refused(self, tmp_path, capsys, field, doc):
        doc = dict(doc, output={"path": str(tmp_path / "out")})
        assert cli.main(["run", write_config(tmp_path, doc)]) == 1
        assert f"{field}: expected" in capsys.readouterr().err

    def test_integral_floats_are_integers(self, tmp_path):
        doc = _with(engine="mc", mc={"seed": 2.0, "outer_samples": 1e2, "ks": [2.0]},
                    bounds={"p_values": [1.0]}, output={"path": str(tmp_path / "out")})
        assert cli.main(["run", write_config(tmp_path, doc)]) == 0
        report = json.loads((tmp_path / "out.json").read_text())
        assert report["seed"] == 2 and report["mc"]["outer_samples"] == 100
        assert list(report["mc"]["ej"]) == ["2"] and report["mc"]["brackets"][0]["p"] == 1


    def test_integral_poly_exponents(self, tmp_path, monkeypatch):
        # JSON has one number type: the CLI reads exponent 2.0 as the integer 2
        monkeypatch.setattr(cli.time, "perf_counter", lambda: 0.0)  # wall_time_s 0.0 in both
        laws = [{"support": [0.0, 1.0, 3.0], "probs": [0.25, 0.25, 0.5]}] * 2
        for name, exps in (("int", [2, 1]), ("float", [2.0, 1.0])):
            doc = _with(distributions=laws, statistic={"kind": "poly", "params": {"terms": [[1.5, exps]]}},
                        output={"format": "both", "path": str(tmp_path / name)})
            assert cli.main(["run", write_config(tmp_path, doc, f"{name}.json")]) == 0
        for ext in (".json", ".csv"):
            assert (tmp_path / f"float{ext}").read_bytes() == (tmp_path / f"int{ext}").read_bytes()


class TestStatisticKind:
    @pytest.mark.parametrize("kind", [[], {}], ids=["array", "object"])
    def test_kind_that_is_no_string(self, tmp_path, capsys, kind):
        # `kind in STATISTIC_PARAMS` raised TypeError: unhashable type, with a traceback
        path = write_config(tmp_path, _with(statistic={"kind": kind, "params": {}}))
        assert cli.main(["run", path]) == 1
        assert capsys.readouterr().err == f"error: {path}: statistic.kind: unknown statistic kind {kind!r}\n"


class TestSelfcheck:
    def test_small_battery_passes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["selfcheck", "--instances", "10", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "max residual" in out

    def test_point_mass_heavy_instances_pass(self, tmp_path, monkeypatch):
        # degenerate draws (tiny supports, near-point-mass weights) must pass
        monkeypatch.chdir(tmp_path)
        assert cli.main(["selfcheck", "--instances", "3", "--seed", "1"]) == 0

    @pytest.mark.parametrize("flags, message", [
        (["--instances", "0"], "--instances: expected at least 1, got 0"),
        (["--instances", "-3"], "--instances: expected at least 1, got -3"),
        (["--seed", "-1"], "--seed: expected 0..2^64-1, got -1"),
        (["--seed", str(1 << 64)], f"--seed: expected 0..2^64-1, got {1 << 64}"),
    ], ids=["no-instances", "negative-instances", "negative-seed", "seed-2^64"])
    def test_vacuous_or_invalid_runs_are_refused(self, tmp_path, monkeypatch, capsys, flags, message):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["selfcheck", *flags]) == 1
        out, err = capsys.readouterr()
        assert err == f"error: {message}\n" and out == ""

    def test_largest_seed_runs(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["selfcheck", "--instances", "1", "--seed", str((1 << 64) - 1)]) == 0

    def test_mutation_is_detected(self, tmp_path, monkeypatch, capsys):
        # sign-flip the alternating series: the battery must fail with exit 2
        import jackvar.selfcheck as sc

        real = sc.identity_residuals

        def flipped(jack, spectrum, var_exact):
            import dataclasses
            import math

            wrong = abs(
                var_exact
                - sum(
                    (-1.0) ** k * jack.ej[k - 1] / math.factorial(k)
                    for k in range(1, jack.n + 1)
                )
            )
            return dataclasses.replace(real(jack, spectrum, var_exact), alternating_series=wrong)

        monkeypatch.setattr(sc, "identity_residuals", flipped)
        monkeypatch.chdir(tmp_path)
        rc = cli.main(["selfcheck", "--instances", "5", "--seed", "3"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "FAIL" in err
        replays = list(tmp_path.glob("selfcheck_failure_*.json"))
        assert replays
        # the replay file is itself a valid config
        assert cli.main(["run", str(replays[0]), "--out", str(tmp_path / "replay")]) == 0


class TestClosedStdout:
    """A reader that closes stdout early (`jackvar selfcheck | head -1`) gets no traceback."""

    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("command", ["selfcheck", "run"])
    def test_one_stderr_line_and_exit_1(self, tmp_path, command, unbuffered):
        args = ["selfcheck", "--instances", "2"]
        if command == "run":
            args = ["run", write_config(tmp_path, RAD2_PROD_CONFIG)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(README.parent / "src"), os.environ.get("PYTHONPATH")) if p))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)  # every write to stdout now fails with EPIPE
        try:
            proc = subprocess.run([sys.executable, "-m", "jackvar.cli", *args], cwd=tmp_path, env=env,
                                  stdout=write, stderr=subprocess.PIPE, text=True, timeout=120)
        finally:
            os.close(write)
        assert proc.returncode == 1
        assert proc.stderr == "error: standard output was closed before all output was written\n"


def _typo(path: str, doc: dict) -> dict:
    """A copy of `doc` with the field `stray` added to the object at `path`."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for part in path.split("."):
        if part:
            target = target[int(part)] if isinstance(target, list) else target[part]
    target["stray"] = 1
    return doc


MC_DOC = _with(engine="mc", mc={"seed": 1, "outer_samples": 100},
               bounds={"p_values": [1]}, output={"format": "json", "path": "report"})
STATISTICS = {
    "table": {"values": [1.0, 2.0, 3.0, 4.0]},
    "sum": {"weights": [1.0, 2.0]},
    "max": {},
    "ustat2": {"g": [[-1.0, 1.0], [1.0, 2.0]]},
    "poly": {"terms": [[1.0, [1, 1]]]},
}


class TestUnknownFields:
    """A field outside the documented schema is refused, never ignored."""

    @pytest.mark.parametrize("path, where", [
        ("", "config root"),
        ("mc", "mc"),
        ("bounds", "bounds"),
        ("output", "output"),
        ("distributions.1", "distributions[1]"),
        ("statistic", "statistic"),
    ])
    def test_refused(self, tmp_path, capsys, path, where):
        assert cli.main(["run", write_config(tmp_path, _typo(path, MC_DOC))]) == 1
        err = capsys.readouterr().err
        assert f"{where}: unknown field 'stray'" in err and "Traceback" not in err

    @pytest.mark.parametrize("kind", sorted(STATISTICS))
    def test_refused_in_params(self, tmp_path, capsys, kind):
        doc = _with(statistic={"kind": kind, "params": dict(STATISTICS[kind])})
        assert cli.main(["run", write_config(tmp_path, doc, "good.json"),
                         "--out", str(tmp_path / "good")]) == 0
        assert cli.main(["run", write_config(tmp_path, _typo("statistic.params", doc))]) == 1
        assert "statistic.params: unknown field 'stray'" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("inner_pairs", 1), ("subset_mode", "auto")])
    def test_removed_mc_fields(self, tmp_path, capsys, field, value):
        # the estimators fix the subset plan and the completion pairs
        doc = _with(engine="mc", mc=dict(MC_RUN, **{field: value}))
        assert cli.main(["run", write_config(tmp_path, doc)]) == 1
        assert f"mc: unknown field {field!r}" in capsys.readouterr().err

    def test_documented_schema_is_the_parsed_schema(self):
        doc = cli.__doc__
        block, kinds = doc[doc.index("Config schema"):doc.index("A field outside")].split("statistic params")
        assert tuple(re.findall(r'^  "(\w+)":', block, re.M)) == cli.ROOT_FIELDS
        mc_line = re.search(r'"mc": \{(.*?)\}', block, re.S).group(1)
        assert tuple(re.findall(r'"(\w+)":', mc_line)) == cli.MC_FIELDS
        params = dict(re.findall(r"^  (\w+) +\{(.*)\}$", kinds, re.M))
        assert {kind: tuple(re.findall(r'"(\w+)":', p)) for kind, p in params.items()} == cli.STATISTIC_PARAMS

    def test_documented_usage_is_the_parsed_usage(self):
        # each subcommand's positionals and flags; a choice flag lists its choices,
        # an integer flag takes N and a path flag PATH
        (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        parsed = {}
        for name, sub in commands.choices.items():
            actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
            parsed[name] = (
                [a.dest for a in actions if not a.option_strings],
                [(a.option_strings[0], "|".join(a.choices) if a.choices else "N" if a.type is int else "PATH")
                 for a in actions if a.option_strings],
            )
        for block, prefix in (
            (re.search(r"Subcommands:\n(.*?)\n\n", cli.__doc__, re.S).group(1), "  "),
            (re.search(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), re.S).group(1), "jackvar "),
        ):
            documented = {}
            for line in block.splitlines():
                name, rest = line.removeprefix(prefix).split(" ", 1)
                positionals = [re.sub(r"\W|json", "", p) for p in re.sub(r"\[[^]]*\]", "", rest).split()]
                documented[name] = (positionals, re.findall(r"\[(--[\w-]+) ([^]]+)\]", rest))
            assert documented == parsed

    def test_misspelt_sample_count(self, tmp_path, capsys):
        doc = _with(engine="mc", mc={"outer_sample": 100})
        assert cli.main(["run", write_config(tmp_path, doc)]) == 1
        assert "mc: unknown field 'outer_sample'" in capsys.readouterr().err


def _binary(n: int, mc: dict, p_values: list, tmp_path) -> dict:
    return {
        "distributions": [{"support": [-1.0, 1.0], "probs": [0.5, 0.5]}] * n,
        "statistic": {"kind": "sum", "params": {"weights": [1.0] * n}},
        "engine": "mc",
        "mc": dict(mc, seed=3, outer_samples=100),
        "bounds": {"p_values": p_values},
        "output": {"path": str(tmp_path / "out")},
    }


class TestMcEngineLimits:
    """A limit of the sampler or of the orders is an mc engine error, exit 1."""

    def test_order_past_the_float_range_of_k_factorial(self, tmp_path, capsys):
        doc = _binary(171, {"ks": [1]}, [85], tmp_path)
        assert cli.main(["run", write_config(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert "mc engine: order k=171: k! exceeds the float range" in err
        assert "Traceback" not in err

    def test_subset_ranks_past_int64(self, tmp_path, capsys):
        doc = _binary(70, {"ks": [35]}, [1], tmp_path)
        assert cli.main(["run", write_config(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert "mc engine: C(70,35) = 112186277816662845432 subsets exceed" in err
        assert "statistic:" not in err


def evaluations_per_row(n: int, k: int, completions: int) -> int:
    """One order's statistic evaluations per row, counted independently of the library."""
    if math.comb(n, k) <= 64:  # enumerated: one per replaced set of at most k coordinates
        return completions * sum(math.comb(n, j) for j in range(k + 1))
    return completions * 2**k


class TestMcCostRule:
    """`run --engine mc` counts its statistic evaluations before drawing anything."""

    @pytest.mark.parametrize("engine", ["mc", "both"])
    def test_default_orders_at_n30_are_refused(self, monkeypatch, tmp_path, capsys, engine):
        # this config used to run for hours: every order 1..30 with 10000 samples
        doc = {
            "distributions": [{"support": [-1.0, 1.0], "probs": [0.5, 0.5]}] * 30,
            "statistic": {"kind": "sum", "params": {"weights": [1.0] * 30}},
            "engine": engine,
            "mc": {},
            "output": {"path": str(tmp_path / "out")},
        }
        monkeypatch.setattr(jv.mc, "_contributions", lambda *a: pytest.fail("sampled"))
        monkeypatch.setattr(cli, "tabulate", lambda *a: pytest.fail("tabulated"))
        assert cli.main(["run", write_config(tmp_path, doc)]) == 1
        per_row = 2 + sum(evaluations_per_row(30, k, 1) + evaluations_per_row(30, k, 2) for k in range(1, 31))
        err = capsys.readouterr().err
        assert f"mc engine: {10000 * per_row} statistic evaluations (10000 samples x {per_row} per row)" in err
        assert f"exceed the limit of {cli.MC_EVALUATION_LIMIT} per run" in err
        assert not (tmp_path / "out.json").exists()

    def test_limit_is_inclusive(self, monkeypatch, tmp_path):
        # var, ej 1..2, ek 1..2 and the bracket's ek 3, all enumerated
        doc = _binary(4, {"ks": [1, 2]}, [1], tmp_path)
        per_row = 2 + 5 + 10 + 11 + 22 + 30
        monkeypatch.setattr(cli, "MC_EVALUATION_LIMIT", 100 * per_row)
        assert cli.main(["run", write_config(tmp_path, doc)]) == 0
        monkeypatch.setattr(cli, "MC_EVALUATION_LIMIT", 100 * per_row - 1)
        assert cli.main(["run", write_config(tmp_path, doc)]) == 1

    def test_no_orders_report_and_count_none(self, monkeypatch, tmp_path, capsys):
        # ks [] and p_values [] ask for the variance alone, as p_values [] asks for no bracket
        doc = _binary(3, {"ks": []}, [], tmp_path)
        doc["statistic"] = {"kind": "max", "params": {}}
        assert cli.main(["run", write_config(tmp_path, doc)]) == 0
        report = json.loads((tmp_path / "out.json").read_text())["mc"]
        assert (report["ej"], report["ek"], report["brackets"]) == ({}, {}, [])
        monkeypatch.setattr(cli, "MC_EVALUATION_LIMIT", 0)
        assert cli.main(["run", write_config(tmp_path, doc)]) == 1
        assert "(100 samples x 2 per row)" in capsys.readouterr().err

    def test_bracket_orders_are_counted(self, monkeypatch, tmp_path, capsys):
        # ks [1] alone, but bracket p = 1 also estimates ej 2, ek 2 and ek 3
        doc = _binary(12, {"ks": [1]}, [1], tmp_path)
        monkeypatch.setattr(cli, "MC_EVALUATION_LIMIT", 0)
        assert cli.main(["run", write_config(tmp_path, doc)]) == 1
        per_row = (2 + evaluations_per_row(12, 1, 1) + evaluations_per_row(12, 1, 2) + evaluations_per_row(12, 2, 1)
                   + evaluations_per_row(12, 2, 2) + evaluations_per_row(12, 3, 2))
        assert f"(100 samples x {per_row} per row)" in capsys.readouterr().err
