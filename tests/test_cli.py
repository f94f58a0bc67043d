import json

import pytest

import jackvar as jv
from jackvar import cli


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("engine", ["exact", "mc"])
    def test_statistic_overflow(self, tmp_path, capsys, engine):
        doc = dict(RAD2_PROD_CONFIG, engine=engine)
        doc["distributions"] = [{"support": [1.0, 1e200], "probs": [0.5, 0.5]}] * 2
        doc["statistic"] = {"kind": "poly", "params": {"terms": [[1.0, [2, 0]]]}}
        if engine == "mc":
            doc["mc"] = {"seed": 1, "outer_samples": 100}
        rc, err = self.run(tmp_path, capsys, doc)
        assert rc == 1 and "statistic:" in err and "finite" in err


def _with(**fields):
    """RAD2_PROD_CONFIG with top-level fields replaced."""
    return dict(RAD2_PROD_CONFIG, **fields)


MC_RUN = {"seed": 1, "outer_samples": 100}


class TestExactNumbers:
    """Number fields are taken exactly or refused: no rounding, no booleans."""

    @pytest.mark.parametrize(
        "field, doc",
        [pytest.param(field, doc, id=field) for field, doc in [
            ("mc.seed", _with(engine="mc", mc=dict(MC_RUN, seed=2.9))),
            ("mc.outer_samples", _with(engine="mc", mc=dict(MC_RUN, outer_samples=100.9))),
            ("mc.inner_pairs", _with(engine="mc", mc=dict(MC_RUN, inner_pairs=True))),
            ("mc.ks", _with(engine="mc", mc=dict(MC_RUN, ks=[1.5]))),
            ("statistic.params.terms[0]",
             _with(statistic={"kind": "poly", "params": {"terms": [[1.0, [1, 1.7]]]}})),
            ("distributions[0].support",
             _with(distributions=[{"support": [True, False], "probs": [0.5, 0.5]}] * 2)),
            ("bounds.p_values", _with(bounds={"p_values": [True]})),
            ("distributions[1].probs",
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
