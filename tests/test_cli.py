import csv
import functools
import importlib.util
import json
import os
import pickle
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest
import yaml

import diffgap.cli as cli
from diffgap import bounds as bd
from diffgap import expr as ex
from diffgap import gallery as gal
from diffgap import mcsim as mc
from diffgap import model as md
from diffgap import oracle as orc
from diffgap import quad as q

# frozen quartic results; the library tests pin the same numbers
QUARTIC_BRACKET = (1.2408065, 1.4257976)
QUARTIC_GAP = 1.36859252


def run(tmp_path, argv):
    """Invoke the entry point and capture the report written to a file."""
    out = tmp_path / "out.txt"
    code = cli.main(argv + ["--output", str(out)])
    return code, out.read_text() if out.exists() else ""


def write_cfg(tmp_path, doc, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(doc))
    return str(p)


class TestConfigValidation:
    def test_unknown_top_key(self):
        with pytest.raises(cli.ConfigError, match="bogus"):
            cli.validate_config({"model": {"gallery": "ou"}, "bogus": 1})

    def test_unknown_section_key(self):
        with pytest.raises(cli.ConfigError, match="oracle.save"):
            cli.validate_config({"oracle": {"save": True}})

    def test_unknown_method(self):
        with pytest.raises(cli.ConfigError, match="hartree"):
            cli.validate_config({"bounds": {"methods": ["hartree"]}})

    def test_methods_must_be_list(self):
        with pytest.raises(cli.ConfigError, match="list"):
            cli.validate_config({"bounds": {"methods": "chen_wang"}})

    def test_gallery_and_explicit_exclusive(self):
        with pytest.raises(cli.ConfigError, match="not both"):
            cli.validate_config({"model": {"gallery": "ou", "drift": "-x"}})

    def test_unknown_gallery_lists_available(self):
        with pytest.raises(cli.ConfigError, match="available"):
            cli.validate_config({"model": {"gallery": "pentic"}})

    def test_weight_kind_checked(self):
        with pytest.raises(cli.ConfigError, match="kind"):
            cli.validate_config(
                {"bounds": {"chen_wang": {"kind": "log_form", "family": "x"}}})

    def test_check_item_needs_fields(self):
        with pytest.raises(cli.ConfigError, match="x0"):
            cli.validate_config({"check": {"intertwining": [
                {"weight": {"kind": "direct", "family": "1"}, "f": "x", "t": 0.1}]}})

    def test_subintertwining_phi_name(self):
        with pytest.raises(cli.ConfigError, match="phi"):
            cli.validate_config({"check": {"subintertwining": [
                {"weight": {"kind": "direct", "family": "1"}, "f": "x",
                 "x0": 0.0, "t": 0.1, "phi": "cubic"}]}})

    def test_output_format_checked(self):
        with pytest.raises(cli.ConfigError, match="format"):
            cli.validate_config({"output": {"format": "xml"}})

    def test_empty_config_passes_schema(self):
        cli.validate_config({})


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["bounds", "--config", str(tmp_path / "nope.yaml")])
        assert code == 2
        assert "configuration error" in capsys.readouterr().err

    def test_invalid_yaml(self, tmp_path, capsys):
        p = tmp_path / "bad.yaml"
        p.write_text("model: [unclosed\n")
        assert cli.main(["bounds", "--config", str(p)]) == 2
        capsys.readouterr()

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"model": {"gallery": "ou"}, "extra": 1})
        assert cli.main(["bounds", "--config", cfg]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("section, key", [("quad", "infinite_method"),
                                              ("quad", "truncation_R"),
                                              ("bounds", "scan_points")])
    def test_removed_setting_is_unknown(self, tmp_path, capsys, section, key):
        value = "tan" if key == "infinite_method" else 12
        cfg = write_cfg(tmp_path, {"model": {"gallery": "ou"}, section: {key: value}})
        assert cli.main(["bounds", "--config", cfg]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err

    def test_model_section_required(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"oracle": {"enabled": False}})
        assert cli.main(["bounds", "--config", cfg]) == 2
        capsys.readouterr()

    def test_bad_expression_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {"model": {"sigma": "1", "drift": "x +* 2"}})
        assert cli.main(["inspect", "--config", cfg]) == 2
        capsys.readouterr()

    def test_explosive_dynamics_exit_3(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "model": {"sigma": "1", "drift": "x", "tail_kind": "exponential"},
            "mc": {"paths": 1000, "seed": 1, "horizon": 1.0,
                   "blow_up_radius": 4.0},
            "check": {"intertwining": [
                {"weight": {"kind": "direct", "family": "1"},
                 "f": "tanh(x)", "x0": 2.0, "t": 1.0}]},
        })
        assert cli.main(["check", "--config", cfg]) == 3
        assert "numerical error" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["intertwining", "subintertwining"])
    def test_zero_delta_exit_2(self, tmp_path, capsys, kind):
        # unchecked, delta = 0 reports lhs NaN as "inconclusive" with exit 0
        item = {"weight": {"kind": "a_form", "family": "-(x-1)^2"},
                "f": "2 + tanh(x)", "x0": 0.4, "t": 0.5, "delta": 0}
        if kind == "subintertwining":
            item["phi"] = "log_sobolev"
        cfg = write_cfg(tmp_path, {"model": {"gallery": "quartic"},
                                   "mc": {"paths": 1000, "seed": 1},
                                   "check": {kind: [item]}})
        assert cli.main(["check", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and "delta" in err

    @pytest.mark.parametrize("mc_sec,t", [
        ({"paths": 0}, 0.5),
        ({"step": -1.0}, 0.5),
        ({"paths": 1000, "step": 1.0e-2}, 5.0e-3),  # horizon below the step
        ({"paths": 999}, 0.5),  # checks need 1000 paths
        ({"paths": 1000}, -0.5),
    ], ids=["no-paths", "negative-step", "t-below-step", "few-paths", "negative-t"])
    def test_invalid_mc_settings_exit_2(self, tmp_path, capsys, mc_sec, t):
        cfg = write_cfg(tmp_path, {
            "model": {"gallery": "ou"}, "mc": mc_sec,
            "check": {"intertwining": [{"weight": {"kind": "direct", "family": "1"},
                                        "f": "tanh(x)", "x0": 0.5, "t": t}]}})
        assert cli.main(["check", "--config", cfg]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("phi, p, message", [
        ("beckner", 2.5, "beckner exponent must lie in (1, 2), got 2.5"),
        ("poincare", 7, "p is the Beckner exponent; phi poincare takes none"),
    ], ids=["beckner-outside-1-2", "p-without-beckner"])
    def test_bad_beckner_exponent_exit_2(self, tmp_path, capsys, phi, p, message):
        cfg = write_cfg(tmp_path, {
            "model": {"gallery": "quartic"}, "mc": {"paths": 1000},
            "check": {"subintertwining": [
                {"weight": {"kind": "direct", "family": "1"}, "phi": phi, "p": p,
                 "f": "2 + tanh(x)", "x0": 0.4, "t": 0.5}]}})
        assert cli.main(["check", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and message in err

    def test_weight_param_outside_the_family_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "model": {"gallery": "quartic"}, "mc": {"paths": 1000},
            "check": {"intertwining": [
                {"weight": {"kind": "z_form", "family": "eps*x",
                            "params": {"eps": 1.27, "epz": 3}},
                 "f": "tanh(x)", "x0": 0.5, "t": 0.5}]}})
        assert cli.main(["check", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "['epz']" in err

    @pytest.mark.parametrize("section", ["bounds", "oracle"])
    @pytest.mark.parametrize("R", [0, -1, float("nan")], ids=["zero", "negative", "nan"])
    def test_bad_radius_exit_2(self, tmp_path, capsys, section, R):
        # R = -1 on quartic used to exit 0 with false "no spectral gap" rows
        cfg = write_cfg(tmp_path, {"model": {"gallery": "quartic"}, section: {"R": R}})
        assert cli.main([section, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and f"{section}.R must be finite" in err

    @pytest.mark.parametrize("command", ["bounds", "oracle"])
    @pytest.mark.parametrize("R", ["0", "-1", "nan"])
    def test_bad_radius_flag_exit_2(self, tmp_path, capsys, command, R):
        cfg = write_cfg(tmp_path, {"model": {"gallery": "quartic"}})
        assert cli.main([command, "--config", cfg, "--radius", R]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "R must be finite and positive" in err

    @pytest.mark.parametrize("points", [0, -3])
    def test_bad_grid_points_exit_2(self, tmp_path, capsys, points):
        # an empty grid would report the box searches infeasible; a negative
        # one would reach np.linspace
        cfg = write_cfg(tmp_path, {"model": {"gallery": "quartic"},
                                   "bounds": {"grid_points": points}})
        assert cli.main(["bounds", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "grid_points must be >= 1" in err

    def test_precondition_violation_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "model": {"gallery": "ou"},
            "mc": {"paths": 1000, "seed": 1},
            "check": {"subintertwining": [
                {"weight": {"kind": "direct", "family": "2 - tanh(x)"},
                 "phi": "log_sobolev", "f": "2 + tanh(x)", "x0": 0.0,
                 "t": 0.2}]},
        })
        assert cli.main(["check", "--config", cfg]) == 2
        capsys.readouterr()


@pytest.fixture(scope="module")
def quartic_doc(tmp_path_factory):
    """One full default bounds run on the quartic model, parsed from the
    machine-readable report."""
    tmp = tmp_path_factory.mktemp("quartic")
    cfg = write_cfg(tmp, {"model": {"gallery": "quartic"},
                          "oracle": {"enabled": True, "n": 2048}})
    out = tmp / "report.json"
    code = cli.main(["bounds", "--config", cfg, "--format", "json-like",
                     "--output", str(out)])
    return code, json.loads(out.read_text())


class TestBoundsCommand:
    def test_quartic_defaults_green(self, quartic_doc):
        code, doc = quartic_doc
        assert code == 0
        assert doc["violations"] == []

    def test_quartic_bracket(self, quartic_doc):
        _, doc = quartic_doc
        lam = doc["targets"]["lambda1"]
        assert lam["lower"] == pytest.approx(QUARTIC_BRACKET[0], abs=1e-4)
        assert lam["upper"] == pytest.approx(QUARTIC_BRACKET[1], abs=1e-4)
        assert lam["bracket"][0] <= doc["oracle"]["lambda1"] <= lam["bracket"][1]

    def test_quartic_cls_capped_by_reference(self, quartic_doc):
        _, doc = quartic_doc
        cls = doc["targets"]["cls"]
        assert cls["upper"] == pytest.approx(2.0 * QUARTIC_GAP, rel=1e-4)
        assert cls["upper_source"] == "twice the reference eigenvalue"
        assert cls["lower"] == pytest.approx(1.1888058, abs=2e-4)

    def test_quartic_method_rows(self, quartic_doc):
        _, doc = quartic_doc
        methods = {r["method"] for t in doc["targets"].values()
                   for r in t["methods"]}
        assert {"chen_wang", "rayleigh", "muckenhoupt", "lsi_monotone"} <= methods
        vey = [r for t in doc["targets"].values() for r in t["methods"]
               if r["method"] == "veysseire"]
        assert vey and not vey[0]["feasible"]

    def test_empty_methods(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": {"gallery": "ou"},
                                   "bounds": {"methods": []}})
        code, text = run(tmp_path, ["bounds", "--config", cfg,
                                    "--format", "json-like"])
        assert code == 0
        doc = json.loads(text)
        assert doc["targets"] == {} and "oracle" not in doc

    def test_sigma_neq_one_muckenhoupt_reported_not_fatal(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "model": {"gallery": "cauchy"},
            "bounds": {"methods": ["veysseire", "muckenhoupt"]},
            "oracle": {"enabled": False}})
        code, text = run(tmp_path, ["bounds", "--config", cfg,
                                    "--format", "json-like"])
        assert code == 0
        doc = json.loads(text)
        assert doc["method_errors"][0]["method"] == "muckenhoupt"
        assert "unit diffusion" in doc["method_errors"][0]["error"]
        vey = doc["targets"]["lambda1"]["methods"][0]
        assert vey["value"] == pytest.approx(8.0 / 3.0, abs=1e-6)

    def test_lsi_family_params_are_bound(self, tmp_path):
        # params bind the family before the search: no box is needed for c,
        # and the report is the one of the family with c written out
        texts = []
        for name, dec in (("bound", {"kind": "a_form", "family": "-(x-c)^2",
                                     "params": {"c": 1.0}}),
                          ("literal", {"kind": "a_form", "family": "-(x-1)^2"})):
            cfg = write_cfg(tmp_path, {"model": {"gallery": "quartic"},
                                       "bounds": {"methods": ["lsi"], "lsi": {"dec": dec}},
                                       "oracle": {"enabled": False}}, f"{name}.yaml")
            code, text = run(tmp_path, ["bounds", "--config", cfg, "--format", "json-like"])
            assert code == 0
            texts.append(text)
        assert "method_errors" not in json.loads(texts[0])
        assert texts[0] == texts[1]

    def test_csv_format(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": {"gallery": "ou"},
                                   "bounds": {"methods": ["chen_wang"]},
                                   "oracle": {"enabled": False}})
        code, text = run(tmp_path, ["bounds", "--config", cfg,
                                    "--format", "csv"])
        assert code == 0
        lines = text.strip().split("\n")
        assert lines[0] == "method,target,side,value,feasible,params,error_budget"
        assert lines[1].startswith("chen_wang,lambda1,lower,1,True")

    def test_reruns_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": {"gallery": "ou"},
                                   "bounds": {"methods": ["chen_wang"]},
                                   "oracle": {"enabled": False}})
        _, a = run(tmp_path, ["bounds", "--config", cfg, "--format", "json-like"])
        _, b = run(tmp_path, ["bounds", "--config", cfg, "--format", "json-like"])
        assert a == b

    def test_config_output_path_honored(self, tmp_path):
        dest = tmp_path / "report.txt"
        cfg = write_cfg(tmp_path, {
            "model": {"gallery": "ou"},
            "bounds": {"methods": ["chen_wang"]},
            "oracle": {"enabled": False},
            "output": {"path": str(dest), "format": "table"}})
        assert cli.main(["bounds", "--config", cfg]) == 0
        assert dest.read_text().startswith("model: ou")


class TestOracleCommand:
    def test_ou_gap(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": {"gallery": "ou"}})
        code, text = run(tmp_path, ["oracle", "--config", cfg,
                                    "--format", "json-like"])
        assert code == 0
        doc = json.loads(text)
        assert doc["lambda1"] == pytest.approx(1.0, abs=1e-4)
        assert doc["rate_flatness"] < 0.01

    def test_radius_and_grid_flags(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": {"gallery": "smoothed-exponential"}})
        code, text = run(tmp_path, ["oracle", "--config", cfg,
                                    "--format", "json-like",
                                    "--radius", "60", "--grid", "4096"])
        assert code == 0
        doc = json.loads(text)
        # essential spectrum starts at 1/4; the gap sits just above
        assert doc["lambda1"] == pytest.approx(0.25, abs=5e-3)
        assert doc["n"] == 4096

    def test_csv_columns(self, tmp_path):
        cfg = write_cfg(tmp_path, {"model": {"gallery": "ou"},
                                   "oracle": {"n": 1024}})
        code, text = run(tmp_path, ["oracle", "--config", cfg,
                                    "--format", "csv"])
        assert code == 0
        lines = text.split("\n")
        assert lines[0].startswith("# model=ou lambda1=")
        assert lines[1] == "x,eigen_weight,killing_rate"
        assert len(lines) > 100

    def test_csv_rows_follow_the_grid(self, tmp_path):
        # one row per cell edge of the oracle's own grid: ou's eigenfunction
        # increases across all 1,023 of them
        cfg = write_cfg(tmp_path, {"model": {"gallery": "ou"}})
        code, text = run(tmp_path, ["oracle", "--config", cfg, "--grid", "1024",
                                    "--format", "csv"])
        assert code == 0
        rows = text.splitlines()[2:]
        assert len(rows) == 1023
        lam = float(text.split("lambda1=")[1].split()[0])
        assert all(abs(float(r.split(",")[2]) - lam) < 1e-2 * lam for r in rows)

    @pytest.mark.parametrize("fmt", ["table", "json-like", "csv"])
    def test_dirichlet_interval_reports_the_eigenvalue(self, tmp_path, fmt):
        # absorbing ends have no ergodic flow to rebuild a weight from: the
        # eigenvalue block is reported and the weight part marked not applicable
        cfg = write_cfg(tmp_path, {"model": {"sigma": "1", "drift": "0",
                                             "domain": [0, 1], "boundary": "dirichlet"},
                                   "oracle": {"n": 512}})
        code, text = run(tmp_path, ["oracle", "--config", cfg, "--format", fmt])
        assert code == 0
        if fmt == "json-like":
            doc = json.loads(text)
            assert doc["lambda1"] == pytest.approx(9.8696, abs=1e-3)
            assert doc["boundary"] == "dirichlet"
            assert doc["rate_flatness"] is None and doc["bulk"] is None
        elif fmt == "csv":
            lines = text.splitlines()
            assert "not applicable" in lines[0]
            assert lines[1:] == ["x,eigen_weight,killing_rate"]
        else:
            assert "lambda1: 9.8696" in text
            assert "rate flatness: not applicable (dirichlet boundary)" in text


class TestCheckCommand:
    def test_zero_horizon_exact(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "model": {"gallery": "ou"},
            "mc": {"paths": 1000, "seed": 3},
            "check": {"intertwining": [
                {"weight": {"kind": "direct", "family": "1"},
                 "f": "tanh(x)", "x0": 0.5, "t": 0.0}]}})
        code, text = run(tmp_path, ["check", "--config", cfg,
                                    "--format", "json-like"])
        assert code == 0
        doc = json.loads(text)
        row = doc["checks"][0]
        assert row["status"] == "pass" and row["zscore"] == 0.0
        assert row["lhs"] == row["rhs"]

    def test_mc_horizon_is_neither_read_nor_checked(self, tmp_path):
        # each ensemble runs to its own check's t: a horizon below the step
        # (0.0001) or none at all gives the same report as any other
        reports = []
        for horizon in (None, 0.0001, 0.5, 4.0):
            mc_sec = {"paths": 1000, "seed": 3, "step": 1.0e-3}
            if horizon is not None:
                mc_sec["horizon"] = horizon
            cfg = write_cfg(tmp_path, {
                "model": {"gallery": "quartic"}, "mc": mc_sec,
                "check": {"intertwining": [{"weight": {"kind": "direct", "family": "1"},
                                            "f": "tanh(x)", "x0": 0.5, "t": 0.05}]}})
            reports.append(run(tmp_path, ["check", "--config", cfg, "--format", "json-like"]))
        assert reports[0][0] == 0 and json.loads(reports[0][1])["checks"]
        assert reports == [reports[0]] * 4

    def test_step_above_the_default_horizon(self, tmp_path):
        # no horizon set: MCConfig's default 1.0 is below the step 2.0, yet
        # the check runs to its own t = 4 in two steps
        cfg = write_cfg(tmp_path, {
            "model": {"gallery": "ou"}, "mc": {"paths": 1000, "seed": 3, "step": 2.0},
            "check": {"intertwining": [{"weight": {"kind": "direct", "family": "1"},
                                        "f": "tanh(x)", "x0": 0.5, "t": 4.0}]}})
        code, text = run(tmp_path, ["check", "--config", cfg, "--format", "json-like"])
        assert code in (0, 1)
        assert json.loads(text)["checks"][0]["t"] == 4.0

    def test_short_run_passes(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "model": {"gallery": "ou"},
            "mc": {"paths": 4000, "seed": 42, "step": 1.0e-3},
            "check": {
                "intertwining": [
                    {"weight": {"kind": "z_form", "family": "x/2"},
                     "f": "tanh(x)", "x0": 0.3, "t": 0.1}],
                "subintertwining": [
                    {"weight": {"kind": "direct", "family": "1"},
                     "phi": "poincare", "f": "tanh(x)", "x0": 0.2, "t": 0.1}],
            }})
        code, text = run(tmp_path, ["check", "--config", cfg,
                                    "--format", "json-like"])
        assert code == 0
        doc = json.loads(text)
        assert len(doc["checks"]) == 2
        assert all(r["status"] in ("pass", "warn", "inconclusive")
                   for r in doc["checks"])

    def test_later_precondition_stops_the_run_before_simulating(self, tmp_path, monkeypatch):
        _cpus(monkeypatch, 1)  # a forked worker's calls would not reach the spy
        evolves = []
        evolve = mc._evolve
        monkeypatch.setattr(mc, "_evolve", lambda *a, **kw: evolves.append(1) or evolve(*a, **kw))
        cfg = write_cfg(tmp_path, {
            "model": {"gallery": "ou"},
            "check": {
                "intertwining": [{"weight": {"kind": "direct", "family": "1"},
                                  "f": "tanh(x)", "x0": 0.5, "t": 0.5}],
                # a decreasing f against this weight fails the sign condition
                "subintertwining": [{"weight": {"kind": "a_form", "family": "-(x-1)^2"},
                                     "phi": "log_sobolev", "f": "2 - tanh(x)",
                                     "x0": 0.4, "t": 0.5}]}})
        code, _ = run(tmp_path, ["check", "--config", cfg])
        assert code == 2 and evolves == []

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 5(b): both sides are deterministic here, lhs the Euler "
        "step's (1 - 0.001)^50 and rhs exp(-0.05), so the round-off standard "
        "error turns the bias into z ~ 5e9 on every seed"))
    def test_zero_variance_identity_is_not_a_failure(self):
        def status(seed):
            cfg = cli.validate_config({
                "model": {"gallery": "ou"}, "mc": {"paths": 1000, "seed": seed},
                "check": {"intertwining": [{"weight": {"kind": "direct", "family": "1"},
                                            "f": "x", "x0": 0.5, "t": 0.05}]}})
            return cli.cmd_check(cfg).doc["checks"][0]["status"]

        assert "fail" not in [status(seed) for seed in range(4)]

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 5(b): the dual drift 60 - x carries every path to x ~ 38, "
        "where a = exp(-30x) underflows, so every rhs sample and its standard "
        "error are exactly 0 and lhs ~ 7e-8 reads z ~ 92 on every seed"))
    def test_underflowed_weight_is_not_a_failure(self):
        def status(seed):
            cfg = cli.validate_config({
                "model": {"gallery": "ou"}, "mc": {"paths": 2000, "seed": seed},
                "check": {"intertwining": [{"weight": {"kind": "direct", "family": "exp(-30*x)"},
                                            "f": "tanh(x)", "x0": 0.5, "t": 1.0}]}})
            return cli.cmd_check(cfg).doc["checks"][0]["status"]

        assert "fail" not in [status(seed) for seed in range(4)]

    def test_seed_flag_overrides(self, tmp_path):
        base = {
            "model": {"gallery": "ou"},
            "mc": {"paths": 1000, "seed": 3},
            "check": {"intertwining": [
                {"weight": {"kind": "direct", "family": "1"},
                 "f": "x", "x0": 0.5, "t": 0.05}]}}
        cfg = write_cfg(tmp_path, base)
        _, t1 = run(tmp_path, ["check", "--config", cfg, "--format", "json-like"])
        _, t2 = run(tmp_path, ["check", "--config", cfg, "--format", "json-like",
                               "--seed", "9"])
        d1, d2 = json.loads(t1), json.loads(t2)
        assert d1["seed"] == 3 and d2["seed"] == 9
        assert d1["checks"][0]["lhs"] != d2["checks"][0]["lhs"]


@pytest.fixture(scope="module")
def repro(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("repro")
    out = tmp / "table.json"
    code = cli.main(["reproduce", "--format", "json-like",
                     "--output", str(out)])
    return code, json.loads(out.read_text())


class TestReproduceCommand:
    def test_exit_flags_failures(self, repro):
        code, doc = repro
        assert code == 1
        assert doc["failures"] == 5

    def test_failing_rows_are_the_slope_family_constants(self, repro):
        _, doc = repro
        failing = [r["label"] for r in doc["rows"] if r["status"] == "FAIL"]
        assert failing == [
            "quartic slope-family location",
            "quartic slope-family value",
            "double-well(0.25) slope-family value",
            "double-well(0.5) slope-family value",
            "double-well(1) slope-family value",
        ]

    def test_passing_anchor_rows(self, repro):
        _, doc = repro
        rows = {r["label"]: r for r in doc["rows"]}
        assert rows["ou unit-weight lower bound"]["status"] == "pass"
        assert rows["cauchy integrated bound"]["computed"] == pytest.approx(
            8.0 / 3.0, abs=1e-6)
        # V_sigma = 3 + 3x^2 near 0, formed from W' = 2x/(1 + x^2): 3 less 1 ulp
        assert rows["cauchy growing-diffusion infimum"]["computed"] == 2.9999999999999996
        assert rows["quartic log-sobolev upper"]["computed"] == pytest.approx(
            2.8516, abs=1e-2)
        assert rows["integrated/relaxation crossover"]["status"] == "pass"

    def test_eigenvalues_confirm_stated_inequalities(self, repro):
        # the stated double-well constants fail as equalities but the
        # eigenvalue still sits above each of them
        _, doc = repro
        for r in doc["rows"]:
            if "above stated bound" in r["label"]:
                assert r["status"] == "pass"

    def test_table_format_has_verdict_line(self, tmp_path):
        out = tmp_path / "t.txt"
        code = cli.main(["reproduce", "--output", str(out)])
        assert code == 1
        text = out.read_text()
        assert "5 of 28 rows fail" in text


class TestInspectCommand:
    def test_quartic_expressions(self, tmp_path):
        cfg = write_cfg(tmp_path, {
            "model": {"gallery": "quartic"},
            "bounds": {"chen_wang": {"kind": "z_form", "family": "eps*x",
                                     "box": {"eps": [0.1, 3.0]}}}})
        code, text = run(tmp_path, ["inspect", "--config", cfg])
        assert code == 0
        assert "V_sigma: 3*x^2" in text
        assert "drift: -x^3" in text
        # free parameter bound at the box midpoint for display
        assert "weight z_form eps*x at eps=1.55" in text

    def test_direct_weight_prints_the_log_derivative_form(self, tmp_path):
        # W' = -30 for a = exp(-30x): no factor of a divides itself
        cfg = write_cfg(tmp_path, {
            "model": {"gallery": "ou"},
            "bounds": {"chen_wang": {"kind": "direct", "family": "exp(-30*x)"}}})
        code, text = run(tmp_path, ["inspect", "--config", cfg])
        assert code == 0
        assert text.splitlines()[-1] == "weight direct exp((-30)*x): V_a = -30*(-x) - 899"

    def test_free_param_without_box_rejected(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, {
            "model": {"gallery": "ou"},
            "bounds": {"chen_wang": {"kind": "z_form", "family": "eps*x"}}})
        assert cli.main(["inspect", "--config", cfg]) == 2
        assert "eps" in capsys.readouterr().err


# ---- the one pipeline: schema, flags, overrides, renderer ----------------

# YAML text, not dumped dicts: YAML 1.1 reads the unquoted 1e-12 as a string
MALFORMED = [
    ("bounds", "quad.abs_tol",
     "model: {gallery: ou}\nbounds: {methods: [veysseire]}\n"
     "oracle: {enabled: false}\nquad: {abs_tol: 1e-12}\n"),
    ("check", "mc.paths",
     "model: {gallery: ou}\nmc: {paths: lots}\ncheck: {intertwining: "
     "[{weight: {kind: direct, family: '1'}, f: x, x0: 0.5, t: 0.0}]}\n"),
    ("bounds", "bounds.chen_wang.box.eps",
     "model: {gallery: ou}\nbounds: {methods: [chen_wang], chen_wang: "
     "{kind: z_form, family: eps*x, box: {eps: 3}}}\noracle: {enabled: false}\n"),
    ("inspect", "model.domain", "model: {sigma: '1', drift: -x, domain: [0]}\n"),
    ("check", "check.intertwining[0].t",
     "model: {gallery: ou}\nmc: {paths: 1000}\ncheck: {intertwining: "
     "[{weight: {kind: direct, family: '1'}, f: x, x0: 0.5, t: soon}]}\n"),
    ("oracle", "oracle.n", "model: {gallery: ou}\noracle: {n: x}\n"),
    ("bounds", "bounds.methods", "model: {gallery: ou}\nbounds: {methods: chen_wang}\n"),
]


@pytest.mark.parametrize("command,key,text", MALFORMED,
                         ids=[key for _, key, _ in MALFORMED])
def test_malformed_value_exits_2(tmp_path, capsys, command, key, text):
    p = tmp_path / "bad.yaml"
    p.write_text(text)
    assert cli.main([command, "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and key in err


# quadrature settings that are well-formed numbers but mean nothing: a NaN
# rel_tol was ignored, an infinite one accepted every first estimate, and
# zero tolerances or no subdivisions ended in "normalization did not converge"
@pytest.mark.parametrize("setting, key", [
    ("rel_tol: .nan", "quad.rel_tol"), ("rel_tol: .inf", "quad.rel_tol"),
    ("rel_tol: 1.0", "quad.rel_tol"), ("abs_tol: -1.0", "quad.abs_tol"),
    ("abs_tol: 0.0, rel_tol: 0.0", "quad.abs_tol and rel_tol"),
    ("max_subdivisions: 0", "quad.max_subdivisions"),
])
def test_meaningless_quad_setting_exits_2(tmp_path, capsys, setting, key):
    p = tmp_path / "bad.yaml"
    p.write_text(f"model: {{gallery: quartic}}\nquad: {{{setting}}}\n")
    assert cli.main(["bounds", "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: {key} ") and "converge" not in err


@pytest.mark.parametrize("command", ["inspect", "oracle"])
def test_null_means_absent(tmp_path, command):
    nulls = {"model": {"gallery": "quartic", "params": None},
             "bounds": {"R": None, "methods": None, "chen_wang": None},
             "oracle": {"R": None, "n": None}, "check": None}
    absent = {"model": {"gallery": "quartic"}}
    reports = [run(tmp_path, [command, "--config", write_cfg(tmp_path, doc, f"{i}.yaml")])
               for i, doc in enumerate((nulls, absent))]
    assert reports[0][0] == 0
    assert reports[0] == reports[1]


@pytest.mark.parametrize("argv", [
    ["bounds", "--config", "m.yaml", "--seed", "1"],
    ["oracle", "--config", "m.yaml", "--seed", "1"],
    ["check", "--config", "m.yaml", "--radius", "3"],
    ["check", "--config", "m.yaml", "--grid", "64"],
    ["inspect", "--config", "m.yaml", "--radius", "3"],
    ["reproduce", "--seed", "1"],
])
def test_flag_only_on_the_commands_that_read_it(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    # the usage shown is the subcommand's, which lists the flags it takes
    assert err.startswith(f"usage: diffgap {argv[0]} [-h]")


def test_explicit_zero_grid_reaches_the_oracle(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"model": {"gallery": "ou"}, "oracle": {"n": 1024}})
    assert cli.main(["oracle", "--config", cfg, "--grid", "0"]) == 3
    assert "grid too coarse" in capsys.readouterr().err


# every subcommand on a cheap input: config, csv header, table header (None:
# no such form)
RENDER_CASES = {
    "bounds": ({"model": {"gallery": "ou"}, "bounds": {"methods": ["veysseire"]},
                "oracle": {"n": 512}},
               ["method", "target", "side", "value", "feasible", "params", "error_budget"],
               ["method", "target", "side", "value", "params", "notes"]),
    "oracle": ({"model": {"gallery": "ou"}, "oracle": {"n": 1024}},
               ["x", "eigen_weight", "killing_rate"], None),
    "check": ({"model": {"gallery": "ou"}, "mc": {"paths": 1000, "seed": 1},
               "check": {"intertwining": [{"weight": {"kind": "direct", "family": "1"},
                                           "f": "tanh(x)", "x0": 0.5, "t": 0.05}],
                         "subintertwining": [{"weight": {"kind": "direct", "family": "1"},
                                              "phi": "poincare", "f": "tanh(x)",
                                              "x0": 0.2, "t": 0.05}]}},
              ["check", "phi", "weight", "f", "x0", "t", "lhs", "rhs", "zscore", "status"],
              ["check", "phi", "weight", "f", "x0", "t", "lhs", "rhs", "z", "status"]),
    "reproduce": ({}, ["label", "reference", "computed", "delta", "tolerance", "status"],
                  ["constant", "reference", "computed", "|delta|", "tolerance", "status"]),
    "inspect": ({"model": {"gallery": "ou"},
                 "bounds": {"chen_wang": {"kind": "z_form", "family": "eps*x",
                                          "box": {"eps": [0.1, 3.0]}}}}, None, None),
}


@pytest.fixture(scope="module")
def rendered():
    """Each subcommand run once on its cheap input, rendered in every format."""
    out = {}
    for name, (cfg, _, _) in RENDER_CASES.items():
        report = getattr(cli, f"cmd_{name}")(cli.validate_config(cfg))
        out[name] = {fmt: cli.render(report, fmt) for fmt in ("table", "json-like", "csv")}
    return out


@pytest.mark.parametrize("name", RENDER_CASES)
def test_csv_form(rendered, name):
    header = RENDER_CASES[name][1]
    text = rendered[name]["csv"]
    if header is None:  # no csv form: the text stands in
        assert text == rendered[name]["table"]
        return
    lines = text.splitlines()
    if name == "oracle":
        assert lines.pop(0).startswith("# model=ou lambda1=")
    rows = list(csv.reader(lines))
    assert rows[0] == header and len(rows) > 1
    assert all(len(r) == len(header) for r in rows)


@pytest.mark.parametrize("name", RENDER_CASES)
def test_json_form_has_sorted_keys(rendered, name):
    key_orders = []

    def record(pairs):
        key_orders.append([k for k, _ in pairs])
        return dict(pairs)

    json.loads(rendered[name]["json-like"], object_pairs_hook=record)
    assert key_orders and all(keys == sorted(keys) for keys in key_orders)


@pytest.mark.parametrize("name", RENDER_CASES)
def test_table_form(rendered, name):
    header = RENDER_CASES[name][2]
    lines = rendered[name]["table"].splitlines()
    rules = [i for i, line in enumerate(lines) if line and set(line) <= {"-", " "}]
    if header is None:
        assert rules == [] and lines[0] == "model: ou"
    else:
        assert len(rules) == 1 and lines[rules[0] - 1].split() == header


def test_inspect_csv_prints_the_text_form(tmp_path):
    cfg = write_cfg(tmp_path, RENDER_CASES["inspect"][0])
    _, text = run(tmp_path, ["inspect", "--config", cfg])
    _, as_csv = run(tmp_path, ["inspect", "--config", cfg, "--format", "csv"])
    assert as_csv == text and text.startswith("model: ou\n")


# gc.freeze is process-wide, so its count is read in a fresh interpreter
_FREEZE_COUNTS = """
import gc, sys
import diffgap.cli as cli
counts = [gc.get_freeze_count()]
for _ in range(2):
    cli.main(["inspect", "--config", sys.argv[1], "--output", sys.argv[2]])
    counts.append(gc.get_freeze_count())
print(*counts)
"""


@pytest.fixture(scope="module")
def freeze_counts(tmp_path_factory):
    """gc.get_freeze_count() after ``import diffgap.cli`` and after each of
    two ``main`` calls, in one fresh interpreter."""
    tmp = tmp_path_factory.mktemp("freeze")
    cfg = write_cfg(tmp, {"model": {"gallery": "ou"}})
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    out = subprocess.run([sys.executable, "-c", _FREEZE_COUNTS, cfg, str(tmp / "out.txt")],
                         capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    return [int(c) for c in out.stdout.split()]


def test_import_leaves_the_collector_alone(freeze_counts):
    assert freeze_counts[0] == 0


def test_main_freezes_the_import_heap(freeze_counts):
    assert freeze_counts[1] > 0


def test_main_freezes_once_per_process(freeze_counts):
    assert freeze_counts[2] == freeze_counts[1]


# the bounds come from ported searches, a math.gamma and a Hermite
# interpolant, the oracle calls LAPACK's wrappers without the rest of
# scipy.linalg, and no array goes through np.unique: no process imports these
# packages.  The process keeps one CPU, so every job runs in it and shows
# its imports in sys.modules.
_SCIPY_MODULES = """
import io, os, sys
from contextlib import redirect_stdout
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import diffgap.cli as cli
codes = []
for argv in (["bounds", "--config", sys.argv[1]], ["oracle", "--config", sys.argv[1]],
             ["inspect", "--config", sys.argv[1]], ["check", "--config", sys.argv[2]],
             ["reproduce"]):
    with redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(*codes, *sorted(m for m in ("scipy.linalg", "scipy.optimize", "scipy.interpolate",
                                  "scipy.special", "numpy.ma") if m in sys.modules))
"""


def test_commands_import_no_unneeded_scipy_package_or_numpy_ma(tmp_path):
    cfg = write_cfg(tmp_path, {"model": {"gallery": "quartic"}})
    mc_cfg = write_cfg(tmp_path, {
        "model": {"gallery": "quartic"}, "mc": {"paths": 1000},
        "check": {"intertwining": [{"weight": {"kind": "z_form", "family": "1.2712*x"},
                                    "f": "tanh(x)", "x0": 0.5, "t": 0.5}]}}, "mc.yaml")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    out = subprocess.run([sys.executable, "-c", _SCIPY_MODULES, cfg, mc_cfg],
                         capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    # reproduce exits 1 on the table's pinned FAIL rows
    assert out.stdout.split() == ["0", "0", "0", "0", "1"]


# ---- fan-out of bounds and reproduce over the CPUs -----------------------


def _cpus(monkeypatch, n):
    """Make the process's affinity mask hold n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@functools.cache
def _gallery_session():
    """``gallery_session`` of the benchmark (``perfbench/run.py``), which
    imports its sibling modules by their bare names."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    finally:
        sys.path.remove(str(PERFBENCH))
    return mod.gallery_session


def _gallery_session_configs(seed, work):
    """The bounds configs the benchmark's gallery-session workload writes
    to ``work`` at ``seed``."""
    return [cli.load_config(argv[argv.index("--config") + 1])
            for _, argv in _gallery_session()(seed, work) if argv[0] == "bounds"]


def _forms(report, formats):
    return report.code, [cli.render(report, fmt) for fmt in formats]


@pytest.mark.parametrize("seed,index", [(s, i) for s in (0, 3) for i in range(4)])
def test_bounds_report_same_on_one_and_two_workers(tmp_path, monkeypatch, seed, index):
    configs = _gallery_session_configs(seed, tmp_path)
    assert len(configs) == 4
    cfg = configs[index]
    got = []
    for n in (1, 2):
        _cpus(monkeypatch, n)
        got.append(_forms(cli.cmd_bounds(cfg), ("json-like", "table")))
    assert got[0] == got[1]
    assert _no_child_left()


def test_reproduce_same_on_one_and_two_workers(monkeypatch):
    got = []
    for n in (1, 2):
        _cpus(monkeypatch, n)
        got.append(_forms(cli.cmd_reproduce({}), ("csv", "table", "json-like")))
    assert got[0] == got[1] and got[0][0] == cli.EXIT_CHECK_FAILED
    assert _no_child_left()


@pytest.mark.parametrize("n", [1, 2])
def test_bad_rayleigh_family_exits_2_on_any_worker_count(tmp_path, capsys, monkeypatch, n):
    _cpus(monkeypatch, n)
    cfg = write_cfg(tmp_path, {"model": {"gallery": "quartic"},
                               "bounds": {"rayleigh": {"family": "x*("}}})
    code, _ = run(tmp_path, ["bounds", "--config", cfg])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == (
        "configuration error: unexpected 'end of input' at position 3: 'x*('\n")
    assert _no_child_left()


def _failing_in(monkeypatch, where):
    """Make every bound method raise a ParseError in the processes ``where``
    names ("worker" or "parent") and take 0.3 s elsewhere first."""
    parent, method = os.getpid(), cli._run_bound_method

    def patched(*args):
        if (os.getpid() == parent) == (where == "parent"):
            raise ex.ParseError("unexpected 'end of input'", "x*(", 3)
        time.sleep(0.3)
        return method(*args)

    monkeypatch.setattr(cli, "_run_bound_method", patched)


@pytest.mark.parametrize("where", ["worker", "parent"])
def test_no_worker_outlives_a_failing_job(tmp_path, capsys, monkeypatch, where):
    _cpus(monkeypatch, 2)
    _failing_in(monkeypatch, where)
    cfg = write_cfg(tmp_path, {"model": {"gallery": "ou"},
                               "bounds": {"methods": ["chen_wang", "veysseire"]}})
    code, _ = run(tmp_path, ["bounds", "--config", cfg])
    assert code == cli.EXIT_CONFIG
    assert "position 3" in capsys.readouterr().err
    assert _no_child_left()


def test_fork_warning_of_os_threads_is_not_shown(tmp_path, capsys, monkeypatch):
    """Python 3.12+ warns on a fork while any OS thread runs, and BLAS keeps
    an idle pool of them: the fan-out forks with no Python thread running,
    so that warning says nothing to it, even where warnings are errors."""
    _cpus(monkeypatch, 2)
    fork = os.fork

    def warning_fork():  # the warning of os.fork in Python 3.12+
        warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                      "fork() may lead to deadlocks in the child.", DeprecationWarning)
        return fork()

    monkeypatch.setattr(os, "fork", warning_fork)
    cfg = write_cfg(tmp_path, {"model": {"gallery": "ou"}})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, text = run(tmp_path, ["bounds", "--config", cfg])
    assert code == cli.EXIT_OK and text.startswith("model: ou\n")
    assert capsys.readouterr().err == ""
    assert _no_child_left()


def test_no_worker_outlives_main(tmp_path, monkeypatch):
    _cpus(monkeypatch, 2)
    cfg = write_cfg(tmp_path, {"model": {"gallery": "ou"}})
    code, text = run(tmp_path, ["bounds", "--config", cfg])
    assert code == cli.EXIT_OK and text.startswith("model: ou\n")
    assert _no_child_left()


def _exception_classes():
    mods = [bd, cli, ex, gal, mc, md, orc, q]
    return sorted({c for m in mods for c in vars(m).values()
                   if isinstance(c, type) and issubclass(c, BaseException)
                   and c.__module__.startswith("diffgap.")}, key=lambda c: c.__qualname__)


@pytest.mark.parametrize("cls", _exception_classes(), ids=lambda c: c.__qualname__)
def test_exception_survives_pickling(cls):
    """A worker's failure crosses the process boundary pickled: it comes
    back with its type, message and attributes."""
    err = cls("unexpected 'end of input'", "x*(", 3) if cls is ex.ParseError else cls("boom")
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls and str(back) == str(err) and vars(back) == vars(err)
    if cls is ex.ParseError:
        assert (back.source, back.pos) == ("x*(", 3)
        assert str(back) == "unexpected 'end of input' at position 3: 'x*('"
