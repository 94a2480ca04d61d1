"""Command-line front end.

Subcommands:
    bounds      run bound methods against a model and assemble brackets
    oracle      reference eigenvalue by the finite-difference solver
    check       Monte-Carlo identity checks
    reproduce   regenerate the worked-example constants table
    inspect     print the derived potential and killing-rate expressions

The config file is YAML with nested sections mirroring the library
modules; unknown keys are rejected up front.  Full schema:

    model:
      gallery: quartic              # exclusive with sigma/drift/target_potential
      params: {beta: 0.5}           # gallery knobs or expression bindings
      sigma: "1"
      drift: "-x"                   # exclusive with target_potential
      target_potential: "x^2/2"
      domain: line                  # or [a, b]
      boundary: neumann             # interval domains only
      tail_kind: exponential        # optional override
      name: mymodel
    quad:
      abs_tol: 1.0e-10
      rel_tol: 1.0e-8
      truncation_R: 12.0
      max_subdivisions: 2000
      infinite_method: auto
    bounds:
      methods: [chen_wang, rayleigh, muckenhoupt, veysseire, lsi]
      R: null                       # scan radius override
      scan_points: 1600
      grid_points: 41
      nm_max_iter: 500
      param_tol: 1.0e-6
      chen_wang: {kind: z_form, family: "eps*x", box: {eps: [0.1, 3.0]}}
      rayleigh: {family: "x*(x^2)^((eps-1)/2)", box: {eps: [0.55, 2.0]}}
      lsi:
        dec: {kind: a_form, family: "-(x-1)^2"}
        inc: null
        box: {}
    oracle: {enabled: true, R: null, n: 2048}
    mc: {step: 1.0e-3, horizon: 0.5, paths: 20000, seed: 0, antithetic: false,
         blow_up_radius: 1.0e6}
    check:
      intertwining:
        - {weight: {kind: direct, family: "1"}, f: "tanh(x)", x0: 0.5, t: 0.5}
      subintertwining:
        - {weight: {kind: direct, family: "1"}, phi: poincare, f: "tanh(x)",
           x0: 0.5, t: 0.5}
    output: {path: report.txt, format: table}

Exit codes: 0 success, 1 conclusive check failure, 2 configuration
error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import yaml

from . import bounds as bd
from . import expr as ex
from . import gallery as gal
from . import mcsim as mc
from . import model as md
from . import oracle as orc
from . import quad as q

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(Exception):
    pass


# ---- config loading and validation ---------------------------------------

_WEIGHT_KEYS = {"kind", "family", "params"}
_SCHEMA = {
    "model": {"gallery", "params", "sigma", "drift", "target_potential",
              "domain", "boundary", "tail_kind", "name"},
    "quad": {"abs_tol", "rel_tol", "truncation_R", "max_subdivisions",
             "infinite_method"},
    "bounds": {"methods", "R", "scan_points", "grid_points", "nm_max_iter",
               "param_tol", "chen_wang", "rayleigh", "lsi"},
    "oracle": {"enabled", "R", "n"},
    "mc": {"step", "horizon", "paths", "seed", "antithetic", "blow_up_radius"},
    "check": {"intertwining", "subintertwining"},
    "output": {"path", "format"},
}
_METHODS = ("chen_wang", "rayleigh", "muckenhoupt", "veysseire", "lsi")
_WEIGHT_KINDS = ("direct", "exp_w", "z_form", "a_form")
_PHI_NAMES = ("poincare", "log_sobolev", "beckner")
_FORMATS = ("table", "json-like", "csv")


def _require_mapping(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be a mapping, got {type(obj).__name__}")
    return obj


def _check_keys(obj: dict, allowed, path: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key {path}.{unknown[0]}" if path
                          else f"unknown key {unknown[0]}")


def _validate_weight(obj, path: str) -> None:
    w = _require_mapping(obj, path)
    _check_keys(w, _WEIGHT_KEYS, path)
    if "kind" not in w or "family" not in w:
        raise ConfigError(f"{path} needs 'kind' and 'family'")
    if w["kind"] not in _WEIGHT_KINDS:
        raise ConfigError(f"{path}.kind must be one of {_WEIGHT_KINDS}")
    if "params" in w:
        _require_mapping(w["params"], f"{path}.params")


def validate_config(cfg: dict) -> None:
    """Schema check: every key must be known, shapes must be right.  Value
    semantics (expressions, tolerances) are validated by the modules."""
    _require_mapping(cfg, "config")
    _check_keys(cfg, _SCHEMA, "")
    for section, allowed in _SCHEMA.items():
        if section in cfg and cfg[section] is not None:
            _check_keys(_require_mapping(cfg[section], section), allowed, section)
    m = cfg.get("model")
    if m:
        has_gallery = "gallery" in m
        has_explicit = "drift" in m or "target_potential" in m or "sigma" in m
        if has_gallery and has_explicit:
            raise ConfigError("model: give either 'gallery' or explicit expressions, not both")
        if has_gallery and m["gallery"] not in gal.GALLERY:
            raise ConfigError(
                f"model.gallery: unknown model {m['gallery']!r}; "
                f"available: {', '.join(gal.gallery_names())}")
    b = cfg.get("bounds") or {}
    if "methods" in b and b["methods"] is not None:
        if not isinstance(b["methods"], list):
            raise ConfigError("bounds.methods must be a list")
        for meth in b["methods"]:
            if meth not in _METHODS:
                raise ConfigError(f"bounds.methods: unknown method {meth!r}")
    for key, extra in (("chen_wang", {"box"}), ("rayleigh", {"box"})):
        if b.get(key) is not None:
            sec = _require_mapping(b[key], f"bounds.{key}")
            if key == "chen_wang":
                _check_keys(sec, {"kind", "family", "box"}, f"bounds.{key}")
                if "kind" in sec and sec["kind"] not in _WEIGHT_KINDS:
                    raise ConfigError(f"bounds.{key}.kind must be one of {_WEIGHT_KINDS}")
            else:
                _check_keys(sec, {"family", "box"}, f"bounds.{key}")
    if b.get("lsi") is not None:
        sec = _require_mapping(b["lsi"], "bounds.lsi")
        _check_keys(sec, {"inc", "dec", "box"}, "bounds.lsi")
        for side in ("inc", "dec"):
            if sec.get(side) is not None:
                _validate_weight(sec[side], f"bounds.lsi.{side}")
    c = cfg.get("check") or {}
    for kind in ("intertwining", "subintertwining"):
        items = c.get(kind)
        if items is None:
            continue
        if not isinstance(items, list):
            raise ConfigError(f"check.{kind} must be a list")
        needed = {"weight", "f", "x0", "t"}
        allowed = needed | {"delta"} | ({"phi", "p"} if kind == "subintertwining" else set())
        for i, item in enumerate(items):
            path = f"check.{kind}[{i}]"
            item = _require_mapping(item, path)
            _check_keys(item, allowed, path)
            missing = sorted((needed | ({"phi"} if kind == "subintertwining" else set())) - set(item))
            if missing:
                raise ConfigError(f"{path} needs {missing}")
            _validate_weight(item["weight"], f"{path}.weight")
            if kind == "subintertwining" and item["phi"] not in _PHI_NAMES:
                raise ConfigError(f"{path}.phi must be one of {_PHI_NAMES}")
    out = cfg.get("output") or {}
    if "format" in out and out["format"] not in _FORMATS:
        raise ConfigError(f"output.format must be one of {_FORMATS}")


def load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        cfg = yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ConfigError(f"config {path} is not valid YAML: {e}") from e
    if cfg is None:
        cfg = {}
    validate_config(cfg)
    return cfg


# ---- config to library objects -------------------------------------------


def model_from_config(cfg: dict) -> md.DiffusionModel:
    m = cfg.get("model")
    if not m:
        raise ConfigError("a 'model' section is required")
    if "gallery" in m:
        return gal.gallery_model(m["gallery"], **(m.get("params") or {}))
    kwargs = {k: m[k] for k in ("sigma", "drift", "target_potential", "domain",
                                "boundary", "tail_kind", "name") if k in m}
    kwargs["params"] = m.get("params") or {}
    return md.build_model(**kwargs)


def quad_from_config(cfg: dict) -> q.QuadConfig:
    sec = cfg.get("quad") or {}
    return q.QuadConfig(**{k: sec[k] for k in _SCHEMA["quad"] if k in sec})


def weight_from_config(sec: dict) -> tuple[md.WeightSpec, dict]:
    kind, family = sec["kind"], sec["family"]
    spec = getattr(md.WeightSpec, kind)(ex.parse(str(family)))
    return spec, dict(sec.get("params") or {})


def _box_from(sec: dict | None) -> dict | None:
    if not sec:
        return None
    return {k: (float(v[0]), float(v[1])) for k, v in sec.items()}


def opt_from_config(cfg: dict, radius: float | None) -> bd.OptConfig:
    sec = cfg.get("bounds") or {}
    kw = {k: sec[k] for k in ("scan_points", "grid_points", "nm_max_iter",
                              "param_tol") if k in sec}
    r = radius if radius is not None else sec.get("R")
    return bd.OptConfig(R=r, quad=quad_from_config(cfg), **kw)


def mc_from_config(cfg: dict, seed: int | None) -> mc.MCConfig:
    sec = dict(cfg.get("mc") or {})
    if seed is not None:
        sec["seed"] = seed
    return mc.MCConfig(**{k: sec[k] for k in _SCHEMA["mc"] if k in sec})


_DEFAULT_CHEN_WANG = {"kind": "z_form", "family": "eps*x",
                      "box": {"eps": [0.1, 3.0]}}
_DEFAULT_RAYLEIGH = {"family": "x*(x^2)^((eps-1)/2)",
                     "box": {"eps": [0.55, 2.0]}}
_DEFAULT_LSI = {"dec": {"kind": "a_form", "family": "-(x-1)^2"},
                "inc": None, "box": {}}


# ---- output emission -----------------------------------------------------


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        return f"{v:.10g}"
    return str(v)


def _short(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else _fmt(v)


def _table(rows: list[list[str]], header: list[str]) -> str:
    cols = [header] + rows
    widths = [max(len(str(r[i])) for r in cols) for i in range(len(header))]
    lines = ["  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip()
             for r in cols]
    lines.insert(1, "  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"


def _emit_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv_lines(rows: list[list], header: list[str]) -> str:
    import csv as _csv
    import io

    buf = io.StringIO()
    wr = _csv.writer(buf, lineterminator="\n")
    wr.writerow(header)
    for r in rows:
        wr.writerow([_fmt(c) if isinstance(c, float) else c for c in r])
    return buf.getvalue()


def _kv(d: dict) -> str:
    return ";".join(f"{k}={_short(v)}" for k, v in sorted(d.items()))


def _write(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


# ---- bounds command ------------------------------------------------------


def _run_bound_method(m, name, cfg, opt_cfg):
    sec = cfg.get("bounds") or {}
    if name == "chen_wang":
        conf = sec.get("chen_wang") or _DEFAULT_CHEN_WANG
        spec, _ = weight_from_config(conf)
        box = _box_from(conf.get("box"))
        return [bd.chen_wang_lower(m, spec, replace(opt_cfg, box=box))]
    if name == "rayleigh":
        conf = sec.get("rayleigh") or _DEFAULT_RAYLEIGH
        return [bd.rayleigh_upper(m, ex.parse(str(conf["family"])),
                                  replace(opt_cfg, box=_box_from(conf.get("box"))))]
    if name == "muckenhoupt":
        return list(bd.muckenhoupt(m, opt_cfg).reports())
    if name == "veysseire":
        return [bd.veysseire_lower(m, opt_cfg)]
    if name == "lsi":
        conf = sec.get("lsi") or _DEFAULT_LSI
        fams = {}
        for side in ("inc", "dec"):
            if conf.get(side):
                spec, _ = weight_from_config(conf[side])
                fams[f"{side}_family"] = spec
        return [bd.lsi_lower(m, opt_cfg=replace(opt_cfg, box=_box_from(conf.get("box"))),
                             **fams)]
    raise ConfigError(f"unknown bound method {name!r}")


def cmd_bounds(cfg: dict, fmt: str, out: str | None, radius=None, grid=None) -> int:
    m = model_from_config(cfg)
    sec = cfg.get("bounds") or {}
    methods = sec.get("methods")
    if methods is None:
        methods = list(_METHODS)
    opt_cfg = opt_from_config(cfg, radius)
    reports, method_errors = [], []
    for name in methods:
        try:
            reports.extend(_run_bound_method(m, name, cfg, opt_cfg))
        except bd.BoundError as e:
            method_errors.append({"method": name, "error": str(e)})
    osec = cfg.get("oracle") or {}
    oracle = None
    if osec.get("enabled", True) and methods:
        oracle = orc.spectral_gap_fd(m, R=radius if radius is not None else osec.get("R"),
                                     n=int(grid or osec.get("n", 2048)))
    doc = bd.assemble_report(m, reports, oracle)
    if method_errors:
        doc["method_errors"] = method_errors

    if fmt == "json-like":
        text = _emit_json(doc)
    elif fmt == "csv":
        rows = []
        for target, entry in doc["targets"].items():
            for r in entry["methods"]:
                rows.append([r["method"], target, r["side"], r["value"],
                             r["feasible"], _kv(r["params"]), _kv(r["error_budget"])])
        text = _csv_lines(rows, ["method", "target", "side", "value",
                                 "feasible", "params", "error_budget"])
    else:
        lines = [f"model: {doc['model']}"]
        if "oracle" in doc:
            lines.append(f"reference eigenvalue: {_fmt(doc['oracle']['lambda1'])}"
                         f" (err {_short(doc['oracle']['err_est'])})")
        for target, entry in doc["targets"].items():
            br = entry["bracket"]
            lines.append(f"{target}: lower {_fmt(entry['lower']) or '-'}"
                         f"  upper {_fmt(entry['upper']) or '-'}"
                         + (f"  bracket [{_fmt(br[0])}, {_fmt(br[1])}]" if br else ""))
            if entry.get("upper_source"):
                lines.append(f"  upper from: {entry['upper_source']}")
        rows = []
        for target, entry in doc["targets"].items():
            for r in entry["methods"]:
                rows.append([r["method"], target, r["side"],
                             _fmt(r["value"]) if r["value"] is not None else "infeasible",
                             _kv(r["params"]), "; ".join(r["notes"])])
        if rows:
            lines.append("")
            lines.append(_table(rows, ["method", "target", "side", "value",
                                       "params", "notes"]).rstrip())
        for err in method_errors:
            lines.append(f"method error: {err['method']}: {err['error']}")
        for v in doc["violations"]:
            lines.append(f"VIOLATION: {v}")
        text = "\n".join(lines) + "\n"
    _write(text, out)
    return EXIT_CHECK_FAILED if doc["violations"] else EXIT_OK


# ---- oracle command ------------------------------------------------------


def cmd_oracle(cfg: dict, fmt: str, out: str | None, radius=None, grid=None) -> int:
    m = model_from_config(cfg)
    osec = cfg.get("oracle") or {}
    R = radius if radius is not None else osec.get("R")
    n = int(grid or osec.get("n", 2048))
    g = orc.spectral_gap_fd(m, R=R, n=n)
    ew = orc.eigvec_weight(m, R=R)
    doc = {
        "model": m.name,
        "lambda1": g.value,
        "err_est": g.err_est,
        "coarse": g.coarse,
        "fine": g.fine,
        "truncation_gap": g.truncation_gap,
        "n": g.n,
        "boundary": g.boundary,
        "rate_flatness": ew.flatness,
        "bulk": list(ew.bulk),
    }
    if fmt == "json-like":
        text = _emit_json(doc)
    elif fmt == "csv":
        # restrict to the bulk window: outside it the eigenvector sits at
        # machine zero and the reconstructed weight/rate are noise
        xs = ew.grid[(ew.grid >= ew.bulk[0]) & (ew.grid <= ew.bulk[1])]
        rows = list(zip(xs.tolist(), np.asarray(ew.weight_fn(xs), dtype=float).tolist(),
                        np.asarray(ew.v_fn(xs), dtype=float).tolist()))
        head = (f"# model={m.name} lambda1={_fmt(g.value)} err={_short(g.err_est)}"
                f" flatness={_short(ew.flatness)}"
                f" bulk=[{_short(ew.bulk[0])},{_short(ew.bulk[1])}]\n")
        text = head + _csv_lines([list(r) for r in rows],
                                 ["x", "eigen_weight", "killing_rate"])
    else:
        lines = [f"model: {m.name}",
                 f"lambda1: {_fmt(g.value)} (err {_short(g.err_est)})",
                 f"grid: n={g.n} boundary={g.boundary}",
                 f"richardson: coarse {_fmt(g.coarse)} fine {_fmt(g.fine)}",
                 f"truncation gap: {_short(g.truncation_gap)}",
                 f"eigenvector-weight rate flatness: {_short(ew.flatness)} "
                 f"on bulk [{_short(ew.bulk[0])}, {_short(ew.bulk[1])}]"]
        text = "\n".join(lines) + "\n"
    _write(text, out)
    return EXIT_OK


# ---- check command -------------------------------------------------------


def _check_row(check: str, item: dict, r, zscore: float, score: float) -> dict:
    """Report row of one MC check.  ``score`` is the statistic whose excess
    marks a violation: above 5 fails, above 3 warns."""
    if not r.conclusive:
        status = "inconclusive"
    elif score > 5.0:
        status = "fail"
    elif score > 3.0:
        status = "warn"
    else:
        status = "pass"
    return {
        "check": check,
        "weight": f"{item['weight']['kind']}:{item['weight']['family']}",
        "f": str(item["f"]), "x0": float(item["x0"]), "t": float(item["t"]),
        "lhs": r.lhs, "rhs": r.rhs, "zscore": zscore, "status": status,
    }


def cmd_check(cfg: dict, fmt: str, out: str | None, seed=None) -> int:
    m = model_from_config(cfg)
    mc_cfg = mc_from_config(cfg, seed)
    sec = cfg.get("check") or {}
    rows = []
    for item in sec.get("intertwining") or []:
        spec, params = weight_from_config(item["weight"])
        r = mc.check_intertwining(m, spec, str(item["f"]), float(item["x0"]),
                                  float(item["t"]), mc_cfg, w_params=params,
                                  delta=float(item.get("delta", 1e-3)))
        rows.append(_check_row("intertwining", item, r, r.zscore, r.zscore))
    for item in sec.get("subintertwining") or []:
        spec, params = weight_from_config(item["weight"])
        phi = (q.PhiSpec.beckner(float(item.get("p", 1.5)))
               if item["phi"] == "beckner"
               else getattr(q.PhiSpec, item["phi"])())
        r = mc.check_subintertwining(m, spec, phi, str(item["f"]),
                                     float(item["x0"]), float(item["t"]), mc_cfg,
                                     w_params=params,
                                     delta=float(item.get("delta", 1e-3)))
        # a negative margin z-score is the violation, so the ladder tests -z
        row = _check_row("subintertwining", item, r, r.margin_zscore, -r.margin_zscore)
        rows.append({**row, "phi": phi.name})
    failed = any(row["status"] == "fail" for row in rows)
    doc = {"model": m.name, "seed": mc_cfg.seed, "paths": mc_cfg.paths,
           "checks": rows}

    if fmt == "json-like":
        text = _emit_json(doc)
    elif fmt == "csv":
        table_rows = [[r["check"], r.get("phi", ""), r["weight"], r["f"],
                       r["x0"], r["t"], r["lhs"], r["rhs"], r["zscore"],
                       r["status"]] for r in rows]
        text = _csv_lines(table_rows, ["check", "phi", "weight", "f", "x0",
                                       "t", "lhs", "rhs", "zscore", "status"])
    else:
        table_rows = [[r["check"], r.get("phi", ""), r["weight"], r["f"],
                       _short(r["x0"]), _short(r["t"]), _short(r["lhs"]),
                       _short(r["rhs"]), _short(r["zscore"]), r["status"]]
                      for r in rows]
        head = f"model: {doc['model']}  paths: {doc['paths']}  seed: {doc['seed']}\n"
        text = head + (_table(table_rows, ["check", "phi", "weight", "f", "x0",
                                           "t", "lhs", "rhs", "z", "status"])
                       if rows else "no checks configured\n")
    _write(text, out)
    return EXIT_CHECK_FAILED if failed else EXIT_OK


# ---- reproduce command ---------------------------------------------------


def _value_row(label, reference, computed, tol):
    delta = abs(computed - reference)
    return {"label": label, "reference": _fmt(reference), "computed": computed,
            "delta": delta, "tolerance": tol,
            "status": "pass" if delta <= tol else "FAIL"}


def _interval_row(label, lo, hi, computed):
    inside = lo <= computed <= hi
    delta = 0.0 if inside else (lo - computed if computed < lo else computed - hi)
    ref = f"[{_short(lo)}, {_short(hi)}]" if math.isfinite(hi) else f">= {_short(lo)}"
    return {"label": label, "reference": ref, "computed": computed,
            "delta": delta, "tolerance": 0.0,
            "status": "pass" if inside else "FAIL"}


def reproduce_rows() -> list[dict]:
    """Every displayed constant of the worked examples, recomputed from
    scratch.  Failing rows stay in the table; they are findings, not bugs."""
    sq32 = math.sqrt(1.5)
    rows = []

    m_ou = gal.gallery_model("ou")
    rows.append(_value_row(
        "ou unit-weight lower bound", 1.0,
        bd.chen_wang_lower(m_ou, md.WeightSpec.direct("1")).value, 1e-12))
    g_ou = orc.spectral_gap_fd(m_ou, n=2048)
    rows.append(_value_row("ou reference eigenvalue", 1.0, g_ou.value, 1e-4))
    lsi_ou = bd.lsi_lower(m_ou, inc_family=md.WeightSpec.direct("1"))
    rows.append(_value_row("ou log-sobolev lower", 2.0, lsi_ou.value, 1e-4))
    rows.append(_value_row("ou log-sobolev bracket upper", 2.0,
                           2.0 * (g_ou.value + g_ou.err_est), 1e-4))

    m_q = gal.gallery_model("quartic")
    cw_q = bd.chen_wang_lower(m_q, md.WeightSpec.z_form(ex.parse("eps*x")),
                              bd.OptConfig(box={"eps": (0.1, 3.0)}))
    rows.append(_value_row("quartic slope-family location", sq32,
                           cw_q.params["eps"], 1e-3))
    rows.append(_value_row("quartic slope-family value", sq32, cw_q.value, 1e-3))
    ray_q = bd.rayleigh_upper(m_q, ex.parse("x*(x^2)^((eps-1)/2)"),
                              bd.OptConfig(box={"eps": (0.55, 2.0)}))
    rows.append(_value_row("quartic trial-family value", 1.426, ray_q.value, 5e-3))
    rows.append(_value_row("quartic trial-family location", 0.854,
                           ray_q.params["eps"], 5e-3))
    g_q = orc.spectral_gap_fd(m_q, n=2048)
    rows.append(_interval_row("quartic eigenvalue inside stated bracket",
                              1.2247, 1.426, g_q.value))

    rows.append(_value_row("power(4) closed-form relaxation", 0.152,
                           bd.muckenhoupt_power_formula(4.0), 5e-3))
    mk_q = bd.muckenhoupt(m_q)
    rows.append(_interval_row("power(4) bracket contains eigenvalue",
                              mk_q.lower, mk_q.upper, g_q.value))

    m_p = gal.gallery_model("power", alpha=1.5)
    ref_p = bd.veysseire_power_formula(1.5)
    rows.append(_value_row("power(1.5) integrated bound", ref_p,
                           bd.veysseire_lower(m_p).value, 1e-4 * ref_p))
    rows.append(_value_row("integrated/relaxation crossover", 1.188,
                           bd.power_crossover(), 1e-2))

    m_s = gal.gallery_model("smoothed-exponential")
    g_s = orc.spectral_gap_fd(m_s, R=60.0, n=4096)
    rows.append(_value_row("smoothed-exponential eigenvalue", 0.25, g_s.value, 5e-3))
    mk_s = bd.muckenhoupt(m_s, bd.OptConfig(R=60.0))
    rows.append(_interval_row("smoothed-exponential bracket contains eigenvalue",
                              mk_s.lower, mk_s.upper, g_s.value))

    for beta in (0.25, 0.5, 1.0):
        m_dw = gal.gallery_model("double-well", beta=beta)
        cw = bd.chen_wang_lower(m_dw, md.WeightSpec.z_form(ex.parse("eps*x")),
                                bd.OptConfig(box={"eps": (0.1, 3.0)}))
        stated = sq32 - beta
        rows.append(_value_row(f"double-well({beta:g}) slope-family value",
                               stated, cw.value, 1e-3))
        g_dw = orc.spectral_gap_fd(m_dw, n=2048)
        rows.append(_interval_row(
            f"double-well({beta:g}) eigenvalue above stated bound",
            stated - 1e-3, math.inf, g_dw.value))

    lsi_q = bd.lsi_lower(m_q, dec_family=md.WeightSpec.a_form(ex.parse("-(x-1)^2")))
    rows.append(_value_row("quartic entropy-weight infimum", 0.594,
                           lsi_q.params["rho_dec"], 1e-2))
    rows.append(_value_row("quartic log-sobolev lower", 1.188, lsi_q.value, 2e-2))
    rows.append(_value_row("quartic log-sobolev upper", 2.852,
                           2.0 * ray_q.value, 1e-2))

    m_dwh = gal.gallery_model("double-well", beta=0.5)
    lsi_dw = bd.lsi_lower(m_dwh, dec_family=md.WeightSpec.a_form(
        ex.parse("-(1.28*x-1)^2")))
    rows.append(_value_row("double-well(0.5) entropy-weight infimum", 0.22,
                           lsi_dw.params["rho_dec"], 1e-2))
    rows.append(_value_row("double-well(0.5) log-sobolev lower", 0.44,
                           lsi_dw.value, 2e-2))

    m_c = gal.gallery_model("cauchy")
    rows.append(_value_row("cauchy integrated bound", 8.0 / 3.0,
                           bd.veysseire_lower(m_c).value, 1e-4))
    m_cl = gal.gallery_model("cauchy", variant="linear")
    d_cl = md.realize_weight(m_cl, md.WeightSpec.direct(m_cl.sigma))
    rows.append(_value_row("cauchy growing-diffusion infimum", 3.0,
                           bd.rho_of_weight(d_cl), 1e-9))
    return rows


def cmd_reproduce(fmt: str, out: str | None) -> int:
    rows = reproduce_rows()
    doc = {"rows": rows,
           "failures": sum(1 for r in rows if r["status"] == "FAIL")}
    if fmt == "json-like":
        text = _emit_json(doc)
    elif fmt == "csv":
        table_rows = [[r["label"], r["reference"], r["computed"], r["delta"],
                       r["tolerance"], r["status"]] for r in rows]
        text = _csv_lines(table_rows, ["label", "reference", "computed",
                                       "delta", "tolerance", "status"])
    else:
        table_rows = [[r["label"], r["reference"], _fmt(r["computed"]),
                       _short(r["delta"]), _short(r["tolerance"]), r["status"]]
                      for r in rows]
        text = _table(table_rows, ["constant", "reference", "computed",
                                   "|delta|", "tolerance", "status"])
        text += (f"\n{doc['failures']} of {len(rows)} rows fail; the failing "
                 "stated constants are not reproducible from the definitions "
                 "(see README).\n" if doc["failures"] else
                 "\nall rows reproduced.\n")
    _write(text, out)
    return EXIT_CHECK_FAILED if doc["failures"] else EXIT_OK


# ---- inspect command -----------------------------------------------------


def cmd_inspect(cfg: dict, fmt: str, out: str | None) -> int:
    m = model_from_config(cfg)
    d_sigma = md.realize_weight(m, md.WeightSpec.direct(m.sigma))
    doc = {
        "model": m.name,
        "sigma": ex.to_string(m.sigma),
        "drift": ex.to_string(m.drift),
        "potential": ex.to_string(m.u_expr) if m.u_expr is not None
        else "(numeric: cumulative integral of U')",
        "v_sigma": ex.to_string(ex.simplify(d_sigma.v_expr)),
        "weights": [],
    }
    sec = cfg.get("bounds") or {}
    for key in ("chen_wang", "lsi"):
        conf = sec.get(key)
        if not conf:
            continue
        entries = [conf] if key == "chen_wang" else [
            c for c in (conf.get("inc"), conf.get("dec")) if c]
        for entry in entries:
            spec, params = weight_from_config(entry)
            free = sorted(ex.free_params(spec.payload) - set(params))
            bound = dict(params)
            if free:
                box = _box_from((conf or {}).get("box")) or {}
                for name in free:
                    if name not in box:
                        raise ConfigError(
                            f"inspect needs a binding or box for parameter {name!r}")
                    bound[name] = 0.5 * (box[name][0] + box[name][1])
            d = md.realize_weight(m, spec, bound)
            doc["weights"].append({
                "kind": spec.kind,
                "family": ex.to_string(spec.payload),
                "bound_params": {k: float(v) for k, v in bound.items()},
                "v_a": ex.to_string(ex.simplify(ex.substitute(d.v_expr, d.params))),
            })
    if fmt == "json-like":
        text = _emit_json(doc)
    else:
        lines = [f"model: {doc['model']}",
                 f"sigma: {doc['sigma']}",
                 f"drift: {doc['drift']}",
                 f"potential: {doc['potential']}",
                 f"V_sigma: {doc['v_sigma']}"]
        for w in doc["weights"]:
            lines.append(f"weight {w['kind']} {w['family']}"
                         + (f" at {_kv(w['bound_params'])}" if w["bound_params"] else "")
                         + f": V_a = {w['v_a']}")
        text = "\n".join(lines) + "\n"
    _write(text, out)
    return EXIT_OK


# ---- entry point ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="diffgap",
        description="Spectral-gap and log-Sobolev bounds for one-dimensional diffusions")
    sub = p.add_subparsers(dest="command", required=True)
    for name, needs_config in (("bounds", True), ("oracle", True),
                               ("check", True), ("reproduce", False),
                               ("inspect", True)):
        sp = sub.add_parser(name)
        if needs_config:
            sp.add_argument("--config", required=True, help="YAML config path")
        sp.add_argument("--output", default=None, help="write the report here")
        sp.add_argument("--format", default=None, choices=_FORMATS)
        sp.add_argument("--seed", type=int, default=None,
                        help="override the simulation seed")
        sp.add_argument("--radius", type=float, default=None,
                        help="override scan/truncation radius")
        sp.add_argument("--grid", type=int, default=None,
                        help="override the eigensolver grid size")
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "reproduce":
            return cmd_reproduce(args.format or "table", args.output)
        cfg = load_config(args.config)
        out_sec = cfg.get("output") or {}
        fmt = args.format or out_sec.get("format") or "table"
        out = args.output or out_sec.get("path")
        if args.command == "bounds":
            return cmd_bounds(cfg, fmt, out, radius=args.radius, grid=args.grid)
        if args.command == "oracle":
            return cmd_oracle(cfg, fmt, out, radius=args.radius, grid=args.grid)
        if args.command == "check":
            return cmd_check(cfg, fmt, out, seed=args.seed)
        if args.command == "inspect":
            return cmd_inspect(cfg, fmt, out)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, md.ModelError, ex.ExprError, mc.PreconditionError,
            bd.BoundError) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (q.QuadError, orc.OracleError, mc.MCError) as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return EXIT_NUMERICAL
    except BrokenPipeError:
        # reader hung up (e.g. piped into head); not our error
        try:
            sys.stdout.close()
        except OSError:
            pass
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
