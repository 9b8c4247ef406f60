"""Command-line entry point.

Subcommands: `ssmm run`, `smbmm run`, `sweep`, `thresholds`, `compare`,
`audit`. Experiment configs are versioned JSON ({"schema": 1, ...});
unknown fields are rejected. Exit codes: 0 pass, 1 protocol or
verification failure, 2 usage error.

Output files are byte-identical for identical config and seed; pass
--timing to include wall-clock columns (at the cost of reproducibility
of the bytes).
"""

import argparse
import itertools
import json
import sys

from . import analysis, audit, batch, harness, ssmm
from .errors import ConfigError, SmbmmError

SCHEMA_VERSION = 1

_RUN_FIELDS = {
    "schema", "protocol", "m", "p", "n", "xa", "xb", "g", "l", "q",
    "n_servers", "variant", "rows", "inner", "cols", "data",
    "stragglers", "seed",
}
_SWEEP_FIELDS = {"schema", "protocol", "base", "grid", "seed"}
_AUDIT_FIELDS = {
    "schema", "protocol", "m", "p", "n", "xa", "xb", "g", "l", "q",
    "n_servers", "variant", "sides", "max_subsets", "leakage", "seed",
}

CONFIG_SCHEMA = """\
run config (JSON):
  {"schema": 1, "protocol": "ssmm"|"smbmm",
   "m": int, "p": int, "n": int, "xa": int, "xb": int,
   "g": int, "l": int,                  # smbmm only
   "q": int, "n_servers": int,
   "rows": int, "inner": int, "cols": int,
   "variant": "a"|"b"|"auto",           # optional, default "auto"
   "data": {"random": seed} | {"files": {"a": [paths], "b": [paths]}},
   "stragglers": {"fixed": [indices]} | {"random": count},
   "seed": int}
sweep config (JSON):
  {"schema": 1, "protocol": ..., "base": {run fields}, "grid": {field: [values]},
   "seed": int}
audit config (JSON):
  {"schema": 1, "protocol": ..., run parameter fields,
   "sides": ["a","b"], "max_subsets": int|null,
   "leakage": {"ssmm_share": {"side": "a"}} | {"user_view": {"data_samples": int,
   "coordinate": int|null}} | null, "seed": int}
Unknown fields are rejected. Matrix fixture files use the format
"q rows cols" on the first line, then rows of decimal residues.
"""


def _load_config(path, allowed):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from None
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if cfg.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"config schema must be {SCHEMA_VERSION}")
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    return cfg


def _as_int(value, name, optional=False):
    """One integer config value; anything int() rejects is a ConfigError."""
    if optional and value is None:
        return None
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be an integer, got {value!r}") from None


def _int_fields(cfg, names):
    _require_fields(cfg, names)
    return {f: _as_int(cfg[f], f) for f in names}


def _parse_data(spec):
    if spec is None:
        return None
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError('data must be {"random": seed} or {"files": {...}}')
    if "random" in spec:
        return harness.DataSource.random(_as_int(spec["random"], "data.random"))
    if "files" in spec:
        files = spec["files"]
        if not isinstance(files, dict) or set(files) != {"a", "b"}:
            raise ConfigError('data.files must hold "a" and "b" path lists')
        return harness.DataSource.files(files["a"], files["b"])
    raise ConfigError(f"unknown data source {list(spec)[0]!r}")


def _parse_stragglers(spec):
    if spec is None:
        return harness.StragglerModel.none()
    if not isinstance(spec, dict) or len(spec) != 1:
        raise ConfigError('stragglers must be {"fixed": [...]} or {"random": count}')
    if "fixed" in spec:
        fixed = spec["fixed"]
        if not isinstance(fixed, list):
            raise ConfigError("stragglers.fixed must be a list of server indices")
        return harness.StragglerModel.fixed(
            [_as_int(i, "stragglers.fixed") for i in fixed]
        )
    if "random" in spec:
        return harness.StragglerModel.random_count(
            _as_int(spec["random"], "stragglers.random")
        )
    raise ConfigError(f"unknown straggler mode {list(spec)[0]!r}")


def _require_fields(cfg, names):
    missing = [f for f in names if f not in cfg]
    if missing:
        raise ConfigError(f"missing config fields: {missing}")


def _run_config_from_dict(cfg, protocol, seed_override=None):
    base = ["m", "p", "n", "xa", "xb", "q", "n_servers", "rows", "inner", "cols"]
    if protocol == "smbmm":
        base += ["g", "l"]
    v = _int_fields(cfg, base)
    seed = seed_override if seed_override is not None else _as_int(cfg.get("seed", 0), "seed")
    common = dict(
        m=v["m"], p=v["p"], n=v["n"], x_a=v["xa"], x_b=v["xb"],
        q=v["q"], n_servers=v["n_servers"],
        rows=v["rows"], inner=v["inner"], cols=v["cols"],
        seed=seed,
        variant=str(cfg.get("variant", "auto")),
        data=_parse_data(cfg.get("data")),
        stragglers=_parse_stragglers(cfg.get("stragglers")),
    )
    if protocol == "smbmm":
        return harness.SmbmmRunConfig(g=v["g"], l=v["l"], **common)
    return harness.SsmmRunConfig(**common)


def _write_or_print(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _record_report(record, timing):
    cfg = record.config
    report = {
        "protocol": record.protocol,
        "params": {
            "m": cfg.m, "p": cfg.p, "n": cfg.n,
            "xa": cfg.x_a, "xb": cfg.x_b,
            "q": cfg.q, "n_servers": cfg.n_servers,
            "rows": cfg.rows, "inner": cfg.inner, "cols": cfg.cols,
        },
        "seed": record.seed,
        "recovery_threshold": record.threshold,
        "stragglers": list(record.straggler_indices),
        "responding": len(record.responding),
        "used_servers": list(record.used),
        "oracle_match": record.ok,
        "cost_match": record.cost_match,
        "pass": record.passed,
        "costs": record.costs.to_dict(),
        "realized": {
            "upload_a_elements": record.realized_upload_a,
            "upload_b_elements": record.realized_upload_b,
            "download_elements": record.realized_download,
        },
        "wall_ms": round(record.wall_ms, 3) if timing else 0,
    }
    if record.protocol == "smbmm":
        report["params"]["g"] = cfg.g
        report["params"]["l"] = cfg.l
    return report


def _format_report(report, fmt):
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True) + "\n"
    flat = dict(report["params"])
    flat.update(
        K=report["recovery_threshold"],
        variant=report["costs"]["variant"],
        stragglers=len(report["stragglers"]),
        U_A=report["costs"]["upload_a"],
        U_B=report["costs"]["upload_b"],
        D=report["costs"]["download"],
        rho=report["costs"]["randomness"],
        wall_ms=report["wall_ms"],
    )
    flat["pass"] = str(report["pass"]).lower()
    cols = list(flat)
    if fmt == "csv":
        return ",".join(cols) + "\n" + ",".join(str(flat[c]) for c in cols) + "\n"
    if fmt == "md":
        return analysis.render_markdown([flat], cols)
    raise ConfigError(f"unknown format {fmt!r}")


def _cmd_run(args, protocol):
    cfg_dict = _load_config(args.config, _RUN_FIELDS)
    declared = cfg_dict.get("protocol", protocol)
    if declared != protocol:
        raise ConfigError(f"config is for protocol {declared!r}, not {protocol!r}")
    cfg = _run_config_from_dict(cfg_dict, protocol, seed_override=args.seed)
    record = harness.run_smbmm(cfg) if protocol == "smbmm" else harness.run_ssmm(cfg)
    report = _record_report(record, args.timing)
    _write_or_print(_format_report(report, args.format), args.out)
    return 0 if record.passed else 1


def _cmd_sweep(args):
    cfg = _load_config(args.config, _SWEEP_FIELDS)
    _require_fields(cfg, ["protocol", "base", "grid"])
    protocol = cfg["protocol"]
    if protocol not in ("ssmm", "smbmm"):
        raise ConfigError(f"unknown protocol {protocol!r}")
    base = dict(cfg["base"])
    base.setdefault("schema", SCHEMA_VERSION)
    unknown = set(base) - _RUN_FIELDS
    if unknown:
        raise ConfigError(f"unknown base fields: {sorted(unknown)}")
    grid = cfg["grid"]
    if not isinstance(grid, dict) or not grid:
        raise ConfigError("grid must be a nonempty object of field: [values]")
    bad = set(grid) - (_RUN_FIELDS - {"schema", "protocol", "data", "stragglers"})
    if bad:
        raise ConfigError(f"grid cannot vary fields: {sorted(bad)}")
    names = sorted(grid)
    cells = []
    for combo in itertools.product(*(grid[k] for k in names)):
        cell = dict(base)
        cell.update(dict(zip(names, combo)))
        cells.append(_run_config_from_dict(cell, protocol))
    seed = args.seed if args.seed is not None else _as_int(cfg.get("seed", 0), "seed")
    records, csv_text = harness.sweep(cells, seed, timing=args.timing)
    _write_or_print(csv_text, args.out)
    ok = all(r is not None and r.passed for r in records)
    return 0 if ok else 1


def _cmd_thresholds(args):
    pair = ssmm.recovery_threshold_ssmm(args.m, args.p, args.n, args.xa, args.xb)
    out = {
        "ssmm": {
            "a_major": pair.a_major,
            "b_major": pair.b_major,
            "k": pair.k,
            "best_variant": pair.best_variant,
        }
    }
    if args.g is not None or args.l is not None:
        if args.g is None or args.l is None:
            raise ConfigError("batch thresholds need both --g and --l")
        batch_pair = batch.recovery_threshold_smbmm(
            args.m, args.p, args.n, args.xa, args.xb, args.g, args.l
        )
        out["smbmm"] = {
            "k_prime": batch_pair.k_prime,
            "k_double_prime": batch_pair.k_double_prime,
            "k": batch_pair.k,
            "best_variant": batch_pair.best_variant,
        }
    if args.format == "json":
        text = json.dumps(out, indent=2, sort_keys=True) + "\n"
    else:
        lines = [
            f"ssmm: A-major K={pair.a_major}  B-major K={pair.b_major}  "
            f"min K={pair.k} (variant {pair.best_variant!r})"
        ]
        if "smbmm" in out:
            s = out["smbmm"]
            lines.append(
                f"smbmm: K'={s['k_prime']}  K''={s['k_double_prime']}  "
                f"min K={s['k']} (variant {s['best_variant']!r})"
            )
        text = "\n".join(lines) + "\n"
    _write_or_print(text, args.out)
    return 0


def _parse_int_list(text):
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from None


def _cmd_compare(args):
    xs = _parse_int_list(args.x)
    if not xs:
        raise ConfigError("need at least one X value")
    if args.table == 5:
        if args.g is None or args.l is None:
            raise ConfigError("table 5 needs --g and --l")
        if args.measures:
            if len(xs) != 1:
                raise ConfigError("--measures needs a single X value")
            rows = analysis.smbmm_measure_rows(
                args.m, args.p, args.n, args.g, args.l, xs[0])
            cols = analysis.MEASURE_COLUMNS
        else:
            rows = analysis.compare_smbmm_rows(
                args.m, args.p, args.n, args.g, args.l, xs)
            cols = analysis.SMBMM_COMPARE_COLUMNS
    else:
        rows = analysis.compare_eep_rows(args.m, args.p, args.n, xs, r=args.r)
        cols = analysis.EEP_COMPARE_COLUMNS
    if args.format == "md":
        text = analysis.render_markdown(rows, cols)
    elif args.format == "csv":
        text = analysis.render_csv(rows, cols)
    else:
        text = json.dumps(rows, indent=2, sort_keys=True, default=str) + "\n"
    _write_or_print(text, args.out)
    return 0


def _audit_params(cfg):
    protocol = cfg.get("protocol")
    if protocol == "ssmm":
        v = _int_fields(cfg, ["m", "p", "n", "xa", "xb", "q", "n_servers"])
        return protocol, ssmm.SsmmParams.make(
            v["m"], v["p"], v["n"], v["xa"], v["xb"],
            v["n_servers"], v["q"], variant=cfg.get("variant", "auto"),
        )
    if protocol == "smbmm":
        v = _int_fields(cfg, ["m", "p", "n", "xa", "xb", "g", "l", "q", "n_servers"])
        return protocol, batch.SmbmmParams.make(
            v["m"], v["p"], v["n"], v["xa"], v["xb"],
            v["g"], v["l"], v["n_servers"], v["q"],
            variant=cfg.get("variant", "auto"),
        )
    raise ConfigError(f"unknown protocol {protocol!r}")


def _cmd_audit(args):
    cfg = _load_config(args.config, _AUDIT_FIELDS)
    protocol, params = _audit_params(cfg)
    seed = args.seed if args.seed is not None else _as_int(cfg.get("seed", 0), "seed")
    max_subsets = _as_int(cfg.get("max_subsets"), "max_subsets", optional=True)
    sides = cfg.get("sides", ["a", "b"])
    report = {"protocol": protocol, "certificates": [], "leakage": []}
    failed = False
    for side in sides:
        cert = audit.certify_server_privacy(
            params, side, max_subsets=max_subsets, seed=seed
        )
        report["certificates"].append({
            "side": side,
            "security_level": cert.security_level,
            "subsets_checked": cert.subsets_checked,
            "groups_checked": cert.groups_checked,
            "ok": True,
        })
    leak = cfg.get("leakage")
    if leak:
        if "ssmm_share" in leak:
            rep = audit.enumerate_leakage(
                "ssmm_share", params, side=leak["ssmm_share"].get("side", "a")
            )
        elif "user_view" in leak:
            opts = leak["user_view"]
            rep = audit.enumerate_leakage(
                "smbmm_user_view", params,
                coordinate=_as_int(opts.get("coordinate"), "coordinate", optional=True),
                data_samples=_as_int(opts.get("data_samples", 4), "data_samples"),
                seed=seed,
            )
        else:
            raise ConfigError("leakage must configure ssmm_share or user_view")
        report["leakage"].append(rep.to_dict())
        failed = failed or rep.max_distance != 0
    if args.format == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"audit: {protocol}"]
        for cert in report["certificates"]:
            lines.append(
                f"  side {cert['side']}: {cert['subsets_checked']} subsets x "
                f"{cert['groups_checked']} groups certified nonsingular"
            )
        for rep in report["leakage"]:
            lines.append(
                f"  leakage {rep['protocol']}: max distance {rep['max_distance']} "
                f"over {rep['cases']} cases"
            )
        text = "\n".join(lines) + "\n"
    _write_or_print(text, args.out)
    return 1 if failed else 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="smbmm",
        description="Secure single/batch matrix multiplication simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config=True):
        if config:
            p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="output file (default stdout)")
        p.add_argument("--format", default="json", choices=["json", "csv", "md"])
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock times (breaks byte reproducibility)")

    for proto in ("ssmm", "smbmm"):
        p_proto = sub.add_parser(proto, help=f"{proto} protocol commands")
        proto_sub = p_proto.add_subparsers(dest="action", required=True)
        p_run = proto_sub.add_parser("run", help="execute one simulated run")
        add_common(p_run)

    p_sweep = sub.add_parser("sweep", help="run a config grid, emit CSV")
    add_common(p_sweep)

    p_thr = sub.add_parser("thresholds", help="closed-form recovery thresholds")
    for flag in ("m", "p", "n", "xa", "xb"):
        p_thr.add_argument(f"--{flag}", type=int, required=True)
    p_thr.add_argument("--g", type=int, default=None)
    p_thr.add_argument("--l", type=int, default=None)
    p_thr.add_argument("--out", default=None)
    p_thr.add_argument("--format", default="text", choices=["text", "json"])

    p_cmp = sub.add_parser("compare", help="baseline comparison tables")
    p_cmp.add_argument("--table", type=int, default=5, choices=[4, 5],
                       help="4: vs entangled-polynomial codes; 5: vs Chen et al.")
    for flag in ("m", "p", "n"):
        p_cmp.add_argument(f"--{flag}", type=int, required=True)
    p_cmp.add_argument("--g", type=int, default=None)
    p_cmp.add_argument("--l", type=int, default=None)
    p_cmp.add_argument("--x", default="1,2,3", help="comma-separated X values")
    p_cmp.add_argument("--r", type=int, default=None, help="bilinear complexity")
    p_cmp.add_argument("--measures", action="store_true",
                       help="table 5 only: one row per measure for a single X")
    p_cmp.add_argument("--out", default=None)
    p_cmp.add_argument("--format", default="csv", choices=["json", "csv", "md"])

    p_aud = sub.add_parser("audit", help="privacy certification and leakage audit")
    p_aud.add_argument("--config", required=True)
    p_aud.add_argument("--seed", type=int, default=None)
    p_aud.add_argument("--out", default=None)
    p_aud.add_argument("--format", default="json", choices=["json", "text"])

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command in ("ssmm", "smbmm"):
            return _cmd_run(args, args.command)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "thresholds":
            return _cmd_thresholds(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "audit":
            return _cmd_audit(args)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n\n{CONFIG_SCHEMA}")
        return 2
    except SmbmmError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
