"""Command-line interface.

One binary with four subcommand groups: ``order`` (format conversion and
the iid demo sampler), ``tiling`` (curve dumps and rule validation),
``folner`` (interval invariance audits, CSV), and ``entropy`` (seeded
experiment runner over a JSON config).  Reports are byte-deterministic for
a fixed config and seed: no timestamps, sorted keys, and results that do
not depend on the thread count.  ``--threads`` (else the config's
``threads``, else MULTIORDER_THREADS, else 1; at least 1) fans the orders
of every multi-order kind, successor_consistency included, out over
threads.

Exit codes: 0 success; 1 failed validation or runtime error; 2 config or
input violation; 3 successor-consistency failure; 4 undersampled run under
strict sampling.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from . import __version__, entropy, folner, groups, orders, process, tiling
from .errors import ConsistencyError, InputError, MultiorderError
from .groups import GroupSpec
from .schema import EXPERIMENT_CONFIG_SCHEMA, SCHEMA_VERSION
from .util import child_seed

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_CONSISTENCY = 3
EXIT_UNDERSAMPLED = 4


@functools.cache
def _config_validator():
    """Built once (validate re-checks the schema) and only where a config is read."""
    import jsonschema
    return jsonschema.Draft202012Validator(EXPERIMENT_CONFIG_SCHEMA)


def _read_json(path: str):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _write_text(text: str, path) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text, encoding="utf-8")


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


_ORDER_FORMS = {
    "window": orders.OrderWindow,
    "increments": orders.IncrementWindow,
    "ranking": orders.OrderRanking,
}


def _cmd_order_convert(args) -> int:
    obj = _read_json(args.input)
    form = obj.get("form") if isinstance(obj, dict) else None
    if form not in _ORDER_FORMS:
        raise InputError("input must be a JSON object whose form is "
                         f"window/increments/ranking, got {form!r}")
    try:
        src = _ORDER_FORMS[form].from_json(obj)
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed {form} JSON: {type(exc).__name__}: {exc}") from None

    target = args.to
    if form == "increments" and target != "increments":
        src, form = orders.from_increments(src), "window"
    if form == target:
        out = src
    elif form == "window" and target == "increments":
        out = orders.to_increments(src)
    elif form == "window" and target == "ranking":
        cells = orders.interval(src, src.lo, src.hi)
        out = orders.OrderRanking(src.group, {c: r for r, c in enumerate(cells)})
    else:
        raise InputError(f"cannot convert {form} to {target}")
    _write_text(_dump_json(out.to_json()), args.output)
    return EXIT_OK


def _cmd_order_iid(args) -> int:
    spec = GroupSpec.grid(args.d)
    ranking = orders.iid_order(spec, groups.box(spec, args.radius), args.seed)
    _write_text(_dump_json(ranking.to_json()), args.output)
    return EXIT_OK


def _cmd_tiling_dump(args) -> int:
    spec = tiling.builtin(args.name)
    label = args.shape or spec.canonical_label
    curve = spec.curve(args.level, label)
    d = spec.group.d
    coords = ["x"] if d == 1 else ["x", "y"] if d == 2 else [f"x{i}" for i in range(d)]
    header = ["rank"] + coords
    rows = [[r] + [int(v) for v in row] for r, row in enumerate(curve)]
    _write_text(_csv_text(header, rows), args.output)
    return EXIT_OK


def _cmd_tiling_validate(args) -> int:
    spec = tiling.builtin(args.name)
    report = tiling.validate_spec(spec, args.level)
    payload = {
        "name": args.name,
        "levels_checked": report.levels_checked,
        "ok": report.ok,
        "violations": [
            {
                "level": v.level,
                "label": v.label,
                "kind": v.kind,
                "witness": list(v.witness) if isinstance(v.witness, tuple) else v.witness,
            }
            for v in report.violations
        ],
    }
    _write_text(_dump_json(payload), args.output)
    return EXIT_OK if report.ok else EXIT_FAIL


def _cmd_folner_audit(args) -> int:
    spec = tiling.builtin(args.name)
    if args.k == "cross":
        K = folner.unit_cross(spec.group)
    else:
        K = groups.box(spec.group, args.k_radius)
    try:
        candidates = [int(x) for x in args.candidates.split(",") if x.strip()]
    except ValueError:
        raise InputError(
            f"candidates must be comma-separated ints, got {args.candidates!r}"
        ) from None
    result = folner.uniform_audit(
        spec, K, args.epsilon, candidates, args.samples, args.seed,
        args.level, anchors=args.anchors,
    )
    rows = []
    for n in sorted(result.stats):
        st = result.stats[n]
        rows.append([n, f"{float(st.worst):.10g}", f"{float(st.mean):.10g}", st.count])
    _write_text(_csv_text(["length", "worst_ratio", "mean_ratio", "samples"], rows),
                args.output)
    if result.threshold is not None:
        print(f"threshold: {result.threshold}", file=sys.stderr)
    else:
        print("threshold: none found among candidates", file=sys.stderr)
    return EXIT_OK


def _run_experiment(exp: dict, master_seed: int, index: int, threads: int):
    spec = tiling.builtin(exp["tiling"]["name"])
    level = exp["tiling"]["level"]
    proc = process.from_json(exp["process"])
    params = exp["params"]
    bias = params.get("bias", "plugin")
    seed = child_seed(master_seed, index)
    kind = exp["kind"]

    def need(*names):
        missing = [nm for nm in names if nm not in params]
        if missing:
            raise InputError(f"experiment {exp['name']!r} missing params {missing}")
        return [params[nm] for nm in names]

    if kind == "mc_integral":
        j, n_orders, m = need("j", "orders", "samples")
        return entropy.mc_integral(proc, spec, j, n_orders, m, level, seed,
                                   bias=bias, threads=threads)
    if kind == "remote_past_mi":
        gap, j, n_orders, m = need("gap", "j", "orders", "samples")
        return entropy.remote_past_mi(proc, spec, gap, j, n_orders, m, level,
                                      seed, bias=bias, threads=threads)
    if kind == "successor_consistency":
        j, n_orders, m = need("j", "orders", "samples")
        return entropy.successor_consistency(proc, spec, j, n_orders, m, level,
                                             seed, bias=bias, threads=threads)
    # One order, seeded by the experiment seed itself.
    if kind == "block_entropy":
        n_span, m = need("n", "samples")
        (report,), retries = entropy.per_order(
            spec, level, [seed], lambda i, w, s: entropy.block_entropy_along_order(
                proc, w, n_span, m, child_seed(s, 1), bias=bias),
            need_future=n_span)
        return dataclasses.replace(report, resamples=retries)
    if kind == "cond_entropy":
        j, m = need("j", "samples")
        (report,), retries = entropy.per_order(
            spec, level, [seed], lambda i, w, s: entropy.cond_entropy_along_order(
                proc, w, j, m, child_seed(s, 1), bias=bias),
            need_past=j)
        return dataclasses.replace(report, resamples=retries)
    raise InputError(f"unknown experiment kind {kind!r}")


def _threads(args, config) -> int:
    """--threads, else the config's threads (schema: >= 1), else
    MULTIORDER_THREADS, else 1; a count below 1 is an input error."""
    if args.threads is not None:
        value, source = args.threads, "--threads"
    elif "threads" in config:
        return config["threads"]
    else:
        raw = os.environ.get("MULTIORDER_THREADS", "1")
        try:
            value, source = int(raw), "MULTIORDER_THREADS"
        except ValueError:
            raise InputError(f"MULTIORDER_THREADS must be an int, got {raw!r}") from None
    if value < 1:
        raise InputError(f"{source} must be >= 1, got {value}")
    return value


def _cmd_entropy_run(args) -> int:
    config = _read_json(args.config)
    from jsonschema.exceptions import best_match
    error = best_match(_config_validator().iter_errors(config))
    if error is not None:
        raise InputError(error.message)
    names = [e["name"] for e in config["experiments"]]
    if len(set(names)) != len(names):
        raise InputError("experiment names must be unique")
    config_hash = hashlib.sha256(
        json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()
    threads = _threads(args, config)
    out_dir = Path(config.get("output_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    strict = bool(config.get("strict_sampling", False))
    master_seed = config["seed"]

    agg_rows = []
    undersampled_strict = False
    for index, exp in enumerate(config["experiments"]):
        report = _run_experiment(exp, master_seed, index, threads)
        rj = report.to_json()
        payload = {
            "name": exp["name"],
            "kind": exp["kind"],
            "schema_version": SCHEMA_VERSION,
            "package_version": __version__,
            "config_hash": config_hash,
            "seed": master_seed,
            "experiment_index": index,
            "tiling": exp["tiling"],
            "process": exp["process"],
            "params": exp["params"],
            "report": rj,
        }
        _write_text(_dump_json(payload), out_dir / f"{exp['name']}.json")
        est = rj.get("estimate_direct", rj.get("estimate"))
        agg_rows.append([
            exp["name"], exp["kind"],
            repr(float(est)),
            repr(float(rj.get("stderr", 0.0))),
            rj.get("samples", ""), rj.get("orders", ""),
            rj.get("truncation", ""), rj.get("gap", 0),
            rj.get("bias_mode", ""), rj.get("undersampled", ""),
            rj.get("resamples", 0),
        ])
        if strict and exp["kind"] != "successor_consistency" and rj.get("undersampled"):
            undersampled_strict = True
    _write_text(
        _csv_text(
            ["name", "kind", "estimate", "stderr", "samples", "orders",
             "truncation", "gap", "bias_mode", "undersampled", "resamples"],
            agg_rows,
        ),
        out_dir / "aggregate.csv",
    )
    if undersampled_strict:
        print("strict sampling: at least one estimation run undersampled",
              file=sys.stderr)
        return EXIT_UNDERSAMPLED
    return EXIT_OK


def _cmd_entropy_schema(args) -> int:
    _write_text(_dump_json(EXPERIMENT_CONFIG_SCHEMA), args.output)
    return EXIT_OK


# Built once per process: parse_args leaves the parser unchanged.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multiorder",
        description="orders of type Z from substitution tilings: conversion, "
                    "validation, invariance audits, entropy experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_order = sub.add_parser("order", help="order window utilities")
    order_sub = p_order.add_subparsers(dest="subcommand", required=True)
    p_conv = order_sub.add_parser("convert", help="convert among window/increments/ranking JSON forms")
    p_conv.add_argument("--input", required=True, help="input JSON path, or - for stdin")
    p_conv.add_argument("--to", required=True, choices=["window", "increments", "ranking"])
    p_conv.add_argument("--output", default=None)
    p_conv.set_defaults(func=_cmd_order_convert)
    p_iid = order_sub.add_parser("iid", help="demo sampler: rank a box by iid draws")
    p_iid.add_argument("--d", type=int, default=1)
    p_iid.add_argument("--radius", type=int, default=2)
    p_iid.add_argument("--seed", type=int, required=True)
    p_iid.add_argument("--output", default=None)
    p_iid.set_defaults(func=_cmd_order_iid)

    p_tiling = sub.add_parser("tiling", help="substitution system utilities")
    tiling_sub = p_tiling.add_subparsers(dest="subcommand", required=True)
    p_dump = tiling_sub.add_parser("dump", help="emit a shape's expansion order as CSV")
    p_dump.add_argument("--name", required=True)
    p_dump.add_argument("--level", type=int, required=True)
    p_dump.add_argument("--shape", default=None, help="shape label (default: canonical)")
    p_dump.add_argument("--output", default=None)
    p_dump.set_defaults(func=_cmd_tiling_dump)
    p_val = tiling_sub.add_parser("validate", help="check rules up to a level")
    p_val.add_argument("--name", required=True)
    p_val.add_argument("--level", type=int, required=True)
    p_val.add_argument("--output", default=None)
    p_val.set_defaults(func=_cmd_tiling_validate)

    p_folner = sub.add_parser("folner", help="interval invariance audits")
    folner_sub = p_folner.add_subparsers(dest="subcommand", required=True)
    p_audit = folner_sub.add_parser("audit", help="audit interval invariance across sampled orders")
    p_audit.add_argument("--name", required=True)
    p_audit.add_argument("--level", type=int, required=True)
    p_audit.add_argument("--samples", type=int, default=20)
    p_audit.add_argument("--seed", type=int, required=True)
    p_audit.add_argument("--candidates", required=True,
                         help="comma-separated interval cell counts")
    p_audit.add_argument("--epsilon", type=float, default=0.1)
    p_audit.add_argument("--anchors", type=int, default=16)
    p_audit.add_argument("--k", choices=["cross", "box"], default="cross")
    p_audit.add_argument("--k-radius", type=int, default=1)
    p_audit.add_argument("--output", default=None)
    p_audit.set_defaults(func=_cmd_folner_audit)

    p_entropy = sub.add_parser("entropy", help="seeded entropy experiments")
    entropy_sub = p_entropy.add_subparsers(dest="subcommand", required=True)
    p_run = entropy_sub.add_parser("run", help="run experiments from a JSON config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--threads", type=int, default=None,
                       help="worker threads; results do not depend on it")
    p_run.set_defaults(func=_cmd_entropy_run)
    p_schema = entropy_sub.add_parser("schema", help="print the config JSON schema")
    p_schema.add_argument("--output", default=None)
    p_schema.set_defaults(func=_cmd_entropy_schema)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return EXIT_CONSISTENCY
    except (InputError, json.JSONDecodeError, FileNotFoundError) as exc:
        print(f"config/input error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MultiorderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
