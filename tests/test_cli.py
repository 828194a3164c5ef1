import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import multiorder
from multiorder import cli, entropy, orders, tiling
from multiorder.errors import ConsistencyError
from multiorder.schema import EXPERIMENT_CONFIG_SCHEMA

FLIP = {"variant": "markov_line", "transition": [[0.9, 0.1], [0.1, 0.9]],
        "alphabet": [0, 1]}
FAIR_LINE = {"variant": "bernoulli", "group": {"kind": "int_line"},
             "probs": [0.5, 0.5]}
FAIR_GRID = {"variant": "bernoulli", "group": {"kind": "int_grid", "d": 2},
             "probs": [0.5, 0.5]}


def window_json():
    spec = tiling.builtin("dyadic_alternating")
    w = tiling.expand(tiling.Address(spec, 2, "I", (1, 2)))
    return w.to_json()


def run_config(tmp_path, config, extra_args=()):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return cli.main(["entropy", "run", "--config", str(path), *extra_args])


def test_order_convert_round_trip(tmp_path):
    src = tmp_path / "w.json"
    inc = tmp_path / "w_inc.json"
    back = tmp_path / "w_back.json"
    src.write_text(json.dumps(window_json()))
    assert cli.main(["order", "convert", "--input", str(src), "--to",
                     "increments", "--output", str(inc)]) == 0
    assert json.loads(inc.read_text())["form"] == "increments"
    assert cli.main(["order", "convert", "--input", str(inc), "--to", "window",
                     "--output", str(back)]) == 0
    assert json.loads(back.read_text()) == window_json()


def test_order_convert_to_ranking(tmp_path, capsys):
    src = tmp_path / "w.json"
    src.write_text(json.dumps(window_json()))
    assert cli.main(["order", "convert", "--input", str(src), "--to",
                     "ranking"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["form"] == "ranking"
    ranking = orders.OrderRanking.from_json(blob)
    assert ranking.ordered() == [(1,), (0,), (3,), (2,)]


def test_order_convert_reads_stdin(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(window_json())))
    assert cli.main(["order", "convert", "--input", "-", "--to", "window"]) == 0
    assert json.loads(capsys.readouterr().out) == window_json()


def test_order_convert_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["order", "convert", "--input", str(bad), "--to",
                     "window"]) == 2
    missing = tmp_path / "nope.json"
    assert cli.main(["order", "convert", "--input", str(missing), "--to",
                     "window"]) == 2
    capsys.readouterr()


def test_order_iid_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert cli.main(["order", "iid", "--d", "2", "--radius", "1", "--seed",
                         "5", "--output", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    blob = json.loads(a.read_text())
    assert blob["form"] == "ranking"
    assert sorted(rank for _, rank in blob["cells"]) == list(range(9))


def test_tiling_dump_matches_golden(tmp_path, data_dir):
    out = tmp_path / "curve.csv"
    assert cli.main(["tiling", "dump", "--name", "hilbert", "--level", "4",
                     "--output", str(out)]) == 0
    assert out.read_text() == (data_dir / "hilbert_level4.csv").read_text()


def test_tiling_dump_line_header(capsys):
    assert cli.main(["tiling", "dump", "--name", "dyadic_alternating",
                     "--level", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "rank,x"
    assert lines[1:] == ["0,1", "1,0", "2,3", "3,2"]
    assert cli.main(["tiling", "dump", "--name", "dyadic_alternating",
                     "--level", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [int(r.split(",")[1]) for r in lines[1:]] == [5, 4, 7, 6, 1, 0, 3, 2]


def test_tiling_validate(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert cli.main(["tiling", "validate", "--name", "hilbert", "--level", "3",
                     "--output", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["ok"] is True and blob["violations"] == []
    assert cli.main(["tiling", "validate", "--name", "penrose", "--level",
                     "2"]) == 2
    assert "config/input error" in capsys.readouterr().err


def test_folner_audit_csv(tmp_path, capsys):
    out = tmp_path / "audit.csv"
    assert cli.main(["folner", "audit", "--name", "dyadic_standard", "--level",
                     "7", "--samples", "2", "--seed", "9", "--candidates",
                     "16,32,64", "--output", str(out)]) == 0
    err = capsys.readouterr().err
    assert "threshold: 32" in err
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "length,worst_ratio,mean_ratio,samples"
    table = {int(r.split(",")[0]): r.split(",") for r in lines[1:]}
    assert table[16][1] == "0.125"
    assert table[32][1] == "0.0625"
    assert table[64][1] == "0.03125"


def test_entropy_schema_is_valid(capsys):
    assert cli.main(["entropy", "schema"]) == 0
    blob = json.loads(capsys.readouterr().out)
    jsonschema.Draft202012Validator.check_schema(blob)


def base_config(tmp_path, **overrides):
    config = {
        "version": 1,
        "seed": 2024,
        "output_dir": str(tmp_path / "out"),
        "experiments": [
            {
                "name": "cond_fair_square",
                "kind": "cond_entropy",
                "tiling": {"name": "hilbert", "level": 4},
                "process": FAIR_GRID,
                "params": {"j": 2, "samples": 4000, "bias": "miller_madow"},
            },
            {
                "name": "rate_flip_alternating",
                "kind": "mc_integral",
                "tiling": {"name": "dyadic_alternating", "level": 7},
                "process": FLIP,
                "params": {"j": 3, "orders": 4, "samples": 3000},
            },
            {
                "name": "stepper_agrees",
                "kind": "successor_consistency",
                "tiling": {"name": "dyadic_alternating", "level": 7},
                "process": FLIP,
                "params": {"j": 3, "orders": 3, "samples": 500},
            },
        ],
    }
    config.update(overrides)
    return config


def out_files(tmp_path):
    out = tmp_path / "out"
    return sorted(p.name for p in out.iterdir()), out


def test_entropy_run_end_to_end(tmp_path):
    assert run_config(tmp_path, base_config(tmp_path)) == 0
    names, out = out_files(tmp_path)
    assert names == ["aggregate.csv", "cond_fair_square.json",
                     "rate_flip_alternating.json", "stepper_agrees.json"]
    payload = json.loads((out / "rate_flip_alternating.json").read_text())
    assert payload["kind"] == "mc_integral"
    assert payload["experiment_index"] == 1
    assert payload["schema_version"] == 1
    assert len(payload["config_hash"]) == 64
    assert payload["report"]["orders"] == 4
    agg = (out / "aggregate.csv").read_text().strip().splitlines()
    assert agg[0].startswith("name,kind,estimate,stderr")
    assert len(agg) == 4
    stepper = json.loads((out / "stepper_agrees.json").read_text())
    assert stepper["report"]["identical_cells"] is True
    assert stepper["report"]["bit_identical_estimates"] is True


def test_entropy_run_reports_are_byte_stable(tmp_path):
    first = {}
    assert run_config(tmp_path, base_config(tmp_path)) == 0
    names, out = out_files(tmp_path)
    for name in names:
        first[name] = (out / name).read_bytes()
    assert run_config(tmp_path, base_config(tmp_path)) == 0
    for name in names:
        assert (out / name).read_bytes() == first[name], name
    assert run_config(tmp_path, base_config(tmp_path), ("--threads", "2")) == 0
    for name in names:
        assert (out / name).read_bytes() == first[name], name


def test_entropy_run_rejects_bad_configs(tmp_path, capsys):
    config = base_config(tmp_path)
    del config["seed"]
    assert run_config(tmp_path, config) == 2

    config = base_config(tmp_path)
    config["experiments"][0]["kind"] = "bogus"
    assert run_config(tmp_path, config) == 2

    config = base_config(tmp_path)
    config["experiments"][1]["name"] = config["experiments"][0]["name"]
    assert run_config(tmp_path, config) == 2

    config = base_config(tmp_path)
    del config["experiments"][1]["params"]["orders"]
    assert run_config(tmp_path, config) == 2

    bad = tmp_path / "config.json"
    bad.write_text("{]")
    assert cli.main(["entropy", "run", "--config", str(bad)]) == 2
    capsys.readouterr()



def test_config_schema_passes_its_meta_schema():
    jsonschema.Draft202012Validator.check_schema(EXPERIMENT_CONFIG_SCHEMA)


def test_entropy_run_reports_missing_version(tmp_path, capsys):
    config = base_config(tmp_path)
    del config["version"]
    assert run_config(tmp_path, config) == 2
    assert capsys.readouterr().err == (
        "config/input error: 'version' is a required property\n"
    )

def test_entropy_run_strict_sampling_gate(tmp_path, capsys):
    starved = {
        "version": 1,
        "seed": 7,
        "output_dir": str(tmp_path / "out"),
        "experiments": [
            {
                "name": "starved",
                "kind": "cond_entropy",
                "tiling": {"name": "dyadic_alternating", "level": 7},
                "process": FLIP,
                "params": {"j": 6, "samples": 50},
            }
        ],
    }
    assert run_config(tmp_path, starved) == 0
    starved["strict_sampling"] = True
    assert run_config(tmp_path, starved) == 4
    assert "undersampled" in capsys.readouterr().err


def test_entropy_run_consistency_exit_code(tmp_path, monkeypatch):
    def boom(*a, **k):
        raise ConsistencyError("forced")

    monkeypatch.setattr(entropy, "successor_consistency", boom)
    config = base_config(tmp_path)
    config["experiments"] = config["experiments"][2:]
    assert run_config(tmp_path, config) == 3


def test_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "multiorder", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


AUDIT = ["folner", "audit", "--name", "dyadic_standard", "--level", "6",
         "--seed", "1"]


@pytest.mark.parametrize("case", [
    "convert_json_array", "convert_window_without_group",
    "audit_non_int_candidate", "audit_zero_samples", "threads_env_not_int",
    "threads_flag_zero", "threads_flag_negative", "threads_env_zero",
    "threads_env_negative", "audit_epsilon_nan", "audit_epsilon_inf",
    "validate_negative_level", "reducible_chain", "bernoulli_nan_prob",
    "markov_nan_transition", "convert_float_fields", "convert_bool_dimension",
    "convert_bool_ranks", "iid_negative_seed", "audit_negative_seed",
])
def test_malformed_input_exits_2_without_traceback(tmp_path, case):
    src_dir = str(Path(multiorder.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src_dir] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    env.pop("MULTIORDER_THREADS", None)
    doc = tmp_path / "input.json"
    if case == "convert_json_array":
        doc.write_text("[1, 2]")
        args = ["order", "convert", "--input", str(doc), "--to", "window"]
    elif case == "convert_window_without_group":
        doc.write_text(json.dumps({"form": "window"}))
        args = ["order", "convert", "--input", str(doc), "--to", "increments"]
    elif case.startswith("convert_"):
        # int() would truncate or read each of these as a valid 1-d order
        doc.write_text(json.dumps({
            "convert_float_fields": {"form": "window", "group": {"kind": "int_grid", "d": 1.7},
                                     "lo": -0.5, "hi": 1.2, "cells": [[0.9, [0]], [1, [1]]]},
            "convert_bool_dimension": {"form": "window", "group": {"kind": "int_grid", "d": True},
                                       "lo": 0, "hi": 1, "cells": [[0, [0]], [1, [1]]]},
            "convert_bool_ranks": {"form": "ranking", "group": {"kind": "int_grid", "d": 1},
                                   "cells": [[[0], False], [[1], True]]},
        }[case]))
        args = ["order", "convert", "--input", str(doc), "--to", "ranking"]
    elif case == "audit_non_int_candidate":
        args = AUDIT + ["--candidates", "4,x"]
    elif case == "audit_zero_samples":
        args = AUDIT + ["--candidates", "4", "--samples", "0"]
    elif case.startswith("audit_epsilon"):
        args = AUDIT + ["--candidates", "4", "--epsilon", case.rsplit("_", 1)[1]]
    elif case == "iid_negative_seed":
        args = ["order", "iid", "--d", "1", "--seed", "-1"]
    elif case == "audit_negative_seed":
        args = ["folner", "audit", "--name", "hilbert", "--level", "3", "--seed", "-5",
                "--candidates", "4"]
    elif case == "validate_negative_level":
        args = ["tiling", "validate", "--name", "hilbert", "--level", "-1"]
    elif case in ("reducible_chain", "markov_nan_transition", "bernoulli_nan_prob"):
        config = base_config(tmp_path)
        config["experiments"][1]["process"] = {
            "reducible_chain": {"variant": "markov_line", "transition": [[1, 0], [0, 1]]},
            "markov_nan_transition": {"variant": "markov_line",
                                      "transition": [[math.nan, 1], [0.5, 0.5]]},
            "bernoulli_nan_prob": {"variant": "bernoulli", "probs": [math.nan, 1]},
        }[case]
        doc.write_text(json.dumps(config))
        args = ["entropy", "run", "--config", str(doc)]
    else:
        doc.write_text(json.dumps(base_config(tmp_path)))
        args = ["entropy", "run", "--config", str(doc)]
        if case.startswith("threads_flag"):
            args += ["--threads", "0" if case.endswith("zero") else "-3"]
        else:
            env["MULTIORDER_THREADS"] = {"threads_env_not_int": "abc",
                                         "threads_env_zero": "0",
                                         "threads_env_negative": "-1"}[case]
    proc = subprocess.run([sys.executable, "-m", "multiorder", *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config/input error: ")


def test_importing_cli_leaves_jsonschema_unloaded():
    src_dir = str(Path(multiorder.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src_dir] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    code = "import sys, multiorder.cli; print('jsonschema' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
