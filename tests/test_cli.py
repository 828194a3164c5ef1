import argparse
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
from multiorder import cli, entropy, orders, schema, tiling
from multiorder.errors import ConsistencyError, InputError
from multiorder.groups import GroupSpec
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


def test_order_convert_to_ranking_bytes(tmp_path, capsys):
    spec = tiling.builtin("hilbert")
    w = tiling.expand(tiling.sample_address(spec, 3, 11))
    src = tmp_path / "w.json"
    src.write_text(json.dumps(w.to_json()))
    assert cli.main(["order", "convert", "--input", str(src), "--to", "ranking"]) == 0
    cells = sorted((cell, pos - w.lo) for pos, cell in w.to_json()["cells"])
    want = {"form": "ranking", "group": {"kind": "int_grid", "d": 2},
            "cells": [[cell, rank] for cell, rank in cells]}
    assert capsys.readouterr().out == json.dumps(want, sort_keys=True, indent=2) + "\n"


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


@pytest.mark.parametrize("name, level", [("hilbert", 12), ("dyadic_standard", 23)])
def test_tiling_validate_over_budget_builds_no_shape(monkeypatch, capsys, name, level):
    spec = tiling._new_builtin(name)  # private: the patch below must not leak

    def no_shapes(k):
        raise AssertionError(f"shapes requested at level {k}")

    spec._shapes_fn = no_shapes
    monkeypatch.setattr(tiling, "builtin", lambda _: spec)
    assert cli.main(["tiling", "validate", "--name", name, "--level", str(level)]) == 1
    assert capsys.readouterr().err.startswith(f"error: level-{level} shape ")
    # one level lower is within the budget, and validate_spec builds its shapes
    with pytest.raises(AssertionError, match="shapes requested at level 0"):
        cli.main(["tiling", "validate", "--name", name, "--level", str(level - 1)])


@pytest.mark.parametrize("name", tiling._BUILTIN_NAMES)
def test_tiling_validate_at_level_64_exits_2_building_no_shape(monkeypatch, capsys, name):
    # level-64 tile offsets of 2^63 leave int64; that is no missing rule to pass over
    spec = tiling._new_builtin(name)  # private: the patch below must not leak

    def no_shapes(k):
        raise AssertionError(f"shapes requested at level {k}")

    spec._shapes_fn = no_shapes
    monkeypatch.setattr(tiling, "builtin", lambda _: spec)
    assert cli.main(["tiling", "validate", "--name", name, "--level", "64"]) == 2
    assert capsys.readouterr().err == "config/input error: cell coordinates must fit in int64\n"


def test_tiling_validate_payload_for_a_broken_spec(monkeypatch, capsys, data_dir):
    # A missing identity, overlapping children and an unknown child.
    shapes = {0: {"o": [(0,)]}, 1: {"A": [(1,), (2,)], "B": [(0,), (1,)]},
              2: {"A": [(0,), (1,), (2,), (3,)]}}
    rules = {1: {"A": (("o", (1,)), ("o", (2,))), "B": (("o", (0,)), ("o", (0,)))},
             2: {"A": (("B", (0,)), ("Z", (2,)))}}
    broken = tiling.TilingSystemSpec.from_tables(GroupSpec.line(), "broken", shapes,
                                                 rules, "A", 2)
    monkeypatch.setattr(tiling, "builtin", lambda name: broken)
    assert cli.main(["tiling", "validate", "--name", "broken", "--level", "2"]) == 1
    assert capsys.readouterr().out == (data_dir / "validate_broken.json").read_text()


@pytest.mark.parametrize("args, cells", [
    (["--name", "dyadic_standard", "--k-radius", "2097152"], 2**22 + 1),  # one over
    (["--name", "hilbert", "--k-radius", "1000000"], 2000001**2),
    (["--name", "hilbert", "--k-radius", "1024"], 2049**2),
])
def test_box_over_budget_exits_1_before_allocating(capsys, args, cells):
    assert cli.main(["folner", "audit", "--level", "4", "--seed", "1", "--candidates", "4",
                     "--k", "box", *args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: box of radius ")
    assert err.endswith(f" has {cells} cells, more than the budget of {1 << 22}\n")


@pytest.mark.parametrize("doc, to", [
    # the increment from -2^63 to 0 is +2^63, which int64 would read as -2^63
    ({"form": "window", "group": {"kind": "int_line"}, "lo": -1, "hi": 1,
      "cells": [[-1, [-(1 << 63)]], [0, [0]], [1, [(1 << 63) - 1]]]}, "increments"),
    # the rebuilt cells -(2^63 - 1), 0, 2^63 - 1 each fit, but do not span in int64
    ({"form": "increments", "group": {"kind": "int_grid", "d": 2}, "lo": -1, "hi": 1,
      "incr": [[-1, [0, (1 << 63) - 1]], [0, [0, (1 << 63) - 1]]]}, "window"),
])
def test_order_convert_refuses_cells_spanning_2_to_the_63(tmp_path, capsys, doc, to):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["order", "convert", "--input", str(path), "--to", to]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config/input error: ")
    assert captured.err.endswith("must span less than 2^63 in every coordinate\n")


def test_schema_tiling_names_are_the_builtins():
    tiling_schema = EXPERIMENT_CONFIG_SCHEMA["$defs"]["tiling"]
    assert tuple(tiling_schema["properties"]["name"]["enum"]) == tiling._BUILTIN_NAMES


def test_schema_kinds_are_the_cli_table(data_dir):
    experiment = EXPERIMENT_CONFIG_SCHEMA["$defs"]["experiment"]
    assert experiment["properties"]["kind"]["enum"] == list(cli._KINDS)
    params = EXPERIMENT_CONFIG_SCHEMA["$defs"]["params"]["properties"]
    for kind, (_, wanted, _) in cli._KINDS.items():
        assert set(wanted) <= set(params), kind
    readme = (data_dir.parents[1] / "README.md").read_text()
    sentence = readme.split("(kinds: ", 1)[1].split(")", 1)[0]
    assert set(sentence.replace("\n", " ").split(", ")) == {f"`{k}`" for k in cli._KINDS}


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


def mutate(node, rng):
    """A copy of a JSON config with one random change at a random depth:
    a key dropped or added, or a value replaced by one of another type."""
    if isinstance(node, dict) and node and rng.random() < 0.7:
        key = rng.choice(sorted(node))
        return {**node, key: mutate(node[key], rng)}
    if isinstance(node, list) and node and rng.random() < 0.7:
        i = rng.randrange(len(node))
        return node[:i] + [mutate(node[i], rng)] + node[i + 1:]
    roll = rng.random()
    if isinstance(node, dict) and node and roll < 0.3:
        key = rng.choice(sorted(node))
        return {k: v for k, v in node.items() if k != key}
    if isinstance(node, dict) and roll < 0.5:
        return {**node, rng.choice(["extra", "variant", "d", "period"]): rng.choice([1, "x"])}
    return rng.choice([None, True, "x", "bernoulli", -1, 0, 2, 1.5, [], [0], [[0.5]], {},
                       {"variant": "bernoulli"}, {"kind": "int_grid"}, FLIP, FAIR_GRID,
                       {"variant": "periodic_overlay", "base": {"variant": "x"}, "period": [2]}])


def int_paths(node, path=()):
    """The paths of a JSON document's int leaves (bools are no ints)."""
    if type(node) is int:
        yield path
    elif isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            yield from int_paths(value, path + (key,))


def replace_at(node, path, fn):
    """A copy of a JSON document with fn applied to the value at path."""
    if not path:
        return fn(node)
    head, rest = path[0], path[1:]
    if isinstance(node, dict):
        return {**node, head: replace_at(node[head], rest, fn)}
    return node[:head] + [replace_at(node[head], rest, fn)] + node[head + 1:]


def integer_literal_validator():
    """The plain Draft 2020-12 validator, except that an integer is an integer
    literal (6.0 is none) and an integer const equals no float."""
    from jsonschema import ValidationError, validators

    def const(validator, value, instance, schema):
        if type(instance) is not type(value) or instance != value:
            yield ValidationError(f"{value!r} was expected")

    draft = jsonschema.Draft202012Validator
    checker = draft.TYPE_CHECKER.redefine(
        "integer", lambda _, x: isinstance(x, int) and not isinstance(x, bool))
    return validators.extend(draft, {"const": const}, type_checker=checker)(
        EXPERIMENT_CONFIG_SCHEMA)


def test_config_check_accepts_what_the_schema_accepts(tmp_path, data_dir):
    import random

    from jsonschema.exceptions import best_match
    overlay = {"variant": "periodic_overlay", "base": {
        "variant": "periodic_overlay", "base": FLIP, "period": [2]}, "period": [3]}
    valid = [base_config(tmp_path)] + [json.loads((data_dir / name / "config.json").read_text())
                                       for name in ("estimators_golden", "successor_golden")]
    valid[0]["experiments"][1]["process"] = overlay
    plain = jsonschema.Draft202012Validator(EXPERIMENT_CONFIG_SCHEMA)
    literal = integer_literal_validator()
    rng, floats = random.Random(20240), random.Random(20241)
    messages, floats_refused = [], 0
    for i in range(600):
        config = valid[i % 3]
        for _ in range(rng.randint(1, 3)):
            config = mutate(config, rng)
        error = best_match(plain.iter_errors(config))
        messages.append(error and error.message)
        # an integral float in one int field of the config and of its valid base
        floated = [replace_at(doc, floats.choice(paths), float)
                   for doc in (config, valid[i % 3]) if (paths := list(int_paths(doc)))]
        for doc in [config] + floated:
            want = plain.is_valid(doc) and literal.is_valid(doc)
            try:
                schema.check_config(doc)
                accepted = True
            except InputError:
                accepted = False
            assert accepted == want, doc
            floats_refused += plain.is_valid(doc) and not want
    # the fuzz reaches many distinct errors and leaves few configs valid
    assert len(set(messages)) > 80 and messages.count(None) < 60
    assert floats_refused > 300


def test_fuzzed_configs_the_schema_rejects_exit_2_and_write_nothing(tmp_path, data_dir,
                                                                    capsys, monkeypatch):
    import random
    run_dir = tmp_path / "run"  # the working directory, holding every relative output_dir
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    valid = [base_config(tmp_path, output_dir="out")] + [
        json.loads((data_dir / name / "config.json").read_text())
        for name in ("estimators_golden", "successor_golden")]
    plain = jsonschema.Draft202012Validator(EXPERIMENT_CONFIG_SCHEMA)
    rng = random.Random(7031)
    path = tmp_path / "config.json"
    rejected = 0
    for i in range(2000):
        config = valid[i % 3]
        for _ in range(rng.randint(1, 3)):
            config = mutate(config, rng)
        if plain.is_valid(config):
            continue
        path.write_text(json.dumps(config))
        assert cli.main(["entropy", "run", "--config", str(path)]) == 2, config
        err = capsys.readouterr().err
        assert err.startswith("config/input error:") and "Traceback" not in err, config
        assert not any(run_dir.iterdir()), config
        rejected += 1
        if rejected == 200:
            break
    assert rejected == 200


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


@pytest.mark.parametrize("kind, params, missing", [
    ("mc_integral", {"orders": 2, "samples": 100}, "j"),
    ("block_entropy", {"samples": 100}, "n"),
    ("cond_entropy", {"samples": 100}, "j"),
    ("remote_past_mi", {"j": 1, "orders": 2, "samples": 100}, "gap"),
    ("successor_consistency", {"orders": 2, "samples": 100}, "j"),
])
def test_entropy_run_names_a_missing_param(tmp_path, capsys, kind, params, missing):
    assert run_config(tmp_path, small_config(tmp_path, kind=kind, params=params)) == 2
    err = capsys.readouterr().err
    assert err == f"config/input error: experiment 'small' missing params ['{missing}']\n"
    assert not any((tmp_path / "out").iterdir())


@pytest.mark.parametrize("failure", ["runtime_error", "consistency_error"])
def test_failed_entropy_run_leaves_earlier_outputs_whole(tmp_path, monkeypatch, failure):
    # a later experiment's failure writes no file, not even the earlier ones'
    config = small_config(tmp_path)
    config["experiments"].append({**config["experiments"][0], "name": "later",
                                  "kind": "successor_consistency"})
    assert run_config(tmp_path, config) == 0
    names, out = out_files(tmp_path)
    assert names == ["aggregate.csv", "later.json", "small.json"]
    before = {name: (out / name).read_bytes() for name in names}
    config["seed"] = 4
    if failure == "runtime_error":  # j beyond the top tile
        config["experiments"][1]["params"] = {"j": 5000, "orders": 2, "samples": 100}
        code = 1
    else:
        def boom(*a, **k):
            raise ConsistencyError("forced")

        monkeypatch.setattr(entropy, "successor_consistency", boom)
        code = 3
    assert run_config(tmp_path, config) == code
    assert {name: (out / name).read_bytes() for name in out_files(tmp_path)[0]} == before


def test_module_entrypoint_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "multiorder", "--version"],
        capture_output=True, text=True, env=package_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_readme_cli_list_matches_the_parser(data_dir):
    # every `multiorder <command> <subcommand>` line of the README's CLI block
    # is a subparser, and every subparser has a line
    readme = (data_dir.parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    listed = {tuple(line.split()[1:3]) for line in block.splitlines()
              if line.startswith("multiorder ")}

    def subparsers(parser):
        return next(a.choices for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))

    parsed = {(command, sub) for command, p in subparsers(cli.build_parser()).items()
              for sub in subparsers(p)}
    assert listed == parsed


def test_public_names_are_pinned():
    # A name leaving (or joining) the package shows up as a diff of this list.
    assert sorted(multiorder.__all__) == [
        "Address", "Bernoulli", "BudgetError", "Comparison", "Configuration",
        "ConsistencyError", "DimensionMismatchError", "EntropyReport", "Frame",
        "GroupSpec", "IncrementWindow", "InputError", "InvalidIncrementsError",
        "InvarianceRecord", "MarkovLine", "MultiorderError", "OrderRanking",
        "OrderWindow", "OutOfWindowError", "PeriodicOverlay", "ShearerResult",
        "SuccessorConsistencyReport", "TilingSystemSpec", "UniformAuditResult",
        "ValidationReport", "act", "audit_intervals", "block_entropy_along_order",
        "box", "builtin", "compare", "compose", "cond_entropy_along_order", "decode",
        "element", "encode", "entropy", "errors", "exact_conditional_entropy",
        "exact_cylinder_law", "exact_entropy_rate", "expand", "folner",
        "from_increments", "full_tile_records", "groups", "identity", "interval",
        "interval_growth", "invariance_ratio", "inverse", "make_frame", "mc_integral",
        "orders", "phase_entropy", "plugin_entropy", "process", "remote_past_mi",
        "sample", "sample_address", "sample_many", "sample_straight_address",
        "shearer_check", "succ", "successor_consistency", "successor_step", "tiling",
        "to_increments", "uniform_audit", "unit_cross", "util", "validate_spec",
    ]


def package_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    src_dir = str(Path(multiorder.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src_dir] + [p for p in [os.environ.get("PYTHONPATH")] if p])}


AUDIT = ["folner", "audit", "--name", "dyadic_standard", "--level", "6",
         "--seed", "1"]


@pytest.mark.parametrize("case", [
    "convert_json_array", "convert_window_without_group",
    "audit_non_int_candidate", "audit_zero_samples", "threads_flag_zero",
    "threads_flag_negative", "audit_epsilon_nan", "audit_epsilon_inf",
    "validate_negative_level", "reducible_chain", "bernoulli_nan_prob",
    "markov_nan_transition", "convert_float_fields", "convert_bool_dimension",
    "convert_bool_ranks", "audit_negative_seed",
    "config_is_a_directory", "config_not_utf8", "input_not_utf8", "hilbert_level_64",
    "unhashable_alphabet", "output_dir_is_a_file", "dump_output_under_a_file",
])
def test_malformed_input_exits_2_without_traceback(tmp_path, case):
    env = package_env()
    doc = tmp_path / "input.json"
    if case == "convert_json_array":
        doc.write_text("[1, 2]")
        args = ["order", "convert", "--input", str(doc), "--to", "window"]
    elif case == "convert_window_without_group":
        doc.write_text(json.dumps({"form": "window"}))
        args = ["order", "convert", "--input", str(doc), "--to", "increments"]
    elif case == "config_is_a_directory":
        args = ["entropy", "run", "--config", str(tmp_path)]
    elif case in ("config_not_utf8", "input_not_utf8"):
        doc.write_bytes(b"\xff\xfe{}")  # a UTF-16 byte-order mark
        args = (["entropy", "run", "--config", str(doc)] if case == "config_not_utf8"
                else ["order", "convert", "--input", str(doc), "--to", "window"])
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
    elif case == "audit_negative_seed":
        args = ["folner", "audit", "--name", "hilbert", "--level", "3", "--seed", "-5",
                "--candidates", "4"]
    elif case == "validate_negative_level":
        args = ["tiling", "validate", "--name", "hilbert", "--level", "-1"]
    elif case == "dump_output_under_a_file":
        doc.write_text("")
        args = ["tiling", "dump", "--name", "dyadic_standard", "--level", "2",
                "--output", str(doc / "x.csv")]
    elif case == "output_dir_is_a_file":
        doc.write_text(json.dumps(base_config(tmp_path, output_dir=str(doc))))
        args = ["entropy", "run", "--config", str(doc)]
    elif case in ("reducible_chain", "markov_nan_transition", "bernoulli_nan_prob",
                  "unhashable_alphabet"):
        config = base_config(tmp_path)
        config["experiments"][1]["process"] = {
            "reducible_chain": {"variant": "markov_line", "transition": [[1, 0], [0, 1]]},
            "markov_nan_transition": {"variant": "markov_line",
                                      "transition": [[math.nan, 1], [0.5, 0.5]]},
            "bernoulli_nan_prob": {"variant": "bernoulli", "probs": [math.nan, 1]},
            "unhashable_alphabet": {"variant": "bernoulli", "probs": [0.5, 0.5],
                                    "alphabet": [[0], [1]]},
        }[case]
        doc.write_text(json.dumps(config))
        args = ["entropy", "run", "--config", str(doc)]
    elif case == "hilbert_level_64":
        # tile offsets of 2^63 leave int64
        config = base_config(tmp_path)
        config["experiments"][0]["tiling"]["level"] = 64
        doc.write_text(json.dumps(config))
        args = ["entropy", "run", "--config", str(doc)]
    else:
        doc.write_text(json.dumps(base_config(tmp_path)))
        args = ["entropy", "run", "--config", str(doc), "--threads",
                "0" if case.endswith("zero") else "-3"]
    proc = subprocess.run([sys.executable, "-m", "multiorder", *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config/input error: ")


@pytest.mark.parametrize("args", [
    ["tiling", "dump", "--name", "dyadic_standard", "--level", "40"],
    ["folner", "audit", "--name", "hilbert", "--level", "30", "--seed", "1",
     "--candidates", "4"],
])
def test_curve_over_budget_exits_1_without_traceback(tmp_path, args):
    # a level-40 dyadic or level-30 Hilbert curve would not fit in memory
    proc = subprocess.run([sys.executable, "-m", "multiorder", *args,
                           "--output", str(tmp_path / "out.csv")],
                          capture_output=True, text=True, env=package_env())
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: level-")
    assert not (tmp_path / "out.csv").exists()


def test_overlay_period_over_budget_exits_1_without_traceback(tmp_path):
    # schema-valid, but 2^40 phases cannot be enumerated
    env = package_env()
    config = base_config(tmp_path)
    config["experiments"][1]["process"] = {"variant": "periodic_overlay", "base": FAIR_LINE,
                                           "period": [1 << 40]}
    jsonschema.validate(config, EXPERIMENT_CONFIG_SCHEMA)
    doc = tmp_path / "input.json"
    doc.write_text(json.dumps(config))
    proc = subprocess.run([sys.executable, "-m", "multiorder", "entropy", "run",
                           "--config", str(doc)], capture_output=True, text=True, env=env)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: period (1099511627776,) has 1099511627776 phases")


def small_config(tmp_path, **experiment):
    """A one-experiment config that runs in well under a second, with the
    experiment's fields replaced by the given ones."""
    return {"version": 1, "seed": 3, "output_dir": str(tmp_path / "out"), "experiments": [{
        "name": "small", "kind": "mc_integral",
        "tiling": {"name": "dyadic_standard", "level": 4}, "process": FAIR_LINE,
        "params": {"j": 2, "orders": 2, "samples": 100}, **experiment}]}


@pytest.mark.parametrize("process, message", [
    ({"variant": "bernoulli", "probs": [-1]},
     "experiments[0].process.probs[0]: -1 is less than the minimum of 0"),
    ({"variant": "periodic_overlay", "base": {"variant": "bernoulli", "probs": "x"},
      "period": [2]},
     "experiments[0].process.base.probs: 'x' is not of type 'array'"),
    ({"variant": "markov_line", "transition": [[0.5]], "period": [2]},
     "experiments[0].process: additional property 'period' is not allowed"),
    ({"variant": "x"},
     "experiments[0].process: {'variant': 'x'} is not valid under any of the given schemas"),
], ids=["bernoulli_probs", "overlay_base", "markov_extra_key", "unknown_variant"])
def test_process_errors_name_the_variants_own_path(tmp_path, process, message):
    # a process that matches one variant's const fails at that variant's error
    with pytest.raises(InputError) as info:
        schema.check_config(small_config(tmp_path, process=process))
    assert str(info.value) == message


def test_entropy_run_leaves_jsonschema_unloaded(tmp_path):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(json.dumps(small_config(tmp_path)))
    bad.write_text(json.dumps({**small_config(tmp_path), "version": 2}))
    code = ("import sys; from multiorder import cli; "
            "code = cli.main(['entropy', 'run', '--config', sys.argv[1]]); "
            "print(code, 'jsonschema' in sys.modules)")
    for path, want in ((good, "0 False"), (bad, "2 False")):
        proc = subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                              text=True, env=package_env())
        assert proc.stdout.strip() == want, proc.stderr


def schema_nodes(node):
    """Every schema node of a JSON schema, the root first."""
    yield node
    for key, value in node.items():
        if key in ("properties", "$defs"):
            for sub in value.values():
                yield from schema_nodes(sub)
        elif key == "items":
            yield from schema_nodes(value)
        elif key == "oneOf":
            for sub in value:
                yield from schema_nodes(sub)


def test_config_schema_uses_only_keywords_the_check_reads():
    checked = {"type", "required", "properties", "additionalProperties", "items", "minItems",
               "minimum", "const", "enum", "pattern", "oneOf", "$ref"}
    annotations = {"$schema", "$id", "title", "$defs"}
    typed = {"minimum", "pattern", "minItems", "required", "properties",
             "additionalProperties", "items"}
    nodes = list(schema_nodes(EXPERIMENT_CONFIG_SCHEMA))
    assert all(any(node is d for node in nodes)
               for d in EXPERIMENT_CONFIG_SCHEMA["$defs"].values())
    for node in nodes:
        assert set(node) <= checked | annotations, node
        assert "type" in node or not set(node) & typed, node
        assert node.get("type", "object") in schema._TYPES, node
        assert node.get("additionalProperties", False) is False, node
        if "$ref" in node:  # a bare ref into $defs
            assert set(node) == {"$ref"}, node
            assert node["$ref"].removeprefix("#/$defs/") in EXPERIMENT_CONFIG_SCHEMA["$defs"]


@pytest.mark.parametrize("experiment, code, message", [
    ({"tiling": {"name": "dyadic_standard", "level": 64}}, 2,
     "config/input error: cell coordinates must fit in int64\n"),
    ({"process": {"variant": "periodic_overlay", "base": FAIR_LINE, "period": [1 << 40]}}, 1,
     "error: period (1099511627776,) has 1099511627776 phases"),
    ({"params": {"j": 5000, "orders": 2, "samples": 100}}, 1,  # j beyond the top tile
     "error: no straight covering address found"),
    ({"tiling": {"name": "dyadic_standard", "level": 4.0}}, 2,
     "config/input error: experiments[0].tiling.level: 4.0 is not of type 'integer'\n"),
    ({"params": {"j": 2.0, "orders": 2, "samples": 100}}, 2,
     "config/input error: experiments[0].params.j: 2.0 is not of type 'integer'\n"),
    ({"params": {"j": 2, "orders": 2.0, "samples": 100}}, 2,
     "config/input error: experiments[0].params.orders: 2.0 is not of type 'integer'\n"),
    ({"params": {"j": 2, "orders": 2, "samples": 100.0}}, 2,
     "config/input error: experiments[0].params.samples: 100.0 is not of type 'integer'\n"),
], ids=["level_64", "period_2_40", "j_5000", "level_float", "j_float", "orders_float",
        "samples_float"])
def test_schema_valid_out_of_range_configs_exit_cleanly(tmp_path, capsys, experiment, code,
                                                         message):
    # the schema accepts each config (Draft 2020-12 counts 4.0 as an integer)
    # and the package refuses it; an uncaught error would fail cli.main itself
    config = small_config(tmp_path, **experiment)
    jsonschema.validate(config, EXPERIMENT_CONFIG_SCHEMA)
    assert run_config(tmp_path, config) == code
    err = capsys.readouterr().err
    assert err.startswith(message) and "Traceback" not in err
    assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())
