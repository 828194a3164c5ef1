"""Versioned JSON schema for experiment configuration files, and the check
of a config against it."""

import re

from .errors import InputError

SCHEMA_VERSION = 1

EXPERIMENT_CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "multiorder/experiment-config/v1",
    "title": "multiorder experiment configuration",
    "type": "object",
    "required": ["version", "seed", "experiments"],
    "additionalProperties": False,
    "properties": {
        "version": {"const": SCHEMA_VERSION},
        "seed": {"type": "integer", "minimum": 0},
        "output_dir": {"type": "string"},
        "threads": {"type": "integer", "minimum": 1},
        "strict_sampling": {"type": "boolean"},
        "experiments": {
            "type": "array",
            "minItems": 1,
            "items": {"$ref": "#/$defs/experiment"},
        },
    },
    "$defs": {
        "group": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["int_line", "int_grid"]},
                "d": {"type": "integer", "minimum": 1},
            },
        },
        "process": {
            "oneOf": [
                {"$ref": "#/$defs/bernoulli"},
                {"$ref": "#/$defs/markov_line"},
                {"$ref": "#/$defs/periodic_overlay"},
            ]
        },
        "bernoulli": {
            "type": "object",
            "required": ["variant", "probs"],
            "additionalProperties": False,
            "properties": {
                "variant": {"const": "bernoulli"},
                "probs": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "number", "minimum": 0},
                },
                "alphabet": {"type": "array", "minItems": 1},
                "group": {"$ref": "#/$defs/group"},
            },
        },
        "markov_line": {
            "type": "object",
            "required": ["variant", "transition"],
            "additionalProperties": False,
            "properties": {
                "variant": {"const": "markov_line"},
                "transition": {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "type": "array",
                        "minItems": 1,
                        "items": {"type": "number", "minimum": 0},
                    },
                },
                "alphabet": {"type": "array", "minItems": 1},
            },
        },
        "periodic_overlay": {
            "type": "object",
            "required": ["variant", "base", "period"],
            "additionalProperties": False,
            "properties": {
                "variant": {"const": "periodic_overlay"},
                "base": {"$ref": "#/$defs/process"},
                "period": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "integer", "minimum": 1},
                },
            },
        },
        "tiling": {
            "type": "object",
            "required": ["name", "level"],
            "additionalProperties": False,
            "properties": {
                "name": {
                    "enum": ["dyadic_standard", "dyadic_alternating", "hilbert"]
                },
                "level": {"type": "integer", "minimum": 1},
            },
        },
        "params": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "j": {"type": "integer", "minimum": 0},
                "n": {"type": "integer", "minimum": 0},
                "gap": {"type": "integer", "minimum": 1},
                "orders": {"type": "integer", "minimum": 1},
                "samples": {"type": "integer", "minimum": 1},
                "bias": {"enum": ["plugin", "miller_madow"]},
            },
        },
        "experiment": {
            "type": "object",
            "required": ["name", "kind", "tiling", "process", "params"],
            "additionalProperties": False,
            "properties": {
                "name": {"type": "string", "pattern": "^[A-Za-z0-9_.-]+$"},
                "kind": {
                    "enum": [
                        "mc_integral",
                        "block_entropy",
                        "cond_entropy",
                        "remote_past_mi",
                        "successor_consistency",
                    ]
                },
                "tiling": {"$ref": "#/$defs/tiling"},
                "process": {"$ref": "#/$defs/process"},
                "params": {"$ref": "#/$defs/params"},
            },
        },
    },
}


# JSON types by Python class. A bool is no number, and a JSON integer is an
# integer literal: 6.0 is a number, not an integer.
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool,
          "integer": int, "number": (int, float)}


def _is(x, kind: str) -> bool:
    return isinstance(x, _TYPES[kind]) and isinstance(x, bool) == (kind == "boolean")


def _same(a, b) -> bool:
    """const/enum equality: 1, 1.0 and True are three different values."""
    return type(a) is type(b) and a == b


def _resolve(node: dict) -> dict:
    """The definition a "#/$defs/<name>" $ref node names (such a node holds
    no other keyword), else the node itself."""
    while "$ref" in node:
        node = EXPERIMENT_CONFIG_SCHEMA["$defs"][node["$ref"].removeprefix("#/$defs/")]
    return node


def _first_error(node: dict, x, path: tuple):
    """(path, message) of the first place where x breaks the schema node, or
    None. A node whose type does not hold is checked no further; as in JSON
    Schema, the object, array, string and number keywords pass other types."""
    node = _resolve(node)
    if "type" in node and not _is(x, node["type"]):
        return path, f"{x!r} is not of type {node['type']!r}"
    if "const" in node and not _same(x, node["const"]):
        return path, f"{node['const']!r} was expected"
    if "enum" in node and not any(_same(x, v) for v in node["enum"]):
        return path, f"{x!r} is not one of {node['enum']!r}"
    if isinstance(x, dict):
        for key in node.get("required", ()):
            if key not in x:
                return path, f"{key!r} is a required property"
        props = node.get("properties", {})
        if node.get("additionalProperties") is False:
            extra = [key for key in x if key not in props]
            if extra:
                return path, f"additional property {extra[0]!r} is not allowed"
        for key, sub in props.items():
            error = key in x and _first_error(sub, x[key], path + (key,))
            if error:
                return error
    elif isinstance(x, list):
        if len(x) < node.get("minItems", 0):
            return path, f"{x!r} has fewer than {node['minItems']} items"
        for i, item in enumerate(x if "items" in node else ()):
            error = _first_error(node["items"], item, path + (i,))
            if error:
                return error
    elif isinstance(x, str) and "pattern" in node and not re.search(node["pattern"], x):
        return path, f"{x!r} does not match {node['pattern']!r}"
    elif "minimum" in node and _is(x, "number") and x < node["minimum"]:
        return path, f"{x!r} is less than the minimum of {node['minimum']!r}"
    if "oneOf" in node:
        branches = [_resolve(branch) for branch in node["oneOf"]]
        errors = [_first_error(branch, x, path) for branch in branches]
        valid = errors.count(None)
        # with no branch valid, the one branch whose const properties (the
        # variant) match x names the error
        tagged = [error for branch, error in zip(branches, errors)
                  if not valid and _tagged(branch, x)]
        if len(tagged) == 1:
            return tagged[0]
        if valid != 1:
            many = "valid under more than one" if valid else "not valid under any"
            return path, f"{x!r} is {many} of the given schemas"
    return None


def _tagged(node: dict, x) -> bool:
    """Whether x is an object that matches every const property of node."""
    consts = {k: sub["const"] for k, sub in node.get("properties", {}).items() if "const" in sub}
    return bool(consts) and isinstance(x, dict) and all(
        k in x and _same(x[k], v) for k, v in consts.items())


def check_config(config) -> None:
    """Raise InputError at the first place where config breaks
    EXPERIMENT_CONFIG_SCHEMA, prefixed with its path ("experiments[0].tiling.
    level: ...") unless it is at the root. The keywords read as in Draft
    2020-12, except that an integral float such as 6.0 is no integer and
    equals no integer const."""
    error = _first_error(EXPERIMENT_CONFIG_SCHEMA, config, ())
    if error:
        path, message = error
        where = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
        raise InputError(f"{where.lstrip('.')}: {message}" if path else message)
