"""The JSON boundary: ``_check`` reads every config, exponent set and run-directory
file against a spec; ``canonical_json`` writes every report and manifest, a
dataclass as its fields and infinity as "inf", which ``_float_or_inf`` reads back.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
from typing import Any

import numpy as np


class ConfigError(ValueError):
    """Raised for malformed or inconsistent command configuration."""


def _json_safe(obj: Any) -> Any:
    if hasattr(obj, "to_json_dict"):
        return _json_safe(obj.to_json_dict())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _json_safe(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        if math.isnan(obj):
            raise ValueError("NaN has no canonical JSON form")
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
    return obj


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, inf as a string."""
    return json.dumps(_json_safe(obj), sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


class _Kinds(dict):
    """Schema of an object whose string "kind" picks the schema of its other keys."""


_REQUIRED = object()  # the default of a key that the config must give


def _required(**specs: Any) -> dict:
    return {key: (spec, _REQUIRED) for key, spec in specs.items()}


def _float_or_inf(value: Any) -> float:
    """A number, or +inf spelled "inf", "+inf" or "infinity" in any case (canonical_json writes "inf")."""
    if isinstance(value, str) and value.lower() in ("inf", "+inf", "infinity"):
        return math.inf
    try:
        return _check(value, float, "")
    except ConfigError:
        raise ValueError(f"must be a number or 'inf', got {value!r}") from None


def _check(value: Any, spec: Any, key: str) -> Any:
    """value checked against spec at every depth and returned typed, defaults filled in.

    A spec is float, int, str, bool, [spec] (a list), {key: (spec, default)}
    (an object), a _Kinds, or a converter that raises ValueError.  Numbers are
    finite JSON numbers, not bools or strings, and integral for int; null is
    allowed only where the default is None.  A mismatch is a ConfigError naming its path.
    """
    if spec is float or spec is int:
        number = isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
        if number and (spec is float or isinstance(value, int) or value.is_integer()):
            return spec(value)
        raise ConfigError(f"{key} must be {'a number' if spec is float else 'an integer'}, got {value!r}")
    if spec is str or spec is bool:
        if isinstance(value, spec):
            return value
        raise ConfigError(f"{key} must be a {spec.__name__}, got {value!r}")
    if isinstance(spec, list):
        if not isinstance(value, list):
            raise ConfigError(f"{key} must be a list, got {value!r}")
        return [_check(item, spec[0], f"{key}[{i}]") for i, item in enumerate(value)]
    if not isinstance(spec, dict):
        try:
            return spec(value)
        except ConfigError:
            raise  # a converter that checks through _check already names the path
        except ValueError as exc:
            raise ConfigError(f"{key}: {exc}") from exc
    if not isinstance(value, dict):
        raise ConfigError(f"{key or 'config root'} must be a JSON object, got {value!r}")
    prefix = f"{key}." if key else ""
    if isinstance(spec, _Kinds):
        kind = value.get("kind")
        if not isinstance(kind, str) or kind not in spec:
            raise ConfigError(f"{prefix}kind must be one of {sorted(spec)}, got {kind!r}")
        spec = {"kind": (str, _REQUIRED), **spec[kind]}
    unknown = sorted(set(value) - set(spec))
    if unknown:
        raise ConfigError(f"unknown config keys {[prefix + k for k in unknown]}; allowed: {sorted(spec)}")
    checked = {}
    for k, (sub, default) in spec.items():
        item = value.get(k, default)
        if item is _REQUIRED:
            raise ConfigError(f"config is missing the key {prefix + k!r}")
        checked[k] = None if item is None and default is None else _check(item, sub, prefix + k)
    return checked
