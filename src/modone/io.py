"""Serialization: points files, line-delimited result records, and trial-plan
configuration files.

Points files are plain text with one decimal value per line at 17 significant
digits (binary64 round-trips exactly), headed by `# modone-points v1 n=<N>`.
Result records are one JSON object per line with a fixed key order, so equal
inputs produce byte-identical output streams.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .generators import _SCALE_PARAMETER, ScaleFunction
from .stats import CorrelationWindow
from .experiments import _KIND_PARAMETER, GeneratorConfig, TrialPlan

POINTS_HEADER_PREFIX = "# modone-points v1 n="
SCHEMA_VERSION = 1
_WRITE_CHUNK = 1 << 13   # values per formatted write; larger chunks were no faster, kept more heap


def write_points(path, values) -> None:
    arr = np.asarray(values, dtype=np.float64)
    with open(path, "w", encoding="ascii") as f:
        f.write(f"{POINTS_HEADER_PREFIX}{arr.size}\n")
        for i in range(0, arr.size, _WRITE_CHUNK):
            chunk = arr[i:i + _WRITE_CHUNK].tolist()
            f.write(("%.17g\n" * len(chunk)) % tuple(chunk))


def read_points(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as f:
        header = f.readline().rstrip("\n")
        if not header.startswith(POINTS_HEADER_PREFIX):
            raise ValueError(f"{path}: not a modone points file (bad header)")
        try:
            n = int(header[len(POINTS_HEADER_PREFIX):])
        except ValueError as exc:
            raise ValueError(f"{path}: malformed points header") from exc
        try:
            with warnings.catch_warnings():   # an empty body fails the count check
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                vals = np.loadtxt(f, dtype=np.float64, comments=None, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if vals.shape[1] != 1:
        raise ValueError(f"{path}: expected one value per line, found {vals.shape[1]}")
    if len(vals) != n:
        raise ValueError(f"{path}: header says n={n} but found {len(vals)} values")
    return vals.ravel()


@dataclass(frozen=True)
class ResultRecord:
    """One statistic evaluation, serialized as a single JSON line. An error is
    always a standard error."""

    command: str
    statistic: str
    value: float
    n: int
    seed: Optional[int] = None
    window: Optional[str] = None
    error: Optional[float] = None
    wall_time_ms: Optional[float] = None

    def to_json_line(self, include_timing: bool = True) -> str:
        obj = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "statistic": self.statistic,
            "n": self.n,
        }
        if self.seed is not None:
            obj["seed"] = self.seed
        if self.window is not None:
            obj["window"] = self.window
        obj["value"] = self.value
        if self.error is not None:
            obj["error"] = self.error
            obj["error_kind"] = "standard_error"
        if include_timing and self.wall_time_ms is not None:
            obj["wall_time_ms"] = self.wall_time_ms
        return json.dumps(obj, sort_keys=False, allow_nan=False)


# ---------------------------------------------------------------------------
# trial-plan configuration
#
# Example:
# {
#   "generator": {"kind": "theorem1", "c": 1.0},
#   "n_schedule": [10000, 200000],
#   "windows": [{"pair_s": 1.0}, {"k": 3, "intervals": [[0, 1], [0, 1]]}],
#   "trials": 20,
#   "master_seed": 7,
#   "alpha_mode": {"uniform": [1.0, 2.0]}
# }
# All seeds are mandatory; there are no entropy defaults. Values pass through
# unconverted, and the constructors reject what is not a number. A key that
# the object does not take is an error, not ignored.


def _expect(value, kind: type, what: str):
    """`value` itself when it has the JSON container type `kind`."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be a {kind.__name__}, got {value!r}")
    return value


def _only(obj: dict, keys, what: str) -> dict:
    """`obj` itself when it has no key outside `keys`."""
    unknown = [k for k in obj if k not in keys]
    if unknown:
        raise ValueError(f"{what} has unknown key {unknown[0]!r}")
    return obj


def _scale_from_dict(obj) -> ScaleFunction:
    """The width family named by obj["family"], built from its one parameter."""
    fam = _expect(obj, dict, "scale").get("family")
    if not isinstance(fam, str) or fam not in _SCALE_PARAMETER:
        raise ValueError(f"unknown scale family {fam!r}")
    param = _SCALE_PARAMETER[fam]
    return getattr(ScaleFunction, fam)(_only(obj, ("family", param), "scale").get(param))


def _window_from_dict(obj) -> CorrelationWindow:
    if "pair_s" in _expect(obj, dict, "window"):
        return CorrelationWindow.pair(_only(obj, ("pair_s",), "window")["pair_s"])
    _only(obj, ("k", "intervals"), "window")
    return CorrelationWindow(k=obj.get("k"), intervals=obj.get("intervals"))


def plan_from_json(text: str) -> TrialPlan:
    obj = _only(_expect(json.loads(text), dict, "config"),
                ("generator", "n_schedule", "windows", "trials", "master_seed", "alpha_mode"),
                "config")
    gen = _only(_expect(obj.get("generator"), dict, "generator"),
                ("kind", "scale", *_KIND_PARAMETER.values()), "generator")
    config = GeneratorConfig(
        kind=gen.get("kind"),
        alpha=gen.get("alpha"),
        theta=gen.get("theta"),
        base=gen.get("base"),
        c=gen.get("c"),
        scale=_scale_from_dict(gen["scale"]) if "scale" in gen else None,
    )
    am = obj.get("alpha_mode", {"fixed": 1.0})
    if isinstance(am, dict) and list(am) == ["fixed"]:
        alpha_mode = ("fixed", am["fixed"])
    elif isinstance(am, dict) and list(am) == ["uniform"] and isinstance(am["uniform"], list):
        alpha_mode = ("uniform", *am["uniform"])
    else:
        raise ValueError("alpha_mode must carry only 'fixed' or a 'uniform' [lo, hi] list")
    return TrialPlan(
        generator=config,
        n_schedule=tuple(_expect(obj.get("n_schedule"), list, "n_schedule")),
        windows=tuple(_window_from_dict(w) for w in _expect(obj.get("windows"), list, "windows")),
        trials=obj.get("trials"),
        master_seed=obj.get("master_seed"),
        alpha_mode=alpha_mode,
    )
