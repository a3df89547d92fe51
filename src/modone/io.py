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

from .generators import ScaleFunction
from .stats import CorrelationWindow
from .experiments import GeneratorConfig, TrialPlan

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
    """One statistic evaluation, serialized as a single JSON line."""

    command: str
    statistic: str
    value: float
    n: int
    seed: Optional[int] = None
    window: Optional[str] = None
    error: Optional[float] = None
    error_kind: Optional[str] = None    # "standard_error" or "bound"
    wall_time_ms: Optional[float] = None
    schema_version: int = SCHEMA_VERSION

    def to_json_line(self, include_timing: bool = True) -> str:
        obj = {
            "schema_version": self.schema_version,
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
            obj["error_kind"] = self.error_kind
        if include_timing and self.wall_time_ms is not None:
            obj["wall_time_ms"] = self.wall_time_ms
        return json.dumps(obj, sort_keys=False, allow_nan=False)

    @classmethod
    def from_json_line(cls, line: str) -> "ResultRecord":
        obj = json.loads(line)
        return cls(
            command=obj["command"],
            statistic=obj["statistic"],
            value=obj["value"],
            n=obj["n"],
            seed=obj.get("seed"),
            window=obj.get("window"),
            error=obj.get("error"),
            error_kind=obj.get("error_kind"),
            wall_time_ms=obj.get("wall_time_ms"),
            schema_version=obj.get("schema_version", SCHEMA_VERSION),
        )


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
# All seeds are mandatory; there are no entropy defaults.


def _scale_from_dict(obj) -> ScaleFunction:
    fam = obj["family"]
    if fam == "beck":
        return ScaleFunction.beck(float(obj["c"]))
    if fam == "power_log":
        return ScaleFunction.power_log(float(obj["c"]))
    if fam == "constant":
        return ScaleFunction.constant(float(obj["g0"]))
    if fam == "table":
        return ScaleFunction.table(obj["values"])
    raise ValueError(f"unknown scale family {fam!r}")


def _window_from_dict(obj) -> CorrelationWindow:
    if "pair_s" in obj:
        return CorrelationWindow.pair(float(obj["pair_s"]))
    return CorrelationWindow(k=int(obj["k"]),
                             intervals=tuple(tuple(iv) for iv in obj["intervals"]))


def plan_from_json(text: str) -> TrialPlan:
    obj = json.loads(text)
    if "master_seed" not in obj:
        raise ValueError("config must set master_seed explicitly")
    gen = obj["generator"]
    config = GeneratorConfig(
        kind=gen["kind"],
        alpha=gen.get("alpha"),
        theta=gen.get("theta"),
        base=gen.get("base"),
        c=gen.get("c"),
        scale=_scale_from_dict(gen["scale"]) if "scale" in gen else None,
    )
    am = obj.get("alpha_mode", {"fixed": 1.0})
    if "fixed" in am:
        alpha_mode = ("fixed", float(am["fixed"]))
    elif "uniform" in am:
        lo, hi = am["uniform"]
        alpha_mode = ("uniform", float(lo), float(hi))
    else:
        raise ValueError("alpha_mode must carry 'fixed' or 'uniform'")
    return TrialPlan(
        generator=config,
        n_schedule=tuple(obj["n_schedule"]),
        windows=tuple(_window_from_dict(w) for w in obj["windows"]),
        trials=obj["trials"],
        master_seed=obj["master_seed"],
        alpha_mode=alpha_mode,
    )
