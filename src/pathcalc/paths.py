"""Canonical cadlag paths, the jump-restricted sample space and path calculus.

A :class:`Path` is a finite event table: strictly increasing times starting
at 0 and a d-vector value per event.  In ``step`` mode the trajectory holds
``values[k]`` on ``[t_k, t_{k+1})`` (right-continuous with left limits by
construction); in ``linear`` mode it is the continuous piecewise-linear
interpolant.  After the last event the value is held constant up to the
horizon in both modes.

Sample-space membership restricts downward jumps: for every coordinate and
every time, ``x_i(t-) - x_i(t) <= psi(sup_{s<t} |x(s)|)`` with a fixed
non-decreasing ``psi``.  Upward jumps are unrestricted.

It also owns the file formats pathcalc writes and reads: CSV tables of
``repr`` floats, sorted-key JSON, and JSON objects read back (section "File
round trip").
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path as FsPath

import numpy as np

from .errors import ContractError

MODE_STEP = "step"
MODE_LINEAR = "linear"

BASE_CADLAG = "all-cadlag"
BASE_CONTINUOUS = "continuous"
BASE_NONNEGATIVE = "nonnegative"


@dataclass(frozen=True)
class PsiSpec:
    """Non-decreasing jump-bound function on the nonnegative reals.

    Families: ``constant`` (c), ``affine`` (a + b*x), ``power`` (a * x**p)
    and ``table`` (piecewise-linear through sorted, monotone (x, y) pairs,
    held constant beyond the table ends).
    """

    family: str
    params: tuple[float, ...]

    def __post_init__(self):
        if self.family not in ("constant", "affine", "power", "table"):
            raise ContractError(f"unknown psi family {self.family!r}")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        p = self.params
        if self.family == "constant":
            if len(p) != 1 or p[0] < 0:
                raise ContractError("constant psi needs one parameter c >= 0")
        elif self.family == "affine":
            if len(p) != 2 or p[0] < 0 or p[1] < 0:
                raise ContractError("affine psi needs a, b >= 0")
        elif self.family == "power":
            if len(p) != 2 or p[0] < 0 or p[1] < 0:
                raise ContractError("power psi needs a, p >= 0")
        else:
            if len(p) < 4 or len(p) % 2:
                raise ContractError("table psi needs interleaved x1,y1,...,xk,yk")
            xs, ys = self.table_arrays()
            if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) < 0) or np.any(ys < 0):
                raise ContractError("table psi must be sorted in x and non-decreasing in y >= 0")

    def table_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        arr = np.asarray(self.params, dtype=np.float64)
        return arr[0::2], arr[1::2]

    def __call__(self, x):
        """``psi(x)`` for a float or, elementwise, an array.

        ``power`` takes the scalar ``**`` (the C library ``pow``), which
        NumPy's vectorized ``power`` can miss by an ulp; ``table`` finds the
        cell ``xs[lo] <= x < xs[lo + 1]`` and lerps with weight
        ``w = (x - xs[lo]) / (xs[lo + 1] - xs[lo])``.
        """
        x = np.asarray(x, dtype=np.float64)
        p = self.params
        if self.family == "constant":
            out = np.full(x.shape, p[0])
        elif self.family == "affine":
            out = p[0] + p[1] * x
        elif self.family == "power":
            out = np.array([p[0] * v ** p[1] if v > 0.0 else 0.0
                            for v in x.ravel()]).reshape(x.shape)
        else:
            xs, ys = self.table_arrays()
            lo = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, xs.shape[0] - 2)
            w = (x - xs[lo]) / (xs[lo + 1] - xs[lo])
            out = np.where(x <= xs[0], ys[0],
                           np.where(x >= xs[-1], ys[-1], ys[lo] + w * (ys[lo + 1] - ys[lo])))
        return out[()]

    def to_json(self) -> dict:
        return {"family": self.family, "params": list(self.params)}

    @classmethod
    def from_json(cls, obj: dict) -> "PsiSpec":
        if missing := sorted({"family", "params"} - set(obj)):
            raise ContractError(f"psi: missing key {missing[0]!r}")
        return cls(obj["family"], tuple(obj["params"]))


def _value_eq(a, b):
    """``__eq__`` of dataclasses holding arrays: :func:`np.array_equal` on each
    field except ``compare=False`` ones (a generated ``__eq__`` would raise)."""
    if type(a) is not type(b):
        return NotImplemented
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in fields(a) if f.compare)


@dataclass(frozen=True, eq=False)
class Path:
    """Finite-event trajectory in d dimensions.

    ``times`` and ``values`` are read-only arrays, so anything computed from
    them stays valid for the life of the path.  The crossing counters of
    :mod:`pathcalc.partitions` keep one scan per spacing in the private
    ``_crossing_scans`` memo; ``==`` compares the other fields by value, and
    neither it nor ``repr`` sees the memo.
    """

    times: np.ndarray
    values: np.ndarray
    mode: str = MODE_STEP
    horizon: float | None = None
    _crossing_scans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    __eq__ = _value_eq
    __hash__ = None

    def __post_init__(self):
        times = np.ascontiguousarray(np.asarray(self.times, dtype=np.float64))
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        values = np.ascontiguousarray(values)
        if times.ndim != 1 or values.ndim != 2 or values.shape[0] != times.shape[0]:
            raise ContractError("times must be (m,), values (m, d) with matching length")
        if times.shape[0] == 0:
            raise ContractError("a path needs at least one event")
        if times[0] != 0.0:
            raise ContractError("first event time must be 0")
        if np.any(np.diff(times) <= 0):
            raise ContractError("event times must be strictly increasing")
        if not np.all(np.isfinite(times)) or not np.all(np.isfinite(values)):
            raise ContractError("times and values must be finite")
        horizon = float(self.horizon) if self.horizon is not None else float(times[-1])
        if horizon <= 0 or horizon < times[-1]:
            raise ContractError("horizon must be positive and >= the last event time")
        if self.mode not in (MODE_STEP, MODE_LINEAR):
            raise ContractError(f"unknown mode {self.mode!r}")
        times.flags.writeable = False
        values.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "horizon", horizon)

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def n_events(self) -> int:
        return self.times.shape[0]

    def eval(self, t):
        """Cadlag value at time(s) t, shape (d,) for a scalar t."""
        t_arr = np.asarray(t, dtype=np.float64)
        if np.any(t_arr < 0) or np.any(t_arr > self.horizon):
            raise ContractError("evaluation time outside [0, horizon]")
        if self.mode == MODE_STEP:
            idx = np.searchsorted(self.times, t_arr, side="right") - 1
            out = self.values[idx]
        else:
            out = np.empty(t_arr.shape + (self.dim,))
            for i in range(self.dim):
                out[..., i] = np.interp(t_arr, self.times, self.values[:, i])
        return out

    def left_limit(self, t):
        """Left limit at time(s) t > 0, shape (d,) for scalar t."""
        t_arr = np.asarray(t, dtype=np.float64)
        if np.any(t_arr <= 0) or np.any(t_arr > self.horizon):
            raise ContractError("left limit defined on (0, horizon]")
        if self.mode == MODE_LINEAR:
            return self.eval(t_arr)
        idx = np.searchsorted(self.times, t_arr, side="left") - 1
        return self.values[idx]

    def jump(self, t):
        """``x(t) - x(t-)``; identically zero in linear mode."""
        return self.eval(t) - self.left_limit(t)

    def sup_norm(self) -> float:
        """Supremum of the l2 norm over the trajectory.

        Exact in both modes: on a linear segment the norm is convex, so the
        maximum sits at an endpoint.
        """
        return float(np.max(np.linalg.norm(self.values, axis=1)))

    def coordinate(self, i: int) -> "Path":
        """1-d path of coordinate i (1-based)."""
        if not 1 <= i <= self.dim:
            raise ContractError(f"coordinate index {i} out of range 1..{self.dim}")
        return Path(self.times, self.values[:, i - 1], mode=self.mode, horizon=self.horizon)

    def coordinate_sum(self, i: int, j: int) -> "Path":
        """1-d path of the coordinate sum x_i + x_j (1-based, i != j)."""
        if not (1 <= i <= self.dim and 1 <= j <= self.dim):
            raise ContractError("coordinate index out of range")
        if i == j:
            raise ContractError("coordinate_sum requires i != j")
        return Path(self.times, self.values[:, i - 1] + self.values[:, j - 1],
                    mode=self.mode, horizon=self.horizon)

    def running_sup_before(self) -> np.ndarray:
        """``sup_{s in [0, t_k)} |x(s)|`` for every event index k >= 1."""
        norms = np.linalg.norm(self.values, axis=1)
        return np.maximum.accumulate(norms)[:-1]


@dataclass(frozen=True)
class SampleSpaceSpec:
    """Membership contract: jump bound psi plus a base path class."""

    psi: PsiSpec
    base: str = BASE_CADLAG
    dim: int = 1
    horizon: float = 1.0

    def __post_init__(self):
        if self.base not in (BASE_CADLAG, BASE_CONTINUOUS, BASE_NONNEGATIVE):
            raise ContractError(f"unknown base {self.base!r}")


@dataclass(frozen=True)
class MembershipReport:
    ok: bool
    violations: tuple = field(default_factory=tuple)  # (time, reason) pairs


def check_membership(path: Path, spec: SampleSpaceSpec) -> MembershipReport:
    """Verify the downward-jump bound and base-set constraints.

    The running supremum is taken over event values, which is exact in step
    mode and, by convexity of the norm, in linear mode as well.
    """
    if path.dim != spec.dim:
        raise ContractError(f"path dim {path.dim} != spec dim {spec.dim}")
    violations: list[tuple[float, str]] = []
    if spec.base == BASE_CONTINUOUS and path.mode != MODE_LINEAR:
        violations.append((0.0, "continuous base requires linear mode"))
    if spec.base == BASE_NONNEGATIVE and np.any(path.values < 0):
        for k in np.flatnonzero(np.any(path.values < 0, axis=1)):
            violations.append((float(path.times[k]), "negative value"))
    if path.mode == MODE_STEP and path.n_events > 1:
        runsup = path.running_sup_before()
        bounds = np.asarray(spec.psi(runsup), dtype=np.float64)
        down = path.values[:-1] - path.values[1:]  # positive entries are downward jumps
        bad = np.flatnonzero(np.any(down > bounds[:, None], axis=1))
        for k in bad:
            violations.append((float(path.times[k + 1]), "downward jump exceeds psi bound"))
    violations.sort()
    return MembershipReport(ok=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# File round trip: every artifact format pathcalc writes or reads
# ---------------------------------------------------------------------------

_TABLE_BLOCK = 4096  # rows formatted at once: a long table never holds all its strings


def _write_table(fh, header, columns):
    """Write ``header`` and a row per index of the equal-length 1-d arrays ``columns``.

    A cell is ``str`` of its value, for a float its shortest round-trip
    ``repr``, so readers invert writers exactly.  Lines end with ``"\\n"``.
    """
    fh.write(",".join(header) + "\n")
    for lo in range(0, len(columns[0]), _TABLE_BLOCK):
        cells = [map(str, col[lo:lo + _TABLE_BLOCK].tolist()) for col in columns]
        fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _write_json(file, obj):
    """``obj`` as JSON: two-space indents, sorted keys, ``str`` of other types, final newline."""
    with open(file, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _read_json_object(file) -> dict:
    """The JSON object in ``file``; anything else raises :class:`ContractError`."""
    with open(file) as fh:
        try:
            obj = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ContractError(f"{file}: malformed JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ContractError(f"{file}: expected a JSON object")
    return obj


def write_path_csv(path: Path, csv_file, sidecar: dict | None = None):
    """Write the event table as ``t,x1,...,xd`` with CRLF line ends, plus the JSON sidecar."""
    csv_file = FsPath(csv_file)
    with csv_file.open("w", newline="\r\n") as fh:
        _write_table(fh, ["t"] + [f"x{i + 1}" for i in range(path.dim)],
                     [path.times] + list(path.values.T))
    meta = {"dim": path.dim, "horizon": path.horizon, "mode": path.mode}
    if sidecar:
        meta.update(sidecar)
    _write_json(csv_file.with_suffix(".json"), meta)


def _finite_number(x) -> bool:
    """Whether a JSON value is a number (not a boolean) with a finite float64 value."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int beyond float64
        return False


def read_path_csv(csv_file) -> Path:
    """Read a path written by :func:`write_path_csv` (sidecar optional)."""
    csv_file = FsPath(csv_file)
    try:
        with csv_file.open(newline="") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise ContractError(f"{csv_file}: not a text file: {exc}") from exc
    if not rows or rows[0][:1] != ["t"]:
        raise ContractError(f"{csv_file}: expected header t,x1,...,xd")
    width = len(rows[0])
    if width < 2:
        raise ContractError(f"{csv_file}: no value column after t")
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ContractError(f"{csv_file}:{line}: {len(row)} cells, the header has {width}")
    try:
        data = np.array([[float(x) for x in row] for row in rows[1:]], dtype=np.float64)
    except ValueError as exc:
        raise ContractError(f"{csv_file}: {exc}") from exc
    if data.size == 0:
        raise ContractError(f"{csv_file}: no events")
    mode = MODE_STEP
    horizon = None
    sidecar = csv_file.with_suffix(".json")
    if sidecar.exists():
        meta = _read_json_object(sidecar)
        mode = meta.get("mode", MODE_STEP)
        horizon = meta.get("horizon")
        if not isinstance(mode, str):
            raise ContractError(f"{sidecar}: mode must be a string, got {mode!r}")
        if horizon is not None and not _finite_number(horizon):
            raise ContractError(f"{sidecar}: horizon must be a finite number, got {horizon!r}")
    return Path(times=data[:, 0], values=data[:, 1:], mode=mode, horizon=horizon)
