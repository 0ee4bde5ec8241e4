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

It holds the one scalar intake, :func:`_scalar`, and :func:`_sweep`, the one
loop of the ensemble checks of :mod:`pathcalc.checks` and
:mod:`pathcalc.integration`.  It also owns the file formats pathcalc writes
and reads: CSV tables of ``repr`` floats, sorted-key JSON, and JSON objects
read back (section "File round trip").  The table writer turns a block of
rows into text with one ``orjson.dumps`` and a few NumPy passes over its
bytes, with no string per cell.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import numbers
from dataclasses import dataclass, field, fields
from pathlib import Path as FsPath
from typing import NamedTuple

import numpy as np

from . import _kernels as K
from .errors import CheckFailedError, ContractError, InternalConsistencyError

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
        table = self.family == "table"  # only a table's x (its even parameters) may be < 0
        p = tuple(_scalar(v, f"{self.family} psi parameter", -_BIG if table and k % 2 == 0 else 0)
                  for k, v in enumerate(self.params))
        object.__setattr__(self, "params", p)
        if not table and len(p) != (arity := 1 + (self.family != "constant")):
            raise ContractError(f"{self.family} psi needs {arity} parameter(s) >= 0")
        if table:
            if len(p) < 4 or len(p) % 2:
                raise ContractError("table psi needs interleaved x1,y1,...,xk,yk")
            xs, ys = self.table_arrays()
            if not _strictly_increasing(xs) or np.any(np.diff(ys) < 0):
                raise ContractError("table psi must be sorted in x and non-decreasing in y >= 0")

    def table_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        arr = np.asarray(self.params, dtype=np.float64)
        return arr[0::2], arr[1::2]

    def __call__(self, x):
        """``psi(x)`` for ``x`` in ``[0, inf]``: a float of a real number, else elementwise.

        Each value is checked by :func:`_scalar` and evaluated in Python
        floats, whose arithmetic and ``**`` (the C library ``pow``) round as
        NumPy's scalars do.  ``table`` holds its end values beyond the table
        and between them finds the cell ``xs[lo] <= x < xs[lo + 1]`` and lerps
        with weight ``(x - xs[lo]) / (xs[lo + 1] - xs[lo])``.  A finite ``x``
        whose value is beyond float64 raises :class:`ContractError`.
        """
        if not isinstance(x, numbers.Real):
            return np.vectorize(self, otypes=[np.float64])(x)
        v = _scalar(x, "psi argument", 0, math.inf)
        p = self.params
        if self.family == "constant":
            return p[0]
        if self.family == "table":
            xs, ys = p[0::2], p[1::2]
            if not xs[0] < v < xs[-1]:
                return ys[0] if v <= xs[0] else ys[-1]
            lo = bisect.bisect_right(xs, v) - 1
            return ys[lo] + (v - xs[lo]) / (xs[lo + 1] - xs[lo]) * (ys[lo + 1] - ys[lo])
        try:  # b = 0 holds a at x = inf too
            out = (p[0] + (p[1] * v if p[1] else 0.0) if self.family == "affine" else
                   p[0] * v ** p[1] if v > 0.0 and p[0] > 0.0 else 0.0)
        except OverflowError:
            out = math.inf
        if out == math.inf and v < math.inf:
            raise ContractError(f"psi {self.family}:{','.join(map(repr, p))} of a finite "
                                "argument is beyond float64")
        return out

    def to_json(self) -> dict:
        return {"family": self.family, "params": list(self.params)}

    @classmethod
    def from_json(cls, obj: dict) -> "PsiSpec":
        if missing := sorted({"family", "params"} - set(obj)):
            raise ContractError(f"psi: missing key {missing[0]!r}")
        return cls(obj["family"], tuple(obj["params"]))


_BIG = 1.7976931348623157e308  # the largest float64, the default bound of a scalar


def _scalar(x, name: str, lo=-_BIG, hi=_BIG, *, integer=False, open_lo=False, open_hi=False):
    """The checked scalar argument ``name``: the one intake of every scalar precondition.

    An ``integer`` is an ``int``, a NumPy integer or an integral float, returned as an ``int``;
    a real is any real number, returned as a ``float``; a ``bool`` is neither, and a 0-d array
    is its element.  It lies in ``[lo, hi]``, less a bound with ``open_lo`` or ``open_hi``; the
    default bounds are float64's, so a real is finite, and NaN is in no bounds.  Anything else
    raises :class:`ContractError` naming ``name``, its domain and ``x``."""
    v = x
    if type(v) is not float and type(v) is not int:  # a bool is neither type
        v = v[()] if isinstance(v, np.ndarray) and v.ndim == 0 else v  # a NumPy scalar
        real = isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_))
        v = (int(v) if isinstance(v, numbers.Integral) else float(v)) if real else math.nan
    if integer and type(v) is float:
        v = int(v) if v.is_integer() else None
    if v is not None and (lo < v if open_lo else lo <= v) and (v < hi if open_hi else v <= hi):
        return v if integer else float(v)
    if integer:
        domain = f"in {lo}..{hi}" if hi < _BIG else f"an integer >= {lo}"
    elif -_BIG < lo and hi < _BIG:
        raise ContractError(f"{name} = {x!r} is outside {'[('[open_lo]}{lo}, {hi}{'])'[open_hi]}")
    elif -_BIG < lo:
        domain = f"{'>' if open_lo else '>='} {lo}" + (" and finite" if hi == _BIG else "")
    else:
        domain = "a finite number" if hi == _BIG else "a number"
    raise ContractError(f"{name} must be {domain}, got {x!r}")


def _at(seed: int | None, stream: int, **where) -> str:
    """Where a check failed, ``(seed S stream I n N K K t T)``; no seed if none is known."""
    seed = "" if seed is None else f"seed {seed} "
    return f"({seed}stream {stream}" + "".join(f" {k} {v}" for k, v in where.items()) + ")"


class _Row(NamedTuple):
    """A stream's value (None: none), items checked, per-path record and, per event, a hit."""

    value: float | None
    checked: int = 1
    record: dict | None = None
    hits: tuple = ()


@dataclass(frozen=True)
class Report:
    """A passed check: the items checked, the worst value and the first stream to reach it,
    ``verify``'s per-path records, and per event the streams in it."""

    checked: int
    worst: float
    seed: int | None
    stream: int | None
    per_path: list = field(default_factory=list)
    hits: dict = field(default_factory=dict)

    def failure(self, what: str, event: int = 0) -> CheckFailedError:
        """The frequency bound ``what`` of ``event`` failed, on one item per stream."""
        hits = self.hits.get(event, [])
        return CheckFailedError(f"{what} (seed {self.seed} count {self.checked}: {len(hits)} "
                                f"streams in the event, the first at streams "
                                f"{', '.join(map(str, hits[:10]))})")


def _sweep(seed: int | None, items, body, *, worst=math.inf, violation: str = "") -> Report:
    """The one loop of the ensemble checks: ``body(stream, item, where)`` returns the
    :class:`_Row` of each of ``items``, streams counted from 0, or None to skip it.  The worst
    value is the lowest, or the highest from a ``worst`` of -inf.  An
    :class:`InternalConsistencyError` of the body is raised again naming the seed, the stream
    and the n, K, t or lambda the body put in ``where``, and a worst value below 0 raises as a
    named ``violation``."""
    sign, at, checked, records, hits = math.copysign(1.0, worst), None, 0, [], {}
    for stream, item in enumerate(items):
        where = {}
        try:
            row = body(stream, item, where)
        except InternalConsistencyError as exc:
            raise InternalConsistencyError(f"{exc} {_at(seed, stream, **where)}") from exc
        if row is not None:
            checked += row.checked
            if row.value is not None and sign * row.value < sign * worst:
                worst, at = row.value, stream
            if row.record is not None:
                records.append(row.record)
            for event in (e for e, hit in enumerate(row.hits) if hit):
                hits.setdefault(event, []).append(stream)
    if violation and worst < 0:
        raise InternalConsistencyError(f"{violation} violated by {-worst:.3e} {_at(seed, at)}")
    return Report(checked, worst, seed, at, records, hits)


def _strictly_increasing(t: np.ndarray) -> bool:
    """Whether each entry of the 1-d ``t`` exceeds the one before; a NaN never does."""
    return bool((t[1:] > t[:-1]).all())


def _value_eq(a, b):
    """``__eq__`` of dataclasses holding arrays: :func:`np.array_equal` on each
    field except ``compare=False`` ones (a generated ``__eq__`` would raise)."""
    if type(a) is not type(b):
        return NotImplemented
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name))
               for f in fields(a) if f.compare)


def _held_table(times, values, gaps: int, what: str, check=None):
    """The checked, read-only ``(times, values)`` of a table of values held between times.

    ``times`` is 1-d, starts at 0 and increases strictly (a NaN never does);
    ``values`` is 2-d with at least one column, a 1-d array taken as a column
    view, and has a row per time, or per gap between times with ``gaps=1``.
    Both are finite, except that the end of the last gap may be ``inf``.
    ``check(times, values)`` adds the caller's own rules.  Only once every
    check has passed is anything frozen: a contiguous float64 array passed
    in is taken, not copied, and becomes read-only, and so does the caller's
    array behind a column view.  ``what`` names the table in errors.
    """
    times = np.asarray(times, dtype=np.float64)
    given = np.asarray(values, dtype=np.float64)
    values = given[:, None] if given.ndim == 1 else given
    if times.ndim != 1 or times.shape[0] == 0 or times[0] != 0.0:
        raise ContractError(f"{what} times must be a 1-d array starting at 0")
    if not _strictly_increasing(times):
        raise ContractError(f"{what} times must be strictly increasing")
    rows = times.shape[0] - gaps
    if values.ndim != 2 or values.shape[1] == 0 or values.shape[0] != rows:
        raise ContractError(f"{what} values must be 2-d with {rows} rows and at least one "
                            f"column, got shape {values.shape}")
    if not (np.isfinite(times[:rows]).all() and np.isfinite(values).all()):
        raise ContractError(f"{what} times and values must be finite")
    if check is not None:
        check(times, values)
    times, values = np.ascontiguousarray(times), np.ascontiguousarray(values)
    times.flags.writeable = False
    values.flags.writeable = False
    if np.may_share_memory(given, values):  # a 1-d input, taken as a column view
        given.flags.writeable = False
    return times, values


@dataclass(frozen=True, eq=False)
class Path:
    """Finite-event trajectory in d dimensions.

    ``times`` and ``values`` are the read-only event table of
    :func:`_held_table`, so anything computed from them stays valid for the
    life of the path; ``horizon`` is at least the last event time.  The
    private ``_scans`` memo keeps what was scanned from them, and
    :meth:`_memo` is the only way in: the crossing counters of
    :mod:`pathcalc.partitions` store one scan per spacing under ``float(h)``,
    :func:`pathcalc.strategies.gamma_K` its stopping time per level under
    ``("gamma", K)``, :func:`pathcalc.qv._z_data` generation n's Z record
    under ``("z", n)`` and :func:`pathcalc.strategies.l_strategy` the capital
    of its uncut strategy under ``("z-capital", n)``, in either mode.  Every
    array it holds is read-only.  ``==`` compares the other fields by value,
    and neither it nor ``repr`` sees the memo.
    """

    times: np.ndarray
    values: np.ndarray
    mode: str = MODE_STEP
    horizon: float | None = None
    _scans: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    __eq__ = _value_eq
    __hash__ = None

    def __post_init__(self):
        if self.mode not in (MODE_STEP, MODE_LINEAR):
            raise ContractError(f"unknown mode {self.mode!r}")

        def take_horizon(times, _):  # positive and at least the last event time
            last = float(times[-1])
            horizon = last if self.horizon is None else self.horizon
            object.__setattr__(self, "horizon", _scalar(horizon, "horizon", last, open_lo=not last))

        times, values = _held_table(self.times, self.values, 0, "path", take_horizon)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def _memo(self, key, build):
        """The memo entry under ``key``, stored from ``build()`` on first use."""
        value = self._scans.get(key)
        if value is None:  # a stored value can be falsy, such as a gamma_K of 0.0
            value = self._scans[key] = build()
        return value

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def n_events(self) -> int:
        return self.times.shape[0]

    def eval(self, t):
        """Cadlag value at time(s) t, shape (d,) for a scalar t."""
        t_arr = np.asarray(t, dtype=np.float64)
        if not np.all((t_arr >= 0) & (t_arr <= self.horizon)):  # NaN fails too
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
        if not np.all((t_arr > 0) & (t_arr <= self.horizon)):  # NaN fails too
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
        return float(np.max(K.row_norms(self.values)))

    def coordinate(self, i: int) -> "Path":
        """1-d path of coordinate i (1-based)."""
        i = _scalar(i, "i", 1, self.dim, integer=True)
        return Path(self.times, self.values[:, i - 1], mode=self.mode, horizon=self.horizon)

    def coordinate_sum(self, i: int, j: int) -> "Path":
        """1-d path of the coordinate sum x_i + x_j (1-based, i != j)."""
        i = _scalar(i, "i", 1, self.dim, integer=True)
        j = _scalar(j, "j", 1, self.dim, integer=True)
        if i == j:
            raise ContractError("coordinate_sum requires i != j")
        return Path(self.times, self.values[:, i - 1] + self.values[:, j - 1],
                    mode=self.mode, horizon=self.horizon)

    def running_sup_before(self) -> np.ndarray:
        """``sup_{s in [0, t_k)} |x(s)|`` for every event index k >= 1."""
        return np.maximum.accumulate(K.row_norms(self.values))[:-1]


@dataclass(frozen=True)
class SampleSpaceSpec:
    """Membership contract: jump bound psi plus a base path class."""

    psi: PsiSpec
    base: str = BASE_CADLAG
    dim: int = 1

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

_TABLE_BLOCK = 4096  # rows formatted at once: a long table never holds all its text


def _write_table(fh, header, columns):
    """Write ``header`` and a row per index of the equal-length 1-d ``columns``: arrays, or
    after the first ``(indices, scale)`` for the float column ``indices * scale``.

    A cell is ``str`` of its value, for a float its shortest round-trip ``repr``, so readers
    invert writers exactly; lines end with ``"\\n"``.  A block of rows is one ``orjson.dumps``
    of its cells as float64s, whose bytes NumPy splits into rows, dropping each int cell's
    ``.0``.  orjson spells a float as ``repr`` does at magnitudes in ``[1e-4, 1e16)`` and at
    zero, and an int exactly below 2^53; a row with any other cell is rebuilt with ``str``."""
    import orjson  # here, not at module top: only a table writer loads it

    fh.write(",".join(header) + "\n")
    for lo in range(0, len(columns[0]), _TABLE_BLOCK):
        cols = [c[0][lo:lo + _TABLE_BLOCK] * c[1] if isinstance(c, tuple)
                else c[lo:lo + _TABLE_BLOCK] for c in columns]
        grid = np.zeros((len(cols[0]), len(cols)))
        odd = np.zeros(len(grid), dtype=bool)  # rows with a cell orjson spells otherwise
        ints = [j for j, c in enumerate(cols) if c.dtype.kind in "iu"]
        for j, c in enumerate(cols):
            if j in ints:
                odd |= (c >= 2 ** 53) | (c <= -2 ** 53)
            elif c.dtype == np.float64:
                mag = np.abs(c)
                odd |= ~(((mag >= 1e-4) & (mag < 1e16)) | (c == 0))
            else:
                odd[:] = True
                continue
            grid[:, j] = c
        raw = orjson.dumps(grid.ravel(), option=orjson.OPT_SERIALIZE_NUMPY)
        text = np.frombuffer(raw, np.uint8)[1:].copy()  # b"cell,cell,...,cell]"
        ends = np.append(np.flatnonzero(text == ord(",")), text.size - 1).reshape(grid.shape)
        text[ends[:, -1]] = ord("\n")
        if ints:
            text = np.delete(text, np.concatenate([ends[:, ints] - 2, ends[:, ints] - 1]).ravel())
        out = text.tobytes().decode()
        rows = np.flatnonzero(odd)
        if rows.size:
            bounds = np.append(0, np.flatnonzero(text == ord("\n")) + 1)
            pieces, at = [], 0
            for start, stop, row in zip(bounds[rows].tolist(), bounds[rows + 1].tolist(),
                                        zip(*(c[rows].tolist() for c in cols))):
                pieces += [out[at:start], ",".join(map(str, row)), "\n"]
                at = stop
            out = "".join(pieces) + out[at:]
        fh.write(out)


def _create(file, newline=None):
    """``file`` opened as a new file, never truncated: a file or link at its name is unlinked."""
    FsPath(file).unlink(missing_ok=True)
    return open(file, "x", newline=newline)


def _write_json(file, obj, sort_keys=True):
    """``obj`` as JSON: two-space indents, keys sorted unless ``sort_keys`` is false, ``str`` of
    other types, final newline."""
    with _create(file) as fh:
        json.dump(obj, fh, indent=2, sort_keys=sort_keys, default=str)  # streamed, not one string
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
    with _create(csv_file, newline="\r\n") as fh:
        _write_table(fh, ["t"] + [f"x{i + 1}" for i in range(path.dim)],
                     [path.times] + list(path.values.T))
    meta = {"dim": path.dim, "horizon": path.horizon, "mode": path.mode}
    if sidecar:
        meta.update(sidecar)
    _write_json(csv_file.with_suffix(".json"), meta)


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
        data = np.array(rows[1:], dtype=np.float64)
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
    return Path(times=data[:, 0], values=data[:, 1:], mode=mode, horizon=horizon)
