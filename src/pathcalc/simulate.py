"""Reproducible test-path generators.

All randomness flows through a counter-based Philox generator keyed by
``(seed, stream)``, so a spec plus a stream index pins the path bit-for-bit
and ensembles are order-independent: path ``i`` of an ensemble equals
``simulate(spec, stream=i)`` no matter how many other paths are drawn.

Downward jumps that would violate the supplied psi bound are clipped to the
bound (never resampled), which keeps generation total and deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import _kernels as K
from .errors import ContractError
from .paths import MODE_LINEAR, MODE_STEP, Path, PsiSpec, _read_json_object, _write_json

RNG_ALGORITHM = "philox4x64 keyed by (seed << 64) | stream"

KINDS = ("brownian", "geometric-brownian", "jump-diffusion", "oscillator", "constant")

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SimSpec:
    """Parameters of one generator run; ``seed`` pins everything."""

    kind: str
    steps: int = 1
    horizon: float = 1.0
    dim: int = 1
    drift: float = 0.0
    volatility: float = 1.0
    jump_intensity: float = 0.0
    jump_mean: float = 0.0
    jump_std: float = 0.1
    x0: float = 0.0
    amplitude: float = 1.0
    value: float = 0.0
    seed: int = 0
    psi: PsiSpec | None = None
    mode: str | None = None  # override the kind's default interpolation

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractError(f"unknown kind {self.kind!r}; choose one of {KINDS}")
        if self.steps < 1:
            raise ContractError("steps must be >= 1")
        if self.volatility < 0:
            raise ContractError("volatility must be >= 0")
        if self.horizon <= 0:
            raise ContractError("horizon must be > 0")
        if not 0 <= self.jump_intensity * (self.horizon / self.steps) <= 2.0 ** 62:  # or nan
            raise ContractError("jump intensity must be >= 0, and per step <= 2**62")
        if self.jump_std < 0:
            raise ContractError("jump std must be >= 0")
        if self.dim < 1:
            raise ContractError("dim must be >= 1")
        if self.kind == "geometric-brownian" and self.x0 <= 0:
            raise ContractError("geometric-brownian needs x0 > 0")
        if self.mode is not None and self.mode not in (MODE_STEP, MODE_LINEAR):
            raise ContractError(f"unknown mode {self.mode!r}")

    def to_json(self) -> dict:
        obj = {f.name: getattr(self, f.name) for f in fields(self)}
        return obj | {"psi": self.psi.to_json() if self.psi else None, "rng": RNG_ALGORITHM}

    @classmethod
    def from_json(cls, obj: dict) -> "SimSpec":
        obj = dict(obj)
        obj.pop("rng", None)
        psi = obj.pop("psi", None)
        if bad := sorted(set(obj) - {f.name for f in fields(cls)}) or sorted({"kind"} - set(obj)):
            raise ContractError(f"simspec: unknown or missing key {bad[0]!r}")
        return cls(psi=PsiSpec.from_json(psi) if psi else None, **obj)


def _rng(seed: int, stream: int) -> np.random.Generator:
    key = ((int(seed) & _MASK64) << 64) | (int(stream) & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def _grid(spec: SimSpec) -> np.ndarray:
    return np.linspace(0.0, spec.horizon, spec.steps + 1)


def simulate(spec: SimSpec, stream: int = 0) -> Path:
    """Generate one path, a pure function of ``(spec, stream)``."""
    if spec.kind == "constant":
        values = np.full((1, spec.dim), float(spec.value))
        return Path(times=np.zeros(1), values=values,
                    mode=spec.mode or MODE_STEP, horizon=spec.horizon)

    if spec.kind == "oscillator":
        times = _grid(spec)
        base = np.where(np.arange(spec.steps + 1) % 2 == 0, 0.0, spec.amplitude)
        values = np.repeat(base[:, None], spec.dim, axis=1)
        return Path(times=times, values=values,
                    mode=spec.mode or MODE_STEP, horizon=spec.horizon)

    rng = _rng(spec.seed, stream)
    times = _grid(spec)
    dt = spec.horizon / spec.steps
    shocks = rng.standard_normal((spec.steps, spec.dim))

    if spec.kind == "brownian":
        incr = spec.drift * dt + spec.volatility * np.sqrt(dt) * shocks
        values = np.empty((spec.steps + 1, spec.dim))
        values[0] = spec.x0
        values[1:] = spec.x0 + np.cumsum(incr, axis=0)
        mode = spec.mode or MODE_LINEAR
    elif spec.kind == "geometric-brownian":
        log_incr = (spec.drift - 0.5 * spec.volatility ** 2) * dt \
            + spec.volatility * np.sqrt(dt) * shocks
        values = np.empty((spec.steps + 1, spec.dim))
        values[0] = spec.x0
        values[1:] = spec.x0 * np.exp(np.cumsum(log_incr, axis=0))
        mode = spec.mode or MODE_LINEAR
    else:  # jump-diffusion
        counts = rng.poisson(spec.jump_intensity * dt, (spec.steps, spec.dim))
        jump_shocks = rng.standard_normal((spec.steps, spec.dim))
        jumps = counts * spec.jump_mean + np.sqrt(counts) * spec.jump_std * jump_shocks
        incr = spec.drift * dt + spec.volatility * np.sqrt(dt) * shocks + jumps
        values = np.empty((spec.steps + 1, spec.dim))
        values[0] = spec.x0
        values[1:] = spec.x0 + np.cumsum(incr, axis=0)
        mode = spec.mode or MODE_STEP

    if mode == MODE_STEP and spec.psi is not None:
        K.clip_jumps(values, spec.psi)
    return Path(times=times, values=values, mode=mode, horizon=spec.horizon)


def ensemble(spec: SimSpec, count: int) -> list[Path]:
    """``count`` independent paths from derived streams (seed, 0..count-1)."""
    if count < 1:
        raise ContractError("count must be >= 1")
    return [simulate(spec, stream=i) for i in range(count)]


def write_simspec(spec: SimSpec, file):
    _write_json(file, spec.to_json())


def read_simspec(file) -> SimSpec:
    return SimSpec.from_json(_read_json_object(file))
