"""Plain key=value run configuration: zero-dependency parsing, diff-friendly
manifests.  Lines are `key = value`, '#' starts a comment, lists are
comma-separated."""

from __future__ import annotations

import math
import types
from dataclasses import dataclass, fields
from typing import get_args, get_origin, get_type_hints

# keys every experiment reads
_COMMON = ("a", "b", "M", "experiment")
# keys every time-stepping run reads besides its orders and time grid
_STEPPING = ("delta", "newton_tol", "initial", "amplitude")

# experiment -> (required keys, optional keys); validate() rejects any other
# key set away from its default, so every manifest key reaches the run
_KEYS = {
    "evolve-ch": (("s", "sigma", "p", "tau", "T"), ("lam",) + _STEPPING),
    "evolve-ch-modified": (("s", "sigma", "p", "tau", "T"), ("lam", "eig_tol") + _STEPPING),
    "evolve-ac": (("sigma", "p", "tau", "T"), ("lam",) + _STEPPING),
    "evolve-pm": (("s", "p", "tau", "T"), _STEPPING),
    "eigen-sweep": (("sequence",), ("eig_tol", "refinements")),
    "limit-sigma": (("s", "p", "tau", "T", "sequence"), ("lam", "eig_tol") + _STEPPING),
    "limit-s": (("sigma", "p", "tau", "T", "sequence"), ("lam",) + _STEPPING),
    # the stationary Newton uses the exact potential, so delta plays no part
    "stationary": (("sigma", "p"), ("lam", "eig_tol", "stat_tol", "sequence")),
    # the relative gap is invariant under scaling, so amplitude plays no part
    "operator-limit": (("sequence",), ("initial",)),
}

EXPERIMENTS = tuple(_KEYS)

INITIAL_PROFILES = ("bump", "sine", "random")

# the largest float64 array a run may hold, 512 MiB: the time grid
# (T/tau + 1) * M of U, of which recover holds several at once (the largest
# shipped grid is 501 x 128), the M x M matrices that the dense time stepper
# holds at every M without an interface (evolve-pm, limit-sigma), and the
# circulant embedding of the stiffness column (the power of two >= 2M - 1)
# that every experiment transforms
MAX_GRID_VALUES = 2**26


class ConfigError(ValueError):
    pass


class ParseError(ConfigError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class ValidationError(ConfigError):
    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


@dataclass
class RunConfig:
    a: float = 0.0
    b: float = 1.0
    M: int = 128
    s: float | None = None
    sigma: float | None = None
    p: float | None = None
    lam: float = 1.0
    delta: float | None = None
    tau: float | None = None
    T: float | None = None
    newton_tol: float = 1e-10
    eig_tol: float = 1e-10
    stat_tol: float = 1e-9
    experiment: str = "evolve-ch"
    sequence: list[float] | None = None
    refinements: list[int] | None = None
    initial: str = "bump"
    amplitude: float = 1.0

    def manifest_items(self) -> list[tuple[str, str]]:
        items = []
        for f in fields(self):
            val = getattr(self, f.name)
            if isinstance(val, list):
                val = ",".join(str(x) for x in val)
            items.append((f.name, str(val)))
        return sorted(items)


# key -> the value type RunConfig declares: float, int, str or list[...]
# (X for X | None, where None only marks a key unset)
_TYPES = {key: get_args(hint)[0] if isinstance(hint, types.UnionType) else hint
          for key, hint in get_type_hints(RunConfig).items()}


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(lineno, f"expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not value:
            raise ParseError(lineno, f"empty value for {key!r}")
        kind = _TYPES.get(key)
        if kind is None:
            raise ParseError(lineno, f"unknown key {key!r}")
        try:
            if get_origin(kind) is list:
                (item,) = get_args(kind)
                items = [item(x) for x in value.split(",") if x.strip()]
                if not items:
                    raise ParseError(lineno, f"empty list for {key!r}")
                setattr(cfg, key, items)
            else:
                setattr(cfg, key, kind(value))
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(lineno, f"cannot parse value for {key!r}: {exc}")
    validate(cfg)
    return cfg


def validate(cfg: RunConfig) -> None:
    # non-finite sequence entries fail the (0,1) range check below
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        if _TYPES[f.name] is float and val is not None and not math.isfinite(val):
            raise ValidationError(f.name, f"must be finite, got {val}")
    if cfg.experiment not in EXPERIMENTS:
        raise ValidationError(
            "experiment", f"must be one of {', '.join(EXPERIMENTS)}"
        )
    if cfg.b <= cfg.a:
        raise ValidationError("b", "domain must satisfy b > a")
    if cfg.M < 2:
        raise ValidationError("M", "need at least 2 interior nodes")
    if any(m < 2 for m in cfg.refinements or ()):
        raise ValidationError("refinements", "need at least 2 interior nodes")
    for key in ("s", "sigma"):
        val = getattr(cfg, key)
        if val is not None and not 0.0 < val < 1.0:
            raise ValidationError(key, f"{key} must lie in (0,1)")
    if cfg.p is not None and (cfg.p <= 1.0 or cfg.p == 2.0):
        raise ValidationError("p", "p must lie in (1,inf) with p != 2")
    if cfg.lam < 0:
        raise ValidationError("lam", "lam must be nonnegative")
    if cfg.delta is not None and cfg.delta < 0:
        raise ValidationError("delta", "smoothing parameter must be nonnegative")
    if cfg.delta == 0 and cfg.p is not None and cfg.p < 2:
        raise ValidationError("delta", "delta = 0 needs p > 2")
    for key in ("newton_tol", "eig_tol", "stat_tol"):
        if getattr(cfg, key) <= 0:
            raise ValidationError(key, "tolerances must be positive")
    if cfg.initial not in INITIAL_PROFILES:
        raise ValidationError(
            "initial", f"must be one of {', '.join(INITIAL_PROFILES)}"
        )

    exp = cfg.experiment
    required, optional = _KEYS[exp]
    for key in required:
        if getattr(cfg, key) is None:
            raise ValidationError(key, f"required for experiment {exp!r}")
    unused = {f.name for f in fields(cfg)} - set(_COMMON + required + optional)
    if exp == "limit-sigma":
        # p picks the scheme: the fast-diffusion one replaces lam by
        # lambda1(sigma), the porous-medium one solves no eigenproblem
        unused.add("lam" if cfg.p < 2 else "eig_tol")
    for f in fields(cfg):
        if f.name in unused and getattr(cfg, f.name) != f.default:
            raise ValidationError(f.name, f"not used by experiment {exp!r}")

    if exp == "limit-sigma" and cfg.p < 2:
        two_star = 2.0 / (1.0 + 2.0 * cfg.s)  # 2N/(N+2s) with N = 1
        if cfg.p <= two_star:
            raise ValidationError(
                "p", f"fast-diffusion limit needs p > 2/(1+2s) = {two_star:.6g}"
            )
    if exp == "stationary" and cfg.p < 2:
        raise ValidationError("p", "stationary minimization needs p > 2")
    if cfg.refinements is not None and cfg.M not in cfg.refinements:
        raise ValidationError("refinements", f"must contain M = {cfg.M}, the recorded mesh")
    if exp in ("evolve-pm", "limit-sigma") and cfg.M * cfg.M > MAX_GRID_VALUES:
        raise ValidationError("M", f"an M x M matrix would hold more than {MAX_GRID_VALUES} values")
    for key, meshes in (("M", [cfg.M]), ("refinements", cfg.refinements or [])):
        if any(2 * m - 1 > MAX_GRID_VALUES for m in meshes):
            raise ValidationError(key, "the circulant embedding of a stiffness column "
                                  f"would hold more than {MAX_GRID_VALUES} values")
    if cfg.tau is not None and cfg.T is not None:
        if not 0 < cfg.tau <= cfg.T:
            raise ValidationError("tau", "need 0 < tau <= T")
        # relative 1e-9 absorbs the rounding of T / tau, as in SolverSettings
        steps = cfg.T / cfg.tau
        if not math.isfinite(steps):
            raise ValidationError("tau", f"T / tau = {steps} is not a finite step count")
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ValidationError(
                "T", f"T = {cfg.T:g} is not a whole number of steps tau = {cfg.tau:g}"
            )
        if (steps + 1) * cfg.M > MAX_GRID_VALUES:
            raise ValidationError(
                "T", f"T = {cfg.T:g} gives {steps:.3g} steps of {cfg.M} values, "
                f"more than {MAX_GRID_VALUES} in all"
            )
    if cfg.sequence is not None:
        if any(not 0.0 < x < 1.0 for x in cfg.sequence):
            raise ValidationError("sequence", "entries must lie in (0,1)")
        if exp in ("limit-sigma", "limit-s", "operator-limit"):
            if any(y >= x for x, y in zip(cfg.sequence, cfg.sequence[1:])):
                raise ValidationError("sequence", "must be strictly decreasing")
