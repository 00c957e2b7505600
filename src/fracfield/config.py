"""Plain key=value run configuration: zero-dependency parsing, diff-friendly
manifests.  Lines are `key = value`, '#' starts a comment, lists are
comma-separated."""

from __future__ import annotations

from dataclasses import dataclass, fields

EXPERIMENTS = (
    "evolve-ch",
    "evolve-ch-modified",
    "evolve-ac",
    "evolve-pm",
    "eigen-sweep",
    "limit-sigma",
    "limit-s",
    "stationary",
    "operator-limit",
)

INITIAL_PROFILES = ("bump", "sine", "zero", "random")

_DEFAULT_TOLS = {
    "newton_tol": 1e-10,
    "lin_tol": 1e-10,
    "eig_tol": 1e-10,
    "stat_tol": 1e-9,
    "quad_tol": 1e-8,
}


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
    newton_tol: float = _DEFAULT_TOLS["newton_tol"]
    lin_tol: float = _DEFAULT_TOLS["lin_tol"]
    eig_tol: float = _DEFAULT_TOLS["eig_tol"]
    stat_tol: float = _DEFAULT_TOLS["stat_tol"]
    quad_tol: float = _DEFAULT_TOLS["quad_tol"]
    experiment: str = "evolve-ch"
    sequence: list[float] | None = None
    refinements: list[int] | None = None
    initial: str = "bump"
    amplitude: float = 1.0
    output_dir: str = "."

    def manifest_items(self) -> list[tuple[str, str]]:
        items = []
        for f in fields(self):
            val = getattr(self, f.name)
            if isinstance(val, list):
                val = ",".join(str(x) for x in val)
            items.append((f.name, str(val)))
        return sorted(items)


_FLOAT_KEYS = {
    "a", "b", "s", "sigma", "p", "lam", "delta", "tau", "T",
    "newton_tol", "lin_tol", "eig_tol", "stat_tol", "quad_tol", "amplitude",
}
_INT_KEYS = {"M"}
_STR_KEYS = {"experiment", "initial", "output_dir"}
_LIST_KEYS = {"sequence", "refinements"}


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
        try:
            if key in _FLOAT_KEYS:
                setattr(cfg, key, float(value))
            elif key in _INT_KEYS:
                setattr(cfg, key, int(value))
            elif key in _STR_KEYS:
                setattr(cfg, key, value)
            elif key == "sequence":
                cfg.sequence = [float(x) for x in value.split(",") if x.strip()]
            elif key == "refinements":
                cfg.refinements = [int(x) for x in value.split(",") if x.strip()]
            else:
                raise ParseError(lineno, f"unknown key {key!r}")
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(lineno, f"cannot parse value for {key!r}: {exc}")
    validate(cfg)
    return cfg


def _require(cfg: RunConfig, *keys: str) -> None:
    for key in keys:
        if getattr(cfg, key) is None:
            raise ValidationError(key, f"required for experiment {cfg.experiment!r}")


def _reject_unused(cfg: RunConfig, *keys: str) -> None:
    # keys the experiment never reads would be recorded in the manifest
    # without reaching the computation
    for key in keys:
        if getattr(cfg, key) != getattr(RunConfig, key):
            raise ValidationError(key, f"not used by experiment {cfg.experiment!r}")


def validate(cfg: RunConfig) -> None:
    if cfg.experiment not in EXPERIMENTS:
        raise ValidationError(
            "experiment", f"must be one of {', '.join(EXPERIMENTS)}"
        )
    if cfg.b <= cfg.a:
        raise ValidationError("b", "domain must satisfy b > a")
    if cfg.M < 2:
        raise ValidationError("M", "need at least 2 interior nodes")
    for key in ("s", "sigma"):
        val = getattr(cfg, key)
        if val is not None and not 0.0 < val < 1.0:
            raise ValidationError(key, f"{key} must lie in (0,1)")
    if cfg.p is not None and (cfg.p <= 1.0 or cfg.p == 2.0):
        raise ValidationError("p", "p must lie in (1,inf) with p != 2")
    if cfg.delta is not None and cfg.delta < 0:
        raise ValidationError("delta", "smoothing parameter must be nonnegative")
    for key in _DEFAULT_TOLS:
        if getattr(cfg, key) <= 0:
            raise ValidationError(key, "tolerances must be positive")
    if cfg.initial not in INITIAL_PROFILES:
        raise ValidationError(
            "initial", f"must be one of {', '.join(INITIAL_PROFILES)}"
        )

    exp = cfg.experiment
    if exp in ("evolve-ch", "evolve-ch-modified"):
        _require(cfg, "s", "sigma", "p", "tau", "T")
    elif exp == "evolve-ac":
        _require(cfg, "sigma", "p", "tau", "T")
        _reject_unused(cfg, "s")
    elif exp == "evolve-pm":
        _require(cfg, "s", "p", "tau", "T")
        _reject_unused(cfg, "sigma", "lam")
    elif exp == "limit-sigma":
        _require(cfg, "s", "p", "tau", "T", "sequence")
    elif exp == "limit-s":
        _require(cfg, "sigma", "p", "tau", "T", "sequence")
    elif exp == "eigen-sweep":
        _require(cfg, "sequence")
    elif exp == "stationary":
        _require(cfg, "sigma", "p")
    elif exp == "operator-limit":
        _require(cfg, "sequence")

    if cfg.tau is not None and cfg.T is not None and not 0 < cfg.tau <= cfg.T:
        raise ValidationError("tau", "need 0 < tau <= T")
    if cfg.sequence is not None:
        if exp in ("limit-sigma", "limit-s", "operator-limit", "eigen-sweep", "stationary"):
            if any(not 0.0 < x < 1.0 for x in cfg.sequence):
                raise ValidationError("sequence", "entries must lie in (0,1)")
        if exp in ("limit-sigma", "limit-s", "operator-limit"):
            if any(y >= x for x, y in zip(cfg.sequence, cfg.sequence[1:])):
                raise ValidationError("sequence", "must be strictly decreasing")
