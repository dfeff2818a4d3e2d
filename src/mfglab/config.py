"""Run configuration: plain-text key/value files with sections, parsed
into a validated RunConfig.  Reproducibility of experiments is the
product, so there are no environment overrides and the resolved config is
embedded verbatim in every JSON summary.  The pass/fail bounds of the
experiments are constants beside the checks that read them, not keys;
tol_converge_final, the final d1 bound of converge, is the one a run sets."""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .coupling import CouplingFunctional
from .errors import ConfigError
from .hamiltonians import VELOCITY_CUTOFF, Mechanical, Potential, QuadraticDrift
from .lax_oleinik import T_PROBE_MIN, slice_count
from .measures import CircleMeasure
from .mfg import CALIBRATION_FACTOR

MAX_RUN_BYTES = 2**32  # largest float64 store a run may ask for


def require_store(command: str, nbytes: int) -> None:
    """Refuse, before it allocates, a run whose estimated store of nbytes
    exceeds MAX_RUN_BYTES (the memory invariant)."""
    if nbytes > MAX_RUN_BYTES:
        raise ConfigError(f"memory invariant violated: {command} would store {nbytes:.3g} "
                          f"bytes, over the budget of {MAX_RUN_BYTES:.3g} bytes")


def _syntax_error(exc: configparser.Error) -> str:
    """configparser's multi-line message as one line that names the line."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"line {exc.lineno}: no [section] header before {exc.line.strip()!r}"
    if isinstance(exc, configparser.ParsingError):
        lineno, text = exc.errors[0]  # text is already a repr
        return f"line {lineno}: cannot parse {text}"
    if isinstance(exc, configparser.DuplicateOptionError):
        return f"line {exc.lineno}: duplicate key [{exc.section}] {exc.option}"
    if isinstance(exc, configparser.DuplicateSectionError):
        return f"line {exc.lineno}: duplicate section [{exc.section}]"
    return " ".join(str(exc).split())


@dataclass
class RunConfig:
    # model
    family: str = "quadratic-drift"
    shift: float = 0.0
    potential: str = "zero"
    # grid
    n: int = 512
    dt: float = 1e-3
    # coupling / measures
    coupling: str = "cosine4pi"
    m_t: str = "one-plus-cosine"
    m1: str = "one-plus-cosine"
    m2: str = "lebesgue"
    # run parameters
    t_probe: float = 20.0
    dt_probe: float = 2e-3
    horizon: float = 3.0
    horizons: list = field(default_factory=lambda: [5.0, 10.0, 20.0, 40.0])
    window: float = 0.5
    periods: int = 2
    pairs: int = 50
    phi: str = "zero"
    c: float = 0.0
    a_values: list = field(default_factory=lambda: [0.0])
    csv_stride: int = 0  # 0 = auto
    # tolerances (the fixed pass/fail bounds are constants beside their checks)
    tol_converge_final: float = 5e-3

    _FLOATS = {"shift", "dt", "t_probe", "dt_probe", "horizon", "window", "c",
               "tol_converge_final"}
    _INTS = {"n", "periods", "pairs", "csv_stride"}
    _LISTS = {"horizons", "a_values"}

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        parser = configparser.ConfigParser(interpolation=None)
        try:
            read = parser.read(path)
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path}, {_syntax_error(exc)}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"malformed config file {path}: {exc}") from None
        if not read:
            raise ConfigError(f"cannot read config file {path}")
        cfg = cls()
        aliases = {"f": "coupling"}
        for section in parser.sections():
            for key, raw in parser.items(section):
                key = aliases.get(key, key).replace("-", "_")
                if not hasattr(cfg, key) or key.startswith("_"):
                    raise ConfigError(f"unknown config key [{section}] {key}")
                try:
                    if key in cls._LISTS:
                        value = [float(tok) for tok in raw.replace(",", " ").split()]
                    elif key in cls._INTS:
                        value = int(raw)
                    elif key in cls._FLOATS:
                        value = float(raw)
                    else:
                        value = raw.strip()
                except ValueError:
                    kind = ("an integer" if key in cls._INTS else
                            "a list of numbers" if key in cls._LISTS else "a number")
                    raise ConfigError(f"number invariant violated: [{section}] {key} "
                                      f"must be {kind}, got {raw!r}") from None
                setattr(cfg, key, value)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        n = self.n
        if n < 64 or n > 4096 or (n & (n - 1)) != 0:
            raise ConfigError("grid invariant violated: n must be a power of two in [64, 4096]")
        for name in sorted(self._FLOATS):
            if name.startswith("tol_") and not getattr(self, name) > 0.0:  # NaN too
                raise ConfigError(f"tolerance invariant violated: {name} must be > 0")
        for name in sorted(self._FLOATS | self._LISTS):
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigError(f"number invariant violated: {name} must be finite, "
                                  f"got {getattr(self, name)}")
        dx = 1.0 / n
        vmax = VELOCITY_CUTOFF
        for label, dt in (("dt", self.dt), ("dt_probe", self.dt_probe)):
            if dt < dx / vmax:
                raise ConfigError(
                    f"time-step invariant violated: {label} too small; the velocity "
                    f"window spans less than one grid cell ({label} < dx/{vmax:g}, "
                    f"with the velocity cutoff {vmax:g})"
                )
            if dt > 0.5 / vmax:
                raise ConfigError(
                    f"time-step invariant violated: {label} too large; the velocity "
                    f"window exceeds the half circle ({label} > 1/(2*{vmax:g}), "
                    f"with the velocity cutoff {vmax:g})"
                )
        if self.window <= 0.0:
            raise ConfigError("window invariant violated: window must be > 0")
        if not self.horizons or any(h <= 0.0 for h in self.horizons) or self.horizon <= 0.0:
            raise ConfigError("horizon invariant violated: horizons must be nonempty and > 0")
        if self.window > min(self.horizons):
            raise ConfigError(f"window invariant violated: window = {self.window:g} exceeds "
                              f"the smallest horizons entry {min(self.horizons):g}")
        if self.t_probe < T_PROBE_MIN:
            raise ConfigError(f"t_probe invariant violated: t_probe = {self.t_probe:g} is "
                              f"below {T_PROBE_MIN:g}")
        if self.periods < 1 or self.pairs < 1 or self.csv_stride < 0:
            raise ConfigError("count invariant violated: periods and pairs >= 1, csv_stride >= 0")
        if not self.a_values:
            raise ConfigError("shift invariant violated: a_values must be nonempty")
        on_grid = [("horizon", self.horizon, "dt", self.dt),
                   *(("horizons entry", h, "dt", self.dt) for h in self.horizons),
                   ("window", self.window, "dt", self.dt),
                   ("t_probe", self.t_probe, "dt_probe", self.dt_probe),
                   ("calibration horizon", CALIBRATION_FACTOR * max(self.horizons),
                    "dt", self.dt)]
        for label, t, step_label, step in on_grid:
            try:
                slice_count(t, step)
            except (ValueError, OverflowError):
                raise ConfigError(f"time-grid invariant violated: {label} = {t:g} is not "
                                  f"a positive integer multiple of {step_label} = {step:g}"
                                  ) from None
        # solve stores w, origins and positions, each at most (K + 1) x n float64
        require_store("solve", 3 * (slice_count(self.horizon, self.dt) + 1) * n * 8)

    # -- builders -----------------------------------------------------------
    def build_model(self):
        try:
            if self.family in ("quadratic-drift", "quadratic_drift"):
                model = QuadraticDrift()
            elif self.family == "mechanical":
                model = Mechanical(self.shift, Potential.from_name(self.potential))
            else:
                raise ConfigError(f"unknown model family {self.family!r}")
            model.validate()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return model

    def build_coupling(self) -> CouplingFunctional:
        try:
            return CouplingFunctional.from_name(self.coupling)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def build_measure(self, name: str) -> CircleMeasure:
        try:
            return CircleMeasure.from_name(name, self.n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def build_phi(self) -> np.ndarray:
        xs = np.arange(self.n) / self.n
        if self.phi == "zero":
            return np.zeros(self.n)
        if self.phi == "cosine":
            return np.cos(2.0 * np.pi * xs)
        raise ConfigError(f"unknown initial value id {self.phi!r}")

    def as_dict(self) -> dict:
        out = {}
        for name in sorted(vars(self)):
            if name.startswith("_"):
                continue
            value = getattr(self, name)
            out[name] = list(value) if isinstance(value, list) else value
        return out
