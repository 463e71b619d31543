"""Flat key = value experiment configuration with dotted sections.

One file fully determines a run: domain and grid resolution, exponent
selection, stepping control, scenario, initial-data recipe, probe exponent,
output directory, and random seed.  Blank lines and '#' comments are
ignored; unknown keys are rejected so typos fail loudly.  serialize() emits
a canonical form whose parse is the identity.
"""

from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError
from .exponents import make_exponent_field
from .grid import Domain, Grid, load_csv
from .evolution import StepControl

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "serialize_config",
    "load_config",
    "default_config",
    "build_domain",
    "build_grid_from",
    "build_field",
    "build_control",
    "build_probe",
    "build_initial",
]


@dataclass
class DomainConfig:
    a: float = -1.0
    b: float = 1.0
    exterior_radius: float = 8.0


@dataclass
class GridConfig:
    n: int = 32
    m: int = 128


@dataclass
class PConfig:
    kind: str = "constant"  # constant | affine-radial
    value: float = 2.0
    a: float = None
    b: float = None


@dataclass
class QConfig:
    kind: str = "constant"  # constant | bump
    value: float = 3.0
    a: float = None
    b: float = None


@dataclass
class ExponentsConfig:
    s: float = None  # required; no safe default exists for a parsed file
    p: PConfig = field(default_factory=PConfig)
    q: QConfig = field(default_factory=QConfig)


@dataclass
class ProbeConfig:
    kind: str = "constant"  # constant | bump
    value: float = 2.0
    a: float = None
    b: float = None


@dataclass
class InitialConfig:
    kind: str = "scaled-nehari-minimizer"  # bump | sine | scaled-nehari-minimizer | file
    factor: float = 0.5
    amplitude: float = 1.0
    path: str = None


@dataclass
class StepConfig:
    scheme: str = "explicit"
    dt_init: float = 1e-3
    dt_min: float = 1e-12
    dt_max: float = 1e-2
    t_final: float = 1.0
    energy_increase_tol: float = 1e-10
    blowup_cap: float = 1e6
    max_steps: int = 200_000
    # IMEX proximal solve (StepControl): residual tolerance, relative to
    # max(1, initial residual), and the cap on Newton iterations per step
    inner_tol: float = 1e-8
    inner_max: int = 300


@dataclass
class GeometryConfig:
    n_starts: int = 4
    iters: int = 400
    tol: float = 1e-9


@dataclass
class ValidationConfig:
    resolution: int = 65


@dataclass
class ExperimentConfig:
    scenario: str = "validate"
    seed: int = 0
    out: str = "fracflow-out"
    domain: DomainConfig = field(default_factory=DomainConfig)
    grid: GridConfig = field(default_factory=GridConfig)
    exponents: ExponentsConfig = field(default_factory=ExponentsConfig)
    probe: ProbeConfig = field(default_factory=ProbeConfig)
    initial: InitialConfig = field(default_factory=InitialConfig)
    step: StepConfig = field(default_factory=StepConfig)
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    validation: ValidationConfig = field(default_factory=ValidationConfig)


_SECTIONS = {
    "domain": DomainConfig,
    "grid": GridConfig,
    "exponents": ExponentsConfig,
    "probe": ProbeConfig,
    "initial": InitialConfig,
    "step": StepConfig,
    "geometry": GeometryConfig,
    "validation": ValidationConfig,
}

_TOP_FIELDS = ("scenario", "seed", "out")


def _walk(cfg):
    """Yield (dotted_key, owner_object, field) in canonical order."""
    top = {f.name: f for f in fields(cfg)}
    for name in _TOP_FIELDS:
        yield name, cfg, top[name]
    for sect in _SECTIONS:
        obj = getattr(cfg, sect)
        for f in fields(obj):
            if f.name in ("p", "q"):
                sub = getattr(obj, f.name)
                for sf in fields(sub):
                    yield "%s.%s.%s" % (sect, f.name, sf.name), sub, sf
            else:
                yield "%s.%s" % (sect, f.name), obj, f


def _format_value(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _coerce(key, raw, ftype):
    """Coerce a raw string to the field's declared type."""
    raw = raw.strip()
    if raw.lower() == "none":
        return None
    try:
        if ftype is float:
            return float(raw)
        if ftype is int:
            return int(raw)
    except ValueError as exc:
        raise ConfigError("cannot parse %s value for %s: %r" % (ftype.__name__, key, raw)) from exc
    return raw


def serialize_config(cfg):
    """Canonical text form; None-valued optional fields are omitted."""
    lines = []
    for key, obj, f in _walk(cfg):
        v = getattr(obj, f.name)
        if v is None:
            continue
        lines.append("%s = %s" % (key, _format_value(v)))
    return "\n".join(lines) + "\n"


def parse_config(text):
    """Parse key = value lines into an ExperimentConfig.

    Raises ConfigError on unknown keys, bad values, or a missing
    exponents.s (the fractional order has no safe default in a file).
    """
    cfg = ExperimentConfig()
    targets = {key: (obj, f) for key, obj, f in _walk(cfg)}
    seen = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError("line %d is not 'key = value': %r" % (lineno, line))
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in targets:
            raise ConfigError("unknown configuration key %r (line %d)" % (key, lineno))
        if key in seen:
            raise ConfigError("duplicate configuration key %r (line %d)" % (key, lineno))
        seen.add(key)
        obj, f = targets[key]
        setattr(obj, f.name, _coerce(key, raw, f.type))
    if cfg.exponents.s is None:
        raise ConfigError("missing required key exponents.s")
    return cfg


def load_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("cannot read config file %s: %s" % (path, exc)) from exc
    return parse_config(text)


def default_config(scenario="validate"):
    """Built-in constant-exponent configuration (p=2, q=3, s=0.4) used when
    no config file is supplied."""
    cfg = ExperimentConfig()
    cfg.scenario = scenario
    cfg.exponents.s = 0.4
    return cfg


# --- builders ---------------------------------------------------------------


def build_domain(cfg):
    return Domain(cfg.domain.a, cfg.domain.b, cfg.domain.exterior_radius)


def build_grid_from(cfg, domain=None, n=None):
    domain = domain or build_domain(cfg)
    return Grid(domain, n if n is not None else cfg.grid.n, cfg.grid.m)


def _shape_params(shape_cfg):
    if shape_cfg.kind == "constant":
        return {"value": shape_cfg.value}
    return {
        "a": shape_cfg.a if shape_cfg.a is not None else shape_cfg.value,
        "b": shape_cfg.b if shape_cfg.b is not None else 0.0,
    }


def build_field(cfg, domain=None):
    domain = domain or build_domain(cfg)
    if cfg.exponents.s is None:
        raise ConfigError("missing required key exponents.s")
    return make_exponent_field(
        s=cfg.exponents.s,
        p_kind=cfg.exponents.p.kind,
        p_params=_shape_params(cfg.exponents.p),
        q_kind=cfg.exponents.q.kind,
        q_params=_shape_params(cfg.exponents.q),
        domain=domain,
    )


def build_control(cfg, dt_init=None):
    st = cfg.step
    dt0 = st.dt_init if dt_init is None else dt_init
    return StepControl(
        dt_init=dt0,
        dt_min=min(st.dt_min, dt0),
        dt_max=max(st.dt_max, dt0),
        t_final=st.t_final,
        energy_increase_tol=st.energy_increase_tol,
        blowup_cap=st.blowup_cap,
        max_steps=st.max_steps,
        scheme=st.scheme,
        inner_tol=st.inner_tol,
        inner_max=st.inner_max,
    )


def build_probe(cfg):
    pr = cfg.probe
    if pr.kind == "constant":
        return float(pr.value)
    if pr.kind == "bump":
        a_coef = pr.a if pr.a is not None else pr.value
        b_coef = pr.b if pr.b is not None else 0.0

        def probe(x):
            return a_coef + b_coef * np.asarray(x, dtype=float) ** 2

        return probe
    raise ConfigError("unknown probe kind %r" % pr.kind)


def build_initial(cfg, grid, minimizer=None):
    """Realize the initial-data recipe on ``grid``.

    The scaled-minimizer recipe needs the well geometry's minimizer, which
    the caller supplies; this keeps geometry computation at the scenario
    level where it can be shared.
    """
    from .energy import first_sine_mode, standard_bump  # cycle-free local import

    ini = cfg.initial
    if ini.kind == "bump":
        return standard_bump(grid).scaled(ini.amplitude)
    if ini.kind == "sine":
        return first_sine_mode(grid).scaled(ini.amplitude)
    if ini.kind == "scaled-nehari-minimizer":
        if minimizer is None:
            raise ConfigError(
                "initial recipe scaled-nehari-minimizer requires the well minimizer"
            )
        return minimizer.scaled(ini.factor)
    if ini.kind == "file":
        if not ini.path:
            raise ConfigError("initial recipe 'file' requires initial.path")
        return load_csv(grid, ini.path)
    raise ConfigError("unknown initial-data recipe %r" % ini.kind)
