"""Flat key = value experiment configuration with dotted sections.

One file fully determines a run: domain and grid resolution, exponent
selection, stepping control, scenario, initial-data recipe, probe exponent,
output directory, and random seed.  Blank lines and '#' comments are
ignored; unknown keys are rejected so typos fail loudly, and a float key
takes only a finite value.  ``none`` unsets a key whose default is None
(``exponents.s``, the shapes' ``a`` and ``b``, ``initial.path``); any
other key takes it as its literal text.  serialize() emits a canonical
form whose parse is the identity.

Each setting and each default is declared once: the library has no
search sizes, collar radius or output directory of its own.  The ``step``
section is the evolution's ``StepControl`` itself, and ``exponents.p``,
``exponents.q`` and ``probe`` are one ``ShapeConfig`` each: a shape kind
with its ``value``, ``a`` and ``b``.  The shape names live only here;
``_coefficients`` turns a shape into the coefficient pair (a, b) that the
library's exponent builders take.  q and the probe take the same
one-point shapes (constant | bump).  Parsing runs the library's own
constructors and checks, so a bad value is a ConfigError up front.
"""

import math
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .energy import _check_iters, _check_n_starts, first_sine_mode, standard_bump
from .errors import ConfigError, GridMismatch, InvalidResolution
from .evolution import StepControl
from .exponents import (_bump_bounds, _check_resolution, make_exponent_field,
                        one_point_exponent)
from .grid import Domain, Grid
from .nonlocal_operator import _check_table_size
from .report import load_csv

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
class ShapeConfig:
    """One exponent shape; ``value`` cannot be unset, and ``_coefficients``
    holds the default rule for an unset ``a`` or ``b`` and refuses either
    on a constant shape."""

    kind: str = "constant"  # p: constant | affine-radial; q, probe: constant | bump
    value: float = 2.0
    a: float = None
    b: float = None


@dataclass
class ExponentsConfig:
    s: float = None  # required; no safe default exists for a parsed file
    p: ShapeConfig = field(default_factory=ShapeConfig)
    q: ShapeConfig = field(default_factory=lambda: ShapeConfig(value=3.0))


INITIAL_KINDS = ("bump", "sine", "scaled-nehari-minimizer", "file")


@dataclass
class InitialConfig:
    kind: str = "scaled-nehari-minimizer"  # one of INITIAL_KINDS
    factor: float = 0.5
    amplitude: float = 1.0
    path: str = None


@dataclass
class GeometryConfig:
    n_starts: int = 4  # starts of the embedding-constant estimate
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
    probe: ShapeConfig = field(default_factory=ShapeConfig)
    initial: InitialConfig = field(default_factory=InitialConfig)
    step: StepControl = field(default_factory=StepControl)
    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    validation: ValidationConfig = field(default_factory=ValidationConfig)


def _walk(obj, prefix=""):
    """Yield (dotted_key, owner_object, field) in canonical order: the
    declaration order of the fields, sections flattened into dotted keys."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from _walk(value, prefix + f.name + ".")
        else:
            yield prefix + f.name, obj, f


def _format_value(v):
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _coerce(key, raw, f):
    """Coerce a raw string to the declared type of the field ``f``; a float
    must be finite, and ``none`` is None only where the default is None."""
    raw = raw.strip()
    if raw.lower() == "none" and f.default is None:
        return None
    try:
        value = f.type(raw)
        if f.type is float and not math.isfinite(value):
            raise ValueError("not finite")
    except ValueError as exc:
        raise ConfigError("cannot parse %s value for %s: %r"
                          % (f.type.__name__, key, raw)) from exc
    return value


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

    Raises ConfigError on unknown keys, unparsable values, a missing
    exponents.s (the fractional order has no safe default in a file), or
    a value that the step control, domain, grid, pair-table cap, exponent
    field, probe, initial-data recipe, validation or depth search would
    reject, including a probe exponent not above 1 somewhere on the
    interval, a depth-search tolerance that is not positive, an
    initial-data file that does not hold one finite value per grid cell,
    and a negative seed.  A nan or an inf for a float key is an
    unparsable value, and so is ``none`` for a number key with a
    default.  An initial-data file that cannot be read raises
    OSError.
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
        setattr(obj, f.name, _coerce(key, raw, f))
    for section, check in (
        ("step", lambda: replace(cfg.step)),
        ("domain", lambda: build_domain(cfg)),
        ("grid", lambda: _check_table_size(build_grid_from(cfg))),
        ("exponents", lambda: build_field(cfg)),
        ("probe", lambda: build_probe(cfg)),
        ("initial", lambda: _check_initial(cfg.initial, build_grid_from(cfg))),
        ("validation", lambda: _check_resolution(cfg.validation.resolution)),
        ("geometry", lambda: _check_geometry(cfg.geometry)),
        ("seed", lambda: _check_seed(cfg.seed)),
    ):
        try:
            check()
        except (ValueError, InvalidResolution, GridMismatch) as exc:
            raise ConfigError("%s: %s" % (section, exc)) from exc
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


def _coefficients(shape, curved):
    """(a, b) of ``shape``: (value, 0) for "constant", the one kind besides
    ``curved``, which takes neither ``a`` nor ``b``.  For ``curved`` a
    missing ``a`` is ``value`` and a missing ``b`` is 0."""
    if shape.kind == "constant":
        extra = ["%s = %r" % (k, getattr(shape, k)) for k in ("a", "b")
                 if getattr(shape, k) is not None]
        if extra:
            raise ConfigError("exponent kind 'constant' takes only 'value', got %s"
                              % ", ".join(extra))
        return shape.value, 0.0
    if shape.kind == curved:
        return (shape.value if shape.a is None else shape.a,
                0.0 if shape.b is None else shape.b)
    raise ConfigError("unknown exponent kind %r (constant | %s)" % (shape.kind, curved))


def build_field(cfg, domain=None):
    domain = domain or build_domain(cfg)
    if cfg.exponents.s is None:
        raise ConfigError("missing required key exponents.s")
    return make_exponent_field(
        cfg.exponents.s,
        p=_coefficients(cfg.exponents.p, "affine-radial"),
        q=_coefficients(cfg.exponents.q, "bump"),
        domain=domain,
    )


def build_control(cfg, dt_init=None):
    """The configured StepControl, started at ``dt_init`` when given; the
    step bounds widen to admit it."""
    st = cfg.step
    dt0 = st.dt_init if dt_init is None else dt_init
    return replace(st, dt_init=dt0, dt_min=min(st.dt_min, dt0), dt_max=max(st.dt_max, dt0))


def build_probe(cfg):
    """The probe exponent r(x), one of the one-point shapes that q takes;
    ValueError unless it exceeds 1 on the closed interval, as the
    Luxemburg norm requires."""
    domain = build_domain(cfg)
    a, b = _coefficients(cfg.probe, "bump")
    r_min = _bump_bounds(a, b, domain)[0]
    if not r_min > 1.0:
        raise ValueError("exponent must exceed 1 on [%r, %r]; its minimum there is %r"
                         % (domain.a, domain.b, r_min))
    return one_point_exponent(a, b)


def _check_geometry(geo):
    """Refuse an embedding estimate without starts, a negative iteration
    count or a projection tolerance that is not positive."""
    _check_n_starts(geo.n_starts)
    _check_iters(geo.iters)
    if not geo.tol > 0.0:
        raise ValueError("tol must be positive, got %r" % geo.tol)


def _check_seed(seed):
    """Refuse a negative seed: the generator of ``energy._starts`` would
    draw from its absolute value."""
    if seed < 0:
        raise ValueError("must be nonnegative, got %r" % seed)


def _check_initial(ini, grid):
    """Refuse a recipe not in INITIAL_KINDS, or 'file' without a path or
    with a file that does not hold one finite value per cell of ``grid``;
    the file's grid function for 'file', else None."""
    if ini.kind not in INITIAL_KINDS:
        raise ValueError("unknown initial-data recipe %r; choose from %s"
                         % (ini.kind, ", ".join(INITIAL_KINDS)))
    if ini.kind != "file":
        return None
    if not ini.path:
        raise ValueError("recipe 'file' requires initial.path")
    return load_csv(grid, ini.path)


def build_initial(cfg, grid, minimizer=None):
    """Realize the initial-data recipe on ``grid``.

    The scaled-minimizer recipe needs the well geometry's minimizer, which
    the caller supplies; this keeps geometry computation at the scenario
    level where it can be shared.  A bad recipe, or a file that does not
    hold one finite value per cell of ``grid``, is a ConfigError.
    """
    ini = cfg.initial
    try:
        u0 = _check_initial(ini, grid)
    except (ValueError, GridMismatch) as exc:
        raise ConfigError("initial: %s" % exc) from exc
    if u0 is not None:
        return u0
    if ini.kind == "bump":
        return standard_bump(grid).scaled(ini.amplitude)
    if ini.kind == "sine":
        return first_sine_mode(grid).scaled(ini.amplitude)
    if minimizer is None:
        raise ConfigError("initial recipe scaled-nehari-minimizer requires the well minimizer")
    return minimizer.scaled(ini.factor)
