"""Experiment configs: the config text grammar and the validated
:class:`ExperimentConfig` built from it.  This is the only module that reads
config sections.

Config grammar (flat sections of key = value lines):

    # comment
    [section]
    key = value            scalars: int, float, bool, bare string
    key = 1 2 3            array: whitespace-separated numbers
    key = 1 0; 0 1         matrix: rows separated by ';'

Lines are cut where ``str.splitlines`` cuts them, and every key, comment
and value is cut from the text by index: the text is never split or copied
whole.  A vector or ``;`` table is read by numpy's C text reader one row
slice at a time, so it costs its float64 array plus one row.  A d = 64,
T = 40 kernel stack (3.5 MB of text) parses, flow built, at a tracemalloc
peak of 0.80 times its text; the built flow's kernels are then the only
copy of the stack.

Unknown sections or keys are rejected with field-level messages.  Sections
and keys:

    [problem]   dim, v, m (uniform|array), proposal (uniform | lazy-ring STAY
                | matrix)
    [flow]      initial (uniform|array), potentials (T x d matrix),
                kernel (d x d matrix, shared) or kernels ((T*d) x d stacked)
    [algorithm] kind = classic | isa | adaptive
    [schedule]  mode (bounded|decreasing|constant), betas (array) or
                beta0/delta/steps (the grid beta0 + k delta), delta_declared
                (bounded mode only), a, k0 (at most 10000)
    [adaptive]  epsilon, tol (>= 1e-13), delta_max, mutation (theoretical|adaptive),
                mcmc_iters, beta0
    [run]       n_particles, steps (at most a classic or isa flow's T;
                omitted, the whole flow; required for adaptive), replicates,
                seed, eps_mode (auto|multinomial|float), n_test_functions, threads
                (validated so older configs still parse; it has no effect)
    [checks]    regime (bounded|decreasing), a in (0, 1), g_sup >= 1,
                epsilon_level > eps_prime > 0, y_values and s_values (>= 0;
                y >= 1 for adaptive); every number finite

:func:`parse_config` merges the command line's ``[run]`` values over the
file's and then assembles the config once: the flow (the tuned annealing
flow of an isa config), the Gibbs problem, the adaptive parameters and the
``[checks]`` section are built and validated at parse time, so bad input
fails there with a field-level message and every later reader shares what
was built.
"""

from __future__ import annotations

import heapq
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import BudgetExceededError, ConfigError, DegenerateMeasureError, NoMinorizationError
from .flow import MAX_STEPS, FlowSpec
from .measures import (
    KernelMatrix,
    _check_potentials,
    _kernel_row_sums,
    normalized_law,
    uniform_law,
)

# annealing and adaptive are imported where they are called, so a classic
# run never loads them
if TYPE_CHECKING:
    from .adaptive import AdaptiveConfig
    from .annealing import GibbsProblem, IsaFlow

_FLOAT_FMT = ".17g"
# the largest integer a key takes (numpy draws counts as int64), and float
_INT_MAX, _FLOAT_MAX = 2**63 - 1, sys.float_info.max
# the characters str.splitlines breaks lines at ("\r\n" is one break)
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_SPACE = re.compile(r"\s")   # str.isspace, as str.split and str.strip use it


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), _FLOAT_FMT)
    return str(x)


def _config_text(val) -> str:
    """A parsed config value written back as config text."""
    if isinstance(val, np.ndarray):
        if val.ndim == 2:
            return "; ".join(" ".join(_fmt(x) for x in row) for row in val)
        return " ".join(_fmt(x) for x in val)
    return _fmt(val)


_SCHEMA = {
    "problem": {"dim", "v", "m", "proposal"},
    "flow": {"initial", "potentials", "kernel", "kernels"},
    "algorithm": {"kind"},
    "schedule": {"mode", "betas", "beta0", "delta", "steps", "delta_declared", "a", "k0"},
    "adaptive": {"epsilon", "tol", "delta_max", "mutation", "mcmc_iters", "beta0"},
    "run": {
        "n_particles",
        "steps",
        "replicates",
        "seed",
        "eps_mode",
        "n_test_functions",
        "threads",
    },
    "checks": {"regime", "a", "g_sup", "y_values", "s_values", "epsilon_level", "eps_prime"},
}


def _parse_scalar(token: str):
    low = token.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _strip(text: str, start: int, end: int) -> tuple:
    """The bounds of ``text[start:end].strip()``, found without a copy."""
    while start < end and text[start].isspace():
        start += 1
    while end > start and text[end - 1].isspace():
        end -= 1
    return start, end


def _finds(text: str, char: str, start: int, end: int):
    """Each index of ``char`` in ``text[start:end]``, in order."""
    while (cut := text.find(char, start, end)) >= 0:
        yield cut
        start = cut + 1


def _spans(cuts, start: int, end: int):
    """The bounds of the pieces of ``[start, end)`` between one-character
    cuts at the indices ``cuts``, in order."""
    for cut in cuts:
        yield start, cut
        start = cut + 1
    yield start, end


def _lines(text: str):
    """The bounds of each line of ``text``, numbered as ``str.splitlines``
    numbers them.  The ``\\r`` of a ``\\r\\n`` break is left at the end of its
    line, where it is stripped as whitespace."""
    cuts = heapq.merge(*(_finds(text, char, 0, len(text)) for char in _LINE_BREAKS))
    return _spans((cut for cut in cuts if text[cut : cut + 2] != "\r\n"), 0, len(text))


def _rows(text: str, spans):
    """Each row as a string, one at a time; a blank row is refused, since
    numpy's text reader would skip it."""
    for start, end in spans:
        row = text[start:end]
        if not row or row.isspace():
            raise ValueError("blank row")
        yield row


def _parse_value(text: str, start: int = 0, end: int | None = None):
    """The config value ``text[start:end]``: a scalar, a float vector
    (whitespace-separated tokens) or a float matrix (rows separated by
    ``;``).  A vector or matrix that does not parse, including a ragged one,
    comes back as its text, which the field that reads it reports as a
    config error.

    Tables are read by numpy's C text reader from their rows, one row slice
    at a time, at 8 bytes per number, so the value is never copied whole.  The
    reader reads the tokens ``float()`` reads, bit for bit, except that it
    skips blank rows and refuses some tokens ``float()`` takes (``1_000``,
    non-ASCII digits); those values go through ``float()``.
    """
    start, end = _strip(text, start, len(text) if end is None else end)
    table = text.find(";", start, end) >= 0
    if not table and not _SPACE.search(text, start, end):
        return _parse_scalar(text[start:end]) if start < end else ""
    try:
        rows = _rows(text, _spans(_finds(text, ";", start, end), start, end))
        values = np.loadtxt(rows, ndmin=2, comments=None)
    except ValueError:
        rows = _spans(_finds(text, ";", start, end), start, end)
        try:
            values = np.array([[float(x) for x in text[a:b].split()] for a, b in rows])
        except ValueError:
            return text[start:end]
    return values if table else values[0]


@contextmanager
def _field(name: str):
    """Report a bad value met while assembling ``name`` as a config error."""
    try:
        yield
    except (ValueError, BudgetExceededError, DegenerateMeasureError, NoMinorizationError) as exc:
        raise ConfigError([f"{name}: {exc}"]) from exc


def _int_field(raw, section: str, key: str, default: int, minimum: int, name=None) -> int:
    """``[section] key`` as an int in [``minimum``, 2^63 - 1].  A bool, a
    float, an array or text is refused, not truncated, by a
    :class:`ConfigError` naming ``name`` (``section.key`` unless given)."""
    val = raw.get(section, key, default)
    name = name or f"{section}.{key}"
    if not isinstance(val, (int, np.integer)) or isinstance(val, bool) or val < minimum:
        shown = _config_text(val) if isinstance(val, np.ndarray) else val
        raise ConfigError([f"{name} must be an integer >= {minimum}, got {shown!r}"])
    if val > _INT_MAX:
        raise ConfigError([f"{name} must be at most 2^63 - 1, got {val!r}"])
    return int(val)


def _is_number(val) -> bool:
    """Whether a parsed value is a number that float64 holds finitely: not
    a bool, an array, text, a NaN or an infinity."""
    return isinstance(val, (int, float)) and not isinstance(val, bool) and abs(val) <= _FLOAT_MAX


def _float_field(raw, section: str, key: str, default: float) -> float:
    """``[section] key`` as a finite float; anything else is a
    :class:`ConfigError` naming ``section.key``."""
    val = raw.get(section, key, default)
    if not _is_number(val):
        raise ConfigError([f"{section}.{key} must be a finite number, got {_config_text(val)!r}"])
    return float(val)


@dataclass
class RawConfig:
    """Parsed key-value sections, prior to semantic assembly."""

    sections: dict

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)


def parse_config(text: str, run=None) -> ExperimentConfig:
    """Parse and validate config text; collects field-level errors.

    ``run`` maps ``[run]`` keys to values that replace the file's, as the
    command line's flags give them; they are merged before anything is
    validated, so a flag also stands in for a bad value in the file.
    """
    sections = _parse_sections(text)
    if run:
        sections["run"] = {**sections.get("run", {}), **run}
    return ExperimentConfig.from_raw(RawConfig(sections))


def _parse_sections(text: str) -> dict:
    """The sections of config text as parsed values, or a
    :class:`ConfigError` listing every bad line.  Lines, keys, comments and
    values are cut from ``text`` by index, so no line or value is copied
    whole."""
    errors = []
    sections: dict = {}
    current = None
    for lineno, (start, end) in enumerate(_lines(text), start=1):
        comment = text.find("#", start, end)
        start, end = _strip(text, start, end if comment < 0 else comment)
        if start == end:
            continue
        if text[start] == "[" and text[end - 1] == "]":
            current = text[start + 1 : end - 1].strip()
            if current not in _SCHEMA:
                errors.append(f"line {lineno}: unknown section [{current}]")
                current = None
            else:
                sections.setdefault(current, {})
            continue
        equals = text.find("=", start, end)
        if equals < 0:
            errors.append(f"line {lineno}: expected key = value")
            continue
        if current is None:
            errors.append(f"line {lineno}: key outside any known section")
            continue
        key = text[start:equals].strip()
        if key not in _SCHEMA[current]:
            errors.append(f"line {lineno}: unknown key {key!r} in section [{current}]")
            continue
        sections[current][key] = _parse_value(text, equals + 1, end)
    if errors:
        raise ConfigError(errors)
    return sections


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description."""

    kind: str
    raw: RawConfig
    n_particles: int
    steps: int | None        # None when [run] omits the key: the whole flow
    replicates: int
    verify_replicates: int   # replicates, or 2000 when [run] omits the key
    seed: int
    eps_mode: object
    n_test_functions: int

    @classmethod
    def from_raw(cls, raw: RawConfig) -> ExperimentConfig:
        errors = []
        # a word as its config text, so a number or an array is refused too
        kind = _config_text(raw.get("algorithm", "kind", "classic"))
        if kind not in ("classic", "isa", "adaptive"):
            errors.append(f"algorithm.kind must be classic|isa|adaptive, got {kind!r}")

        def run_int(key, default, minimum):
            # every [run] error is collected; the messages name the bare key
            try:
                return _int_field(raw, "run", key, default, minimum, name=key)
            except ConfigError as exc:
                errors.extend(exc.errors)
                return default

        n_particles = run_int("n_particles", 100, 1)
        steps = None if raw.get("run", "steps") is None else run_int("steps", 1, 0)
        if steps is None and kind == "adaptive":
            errors.append("steps is required for an adaptive config, which has no flow length")
        elif kind == "adaptive" and steps > MAX_STEPS:
            errors.append(f"steps = {steps} exceeds the exact oracle's cap of {MAX_STEPS} steps")
        replicates = run_int("replicates", 1, 1)
        seed = run_int("seed", 0, 0)
        n_test = run_int("n_test_functions", 4, 1)
        run_int("threads", 1, 1)   # validated so older configs still parse
        eps_mode = raw.get("run", "eps_mode", "auto")
        if _config_text(eps_mode) not in ("auto", "multinomial") and not _is_number(eps_mode):
            errors.append(
                f"eps_mode must be auto|multinomial|float, got {_config_text(eps_mode)!r}"
            )
        if errors:
            raise ConfigError(errors)
        cfg = cls(
            kind=kind,
            raw=raw,
            n_particles=n_particles,
            steps=steps,
            replicates=replicates,
            verify_replicates=2000 if raw.get("run", "replicates") is None else replicates,
            seed=seed,
            eps_mode=eps_mode,
            n_test_functions=n_test,
        )
        # fail fast on semantic errors; what is built is kept for every later reader
        cfg.checks
        if cfg.build_flow() is None:
            cfg.problem
            cfg.adaptive_config
            return cfg
        if steps is not None and steps > cfg.flow.horizon:
            raise ConfigError([f"steps = {steps} exceeds the flow's {cfg.flow.horizon} steps"])
        if not isinstance(eps_mode, str):
            g_max = float(cfg.flow.potentials[: cfg.horizon()].max(initial=0.0))
            if not 0.0 <= eps_mode * g_max <= 1.0 + 1e-12:
                raise ConfigError(
                    [f"eps_mode = {eps_mode!r} breaks 0 <= eps * max G <= 1 (max G = {g_max:g})"]
                )
        return cfg

    # -- assembly -----------------------------------------------------------

    @cached_property
    def problem(self) -> GibbsProblem:
        """The Gibbs problem of an isa or adaptive config, built once."""
        from .annealing import GibbsProblem

        raw = self.raw
        v = raw.get("problem", "v")
        if v is None:
            raise ConfigError(["problem.v is required"])
        with _field("problem.v"):
            v = np.atleast_1d(np.asarray(v, dtype=np.float64))
        dim = _int_field(raw, "problem", "dim", v.size, 1)
        if v.size != dim:
            raise ConfigError([f"problem.v has {v.size} entries, expected dim = {dim}"])
        m_spec = raw.get("problem", "m", "uniform")
        with _field("problem.m"):
            if isinstance(m_spec, str) and m_spec == "uniform":
                m = uniform_law(dim)
            else:
                m = normalized_law(np.asarray(m_spec, dtype=np.float64))
        prop = raw.get("problem", "proposal", "uniform")
        with _field("problem.proposal"):
            if isinstance(prop, str):
                name, *args = prop.split() or [""]
                if name == "uniform":
                    kernel = KernelMatrix.uniform(dim)
                elif name == "lazy-ring":
                    kernel = KernelMatrix.lazy_ring(dim, float(args[0]) if args else 0.5)
                else:
                    raise ValueError(f"unknown proposal {prop!r}")
            else:
                kernel = KernelMatrix(np.asarray(prop, dtype=np.float64))
        with _field("problem"):
            return GibbsProblem(v_values=v, reference=m, proposal=kernel)

    @cached_property
    def adaptive_config(self) -> AdaptiveConfig:
        """The ``[adaptive]`` parameters, built once."""
        from .adaptive import AdaptiveConfig

        raw = self.raw
        if raw.get("adaptive", "epsilon") is None:
            raise ConfigError(["adaptive.epsilon is required"])
        no_cap = str(raw.get("adaptive", "delta_max", "none")) == "none"
        fields = dict(
            epsilon=_float_field(raw, "adaptive", "epsilon", None),
            tol=_float_field(raw, "adaptive", "tol", 1e-10),
            delta_max=None if no_cap else _float_field(raw, "adaptive", "delta_max", None),
            mutation_mode=_config_text(raw.get("adaptive", "mutation", "theoretical")),
            mcmc_iters=_int_field(raw, "adaptive", "mcmc_iters", 1, 1),
            beta0=_float_field(raw, "adaptive", "beta0", 0.0),
        )
        with _field("adaptive"):
            config = AdaptiveConfig(**fields)
        # the energy every adaptive run needs, refused here rather than mid-run
        problem = self.problem
        if np.any(problem.v_values < 0):
            raise ConfigError(["problem.v: energies must be >= 0 (declared V_min = 0)"])
        if config.delta_max is None and problem.v_osc <= 0:
            raise ConfigError(["adaptive.delta_max: cannot resolve delta_max for a flat energy"])
        if config.mutation_mode == "theoretical":
            self.require_reference()
        return config

    def require_reference(self) -> None:
        """Refuse reference mass at V = 0, which leaves the adaptive reference
        schedule that theoretical mutation and every bound check read undefined."""
        problem = self.problem
        if np.any((problem.v_values <= 0) & (problem.reference > 0)):
            raise ConfigError(
                ["problem.v: reference measure puts mass at V = 0; reference schedule undefined"]
            )

    def build_flow(self) -> FlowSpec | None:
        """Finite flow the experiment drives, built on the first call (by
        ``from_raw``) and shared after; None for adaptive runs."""
        return self.flow

    @cached_property
    def flow(self) -> FlowSpec | None:
        """The flow of :meth:`build_flow`.  The ``flow.potentials`` table and
        a ``flow.kernels`` stack leave ``raw`` here, so the flow holds the
        one copy of each."""
        if self.kind == "classic":
            raw = self.raw
            section = raw.sections.get("flow", {})
            pots = section.pop("potentials", None)
            if pots is None:
                raise ConfigError(["flow.potentials is required for classic runs"])
            with _field("flow.potentials"):
                pots = np.atleast_2d(np.asarray(pots, dtype=np.float64))
                _check_potentials(pots)
            t, dim = pots.shape
            init_spec = raw.get("flow", "initial", "uniform")
            with _field("flow.initial"):
                if isinstance(init_spec, str) and init_spec == "uniform":
                    initial = uniform_law(dim)
                else:
                    initial = normalized_law(np.asarray(init_spec, dtype=np.float64))
            kernels = section.pop("kernels", None)
            if kernels is not None:
                with _field("flow.kernels"):
                    kernels = np.asarray(kernels, dtype=np.float64)
                    if kernels.shape != (t * dim, dim):
                        raise ConfigError(["flow.kernels must stack one d x d kernel per step"])
                    # normalized in place: the parsed table is the only copy
                    kernels = kernels.reshape(t, dim, dim)
                    kernels /= _kernel_row_sums(kernels)[..., None]
            else:
                kern = raw.get("flow", "kernel")
                if kern is None:
                    raise ConfigError(["flow.kernel or flow.kernels is required"])
                with _field("flow.kernel"):
                    kern = KernelMatrix(np.asarray(kern, dtype=np.float64)).rows
                kernels = np.broadcast_to(kern, (t, *kern.shape))
            with _field("flow"):
                return FlowSpec(initial, pots, kernels)
        if self.kind == "isa":
            return self.isa.flow
        return None

    @cached_property
    def isa(self) -> IsaFlow | None:
        """The tuned annealing flow of an isa config, built once; None otherwise."""
        if self.kind != "isa":
            return None
        from .annealing import build_isa_flow, minorize

        raw, problem = self.raw, self.problem
        # a word as its config text, so a number or an array is refused too
        mode = _config_text(raw.get("schedule", "mode", "constant"))
        if mode not in ("bounded", "decreasing", "constant"):
            raise ConfigError([f"schedule.mode must be bounded|decreasing|constant, got {mode!r}"])
        betas = raw.get("schedule", "betas")
        if betas is None:
            default = 1 if self.steps is None else self.steps
            steps = _int_field(raw, "schedule", "steps", default, 0)
            beta0 = _float_field(raw, "schedule", "beta0", 0.0)
            delta = _float_field(raw, "schedule", "delta", 0.5)
        else:
            betas = np.atleast_1d(betas)
            if betas.ndim != 1 or betas.dtype.kind not in "iuf":
                raise ConfigError([
                    f"schedule.betas must be a vector of numbers, got {_config_text(betas)!r}"
                ])
            steps = betas.size - 1
        if steps > MAX_STEPS:
            raise ConfigError(
                [f"schedule.steps = {steps} exceeds the exact oracle's cap of {MAX_STEPS} steps"]
            )
        declared = raw.get("schedule", "delta_declared")
        if declared is not None:
            if mode != "bounded":
                raise ConfigError([f"schedule.delta_declared is read in bounded mode, not {mode}"])
            declared = _float_field(raw, "schedule", "delta_declared", None)
        k0 = _int_field(raw, "schedule", "k0", 1, 1)
        if k0 > MAX_STEPS:
            raise ConfigError([f"schedule.k0 = {k0} exceeds the cap of {MAX_STEPS} proposal moves"])
        a = _float_field(raw, "schedule", "a", 0.5)
        if betas is None:
            betas = beta0 + np.arange(steps + 1) * delta   # beta0 + k delta, bit for bit
        with _field("schedule"):
            return build_isa_flow(problem, betas, mode, minorize(problem, k0), a, declared)

    @cached_property
    def checks(self) -> Checks:
        """The ``[checks]`` section, validated once (by ``from_raw``)."""
        return _parse_checks(self.raw, self.kind)

    def horizon(self) -> int:
        """The steps a run covers: ``[run] steps`` when given, else the whole
        flow.  An adaptive config, which has no flow, must give the key."""
        return self.flow.horizon if self.steps is None else self.steps


@dataclass(frozen=True)
class Checks:
    """The validated ``[checks]`` section; a ``g_sup`` of None stands for the
    flow's largest potential ratio."""

    regime: str
    a: float
    g_sup: float | None
    epsilon_level: float
    eps_prime: float
    y_values: tuple
    s_values: tuple


def _parse_checks(raw: RawConfig, kind: str) -> Checks:
    """Every ``[checks]`` value or its default; a bad one is a field error."""
    errors = []

    def numbers(key, default, ok, rule):
        """``key`` as a float, or a tuple of floats if the default is one."""
        value = raw.get("checks", key)
        if value is None:
            return default
        with _field(f"checks.{key}"):
            x = np.atleast_1d(np.asarray(value, dtype=np.float64))
        grid = isinstance(default, tuple)
        if x.ndim != 1 or (x.size != 1 and not grid) or not np.all(np.isfinite(x) & ok(x)):
            errors.append(f"checks.{key} must be {rule}, got {_config_text(value)!r}")
        return tuple(float(v) for v in x.ravel()) if grid else float(x.flat[0])

    regime = _config_text(raw.get("checks", "regime", "bounded"))
    if regime not in ("bounded", "decreasing"):
        errors.append(f"checks.regime must be bounded|decreasing, got {regime!r}")
    adaptive = kind == "adaptive"
    y_min = 1.0 if adaptive else 0.0   # the adaptive threshold needs y >= 1
    eps_level = numbers("epsilon_level", 0.5, lambda x: x > 0, "a finite number > 0")
    checks = Checks(
        regime=regime,
        a=numbers("a", 0.6 if adaptive else 0.5, lambda x: (x > 0) & (x < 1), "in (0, 1)"),
        g_sup=numbers("g_sup", None, lambda x: x >= 1, "a finite number >= 1"),
        epsilon_level=eps_level,
        eps_prime=numbers(
            "eps_prime", 0.25, lambda x: (x > 0) & (x < eps_level), "in (0, epsilon_level)"
        ),
        y_values=numbers(
            "y_values", (1.0, 2.0, 4.0), lambda x: x >= y_min, f"finite numbers >= {y_min:g}"
        ),
        s_values=numbers("s_values", (0.0, 0.1, 0.2, 0.3), lambda x: x >= 0, "finite numbers >= 0"),
    )
    if errors:
        raise ConfigError(errors)
    return checks
