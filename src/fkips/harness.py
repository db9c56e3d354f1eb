"""Experiment orchestration: config text, replicate runs, bound verification
and CSV emission.

Config grammar (flat sections of key = value lines):

    # comment
    [section]
    key = value            scalars: int, float, bool, bare string
    key = 1 2 3            array: whitespace-separated numbers
    key = 1 0; 0 1         matrix: rows separated by ';'

Unknown sections or keys are rejected with field-level messages.  Sections
and keys:

    [problem]   dim, v, m (uniform|array), proposal (uniform | lazy-ring STAY
                | matrix)
    [flow]      initial (uniform|array), potentials (T x d matrix),
                kernel (d x d matrix, shared) or kernels ((T*d) x d stacked)
    [algorithm] kind = classic | isa | adaptive
    [schedule]  mode (bounded|decreasing|constant), betas (array) or
                beta0/delta/steps, delta_declared, a, k0
    [adaptive]  epsilon, tol (>= 1e-13), delta_max, mutation (theoretical|adaptive),
                mcmc_iters, beta0
    [run]       n_particles, steps, replicates, seed, eps_mode
                (auto|multinomial|float), n_test_functions, threads
                (validated and kept so older configs still parse; it has
                no effect)
    [checks]    regime (bounded|decreasing), a in (0, 1), g_sup >= 1,
                epsilon_level > eps_prime > 0, y_values and s_values (>= 0;
                y >= 1 for adaptive); every number finite

A classic ``verify-bounds`` runs the oracle identity, the semigroup lemmas
and one regime check, :func:`check_regime`, whichever the ``[checks]
regime``.  The regimes differ only in their hypothesis rows, their composed
caps (:func:`composed_caps`) and their threshold formulas
(:func:`fkips.bounds.deviation_thresholds`), and both write their rows in
one order: hypothesis, composed caps, L2 for n = 0..T, occupation deviation
(y-major), then mass ratio (y-major, ``+`` before ``-``).

Every output is a deterministic function of (config, seed): replicates use
counter-based streams keyed by (seed, block, step, purpose) whose rows do
not depend on the replicate count (see :mod:`fkips.engine`), aggregation
folds in replicate order, and CSV cells print floats at 17 significant
digits.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import bounds
from .bounds import CheckRow, VerifyReport
from .engine import run_counts
from .errors import ConfigError, DegenerateMeasureError, NoMinorizationError
from .flow import FlowSpec, InequalityRecord, LemmaReport, check_semigroup_lemmas
from .measures import (
    BoundedFunction,
    FiniteDistribution,
    KernelMatrix,
    PotentialVector,
    dobrushin,
)
from .testfns import deviations, l2_level, means, osc1_dictionary

# annealing and adaptive are imported where they are called, so a classic
# run never loads them
if TYPE_CHECKING:
    from .adaptive import AdaptiveConfig
    from .annealing import GibbsProblem, IsaFlow, TemperatureSchedule

_FLOAT_FMT = ".17g"


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


# ---------------------------------------------------------------------------
# Config text
# ---------------------------------------------------------------------------

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


def _parse_value(text: str):
    """One config value: a scalar, a float vector (whitespace-separated
    tokens) or a float matrix (rows separated by ``;``).  A vector or
    matrix that does not parse, including a ragged one, comes back as its
    text, which the field that reads it reports as a config error.

    Tables are read by numpy's C text reader in one pass, at 8 bytes per
    number.  It reads the tokens ``float()`` reads, bit for bit, except
    that it skips blank rows and refuses some tokens ``float()`` takes
    (``1_000``, non-ASCII digits); those values go through ``float()``.
    """
    text = text.strip()
    table = ";" in text
    if table:
        rows = text.split(";")
    elif len(text.split(None, 1)) > 1:
        rows = [text]
    else:
        return _parse_scalar(text) if text else ""
    if not any(not row or row.isspace() for row in rows):
        try:
            values = np.loadtxt(rows, ndmin=2, comments=None)
        except ValueError:
            pass
        else:
            return values if table else values[0]
    try:
        values = np.array([[float(x) for x in row.split()] for row in rows])
    except ValueError:
        return text
    return values if table else values[0]


@contextmanager
def _field(name: str):
    """Report a bad value met while assembling ``name`` as a config error."""
    try:
        yield
    except (ValueError, DegenerateMeasureError, NoMinorizationError) as exc:
        raise ConfigError([f"{name}: {exc}"]) from exc


def _int_field(raw, section: str, key: str, default: int, minimum: int, name=None) -> int:
    """``[section] key`` as an int >= ``minimum``.  A bool, a float or text is
    refused, not truncated, by a :class:`ConfigError` naming ``name``
    (``section.key`` unless given)."""
    val = raw.get(section, key, default)
    if not isinstance(val, (int, np.integer)) or isinstance(val, bool) or val < minimum:
        name = name or f"{section}.{key}"
        raise ConfigError([f"{name} must be an integer >= {minimum}, got {val!r}"])
    return int(val)


@dataclass
class RawConfig:
    """Parsed key-value sections, prior to semantic assembly."""

    sections: dict

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, default)

    def has(self, section: str) -> bool:
        return section in self.sections


def parse_config(text: str) -> "ExperimentConfig":
    """Parse and validate config text; collects field-level errors."""
    errors = []
    sections: dict = {}
    current = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SCHEMA:
                errors.append(f"line {lineno}: unknown section [{current}]")
                current = None
            else:
                sections.setdefault(current, {})
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected key = value")
            continue
        if current is None:
            errors.append(f"line {lineno}: key outside any known section")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA[current]:
            errors.append(f"line {lineno}: unknown key {key!r} in section [{current}]")
            continue
        sections[current][key] = _parse_value(value)
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig.from_raw(RawConfig(sections))


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description."""

    kind: str
    raw: RawConfig
    n_particles: int
    steps: int
    replicates: int
    seed: int
    eps_mode: object
    n_test_functions: int
    threads: int   # validated for older configs; has no effect

    @classmethod
    def from_raw(cls, raw: RawConfig) -> "ExperimentConfig":
        errors = []
        kind = raw.get("algorithm", "kind", "classic")
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
        steps = run_int("steps", 1, 0)
        replicates = run_int("replicates", 1, 1)
        seed = run_int("seed", 0, 0)
        n_test = run_int("n_test_functions", 4, 1)
        threads = run_int("threads", 1, 1)
        eps_mode = raw.get("run", "eps_mode", "auto")
        if isinstance(eps_mode, str) and eps_mode not in ("auto", "multinomial"):
            errors.append(f"eps_mode must be auto|multinomial|float, got {eps_mode!r}")
        if errors:
            raise ConfigError(errors)
        cfg = cls(
            kind=kind,
            raw=raw,
            n_particles=n_particles,
            steps=steps,
            replicates=replicates,
            seed=seed,
            eps_mode=eps_mode,
            n_test_functions=n_test,
            threads=threads,
        )
        # fail fast on semantic errors; what is built is kept for every later reader
        cfg.checks
        if cfg.flow is None:
            cfg.problem
            cfg.adaptive_config
        elif not isinstance(eps_mode, str):
            g_max = max((g.values.max() for g, _ in cfg.flow.steps[: cfg.horizon()]), default=0.0)
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
        errors = []
        dim = raw.get("problem", "dim")
        v = raw.get("problem", "v")
        if v is None:
            errors.append("problem.v is required")
            raise ConfigError(errors)
        with _field("problem.v"):
            v = np.atleast_1d(np.asarray(v, dtype=np.float64))
        if dim is None:
            dim = v.size
        if v.size != dim:
            errors.append(f"problem.v has {v.size} entries, expected dim = {dim}")
        m_spec = raw.get("problem", "m", "uniform")
        with _field("problem.m"):
            if isinstance(m_spec, str) and m_spec == "uniform":
                m = FiniteDistribution.uniform(int(dim))
            else:
                m = FiniteDistribution.from_unnormalized(np.asarray(m_spec, dtype=np.float64))
        prop = raw.get("problem", "proposal", "uniform")
        with _field("problem.proposal"):
            if isinstance(prop, str):
                parts = prop.split()
                if parts[0] == "uniform":
                    kernel = KernelMatrix.uniform(int(dim))
                elif parts[0] == "lazy-ring":
                    stay = float(parts[1]) if len(parts) > 1 else 0.5
                    kernel = KernelMatrix.lazy_ring(int(dim), stay)
                else:
                    errors.append(f"unknown proposal {prop!r}")
                    raise ConfigError(errors)
            else:
                kernel = KernelMatrix(np.asarray(prop, dtype=np.float64))
        if errors:
            raise ConfigError(errors)
        with _field("problem"):
            return GibbsProblem(energy=BoundedFunction(v), reference=m, proposal=kernel)

    def build_schedule(self) -> TemperatureSchedule:
        from .annealing import TemperatureSchedule

        raw = self.raw
        mode_map = {
            "bounded": "bounded-increment",
            "decreasing": "decreasing-increment",
            "constant": "constant-step",
        }
        given = raw.get("schedule", "mode", "constant")
        mode = mode_map.get(given) if isinstance(given, str) else None
        if mode is None:
            raise ConfigError([
                f"schedule.mode must be bounded|decreasing|constant, got {_config_text(given)!r}"
            ])
        betas = raw.get("schedule", "betas")
        if betas is None:
            steps = _int_field(raw, "schedule", "steps", self.steps, 0)
        with _field("schedule"):
            if betas is None:
                beta0 = float(raw.get("schedule", "beta0", 0.0))
                delta = float(raw.get("schedule", "delta", 0.5))
                return TemperatureSchedule.constant_step(beta0, delta, steps)
            betas = tuple(float(b) for b in np.atleast_1d(betas))
            declared = raw.get("schedule", "delta_declared")
            if mode == "bounded-increment" and declared is None:
                declared = max(
                    betas[i + 1] - betas[i] for i in range(len(betas) - 1)
                ) if len(betas) > 1 else 0.0
            return TemperatureSchedule(betas, mode, declared_delta=declared)

    @cached_property
    def adaptive_config(self) -> AdaptiveConfig:
        """The ``[adaptive]`` parameters, built once."""
        from .adaptive import AdaptiveConfig

        raw = self.raw
        eps = raw.get("adaptive", "epsilon")
        if eps is None:
            raise ConfigError(["adaptive.epsilon is required"])
        delta_max = raw.get("adaptive", "delta_max")
        mcmc_iters = _int_field(raw, "adaptive", "mcmc_iters", 1, 1)
        with _field("adaptive"):
            return AdaptiveConfig(
                epsilon=float(eps),
                tol=float(raw.get("adaptive", "tol", 1e-10)),
                delta_max=None if delta_max in (None, "none") else float(delta_max),
                mutation_mode=raw.get("adaptive", "mutation", "theoretical"),
                mcmc_iters=mcmc_iters,
                beta0=float(raw.get("adaptive", "beta0", 0.0)),
            )

    def build_flow(self) -> FlowSpec | None:
        """Finite flow the experiment drives; None for adaptive runs."""
        if self.kind == "classic":
            raw = self.raw
            pots = raw.get("flow", "potentials")
            if pots is None:
                raise ConfigError(["flow.potentials is required for classic runs"])
            with _field("flow.potentials"):
                pots = np.atleast_2d(np.asarray(pots, dtype=np.float64))
                potentials = [PotentialVector(row) for row in pots]
            dim = pots.shape[1]
            init_spec = raw.get("flow", "initial", "uniform")
            with _field("flow.initial"):
                if isinstance(init_spec, str) and init_spec == "uniform":
                    initial = FiniteDistribution.uniform(dim)
                else:
                    initial = FiniteDistribution.from_unnormalized(
                        np.asarray(init_spec, dtype=np.float64)
                    )
            stacked = raw.get("flow", "kernels")
            if stacked is not None:
                with _field("flow.kernels"):
                    stacked = np.asarray(stacked, dtype=np.float64)
                    if stacked.shape != (len(potentials) * dim, dim):
                        raise ConfigError(["flow.kernels must stack one d x d kernel per step"])
                    kernels = [
                        KernelMatrix(stacked[i * dim : (i + 1) * dim])
                        for i in range(len(potentials))
                    ]
            else:
                kern = raw.get("flow", "kernel")
                if kern is None:
                    raise ConfigError(["flow.kernel or flow.kernels is required"])
                with _field("flow.kernel"):
                    kernels = [KernelMatrix(np.asarray(kern, dtype=np.float64))] * len(potentials)
            with _field("flow"):
                return FlowSpec(initial=initial, steps=tuple(zip(potentials, kernels)))
        if self.kind == "isa":
            return self.isa.flow
        return None

    @cached_property
    def isa(self) -> IsaFlow | None:
        """The tuned annealing flow of an isa config, built once; None otherwise."""
        if self.kind != "isa":
            return None
        from .annealing import build_isa_flow, minorize

        problem = self.problem
        schedule = self.build_schedule()
        k0 = _int_field(self.raw, "schedule", "k0", 1, 1)
        with _field("schedule"):
            a = float(self.raw.get("schedule", "a", 0.5))
            return build_isa_flow(problem, schedule, minorize(problem, k0), a)

    @cached_property
    def flow(self) -> FlowSpec | None:
        """The flow from :meth:`build_flow`, built once (by ``from_raw``)."""
        return self.build_flow()

    @cached_property
    def checks(self) -> "Checks":
        """The ``[checks]`` section, validated once (by ``from_raw``)."""
        return _parse_checks(self.raw, self.kind)

    def horizon(self) -> int:
        if self.flow is not None:
            return min(self.steps, self.flow.horizon) if self.steps else self.flow.horizon
        return self.steps


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

    regime = raw.get("checks", "regime", "bounded")
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


def serialize_config(cfg: ExperimentConfig) -> str:
    """Canonical text form; parse(serialize(parse(x))) is a fixed point."""
    out = []
    for section in _SCHEMA:
        if not cfg.raw.has(section):
            continue
        body = cfg.raw.sections[section]
        out.append(f"[{section}]")
        for key in sorted(body):
            out.append(f"{key} = {_config_text(body[key])}")
        out.append("")
    return "\n".join(out)


def flow_to_config(spec: FlowSpec, *, n_particles=100, replicates=1, seed=0, steps=None) -> str:
    """Render a finite flow as classic-run config text."""
    lines = ["[flow]"]
    lines.append("initial = " + " ".join(_fmt(x) for x in spec.initial.weights))
    lines.append(
        "potentials = "
        + "; ".join(" ".join(_fmt(x) for x in g.values) for g, _ in spec.steps)
    )
    stacked = np.vstack([m.rows for _, m in spec.steps])
    lines.append("kernels = " + "; ".join(" ".join(_fmt(x) for x in row) for row in stacked))
    lines.append("")
    lines.append("[algorithm]")
    lines.append("kind = classic")
    lines.append("")
    lines.append("[run]")
    lines.append(f"n_particles = {n_particles}")
    lines.append(f"steps = {steps if steps is not None else spec.horizon}")
    lines.append(f"replicates = {replicates}")
    lines.append(f"seed = {seed}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Replicate execution and aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatSummary:
    mean: float
    se: float
    quantiles: tuple            # (q10, q50, q90)


@dataclass(frozen=True, eq=False)
class ReplicateStats:
    """Per-(step, statistic) replicate summaries as (T+1, K) arrays."""

    names: tuple
    mean: np.ndarray
    se: np.ndarray
    quantiles: np.ndarray   # (3, T+1, K): q10, q50, q90
    replicates: int

    def get(self, step: int, stat: str) -> StatSummary:
        j = self.names.index(stat)
        return StatSummary(
            mean=float(self.mean[step, j]),
            se=float(self.se[step, j]),
            quantiles=tuple(float(q) for q in self.quantiles[:, step, j]),
        )


def _quantiles(x, qs=(0.1, 0.5, 0.9)) -> np.ndarray:
    """``np.quantile(x, qs, axis=-1)`` (linear method), bit for bit.

    It repeats numpy's steps: virtual index v = (n - 1) q, neighbours
    floor(v) and floor(v) + 1, or the top value twice, indexed -1, when
    v >= n - 1; one ``np.partition`` at numpy's own kth set; then
    a + (b - a) t, or b - (b - a)(1 - t) when t >= 0.5, and NaN wherever
    the top value is NaN.  A sort would order tied -0.0 and 0.0 otherwise
    than the partition does and change the sign of some zero quantiles.
    """
    n = x.shape[-1]
    picks = []   # (lo, hi, t) per quantile
    for q in qs:
        v = (n - 1) * q
        lo = math.floor(v)
        # numpy's t is v minus the lower index, which is -1 at the top
        picks.append((-1, -1, v + 1) if v >= n - 1 else (lo, lo + 1, v - lo))
    kth = sorted({0, -1, *(i for lo, hi, _ in picks for i in (lo, hi))})
    part = np.partition(x, kth, axis=-1)
    out = np.empty((len(qs),) + x.shape[:-1])
    for row, (lo, hi, t) in zip(out, picks):
        a, b = part[..., lo], part[..., hi]
        row[...] = b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
    out[:, np.isnan(part[..., -1])] = np.nan
    return out


def aggregate(values, stat_names) -> ReplicateStats:
    """Deterministic fold of (R, T+1, K) per-replicate values into summaries.

    The values of each (step, statistic) are laid out as one contiguous run
    in replicate order before reducing, so every sum is numpy's pairwise sum
    of that 1-d run and the summaries equal a fold of one column at a time.
    The quantiles are ``np.quantile``'s, bit for bit, but computed by
    :func:`_quantiles`: ``np.quantile`` calls ``np.unique``, whose first
    call imports ``numpy.ma``, a module nothing else in a run needs.
    """
    x = np.ascontiguousarray(np.moveaxis(np.asarray(values, dtype=np.float64), 0, 2))
    r = x.shape[-1]
    se = x.std(axis=-1, ddof=1) / math.sqrt(r) if r > 1 else np.zeros(x.shape[:-1])
    return ReplicateStats(
        names=tuple(stat_names),
        mean=x.mean(axis=-1),
        se=se,
        quantiles=_quantiles(x),
        replicates=r,
    )


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    stats: ReplicateStats
    raw_csv: str
    stats_csv: str
    oracle_csv: str | None


def _stat_values(run, head, tables):
    """(R, T+1, K) values of a count run: the ``head`` columns, given as
    (name, (R, T+1) array) pairs, then ``est_i``, the mean of table i."""
    names = [name for name, _ in head] + [f"est_{i}" for i in range(len(tables))]
    columns = [col for _, col in head] + list(
        np.moveaxis(means(run.histograms, tables), 2, 0)
    )
    return np.stack(columns, axis=2), names


def _with_first(value, per_step):
    """Prefix the (R, T) per-step values with ``value`` at step 0."""
    return np.hstack([np.full((per_step.shape[0], 1), value), per_step])


def _classic_values(flow, cfg, horizon, tables):
    """Per-replicate statistics of a finite flow, from one count run."""
    run = run_counts(
        flow, cfg.n_particles, cfg.seed, replicates=cfg.replicates, horizon=horizon,
        eps=cfg.eps_mode,
    )
    head = [
        ("log_gamma1", run.log_gamma1),
        ("mean_potential", _with_first(math.nan, run.mean_potential)),
        ("kept_fraction", _with_first(math.nan, run.kept_fraction)),
        ("ess", _with_first(float(cfg.n_particles), run.ess)),
    ]
    return _stat_values(run, head, tables)


def _adaptive_values(cfg):
    """Per-replicate statistics of the adaptive scheme, from one count run."""
    from .adaptive import run_adaptive_counts

    tables = tuple(osc1_dictionary(cfg.problem.dim, cfg.n_test_functions))
    run = run_adaptive_counts(
        cfg.problem, cfg.adaptive_config, cfg.n_particles, cfg.steps, cfg.seed,
        replicates=cfg.replicates,
    )
    head = [
        ("log_gamma1", run.log_gamma1),
        ("delta", _with_first(0.0, run.delta)),
        ("beta", run.beta),
        ("c", _with_first(0.0, run.c)),
        ("kept_fraction", _with_first(math.nan, run.kept_fraction)),
        ("saturated", _with_first(0.0, run.saturated.astype(np.float64))),
    ]
    return _stat_values(run, head, tables)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute all replicates and aggregate.

    Every kind runs all its replicates through one block-wise count-engine
    call: :func:`~fkips.engine.run_counts` for classic and isa flows,
    :func:`~fkips.adaptive.run_adaptive_counts` for the adaptive scheme.
    The ``threads`` config key has no effect.
    """
    flow = cfg.flow
    oracle_csv = None
    if cfg.kind in ("classic", "isa"):
        horizon = cfg.horizon()
        tables = tuple(osc1_dictionary(flow.dim, cfg.n_test_functions))
        values, stat_names = _classic_values(flow, cfg, horizon, tables)
        oracle_csv = _oracle_csv(flow.trace, horizon, tables)
    else:
        values, stat_names = _adaptive_values(cfg)
    stats = aggregate(values, stat_names)
    return ExperimentResult(
        config=cfg,
        stats=stats,
        raw_csv=_raw_csv(values, stat_names),
        stats_csv=_stats_csv(stats),
        oracle_csv=oracle_csv,
    )


def _csv_line(cells) -> str:
    # every cell is an int, a float or a plain name, so none needs quoting
    return ",".join(cells) + "\n"


def _raw_csv(values, stat_names) -> str:
    """One row per (replicate, step) of the (R, T+1, K) values, each written
    by one ``%`` template; ``%.17g`` prints a float as ``format(x, ".17g")``."""
    values = np.asarray(values, dtype=np.float64)
    row = ",".join(["%d", "%d"] + ["%" + _FLOAT_FMT] * values.shape[2]) + "\n"
    lines = [_csv_line(["replicate", "step", *stat_names])]
    lines += [
        row % (rep, step, *cells)
        for rep, steps in enumerate(values.tolist())
        for step, cells in enumerate(steps)
    ]
    return "".join(lines)


def _stats_csv(stats: ReplicateStats) -> str:
    lines = [_csv_line(["step", "statistic", "mean", "se", "q10", "q50", "q90"])]
    cells = np.stack([stats.mean, stats.se, *stats.quantiles], axis=2).tolist()
    for step, row in enumerate(cells):
        for name, summary in zip(stats.names, row):
            lines.append(
                _csv_line([str(step), name, *(format(x, _FLOAT_FMT) for x in summary)])
            )
    return "".join(lines)


def _oracle_csv(trace, horizon, tables, column="exact_est") -> str:
    """Exact mass and the exact mean of each table, steps 0..horizon; the
    table columns are named ``{column}_0, {column}_1, ...``."""
    lines = [_csv_line(
        ["step", "log_gamma1", "gamma1"] + [f"{column}_{i}" for i in range(len(tables))]
    )]
    for n, eta in enumerate(trace.etas[: horizon + 1]):
        lines.append(_csv_line(
            [str(n), _fmt(trace.log_gamma1[n]), _fmt(trace.gamma1[n])]
            + [_fmt(eta.expect(t)) for t in tables]
        ))
    return "".join(lines)


def emit_csv(text, path) -> None:
    """Write CSV text to a file."""
    with open(path, "w", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Bound verification
# ---------------------------------------------------------------------------


def composed_caps(flow: FlowSpec, regime: str, a: float, g_sup=None):
    """Exact composed-quantity caps implied by a regime's hypothesis.  Returns
    (ok, worst excess, scope).

    Both regimes cap ``g_{p,n} b_{p,n} <= a^(n-p)`` for p < n.  A p = n pair
    is the identity ``1 = a^0`` with excess exactly 0, which would pin every
    passing row's worst excess at 0; it is kept only at horizon 0, where it
    is the only pair.  The ``"bounded"`` (uniform) regime adds
    ``g_{p,n} <= g_sup + a`` and ``b_p g_{p-1,n} <= a``; the
    ``"decreasing"`` one adds ``g_{p,n} <= g_(p+1)^(1+alpha)`` for p < n,
    alpha = a/(1-a), and does not read ``g_sup``.  A cap holds when
    ``lhs - rhs <= 1e-10 * min(1, rhs)`` (:attr:`InequalityRecord.excess`),
    so the caps ``a^(n-p)`` are checked to relative precision.
    """
    g, b = flow.table.g.tolist(), flow.table.b.tolist()
    records = [
        InequalityRecord("g_pn*b_pn", p, n, g[p][n] * b[p][n], a ** (n - p))
        for n in range(flow.horizon + 1)
        for p in range(n - 1 if flow.horizon else n, -1, -1)
    ]
    step_g, step_b, alpha = flow.trace.g, flow.trace.b, a / (1.0 - a)
    for n in range(flow.horizon + 1):
        for p in range(n, -1, -1):
            if regime == "bounded":
                records.append(InequalityRecord("g_pn", p, n, g[p][n], g_sup + a))
                if p >= 1:
                    # b_p pairs with g_{p-1,n}; step_b is 0-indexed by step
                    bg = step_b[p - 1] * g[p - 1][n]
                    records.append(InequalityRecord("b_p*g_(p-1)n", p, n, bg, a))
            elif p < n:
                # step_g is 0-indexed: step_g[p] is the step-(p+1) ratio
                cap = step_g[p] ** (1.0 + alpha)
                records.append(InequalityRecord("g_pn", p, n, g[p][n], cap))
    report = LemmaReport(tuple(records))
    worst = report.worst()
    return report.holds(1e-10), worst.excess, f"{worst.name},p={worst.p},n={worst.n}"


def check_regime(
    flow: FlowSpec,
    regime: str,
    a: float,
    g_sup: float | None,
    n_particles: int,
    replicates: int,
    seed: int,
    *,
    y_values=(1.0, 2.0, 4.0),
) -> VerifyReport:
    """All checks of one concentration regime on one flow: ``"bounded"`` (the
    uniform regime, potential ratios capped by ``g_sup``, None standing for
    the flow's largest ratio) or ``"decreasing"``.

    The hypothesis rows come first, and an unmet hypothesis returns them
    alone: the uniform regime caps every ratio by g_sup and every ergodic
    coefficient by a/(a+g_sup), the decreasing one caps step p's coefficient
    by :func:`~fkips.bounds.condition_decreasing` of its ratio g_p.  Then, in
    the order the module docstring gives, come the composed caps, the L2
    level and the exceedances of both thresholds of
    :func:`~fkips.bounds.deviation_thresholds`, all over the same
    ``replicates`` runs; the row names start ``uniform-`` or ``decreasing-``.
    """
    trace = flow.trace
    name = "uniform" if regime == "bounded" else "decreasing"
    # g: what bounds.deviation_thresholds reads, the cap or the step ratios
    if regime == "bounded":
        g = g_sup = max(trace.g) if g_sup is None else g_sup
        b_cap = bounds.condition_bounded(g_sup, a)
        ok = all(x <= g_sup + 1e-12 for x in trace.g) and all(b <= b_cap + 1e-12 for b in trace.b)
        status = "pass" if ok else "hypothesis-unmet"
        hypothesis = [CheckRow("uniform-hypothesis", "all", max(trace.b), b_cap, status)]
    else:
        g = list(trace.g)
        caps = [bounds.condition_decreasing(g_p, a).value for g_p in trace.g]
        hypothesis = [
            CheckRow("decreasing-hypothesis", f"p={p}", b_p, cap, "hypothesis-unmet")
            for p, (b_p, cap) in enumerate(zip(trace.b, caps), start=1)
            if b_p > cap + 1e-12
        ] or [CheckRow("decreasing-hypothesis", "all", 0.0, 0.0, "pass")]
    if hypothesis[0].status != "pass":
        return VerifyReport(rows=tuple(hypothesis), hypothesis_ok=False)
    _, worst, scope = composed_caps(flow, regime, a, g_sup)
    rows = hypothesis + [CheckRow.compare(f"{name}-composed-caps", scope, worst, 1e-10)]

    run = run_counts(flow, n_particles, seed, replicates=replicates)
    devs = deviations(run.histograms, trace.etas, osc1_dictionary(flow.dim))
    log_gaps = run.log_gamma1 - trace.log_gamma1
    # L2 level, uniformly in time
    l2_bound = bounds.lp_uniform_bound(2, a, n_particles)
    for n, l2 in enumerate(l2_level(devs).tolist()):
        rows.append(CheckRow.compare(f"{name}-l2", f"n={n}", l2, l2_bound))

    # exceedance frequencies of both thresholds, each at level exp(-y)
    worst = np.abs(devs).max(axis=2)   # per replicate, sup over dictionary
    mass_rows = []
    for y in y_values:
        level = math.exp(-y)
        for n in range(1, flow.horizon + 1):
            eta_thr, mass_thr = bounds.deviation_thresholds(regime, a, g, n_particles, n, y)
            scope = f"n={n},y={_fmt(y)}"
            rows.append(CheckRow.exceedance(
                f"{name}-eta-deviation", scope, worst[:, n] > eta_thr, level
            ))
            signed = log_gaps[:, n] / n
            for sign, tag in ((1.0, "+"), (-1.0, "-")):
                mass_rows.append(CheckRow.exceedance(
                    f"{name}-mass-ratio", f"{scope},sign={tag}", sign * signed > mass_thr, level
                ))
    return VerifyReport(rows=tuple(rows + mass_rows), hypothesis_ok=True)


def check_oracle_identity(flow: FlowSpec, rel_tol: float = 1e-10) -> VerifyReport:
    """Mass recursion vs composed-operator route, every split point."""
    gamma1, mass = flow.trace.gamma1, flow.table.mass.tolist()
    rows = []
    for n in range(flow.horizon + 1):
        direct = gamma1[n]
        worst = 0.0
        for p in range(n + 1):
            worst = max(worst, abs(mass[p][n] - direct) / max(abs(direct), 1e-300))
        rows.append(CheckRow.compare("oracle-mass-identity", f"n={n}", worst, rel_tol))
    return VerifyReport(rows=tuple(rows), hypothesis_ok=all(r.status == "pass" for r in rows))


def verify_bounds(cfg: ExperimentConfig) -> VerifyReport:
    """Config-driven verification suite; dispatches on the algorithm kind.

    Classic configs get the oracle identity, the semigroup lemmas and
    :func:`check_regime` on the ``[checks] regime``; isa configs get
    :func:`check_isa_bounds`; adaptive configs get
    :func:`~fkips.adaptive.concentration_check`'s report as it stands.
    Every check covers the whole ``[checks] y_values`` grid and runs
    ``[run] replicates`` replicates, or 2000 when the key is omitted.
    """
    checks = cfg.checks
    replicates = cfg.replicates if cfg.raw.get("run", "replicates") is not None else 2000
    if cfg.kind == "classic":
        flow = cfg.flow
        rows = list(check_oracle_identity(flow).rows)
        lemmas = check_semigroup_lemmas(flow)
        rows.append(CheckRow.compare("semigroup-lemmas", "all", lemmas.max_excess, 1e-10))
        report = check_regime(
            flow, checks.regime, checks.a, checks.g_sup, cfg.n_particles, replicates, cfg.seed,
            y_values=checks.y_values,
        )
        rows.extend(report.rows)
        return VerifyReport(rows=tuple(rows), hypothesis_ok=report.hypothesis_ok)
    if cfg.kind == "isa":
        return check_isa_bounds(
            cfg.isa, checks.epsilon_level, checks.eps_prime, cfg.n_particles, replicates,
            cfg.seed, y_values=checks.y_values,
        )
    from .adaptive import concentration_check

    return concentration_check(
        cfg.problem, cfg.adaptive_config, (cfg.n_particles,), cfg.steps, replicates, checks.a,
        checks.s_values, checks.y_values, cfg.seed,
    )


def check_isa_bounds(
    isa: IsaFlow,
    eps_level: float,
    eps_prime: float,
    n_particles: int,
    replicates: int,
    seed: int,
    *,
    y_values=(2.0,),
    beta_grid=(0.0, 0.5, 1.0, 2.0, 5.0),
) -> VerifyReport:
    """Annealing checks: invariance, mixing estimate, tail bound and the
    replicated optimizer exceedance at each confidence exponent y in
    ``y_values``, all on the built flow ``isa``."""
    from .annealing import gibbs_measure, metropolis_kernel, optimize

    problem, cert = isa.problem, isa.cert
    # invariance of the annealing kernel
    worst_inv = 0.0
    for beta in beta_grid:
        mu = gibbs_measure(problem, beta)
        pushed = mu.push(metropolis_kernel(problem, beta))
        worst_inv = max(worst_inv, float(np.abs(pushed.weights - mu.weights).max()))
    rows = [CheckRow.compare("annealing-invariance", "beta-grid", worst_inv, 1e-12)]
    # mixing estimate for the k0-fold kernel
    worst_gap = -math.inf
    for beta in beta_grid:
        kb = metropolis_kernel(problem, beta).power(cert.k0)
        exact = dobrushin(kb)
        est = cert.mixing_bound(beta)
        worst_gap = max(worst_gap, exact - est)
    rows.append(CheckRow.compare("annealing-mixing-estimate", "beta-grid", worst_gap, 1e-12))
    # Boltzmann-Gibbs tail bound; the 1e-12 rounding slack is not part of rhs
    v_min = problem.v_min
    m_prime = problem.sublevel_mass(v_min + eps_prime)
    tail_ok = True
    worst_tail = -math.inf
    for beta in beta_grid:
        mu = gibbs_measure(problem, beta)
        exact_tail = float(mu.weights[problem.v_values >= v_min + eps_level].sum())
        bound = bounds.gibbs_tail_bound(beta, eps_level, eps_prime, m_prime)
        worst_tail = max(worst_tail, exact_tail - bound)
        tail_ok &= exact_tail <= bound + 1e-12
    rows.append(
        CheckRow("gibbs-tail", "beta-grid", worst_tail, 0.0, "pass" if tail_ok else "fail")
    )
    # replicated optimizer: per-step exceedance of the composite bound
    result = optimize(
        isa, n_particles, seed, eps_level, eps_prime, y_values=y_values, replicates=replicates
    )
    exact_below = all(row.proportion_exact <= row.gibbs_term + 1e-12 for row in result.rows)
    rows.append(
        CheckRow.compare("optimizer-exact-mass", "all-steps", 0.0 if exact_below else 1.0, 0.0)
    )
    for y in y_values:
        thresholds = np.array([row.thresholds[float(y)] for row in result.rows])
        for n, column in enumerate((result.proportions > thresholds).T, start=1):
            rows.append(CheckRow.exceedance(
                "optimizer-exceedance", f"n={n},y={_fmt(y)}", column, math.exp(-y)
            ))
    return VerifyReport(rows=tuple(rows), hypothesis_ok=True)
