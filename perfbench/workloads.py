"""Seeded workloads for the fkips benchmark, with their correctness gates.

Each workload is one CLI subcommand plus config text built only from the
benchmark seed: the program under test receives nothing but that text.
The gate of a workload checks the law of the outputs, never pinned bytes,
so an engine that is equal in law passes it unchanged.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass
from typing import Callable

# Uniform-regime construction for the classic flows: every potential has
# max/min ratio exactly e^0.5 and every kernel has Dobrushin coefficient
# MIX, which is below a / (a + g_sup) = 0.2327 at a = 0.5.
A = 0.5
G_SUP = math.exp(0.5)
MIX = 0.2
assert MIX < A / (A + G_SUP)

# A per-step mean further than this many standard errors from its exact
# value fails the gate.  At N = 1000 and R = 200 the worst of about a
# hundred comparisons sits near z = 3.
Z_MAX = 5.0


class Refused(Exception):
    """The program refused a check (hypothesis unmet): the seed would
    silently measure less work, so it is refused rather than measured."""


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _vector(xs) -> str:
    return " ".join(_fmt(x) for x in xs)


def _matrix(rows) -> str:
    return "; ".join(_vector(r) for r in rows)


def _stochastic(rng: random.Random, d: int) -> list:
    w = [rng.random() + 0.05 for _ in range(d)]
    s = sum(w)
    return [x / s for x in w]


def _uniform_regime_flow(rng: random.Random, d: int, steps: int) -> str:
    """[flow] section meeting the uniform-regime hypothesis by construction.

    Kernels are ``(1 - MIX) * rank-one + MIX * permutation``, so any two
    rows differ by exactly MIX in total variation.  The permutation part
    carries the selected law into the next step undamped; with a random
    stochastic part instead, even dropping selection altogether stays
    within the gate's standard errors.
    """
    pots, kernels = [], []
    for _ in range(steps):
        u = [rng.random() for _ in range(d)]
        lo, hi = min(u), max(u)
        pots.append([1.0 + (G_SUP - 1.0) * (x - lo) / (hi - lo) for x in u])
        base = _stochastic(rng, d)
        perm = rng.sample(range(d), d)
        for x in range(d):
            row = [(1.0 - MIX) * b for b in base]
            row[perm[x]] += MIX
            kernels.append(row)
    return (
        "[flow]\n"
        "initial = uniform\n"
        f"potentials = {_matrix(pots)}\n"
        f"kernels = {_matrix(kernels)}\n"
    )


def _run_section(rng, n_particles, steps, replicates, extra="") -> str:
    return (
        "[run]\n"
        f"n_particles = {n_particles}\n"
        f"steps = {steps}\n"
        f"replicates = {replicates}\n"
        f"seed = {rng.getrandbits(32)}\n"
        "threads = 1\n" + extra
    )


# ---------------------------------------------------------------------------
# Reading outputs
# ---------------------------------------------------------------------------


def _rows(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _z(mean: float, se: float, exact: float) -> float:
    if se == 0.0:
        return 0.0 if abs(mean - exact) <= 1e-12 else math.inf
    return abs(mean - exact) / se


def _stats(out: str) -> dict:
    """(step, statistic) -> (mean, se) from stats.csv."""
    return {
        (int(r["step"]), r["statistic"]): (float(r["mean"]), float(r["se"]))
        for r in _rows(os.path.join(out, "stats.csv"))
    }


def _check_raw_rows(out: str, sizes: dict) -> list:
    n = len(_rows(os.path.join(out, "raw.csv")))
    want = sizes["R"] * (sizes["T"] + 1)
    return [] if n == want else [f"raw.csv has {n} rows, expected {want}"]


def _gate_classic_run(out: str, sizes: dict) -> list:
    errors = _check_raw_rows(out, sizes)
    stats = _stats(out)
    worst = (0.0, "none")
    for row in _rows(os.path.join(out, "oracle.csv")):
        step = int(row["step"])
        exact = {"log_gamma1": float(row["log_gamma1"])}
        exact.update(
            (k.replace("exact_", ""), float(v)) for k, v in row.items() if k.startswith("exact_est_")
        )
        for name, value in exact.items():
            mean, se = stats[(step, name)]
            z = _z(mean, se, value)
            worst = max(worst, (z, f"{name} at step {step}"))
    if worst[0] > Z_MAX:
        errors.append(f"stats.csv mean of {worst[1]} is {worst[0]:.2f} se from oracle.csv")
    return errors


def _gate_adaptive_run(out: str, sizes: dict, epsilon: float) -> list:
    errors = _check_raw_rows(out, sizes)
    stats = _stats(out)
    worst = (0.0, 0)
    for step in range(1, sizes["T"] + 1):
        mean, se = stats[(step, "kept_fraction")]
        worst = max(worst, (_z(mean, se, epsilon), step))
    if worst[0] > Z_MAX:
        errors.append(f"kept_fraction at step {worst[1]} is {worst[0]:.2f} se from epsilon")
    return errors


def _gate_verify(out: str, expected_rows: int) -> list:
    rows = _rows(os.path.join(out, "verify.csv"))
    refusals = [f"{r['check']}[{r['scope']}]" for r in rows if r["status"] == "hypothesis-unmet"]
    if refusals:
        raise Refused("hypothesis unmet: " + ", ".join(refusals[:5]))
    errors = []
    if len(rows) != expected_rows:
        errors.append(f"verify.csv has {len(rows)} rows, expected {expected_rows}")
    bad = [f"{r['check']}[{r['scope']}]={r['status']}" for r in rows if r["status"] != "pass"]
    if bad:
        errors.append("verify.csv rows not passing: " + ", ".join(bad[:5]))
    return errors


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # fkips subcommand
    sizes: dict             # R replicates, N particles, T horizon, d states
    outputs: tuple          # files every successful invocation writes
    make_config: Callable[[random.Random], str]
    gate: Callable[[str], list]   # output dir -> list of failure messages

    def config(self, seed: int) -> str:
        return self.make_config(random.Random(f"{self.name}:{seed}"))

    @property
    def particle_steps(self) -> int:
        s = self.sizes
        return s["R"] * s["N"] * s["T"]


CLASSIC = {"R": 200, "N": 1000, "T": 24, "d": 8}
ADAPTIVE = {"R": 200, "N": 1000, "T": 24, "d": 6}
ADAPTIVE_EPSILON = 0.75
ISA = {"R": 100, "N": 1000, "T": 24, "d": 8}
EXACT = {"R": 50, "N": 200, "T": 40, "d": 64}
ISA_ROWS = 4 + ISA["T"]
# oracle identity (T+1), semigroup lemmas, hypothesis, composed caps,
# L2 (T+1), eta deviation (T per y) and both mass-ratio signs (2T per y)
EXACT_ROWS = 2 * (EXACT["T"] + 1) + 3 + 3 * EXACT["T"]


def _classic_run_config(rng):
    s = CLASSIC
    return (
        _uniform_regime_flow(rng, s["d"], s["T"])
        + "\n[algorithm]\nkind = classic\n\n"
        + _run_section(rng, s["N"], s["T"], s["R"], "eps_mode = auto\n")
    )


def _adaptive_run_config(rng):
    s = ADAPTIVE
    # strictly positive energies with fixed range [0.1, 1]
    v = [0.1, 1.0] + [rng.uniform(0.1, 1.0) for _ in range(s["d"] - 2)]
    rng.shuffle(v)
    return (
        f"[problem]\ndim = {s['d']}\nv = {_vector(v)}\nm = uniform\nproposal = uniform\n\n"
        "[algorithm]\nkind = adaptive\n\n"
        f"[adaptive]\nepsilon = {ADAPTIVE_EPSILON}\nmutation = theoretical\nmcmc_iters = 3\n\n"
        + _run_section(rng, s["N"], s["T"], s["R"])
    )


def _isa_verify_config(rng):
    s = ISA
    # double well on a ring: global minimum 0 and barriers 1 are fixed, so
    # osc(V) and the tuned iteration counts barely move with the seed
    shoulder = lambda: rng.uniform(0.55, 0.65)
    well = [0.0, shoulder(), 1.0, shoulder(), rng.uniform(0.05, 0.15), shoulder(), 1.0, shoulder()]
    turn = rng.randrange(s["d"])
    v = well[turn:] + well[:turn]
    return (
        f"[problem]\ndim = {s['d']}\nv = {_vector(v)}\nm = uniform\nproposal = lazy-ring 0.5\n\n"
        "[algorithm]\nkind = isa\n\n"
        "[schedule]\nmode = constant\nbeta0 = 0.0\ndelta = 0.5\n"
        f"steps = {s['T']}\na = 0.5\nk0 = 4\n\n"
        + _run_section(rng, s["N"], s["T"], s["R"])
        + "\n[checks]\nepsilon_level = 0.5\neps_prime = 0.25\ny_values = 2\n"
    )


def _exact_verify_config(rng):
    s = EXACT
    return (
        _uniform_regime_flow(rng, s["d"], s["T"])
        + "\n[algorithm]\nkind = classic\n\n"
        + _run_section(rng, s["N"], s["T"], s["R"])
        + f"\n[checks]\nregime = bounded\na = {A}\ng_sup = {_fmt(G_SUP)}\ny_values = 2\n"
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "classic-run",
            "run",
            CLASSIC,
            ("raw.csv", "stats.csv", "oracle.csv"),
            _classic_run_config,
            lambda out: _gate_classic_run(out, CLASSIC),
        ),
        Workload(
            "adaptive-run",
            "adaptive",
            ADAPTIVE,
            ("raw.csv", "stats.csv"),
            _adaptive_run_config,
            lambda out: _gate_adaptive_run(out, ADAPTIVE, ADAPTIVE_EPSILON),
        ),
        Workload(
            "isa-verify",
            "verify-bounds",
            ISA,
            ("verify.csv",),
            _isa_verify_config,
            lambda out: _gate_verify(out, ISA_ROWS),
        ),
        Workload(
            "exact-verify",
            "verify-bounds",
            EXACT,
            ("verify.csv",),
            _exact_verify_config,
            lambda out: _gate_verify(out, EXACT_ROWS),
        ),
    )
}
