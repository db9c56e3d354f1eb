"""Annealed and adaptive Feynman-Kac interacting particle systems.

Layers, bottom up:

* :mod:`fkips.measures` -- laws as (d,) arrays, kernels, stacked kernel
  powers, Dobrushin coefficients;
* :mod:`fkips.flow` -- the exact flow oracle, a flow held as its (T, d)
  potentials and (T, d, d) kernels, and composed-operator quantities;
* :mod:`fkips.bounds` -- closed-form calculators for every deviation
  constant, tuning rule and tail bound;
* :mod:`fkips.engine` -- the N-particle system as an occupation-count
  engine, with counter-based deterministic randomness;
* :mod:`fkips.annealing` -- Boltzmann-Gibbs targets, stacked Metropolis
  annealing kernels, minorization certificates, annealed flows of a
  (T+1,) inverse-temperature array, the tuned optimizer;
* :mod:`fkips.adaptive` -- adaptive temperature increments (a Newton
  solve over rows), the adaptive step rule of the count engine, and its
  perturbation/concentration verification;
* :mod:`fkips.config` -- the config grammar, parsed and validated once
  into an experiment config;
* :mod:`fkips.harness` -- replicate orchestration, bound verification,
  CSV emission (CLI in :mod:`fkips.cli`).

The annealing and adaptive names below are imported on first access, by
the module ``__getattr__``, so a classic run never loads those two modules.
Every name in ``__all__`` resolves either way.
"""

import importlib

from .measures import KernelMatrix, osc
from .flow import FlowSpec, FlowTrace, fk_step, run_flow
from .engine import run_counts

# name -> submodule of the re-exports imported on first access
_LAZY = {
    "GibbsProblem": "annealing",
    "MinorizationCert": "annealing",
    "annealed_flow": "annealing",
    "build_isa_flow": "annealing",
    "gibbs_measure": "annealing",
    "metropolis_kernels": "annealing",
    "minorize": "annealing",
    "optimize": "annealing",
    "AdaptiveConfig": "adaptive",
    "LambdaCurve": "adaptive",
    "kappa_solve": "adaptive",
    "run_adaptive_counts": "adaptive",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


__version__ = "0.1.0"

__all__ = [
    "AdaptiveConfig",
    "FlowSpec",
    "FlowTrace",
    "GibbsProblem",
    "KernelMatrix",
    "LambdaCurve",
    "MinorizationCert",
    "annealed_flow",
    "build_isa_flow",
    "fk_step",
    "gibbs_measure",
    "kappa_solve",
    "metropolis_kernels",
    "minorize",
    "optimize",
    "osc",
    "run_adaptive_counts",
    "run_counts",
    "run_flow",
]
