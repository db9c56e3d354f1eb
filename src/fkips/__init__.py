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

Names are imported from their modules; the package binds only
``__version__``.
"""

__version__ = "0.1.0"
