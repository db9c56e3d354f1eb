"""Exception types shared across the package."""


class FkipsError(Exception):
    """Base class for all package errors."""


class InputError(FkipsError, ValueError):
    """Invalid argument: wrong shape, out-of-range value, dimension mismatch."""


class DegenerateMeasureError(FkipsError):
    """A reweighting step hit total mass zero (mu(G) = 0)."""


class SolverError(FkipsError):
    """The adaptive increment solver reached its iteration cap unconverged."""

    def __init__(self, step, delta: float, residual: float, iterations: int):
        where = f" at step {step}" if step is not None else ""
        super().__init__(
            f"increment solver did not converge{where} after {iterations} Newton iterations: "
            f"Delta = {delta:.17g}, |lambda(Delta) - epsilon| = {residual:.3g}"
        )
        self.step, self.delta, self.residual = step, delta, residual


class RatioOverflowError(FkipsError):
    """A composed potential underflowed below 1e-300; its ratio is not reportable."""


class BudgetExceededError(FkipsError):
    """A tuned MCMC iteration count exceeds the 2^63 budget.

    The unrounded lower bound is attached as ``raw``.
    """

    def __init__(self, raw: float, context: str = ""):
        msg = f"required iteration count {raw:.6g} exceeds 2^63"
        if context:
            msg += f" ({context})"
        super().__init__(msg)
        self.raw = raw


class NoMinorizationError(FkipsError):
    """The iterated proposal admits no common component (delta = 0)."""


class ConfigError(FkipsError):
    """Config text failed validation; ``errors`` lists field-level messages."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))
