"""Exception taxonomy shared across the toolkit.

CLI exit codes: ValidationError/ContractError -> 1, DataError -> 2.
"""


class ContractError(Exception):
    """A precondition of an operation was violated by the caller."""


class ShapeError(ContractError):
    """Operand dimensions are incompatible."""


class DataError(Exception):
    """Input data is malformed: bad files, non-finite values, mismatched headers."""


class DivergenceError(DataError):
    """Training produced a non-finite loss or non-finite parameters at Adam
    update ``step`` (1-based; ``epoch`` and the run's ``seed`` when known)."""

    def __init__(self, step: int, what: str = "parameters", epoch=None, seed=None):
        self.step, self.what, self.epoch, self.seed = step, what, epoch, seed
        where = f"Adam step {step}" + (f" (epoch {epoch})" if epoch is not None else "")
        run = f" of the run with seed {seed}" if seed is not None else ""
        super().__init__(f"training diverged: non-finite {what} at {where}{run}")


class ValidationError(Exception):
    """A config or CLI argument failed validation; message names the field."""
