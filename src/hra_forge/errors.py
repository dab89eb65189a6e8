"""Exception taxonomy shared across the library and the CLI.

The CLI maps InputError and OSError (an output it cannot write) to exit 2
and NumericalError to 4. Anything else is a programming error and escapes.
"""


class HraForgeError(Exception):
    """Base class for all errors raised by this package."""


class InputError(HraForgeError):
    """Malformed or out-of-contract user input (files, flags, labels)."""


class UnknownLevelError(InputError):
    """A multiplier lookup named a level that the table does not define."""

    def __init__(self, table_name: str, label: str):
        self.table_name = table_name
        self.label = label
        super().__init__(f"unknown level {label!r} in multiplier table {table_name}")


class NumericalError(HraForgeError):
    """A numerical procedure failed (divergence, rank deficiency, overflow)."""


class TrainingDivergedError(NumericalError):
    """Training produced a non-finite loss; carries the offending epoch."""

    def __init__(self, epoch: int, seed: int):
        self.epoch = epoch
        self.seed = seed
        super().__init__(f"training diverged at epoch {epoch} (seed {seed})")


class RankDeficientError(NumericalError):
    """The model matrix is rank deficient; names the collinear terms."""

    def __init__(self, terms):
        self.terms = tuple(terms)
        names = ", ".join(str(t) for t in self.terms) or "<unidentified>"
        super().__init__(f"model matrix is rank deficient; collinear terms: {names}")


class PipelineAbortedError(NumericalError):
    """A screening iteration failed; carries the completed iterations."""

    def __init__(self, iteration: int, cause: NumericalError, completed):
        self.iteration = iteration
        self.cause = cause
        self.completed = tuple(completed)
        super().__init__(f"pipeline aborted in iteration {iteration}: {cause}")
