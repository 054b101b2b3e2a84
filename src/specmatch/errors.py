"""Exception types shared across the package."""


class SpecmatchError(Exception):
    """Base class for all package errors.

    Every rejected input raises an ``InputError``.
    """


class NumericalError(SpecmatchError):
    """A computation failed on input that passed every check."""


class InputError(SpecmatchError, ValueError):
    """Input rejected by a check of its own, such as a file's format or a
    table's fields. Also a ``ValueError``, as any bad argument is."""


class MeshParseError(InputError):
    """Raised when a mesh file cannot be parsed.

    Carries the 1-based line number at which parsing failed.
    """

    def __init__(self, path, line, message):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {message}")


class DisconnectedGraphError(InputError):
    """The graph has more than one connected component."""

    def __init__(self, n_components):
        self.n_components = n_components
        super().__init__(
            f"graph is disconnected ({n_components} components); "
            "spectral analysis assumes a connected graph"
        )


class NonConvergenceError(NumericalError):
    """Iterative eigensolver failed to reach the requested residual tolerance."""

    def __init__(self, residuals, tol):
        self.residuals = residuals
        self.tol = tol
        super().__init__(
            f"eigensolver did not converge: worst residual {max(residuals):.3e} "
            f"exceeds tolerance {tol:.3e}"
        )


class PipelineError(SpecmatchError):
    """Wraps a module error with the pipeline stage at which it occurred."""

    def __init__(self, stage, cause):
        self.stage = stage
        self.__cause__ = cause
        super().__init__(f"stage '{stage}': {cause}")
