"""Exception hierarchy for zenosim.

Every error raised by this package derives from ZenosimError, so callers can
catch one type at the boundary.  Validation errors carry enough context to
report what was violated and by how much.
"""


class ZenosimError(Exception):
    """Base class for all zenosim errors."""


class DimensionMismatch(ZenosimError):
    """Operands have incompatible shapes."""


class NotHermitian(ZenosimError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotUnitary(ZenosimError):
    """A matrix required to be unitary is not, beyond tolerance."""


class InvalidState(ZenosimError):
    """A state vector or density matrix fails its structural invariants."""


class InvalidParameter(ZenosimError):
    """A scalar argument is outside its admissible range."""


class ConvergenceFailure(ZenosimError):
    """A numerical routine did not converge or produced non-finite output."""


class DegenerateClustering(ZenosimError):
    """Eigenvalue gaps fall inside the ambiguity band of the clustering
    tolerance, so the grouping into spectral clusters is not well defined."""


class DegenerateKickPhases(ZenosimError):
    """A kick unitary whose eigenphases are not distinct cannot define
    distinct Zeno sectors."""


class DegenerateCouplingLevels(ZenosimError):
    """A coupling Hamiltonian whose eigenvalues are not distinct cannot
    define distinct Zeno sectors."""


class NonHermitianDensityEvolution(ZenosimError):
    """Density-matrix propagation was requested under a non-Hermitian
    generator; only state vectors are supported there."""


class IndexOutOfRange(ZenosimError):
    """A sector or block index does not exist in the given resolution."""


class SchemaViolation(ZenosimError):
    """A scenario config does not conform to the schema.

    ``violations`` is a list of (path, reason) pairs, where path is a dotted
    key path into the config document.
    """

    def __init__(self, violations: list[tuple[str, str]]):
        self.violations = list(violations)
        lines = "; ".join(f"{path}: {reason}" for path, reason in self.violations)
        super().__init__(f"config schema violations: {lines}")
