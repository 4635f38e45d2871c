"""zenosim: quantum Zeno dynamics from three directions.

Frequent projective measurements, frequent unitary kicks, and strong
continuous coupling all freeze a quantum system into the same invariant
sectors, with intra-sector dynamics generated by the same pinched (Zeno)
Hamiltonian.  This package implements all three drives on small dense
models, the exact limit they share, and the measurements that demonstrate
the convergence.
"""

from .analysis import (
    ConvergenceCurve,
    DecayProtectionResult,
    ObservableSeries,
    coherence_block_norm,
    convergence_curve,
    decay_protection_sweep,
    observables,
    projective_convergence_curve,
    purity,
    subspace_probabilities,
)
from .config import MODEL_REGISTRY, ScenarioConfig, parse_config
from .engines import (
    EvolutionRecord,
    asymptotic_continuous_propagator,
    asymptotic_kicked_propagator,
    continuous_propagator,
    evolve_continuous,
    evolve_kicked,
    evolve_projective,
    evolve_zeno_limit,
    extracted_continuous_limit,
    extracted_kick_limit,
    kicked_propagator,
    projective_survival,
    zeno_propagators,
)
from .errors import (
    ConvergenceFailure,
    DegenerateClustering,
    DegenerateCouplingLevels,
    DegenerateKickPhases,
    DimensionMismatch,
    IndexOutOfRange,
    InvalidParameter,
    InvalidState,
    NonHermitianDensityEvolution,
    NotHermitian,
    NotUnitary,
    SchemaViolation,
    ZenosimError,
)
from .linalg import eigh, expm, frobenius, opnorm, propagator
from .models import (
    ModelBundle,
    decay_model,
    four_level_continuous,
    four_level_kicked,
    simplified_continuous,
    simplified_kicked,
    three_level_projective,
)
from .spectral import (
    ResolutionOfIdentity,
    pinch,
    projections_of_hermitian,
    projections_of_unitary,
    zeno_hamiltonian,
)

__version__ = "0.1.0"
