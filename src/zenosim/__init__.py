"""zenosim: quantum Zeno dynamics from three directions.

Frequent projective measurements, frequent unitary kicks, and strong
continuous coupling all freeze a quantum system into the same invariant
sectors, with intra-sector dynamics generated by the same pinched (Zeno)
Hamiltonian.  This package implements all three drives on small dense
models, the exact limit they share, and the measurements that demonstrate
the convergence.
"""

from .analysis import *
from .config import MODEL_REGISTRY, ScenarioConfig, parse_config
from .engines import *
from .errors import *
from .linalg import eigh, expm, frobenius, opnorm, propagator
from .models import *
from .spectral import *

__version__ = "0.1.0"
