"""conetheta: computation and verification kernel for cone-restricted theta
sums on polarized complex tori with indefinite imaginary part.

Submodules:
  linalg   -- signatures, inverses, principal determinant square roots
  lattice  -- split bases, the theta subgroup, cone and wedge enumeration
  theta    -- theta terms, cone sums, characteristics, families and their bounds
  modular  -- group action on period matrices and bound families, contour coboundary
  heat     -- heat-operator annihilation checks
  koszul   -- exact group-ring algebra and resolution chain maps
  reduced  -- finite model of the coefficient complex with exact ranks
  cli      -- JSON-driven command line front end
"""

from .errors import ConethetaError
from .lattice import ConeSpec, ModularElement, SplitBasis
from .theta import Characteristic, ThetaValue, cone_sum, theta_term

__version__ = "0.1.0"

__all__ = [
    "Characteristic",
    "ConeSpec",
    "ConethetaError",
    "ModularElement",
    "SplitBasis",
    "ThetaValue",
    "cone_sum",
    "theta_term",
    "__version__",
]
