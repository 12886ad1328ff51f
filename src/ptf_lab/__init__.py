"""Query-efficient perfect labeling of univariate polynomial threshold
functions, with derivative-sign oracles, three learners, random-instance
distributions, and exact non-inferability witnesses."""

from .polynomial import (
    DuplicateRoots,
    Polynomial,
    from_roots,
    sign_of,
)
from .oracle import DisallowedOrder, Oracle
from .instances import Instance, true_labels
from .distributions import EXACT, FLOAT, RootModel, Seed, random_instance, uniform_points

__version__ = "0.1.0"

__all__ = [
    "EXACT",
    "FLOAT",
    "DuplicateRoots",
    "Polynomial",
    "from_roots",
    "sign_of",
    "DisallowedOrder",
    "Oracle",
    "Instance",
    "true_labels",
    "RootModel",
    "Seed",
    "random_instance",
    "uniform_points",
    "__version__",
]
