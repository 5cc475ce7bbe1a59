"""Square-energy workbench for finite simple graphs.

Computes the positive and negative square energies (sums of squared
positive / negative adjacency eigenvalues), checks the conjectured
floor of n - 1 for connected graphs through structural lower-bound
certificates, and reproduces exhaustive small-order surveys.

Every public name of the library modules is importable from here; each
module's ``__all__`` is the one list of its public names.
"""

from __future__ import annotations

from . import bounds, canon, enumeration, families, graphs, lemmas, partitions, spectral
from . import survey as _survey  # the survey function below takes the module's name
from .bounds import *
from .canon import *
from .enumeration import *
from .families import *
from .graphs import *
from .lemmas import *
from .partitions import *
from .spectral import *
from .survey import *

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (graphs, families, spectral, partitions, bounds, lemmas, canon, enumeration, _survey)
    for name in module.__all__
]
