"""coauthnet: coauthorship-network analysis toolkit.

Builds evolving coauthorship graphs from bibliographic exports, computes
degree / closeness / betweenness / PageRank centrality with deterministic
output, and reproduces growth-curve fits, degree-distribution power laws,
and centrality-vs-citation rank correlations.

Each module's ``__all__`` lists its public names; the package exports
their concatenation. The README's "Library" section states the rule that
decides which names are public.
"""

from . import centrality, errors, evolve, graph, ingest, stats
from .centrality import *
from .errors import *
from .evolve import *
from .graph import *
from .ingest import *
from .stats import *

__version__ = "0.1.0"

__all__ = [name for module in (ingest, graph, centrality, evolve, stats, errors)
           for name in module.__all__]
