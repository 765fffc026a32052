"""Graph-based selective annotation: build a kNN similarity graph over an
embedding pool, partition it into balanced components, and greedily pick
max-residual-degree instances per component under an annotation budget."""

from .embeddings import load_embeddings
from .partition import partition_kway

__version__ = "0.1.0"
