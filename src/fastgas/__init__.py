"""Graph-based selective annotation: build a kNN similarity graph over an
embedding pool, partition it into balanced components, and greedily pick
max-residual-degree instances per component under an annotation budget."""

from .embeddings import (
    EmbeddingMatrix,
    cosine_similarity,
    generate_synthetic,
    load_embeddings,
    save_embeddings,
)
from .graph import (
    SimilarityGraph,
    build_knn_graph,
    edge_cut,
    graph_from_edges,
    induced_subgraph,
    load_graph,
)
from .partition import (
    Bisection,
    Partition,
    bfs_initial_bisect,
    multilevel_bisect,
    partition_kway,
    random_matching_coarsen,
    refine_kl,
)
from .retrieval import RetrievalPlan, retrieve_random, retrieve_similar
from .selection import (
    SelectionResult,
    brute_force_max_coverage,
    coverage_objective,
    fastgas_select,
    greedy_select,
    pagerank_select,
    random_select,
    subcluster_select,
    top_degree_select,
)

__version__ = "0.1.0"
