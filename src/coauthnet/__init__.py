"""coauthnet: coauthorship-network analysis toolkit.

Builds evolving coauthorship graphs from bibliographic exports, computes
degree / closeness / betweenness / PageRank centrality with deterministic
output, and reproduces growth-curve fits, degree-distribution power laws,
and centrality-vs-citation rank correlations.
"""

from .centrality import (
    MEASURES,
    CentralityVector,
    RankTable,
    betweenness_centrality,
    closeness_centrality,
    degree_centrality,
    ordinal_ranks,
    pagerank,
    rank_table,
)
from .errors import (
    CoauthNetError,
    ConfigError,
    ConvergenceError,
    DataError,
    ParseError,
)
from .evolve import (
    SliceReport,
    TimeSlice,
    cumulative_slices,
    growth_series,
    lis_growth_series,
    slice_report,
)
from .graph import (
    CoauthGraph,
    ComponentPartition,
    SummaryStats,
    build_graph,
    clustering_coefficient,
    connected_components,
    largest_component,
    mean_distance,
    shortest_path_lengths,
    summary_stats,
)
from .ingest import (
    AuthorMergeMap,
    BiblioRecord,
    apply_merge_map,
    author_citations,
    filter_documents,
    normalize_author,
    normalize_records,
    parse_records,
    serialize_records,
)
from .stats import (
    CorrelationReport,
    Histogram,
    PowerFit,
    RankingProfile,
    correlation_matrix,
    degree_distribution,
    histogram,
    power_fit,
    ranking_profile,
    spearman,
)

__version__ = "0.1.0"

__all__ = [
    "AuthorMergeMap",
    "BiblioRecord",
    "CentralityVector",
    "CoauthGraph",
    "CoauthNetError",
    "ComponentPartition",
    "ConfigError",
    "ConvergenceError",
    "CorrelationReport",
    "DataError",
    "Histogram",
    "MEASURES",
    "ParseError",
    "PowerFit",
    "RankTable",
    "RankingProfile",
    "SliceReport",
    "SummaryStats",
    "TimeSlice",
    "apply_merge_map",
    "author_citations",
    "betweenness_centrality",
    "build_graph",
    "closeness_centrality",
    "clustering_coefficient",
    "connected_components",
    "correlation_matrix",
    "cumulative_slices",
    "degree_centrality",
    "degree_distribution",
    "filter_documents",
    "growth_series",
    "histogram",
    "largest_component",
    "lis_growth_series",
    "mean_distance",
    "normalize_author",
    "normalize_records",
    "ordinal_ranks",
    "pagerank",
    "parse_records",
    "power_fit",
    "rank_table",
    "ranking_profile",
    "serialize_records",
    "shortest_path_lengths",
    "slice_report",
    "spearman",
    "summary_stats",
]
