"""Undirected coauthorship graph and structural statistics.

The graph keeps integer edge weights (number of jointly authored papers) but
every distance-based computation treats it as unweighted and simple. All
iteration happens in lexicographic vertex order, so results are deterministic
and repeated runs are byte-identical.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Mapping

from ._csvtext import csv_text, format_number
from .errors import DataError
from .ingest import BiblioRecord, _dedupe


class CoauthGraph:
    """Undirected simple graph over canonical author keys.

    Adjacency is frozen in sorted order at construction time: ``vertices()``
    and ``neighbors()`` always return lexicographically ordered lists.
    ``paper_count`` and ``authorship_count`` describe the record set a graph
    was built from; derived subgraphs reset them to 0.
    """

    __slots__ = ("_adj", "paper_count", "authorship_count")

    def __init__(
        self,
        adjacency: Mapping[str, Mapping[str, int]],
        paper_count: int = 0,
        authorship_count: int = 0,
    ):
        self._adj: dict[str, dict[str, int]] = {
            v: dict(sorted(adjacency[v].items())) for v in sorted(adjacency)
        }
        for v, nbrs in self._adj.items():
            if v in nbrs:
                raise DataError(f"self-loop on vertex {v!r}")
        self.paper_count = paper_count
        self.authorship_count = authorship_count

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[str, str] | tuple[str, str, int]],
        vertices: Iterable[str] = (),
    ) -> "CoauthGraph":
        """Build a graph from (a, b) or (a, b, weight) tuples plus optional
        isolated vertices. Repeated pairs accumulate weight."""
        adj: dict[str, dict[str, int]] = {v: {} for v in vertices}
        for edge in edges:
            a, b = edge[0], edge[1]
            w = edge[2] if len(edge) == 3 else 1
            if a == b:
                raise DataError(f"self-loop on vertex {a!r}")
            adj.setdefault(a, {})
            adj.setdefault(b, {})
            adj[a][b] = adj[a].get(b, 0) + w
            adj[b][a] = adj[b].get(a, 0) + w
        return cls(adj)

    def __len__(self) -> int:
        return len(self._adj)

    def __contains__(self, vertex: str) -> bool:
        return vertex in self._adj

    def vertices(self) -> list[str]:
        return list(self._adj)

    def neighbors(self, vertex: str) -> list[str]:
        return list(self._adj[vertex])

    def degree(self, vertex: str) -> int:
        return len(self._adj[vertex])

    def weight(self, a: str, b: str) -> int:
        """Edge weight between a and b, 0 when not adjacent."""
        return self._adj.get(a, {}).get(b, 0)

    def edge_count(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def edges(self) -> Iterator[tuple[str, str, int]]:
        """Yield (a, b, weight) with a < b, in sorted order."""
        for a, nbrs in self._adj.items():
            for b, w in nbrs.items():
                if a < b:
                    yield a, b, w

    def induced(self, keep: Iterable[str]) -> "CoauthGraph":
        """Vertex-induced subgraph. Paper counters are not carried over."""
        kept = set(keep)
        unknown = kept - self._adj.keys()
        if unknown:
            raise DataError(f"unknown vertices in induced(): {sorted(unknown)[:3]}")
        adj = {
            v: {u: w for u, w in self._adj[v].items() if u in kept}
            for v in self._adj
            if v in kept
        }
        return CoauthGraph(adj)


def build_graph(records: Iterable[BiblioRecord]) -> CoauthGraph:
    """Clique-expand records into a coauthorship graph.

    Every unordered author pair of a record gains +1 edge weight; a
    single-author record contributes an isolated vertex. Author names are
    expected normalized and merged; repeated keys within one record are
    collapsed defensively so no self-loop can arise.
    """
    adj: dict[str, dict[str, int]] = {}
    papers = 0
    authorships = 0
    for rec in records:
        papers += 1
        authors = _dedupe(rec.authors)
        authorships += len(authors)
        for author in authors:
            adj.setdefault(author, {})
        for a, b in combinations(authors, 2):
            adj[a][b] = adj[a].get(b, 0) + 1
            adj[b][a] = adj[b].get(a, 0) + 1
    return CoauthGraph(adj, paper_count=papers, authorship_count=authorships)


@dataclass(frozen=True)
class ComponentPartition:
    """Connected-component labeling.

    Component ids are assigned in decreasing size order (id 0 is the largest
    component; size ties broken by smallest member key).
    """

    assignment: dict[str, int]
    sizes: dict[int, int]


def connected_components(g: CoauthGraph) -> ComponentPartition:
    """Label connected components by flood fill over sorted vertices."""
    members: list[list[str]] = []
    seen: set[str] = set()
    for start in g.vertices():
        if start in seen:
            continue
        seen.add(start)
        component = [start]
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for u in g.neighbors(v):
                if u not in seen:
                    seen.add(u)
                    component.append(u)
                    queue.append(u)
        members.append(component)
    members.sort(key=lambda group: (-len(group), min(group)))
    assignment: dict[str, int] = {}
    sizes: dict[int, int] = {}
    for cid, group in enumerate(members):
        sizes[cid] = len(group)
        for v in group:
            assignment[v] = cid
    return ComponentPartition(assignment=assignment, sizes=sizes)


def largest_component(g: CoauthGraph) -> tuple[CoauthGraph, float]:
    """Induced subgraph of the largest component and its vertex-count ratio."""
    if len(g) == 0:
        raise DataError("largest_component: graph has no vertices")
    partition = connected_components(g)
    keep = [v for v, cid in partition.assignment.items() if cid == 0]
    return g.induced(keep), len(keep) / len(g)


def _int_view(g: CoauthGraph) -> tuple[list[str], list[list[int]]]:
    """Vertex names in sorted order and, for each index, the sorted indices
    of its neighbours. Index order is lexicographic order."""
    names = g.vertices()
    index = {v: i for i, v in enumerate(names)}
    return names, [[index[u] for u in g.neighbors(v)] for v in names]


def _bfs(adj: list[list[int]], s: int) -> tuple[list[int], list[int]]:
    """Hop distances from s over an integer adjacency list.

    Returns the vertices in BFS visiting order (s first, neighbours in
    index order) and the distance of every index, -1 when unreachable.
    This is the one shortest-path sweep behind every distance measure.
    """
    dist = [-1] * len(adj)
    dist[s] = 0
    order = [s]
    for v in order:  # order doubles as the FIFO queue
        step = dist[v] + 1
        for u in adj[v]:
            if dist[u] < 0:
                dist[u] = step
                order.append(u)
    return order, dist


def shortest_path_lengths(g: CoauthGraph, source: str) -> dict[str, int]:
    """BFS hop distances from source; unreachable vertices are absent."""
    if source not in g:
        raise DataError(f"unknown source vertex {source!r}")
    names, adj = _int_view(g)
    order, dist = _bfs(adj, names.index(source))
    return {names[v]: dist[v] for v in order}


def mean_distance(g: CoauthGraph) -> float:
    """Mean hop distance over unordered vertex pairs of the largest component.

    A connected graph is its own largest component: one search from vertex
    0 settles that, and only a disconnected graph is labeled and copied.
    """
    from . import _numeric
    names, a = _numeric.csr_view(g)
    if not names or not _numeric.connected(a):
        names, a = _numeric.csr_view(largest_component(g)[0])
    n = len(names)
    if n < 2:
        raise DataError("mean_distance: largest component has no vertex pair")
    pairs = n * (n - 1) // 2
    return (_numeric.distance_sum(a) // 2) / pairs


def clustering_coefficient(g: CoauthGraph) -> float:
    """Average local clustering over vertices of degree >= 2 (0.0 if none).

    Local coefficient of a vertex is the fraction of its neighbor pairs
    that are themselves adjacent.
    """
    locals_: list[float] = []
    for v in g.vertices():
        nbrs = g.neighbors(v)
        k = len(nbrs)
        if k < 2:
            continue
        closed = 0
        for i in range(k):
            for j in range(i + 1, k):
                if g.weight(nbrs[i], nbrs[j]) > 0:
                    closed += 1
        locals_.append(2 * closed / (k * (k - 1)))
    if not locals_:
        return 0.0
    return sum(locals_) / len(locals_)


@dataclass(frozen=True)
class SummaryStats:
    """Whole-network summary row (papers, authors, ratios, distances)."""

    papers: int
    authors: int
    papers_per_author: float
    authors_per_paper: float
    avg_collaborators: float
    largest_component_ratio: float
    mean_distance: float
    clustering_coefficient: float


def summary_stats(g: CoauthGraph) -> SummaryStats:
    """Summary statistics of a graph built from a record set.

    papers_per_author and authors_per_paper both divide the graph's
    authorship count (author-paper incidences), by authors and by papers
    respectively; avg_collaborators is the mean unweighted degree.
    """
    papers = g.paper_count
    if papers == 0:
        raise DataError("summary_stats: no papers")
    n = len(g)
    if n == 0:
        raise DataError("summary_stats: graph has no vertices")
    degree_sum = sum(g.degree(v) for v in g.vertices())
    largest, ratio = largest_component(g)
    return SummaryStats(
        papers=papers,
        authors=n,
        papers_per_author=g.authorship_count / n,
        authors_per_paper=g.authorship_count / papers,
        avg_collaborators=degree_sum / n,
        largest_component_ratio=ratio,
        mean_distance=mean_distance(largest),
        clustering_coefficient=clustering_coefficient(g),
    )


def render_summary_csv(stats: SummaryStats) -> str:
    """One-row CSV with the summary statistics."""
    header = [
        "papers",
        "authors",
        "papers_per_author",
        "authors_per_paper",
        "avg_collaborators",
        "largest_component_ratio",
        "mean_distance",
        "clustering_coefficient",
    ]
    row = [
        stats.papers,
        stats.authors,
        format_number(stats.papers_per_author),
        format_number(stats.authors_per_paper),
        format_number(stats.avg_collaborators),
        format_number(stats.largest_component_ratio),
        format_number(stats.mean_distance),
        format_number(stats.clustering_coefficient),
    ]
    return csv_text(header, [row])


def render_edge_list(g: CoauthGraph) -> str:
    """Tab-separated edge list, one ``a<TAB>b<TAB>weight`` line per edge.

    Vertices are ordered within each line and lines are sorted, so output
    is byte-for-byte deterministic.
    """
    return "".join(f"{a}\t{b}\t{w}\n" for a, b, w in g.edges())


def render_isolated_vertices(g: CoauthGraph) -> str:
    """Degree-0 vertices, one per line, sorted."""
    return "".join(f"{v}\n" for v in g.vertices() if g.degree(v) == 0)
