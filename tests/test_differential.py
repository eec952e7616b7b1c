"""Mid-scale differential tier: distance-based measures against networkx.

Seeded coauthorship-like graphs of a few hundred vertices, one connected
and one with several components, are scored by coauthnet and by networkx
as an independent implementation.
"""

from __future__ import annotations

from random import Random

import pytest

from coauthnet import betweenness_centrality, closeness_centrality, mean_distance
from oracles import random_coauthor_graph

nx = pytest.importorskip("networkx")

GRAPHS = {
    "connected": random_coauthor_graph(Random(2010), (520,)),
    "components": random_coauthor_graph(Random(2011), (230, 120, 60, 25, 3, 1)),
}


@pytest.fixture(scope="module", params=sorted(GRAPHS))
def pair(request):
    g = GRAPHS[request.param]
    h = nx.Graph()
    h.add_nodes_from(g.vertices())
    h.add_edges_from((a, b) for a, b, _ in g.edges())
    return g, h


def test_closeness_matches_harmonic_centrality(pair):
    g, h = pair
    assert closeness_centrality(g).scores == pytest.approx(
        nx.harmonic_centrality(h), rel=1e-12
    )


def test_betweenness_matches_unnormalized_networkx(pair):
    g, h = pair
    expected = nx.betweenness_centrality(h, normalized=False)
    assert max(expected.values()) > 0.0
    assert betweenness_centrality(g).scores == pytest.approx(expected, rel=1e-12)


def test_mean_distance_matches_networkx_on_largest_component(pair):
    g, h = pair
    lcc = h.subgraph(max(nx.connected_components(h), key=len))
    assert mean_distance(g) == pytest.approx(
        nx.average_shortest_path_length(lcc), rel=1e-12
    )
