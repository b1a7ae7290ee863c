import pytest

from blockeq.graph import BlockGraph, generate_block_graphs


@pytest.fixture(scope="session")
def graphs_up_to_10():
    # rebuilt from their edges, so each graph is validated and decomposed
    # by Hopcroft-Tarjan rather than read off the generator's block lists
    return [BlockGraph(g.n, g.edges()) for g, _ in generate_block_graphs(10)]


def _prefix(graphs, n_max):
    # the generator lists graphs in order of vertex count
    return [g for g in graphs if g.n <= n_max]


@pytest.fixture(scope="session")
def graphs_up_to_7(graphs_up_to_10):
    return _prefix(graphs_up_to_10, 7)


@pytest.fixture(scope="session")
def graphs_up_to_8(graphs_up_to_10):
    return _prefix(graphs_up_to_10, 8)


@pytest.fixture(scope="session")
def graphs_up_to_9(graphs_up_to_10):
    return _prefix(graphs_up_to_10, 9)
