import pytest

from blockeq import oracle


@pytest.fixture(scope="session")
def graphs_up_to_7():
    return list(oracle.enumerate_block_graphs(7))


@pytest.fixture(scope="session")
def graphs_up_to_8():
    return list(oracle.enumerate_block_graphs(8))


@pytest.fixture(scope="session")
def graphs_up_to_9():
    return list(oracle.enumerate_block_graphs(9))


@pytest.fixture(scope="session")
def graphs_up_to_10():
    return list(oracle.enumerate_block_graphs(10))
