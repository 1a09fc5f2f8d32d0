import pytest

from tests.history import logged_cluster


@pytest.fixture
def cluster_at(tmp_path):
    """``make(n_sites, **kwargs)``: a logged cluster, closed at teardown."""
    clusters = []

    def make(n_sites=2, **kwargs):
        cluster = logged_cluster(str(tmp_path / "wal"), n_sites, **kwargs)
        clusters.append(cluster)
        return cluster

    yield make
    for cluster in clusters:
        for store in cluster.stores.values():
            store.close()
