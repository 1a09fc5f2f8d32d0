import os
import subprocess
import sys

import pytest

from tests.history import logged_cluster

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def fresh_python():
    """``run(*args, **popen_kwargs)``: a text-mode ``Popen`` of a fresh
    interpreter that imports this checkout's ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in [env.get("PYTHONPATH")] if p])

    def run(*args, **kwargs):
        return subprocess.Popen([sys.executable, *args], env=env, text=True, **kwargs)

    return run


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
