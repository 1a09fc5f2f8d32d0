"""Multi-master asynchronous replication (§6.4).

Each site runs a full TARDiS store; a per-site Replicator gossips
committed transactions to every peer. A replicated transaction carries
the StateID of the state it must be applied under, which reduces remote
dependency checking to a constant-time presence test; transactions whose
parent has not arrived yet are cached and applied later (§6.4).

Garbage collection across sites runs either *pessimistically* (a state
is collected only once every replica has applied it) or
*optimistically* (sites collect independently and refetch from a peer
when they turn out to need a state they dropped).
"""

from repro.replication.network import SimNetwork
from repro.replication.replicator import Replicator
from repro.replication.cluster import Cluster, run_replicated_workload

__all__ = [
    "SimNetwork",
    "Replicator",
    "Cluster",
    "run_replicated_workload",
]
