"""Data partitioning within a datacenter (the §6.4 extension).

The paper's prototype stores a full copy of the database at every site
but sketches the extension: "executing distributed transactions within
a datacenter (with the State DAG collocated with the transaction
manager) and replicating transactions asynchronously across
datacenters", following COPS.

This package implements that sketch at two levels. A
:class:`ShardRouter` (consistent-hash ring with virtual nodes) decides
key placement; a :class:`ShardedRecordStore` fans record operations out
to N shards that live either in-process or in worker processes, behind
one link interface. A ``TardisStore(site, shards=N[, shard_workers=M])``
is then one datacenter: a single transaction manager owns the
consistency layer (State DAG, constraint engine, sessions — unchanged),
while records are partitioned across the shards. Transactions therefore
span shards but serialize their begin/commit decisions through the
collocated DAG, exactly as the paper proposes; cross-datacenter
replication is unchanged (the replicator speaks state ids, not shards).
"""

from repro.partitioning.router import ShardRouter, stable_key_bytes
from repro.partitioning.workers import ShardedRecordStore

__all__ = ["ShardRouter", "ShardedRecordStore", "stable_key_bytes"]
