"""Transaction mixes (§7.1.1).

Each client issues transactions of six operations in a closed loop.
Read-only transactions contain six reads; read-write transactions
contain three reads and three writes (read-modify-write on the same
keys, which is what makes contended keys conflict). Four mixes are
defined by the ratio of read-only to read-write transactions:
Read-Only (100/0), Read-Heavy (75/25), Mixed (25/75), and
Write-Heavy (0/100); plus the single-op blind-write workload of
Figure 10(d).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.workload.ycsb import make_generator

READ_ONLY = "read-only"
READ_HEAVY = "read-heavy"
MIXED = "mixed"
WRITE_HEAVY = "write-heavy"
BLIND_WRITE = "blind-write"

#: fraction of read-only transactions per mix.
_RO_FRACTION = {
    READ_ONLY: 1.0,
    READ_HEAVY: 0.75,
    MIXED: 0.25,
    WRITE_HEAVY: 0.0,
}


@dataclass
class TxnSpec:
    """One transaction to execute.

    Either a static ``ops`` list of ``('r', key)`` / ``('w', key, value)``
    tuples, or a dynamic ``program``: a zero-argument callable returning a
    generator that *yields* such tuples and *receives* the read value
    back for every ``('r', ...)`` it yields — used by application
    workloads (Retwis) whose writes depend on what they read. On an
    abort-retry the program is instantiated afresh.
    """

    ops: List[Tuple] = field(default_factory=list)
    read_only: bool = False
    program: Optional[Callable[[], Any]] = None

    def __iter__(self):
        return iter(self.ops)


class YCSBWorkload:
    """Generates the paper's microbenchmark transactions."""

    def __init__(
        self,
        mix: str = READ_HEAVY,
        n_keys: int = 1000,
        pattern: str = "uniform",
        theta: float = 0.99,
        reads_per_rw: int = 3,
        writes_per_rw: int = 3,
        ops_per_ro: int = 6,
        read_modify_write: bool = False,
    ):
        if mix not in _RO_FRACTION and mix != BLIND_WRITE:
            raise ValueError("unknown mix %r" % mix)
        self.mix = mix
        self.n_keys = n_keys
        self.pattern = pattern
        self._gen = make_generator(pattern, n_keys, theta=theta)
        self._reads = reads_per_rw
        self._writes = writes_per_rw
        self._ro_ops = ops_per_ro
        #: False (default): reads and writes hit distinct keys, as in the
        #: paper's setup (writes are blind; lock-based stores contend on
        #: waits, not on S->X upgrades). True: write back the keys read
        #: (counter-style read-modify-write transactions).
        self.read_modify_write = read_modify_write
        self._counter = 0

    @property
    def preload(self) -> Dict[str, int]:
        """Initial database contents: every key set to 0."""
        return {_key(i): 0 for i in range(self.n_keys)}

    def _pick_keys(self, rng: random.Random, count: int) -> List[str]:
        keys: List[str] = []
        seen = set()
        while len(keys) < count:
            key = self._gen.next(rng)
            if key in seen:
                continue
            seen.add(key)
            keys.append(_key(key))
        return keys

    def next_txn(self, rng: random.Random) -> TxnSpec:
        self._counter += 1
        if self.mix == BLIND_WRITE:
            key = _key(self._gen.next(rng))
            return TxnSpec([("w", key, self._counter)], read_only=False)
        if rng.random() < _RO_FRACTION[self.mix]:
            keys = self._pick_keys(rng, self._ro_ops)
            return TxnSpec([("r", k) for k in keys], read_only=True)
        if self.read_modify_write:
            keys = self._pick_keys(rng, max(self._reads, self._writes))
            ops: List[Tuple] = [("r", k) for k in keys[: self._reads]]
            ops += [("w", k, self._counter) for k in keys[: self._writes]]
        else:
            keys = self._pick_keys(rng, self._reads + self._writes)
            ops = [("r", k) for k in keys[: self._reads]]
            ops += [("w", k, self._counter) for k in keys[self._reads :]]
        return TxnSpec(ops, read_only=False)


def _key(i: int) -> str:
    return "key%06d" % i
