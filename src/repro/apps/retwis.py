"""Retwis, the paper's Twitter clone (§7.2.2, Figure 14c-d).

Users create accounts, follow each other, post, and read their own
timeline (the 50 most recent posts of their own and followed users).
Posting pushes the new post id onto every follower's timeline — the
main source of contention. Retwis tolerates weak consistency: posts
must not be misattributed and must stay in causal order, but small
visibility delays are fine, which makes it a natural fit for
branch-on-conflict plus a periodic merge that unions timelines.

Two entry points:

* :class:`RetwisApp` — the application proper, over a
  :class:`~repro.core.store.TardisStore` (used by the example and
  tests, including the cross-site merge path);
* :class:`RetwisWorkload` — the closed-loop benchmark driver producing
  dynamic transaction programs for the simulation (runs against TARDiS,
  2PL, and OCC through the common adapters).
"""

from __future__ import annotations

import itertools
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.store import ClientSession, TardisStore
from repro.workload.mixes import TxnSpec

TIMELINE_CAP = 50

READ_ONLY = "read-only"
READ_HEAVY = "read-heavy"
POST_HEAVY = "post-heavy"

#: (read, follow, post) fractions per mix (§7.2.2).
MIX_RATIOS = {
    READ_ONLY: (1.0, 0.0, 0.0),
    READ_HEAVY: (0.85, 0.05, 0.10),
    POST_HEAVY: (0.65, 0.05, 0.30),
}


def followers_key(user: str) -> str:
    return "user:%s:followers" % user


def following_key(user: str) -> str:
    return "user:%s:following" % user


def posts_key(user: str) -> str:
    return "user:%s:posts" % user


def timeline_key(user: str) -> str:
    return "timeline:%s" % user


def post_key(post_id: Tuple) -> str:
    return "post:" + ":".join(str(part) for part in post_id)


def _push(timeline: Sequence, post_id: Tuple) -> Tuple:
    """Prepend a post id, newest first, capped at TIMELINE_CAP."""
    return tuple([post_id] + list(timeline))[:TIMELINE_CAP]


def _merge_timelines(branches: List[Sequence]) -> Tuple:
    """Union of branch timelines, newest-first by post id, capped."""
    seen = set()
    merged = []
    for post_id in sorted(
        (pid for branch in branches for pid in branch), reverse=True
    ):
        if post_id not in seen:
            seen.add(post_id)
            merged.append(post_id)
    return tuple(merged[:TIMELINE_CAP])


class RetwisApp:
    """Retwis on TARDiS: unmodified sequential logic plus one resolver."""

    def __init__(self, store: TardisStore):
        self.store = store
        self._post_seq = itertools.count(1)

    def _session(self, user: str) -> ClientSession:
        return self.store.session("retwis:%s" % user)

    def create_account(self, user: str) -> None:
        with self.store.begin(session=self._session(user)) as txn:
            if txn.get(followers_key(user), default=None) is not None:
                raise ValueError("user %r already exists" % user)
            txn.put(followers_key(user), frozenset())
            txn.put(following_key(user), frozenset())
            txn.put(posts_key(user), ())
            txn.put(timeline_key(user), ())

    def follow(self, user: str, target: str) -> None:
        with self.store.begin(session=self._session(user)) as txn:
            txn.put(
                following_key(user),
                txn.get(following_key(user), default=frozenset()) | {target},
            )
            txn.put(
                followers_key(target),
                txn.get(followers_key(target), default=frozenset()) | {user},
            )

    def post(self, user: str, content: str) -> Tuple:
        # The site is part of the id so posts never collide across
        # replicas (ids must be globally unique for timeline merging).
        post_id = (next(self._post_seq), self.store.site, user)
        with self.store.begin(session=self._session(user)) as txn:
            txn.put(post_key(post_id), (user, content))
            txn.put(posts_key(user), _push(txn.get(posts_key(user), default=()), post_id))
            audience = txn.get(followers_key(user), default=frozenset()) | {user}
            for follower in sorted(audience):
                txn.put(
                    timeline_key(follower),
                    _push(txn.get(timeline_key(follower), default=()), post_id),
                )
        return post_id

    def read_own_timeline(self, user: str, limit: int = TIMELINE_CAP) -> List[Tuple[str, str]]:
        """The user's timeline as (author, content) pairs, newest first."""
        txn = self.store.begin(session=self._session(user), read_only=True)
        timeline = txn.get(timeline_key(user), default=())
        posts = [
            txn.get(post_key(pid), default=None) for pid in timeline[:limit]
        ]
        txn.commit()
        return [p for p in posts if p is not None]

    def merge_branches(self) -> int:
        """Reconcile divergent branches; returns resolved key count.

        The paper's Retwis resolver: duplicate posts are deduplicated and
        timelines merged preserving post order (§7.2.2).
        """
        merge = self.store.begin_merge(session=self.store.session("retwis:merger"))
        if len(merge.read_states) < 2:
            merge.abort()
            return 0
        conflicts = merge.find_conflict_writes()
        retwis_merge_resolver(merge, conflicts)
        # Clients adopt the merged branch.
        self.store.adopt_merge(merge.commit())
        return len(conflicts)


def retwis_merge_resolver(merge, conflicts) -> None:
    """Merge-mode resolution for every Retwis key family."""
    for key in conflicts:
        branches = merge.get_all(key)
        if not branches:
            continue
        if key.startswith("timeline:") or key.startswith("user:") and key.endswith(":posts"):
            merge.put(key, _merge_timelines(branches))
        elif key.startswith("user:"):
            union = frozenset().union(*branches)
            merge.put(key, union)
        else:
            # Post bodies are immutable; any branch's copy is fine.
            merge.put(key, branches[0])


class RetwisWorkload:
    """Benchmark driver: dynamic transaction programs per Retwis op.

    The follower graph is preloaded with a skewed in-degree (a few
    popular users), which is what makes posting contended. The same
    programs run against every system through the adapters.
    """

    def __init__(
        self,
        mix: str = READ_HEAVY,
        n_users: int = 100,
        follows_per_user: int = 10,
        posts_read: int = 10,
        graph_seed: int = 42,
    ):
        if mix not in MIX_RATIOS:
            raise ValueError("unknown Retwis mix %r" % mix)
        self.mix = mix
        self.n_users = n_users
        self.posts_read = posts_read
        self._users = ["u%04d" % i for i in range(n_users)]
        rng = random.Random(graph_seed)
        self._followers: Dict[str, set] = {u: set() for u in self._users}
        self._following: Dict[str, set] = {u: set() for u in self._users}
        for user in self._users:
            for _ in range(follows_per_user):
                # Quadratic skew: low-index users are popular.
                target = self._users[int(rng.random() ** 2 * n_users)]
                if target != user:
                    self._following[user].add(target)
                    self._followers[target].add(user)
        self._post_seq = itertools.count(1)

    @property
    def preload(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {}
        for user in self._users:
            data[followers_key(user)] = frozenset(self._followers[user])
            data[following_key(user)] = frozenset(self._following[user])
            data[posts_key(user)] = ()
            data[timeline_key(user)] = ()
        return data

    def next_txn(self, rng: random.Random) -> TxnSpec:
        read_frac, follow_frac, _post_frac = MIX_RATIOS[self.mix]
        user = rng.choice(self._users)
        roll = rng.random()
        if roll < read_frac:
            return TxnSpec(
                program=lambda: self._read_timeline_program(user),
                read_only=True,
            )
        if roll < read_frac + follow_frac:
            target = rng.choice(self._users)
            return TxnSpec(program=lambda: self._follow_program(user, target))
        post_id = (next(self._post_seq), user)
        return TxnSpec(program=lambda: self._post_program(user, post_id))

    def _read_timeline_program(self, user: str):
        timeline = yield ("r", timeline_key(user))
        for post_id in (timeline or ())[: self.posts_read]:
            yield ("r", post_key(post_id))

    def _follow_program(self, user: str, target: str):
        following = yield ("r", following_key(user))
        yield ("w", following_key(user), (following or frozenset()) | {target})
        followers = yield ("r", followers_key(target))
        yield ("w", followers_key(target), (followers or frozenset()) | {user})

    def _post_program(self, user: str, post_id: Tuple):
        yield ("w", post_key(post_id), (user, "content-%s-%s" % post_id))
        posts = yield ("r", posts_key(user))
        yield ("w", posts_key(user), _push(posts or (), post_id))
        followers = yield ("r", followers_key(user))
        for follower in sorted((followers or frozenset()) | {user}):
            timeline = yield ("r", timeline_key(follower))
            yield ("w", timeline_key(follower), _push(timeline or (), post_id))
