"""The online game store of §5.2 (Figure 4).

The store sells board games and extension packs that are only playable
with the corresponding board game. Stock is a counter per item, each
customer has a cart, and each item remembers which carts hold it. Buying
is the unmodified sequential transaction of Figure 4 (left); the merge
transaction (right) reconciles oversold items: counters merge three-way,
and when stock goes negative the application picks which carts keep the
item — here, maximizing overall cart value, with apologies (and
dependent-item removal) for the others.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.store import ClientSession, TardisStore
from repro.errors import KeyNotFound


def _stock_key(item: str) -> str:
    return "item:%s:stock" % item


def _carts_key(item: str) -> str:
    return "item:%s:carts" % item


def _cart_key(customer: str) -> str:
    return "cart:%s" % customer


def _requires_key(item: str) -> str:
    return "item:%s:requires" % item


def _apology_key(customer: str) -> str:
    return "apology:%s" % customer


class GameStore:
    """Shopping carts over TARDiS with oversell resolution at merge."""

    def __init__(self, store: TardisStore):
        self.store = store

    def _session(self, customer: str) -> ClientSession:
        return self.store.session("shop:%s" % customer)

    # -- catalogue management ------------------------------------------------

    def stock_item(self, item: str, quantity: int, requires: Optional[str] = None) -> None:
        with self.store.begin(session=self.store.session("shop:admin")) as txn:
            txn.put(_stock_key(item), quantity)
            txn.put(_carts_key(item), frozenset())
            txn.put(_requires_key(item), requires)

    # -- the Figure 4 buy transaction -----------------------------------------

    def buy(self, customer: str, item: str) -> bool:
        """Add ``item`` to the cart and decrement stock (one transaction).

        Returns False without buying when the item is out of stock on
        this branch or a required base item is missing from the cart.
        """
        with self.store.begin(session=self._session(customer)) as txn:
            stock = txn.get(_stock_key(item))
            if stock <= 0:
                return False
            required = txn.get(_requires_key(item), default=None)
            cart = txn.get(_cart_key(customer), default=())
            if required is not None and required not in cart:
                return False
            txn.put(_cart_key(customer), tuple(cart) + (item,))
            txn.put(_stock_key(item), stock - 1)
            txn.put(_carts_key(item), txn.get(_carts_key(item)) | {customer})
        return True

    def cart(self, customer: str) -> Tuple[str, ...]:
        return self.store.get(
            _cart_key(customer), default=(), session=self._session(customer)
        )

    def stock(self, item: str) -> int:
        return self.store.get(_stock_key(item), default=0)

    def apologized_to(self, customer: str) -> bool:
        return bool(self.store.get(_apology_key(customer), default=False))

    # -- the Figure 4 merge transaction -----------------------------------------

    def merge(self, cart_value: Optional[Dict[str, int]] = None) -> List[str]:
        """Reconcile branches; returns the customers who lost items.

        For every conflicting item the stock merges three-way from the
        fork point. Items oversold (merged stock < 0) are confirmed for
        the most valuable carts until the fork-point stock runs out; the
        remaining carts lose the item, any items requiring it, and get
        an apology (§5.2).
        """
        store = self.store
        merge = store.begin_merge(session=store.session("shop:merger"))
        if len(merge.read_states) < 2:
            merge.abort()
            return []
        losers: List[str] = []
        conflicts = merge.find_conflict_writes()
        forks = merge.find_fork_points()
        fork = forks[0] if forks else None
        items = sorted(
            {key.split(":")[1] for key in conflicts if key.startswith("item:")}
        )
        carts: Dict[str, Tuple[str, ...]] = {}

        def cart_of(customer: str) -> Tuple[str, ...]:
            if customer not in carts:
                values = merge.get_all(_cart_key(customer))
                flat: Tuple[str, ...] = ()
                for branch in values:
                    if len(branch) > len(flat):
                        flat = tuple(branch)
                carts[customer] = flat
            return carts[customer]

        for item in items:
            fork_stock = (
                merge.get_for_id(_stock_key(item), fork, default=0) if fork else 0
            )
            stocks = merge.get_all(_stock_key(item))
            new_stock = fork_stock + sum(s - fork_stock for s in stocks)
            holders: set = set()
            for branch_holders in merge.get_all(_carts_key(item)):
                holders |= set(branch_holders)
            if new_stock >= 0:
                merge.put(_stock_key(item), new_stock)
                merge.put(_carts_key(item), frozenset(holders))
                continue
            # Oversold: orders since the fork point, best carts first.
            fork_holders = (
                merge.get_for_id(_carts_key(item), fork, default=frozenset())
                if fork
                else frozenset()
            )
            contested = sorted(
                holders - fork_holders,
                key=lambda c: (cart_value or {}).get(c, len(cart_of(c))),
                reverse=True,
            )
            budget = fork_stock
            kept = set(fork_holders)
            for customer in contested:
                if budget > 0:
                    budget -= 1
                    kept.add(customer)
                    continue
                losers.append(customer)
                self._strip(merge, customer, item)
            merge.put(_stock_key(item), 0)
            merge.put(_carts_key(item), frozenset(kept))

        # Non-item conflicts (carts themselves): keep the longest branch
        # value unless the oversell pass already rewrote it.
        for key in conflicts:
            if key.startswith("cart:") and key not in merge.writes:
                merge.put(key, cart_of(key.split(":", 1)[1]))
        store.adopt_merge(merge.commit())
        return losers

    def _strip(self, merge, customer: str, item: str) -> None:
        """Remove ``item`` and everything requiring it from the cart."""
        values = merge.get_all(_cart_key(customer))
        cart: Tuple[str, ...] = ()
        for branch in values:
            if len(branch) > len(cart):
                cart = tuple(branch)
        removed = {item}
        changed = True
        while changed:
            changed = False
            for other in cart:
                if other in removed:
                    continue
                requirement = merge.get(_requires_key(other), default=None)
                if requirement in removed:
                    removed.add(other)
                    changed = True
        merge.put(_cart_key(customer), tuple(i for i in cart if i not in removed))
        merge.put(_apology_key(customer), True)
