"""Strict weak orders over finite outcome sets and derived machinery.

Preferences are stored as rank functions (higher rank = more preferred),
which makes the incomparability classes explicit and guarantees the order
axioms by construction.  Raw relations enter only through ``check_swo``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Iterable, Mapping

from .arena import skey
from .errors import (
    InvalidInputError,
    LinearityRequired,
    OrderViolation,
    OutOfRangeError,
    PatternPresentError,
)


@dataclass(frozen=True, eq=False)
class StrictWeakOrder:
    """Ranked preference over a finite outcome set; higher rank wins."""

    outcomes: tuple
    ranks: Mapping

    def lt(self, x, y) -> bool:
        """True when ``x`` is strictly worse than ``y``."""
        return self.ranks[x] < self.ranks[y]

    def rank_of(self, o) -> int:
        return self.ranks[o]

    def classes(self) -> tuple:
        """Incomparability classes from worst to best."""
        by_rank: dict = {}
        for o, r in self.ranks.items():
            by_rank.setdefault(r, set()).add(o)
        return tuple(frozenset(by_rank[r]) for r in sorted(by_rank))

    def class_of(self, o) -> frozenset:
        r = self.ranks[o]
        return frozenset(x for x in self.outcomes if self.ranks[x] == r)

    def representative(self, rank: int):
        """Canonical (lowest-key) member of the class at ``rank``."""
        members = [o for o in self.outcomes if self.ranks[o] == rank]
        if not members:
            raise InvalidInputError(f"no outcome has rank {rank}")
        return min(members, key=skey)

    def num_classes(self) -> int:
        return len(set(self.ranks.values()))

    def is_linear(self) -> bool:
        return self.num_classes() == len(self.outcomes)

    def inverse(self) -> "StrictWeakOrder":
        top = self.num_classes() - 1
        return StrictWeakOrder(self.outcomes, {o: top - r for o, r in self.ranks.items()})


def order_from_groups(groups: Iterable[Iterable]) -> StrictWeakOrder:
    """Build an order from rank groups listed worst to best."""
    ranks = {}
    outcomes = []
    for r, group in enumerate(groups):
        members = list(group)
        if not members:
            raise InvalidInputError("empty rank group")
        for o in members:
            if o in ranks:
                raise InvalidInputError(f"outcome {o!r} appears in two groups")
            ranks[o] = r
            outcomes.append(o)
    if not outcomes:
        raise InvalidInputError("order needs at least one outcome")
    return StrictWeakOrder(tuple(outcomes), ranks)


def linear_order(chain: Iterable) -> StrictWeakOrder:
    """Linear order from a worst-to-best chain."""
    return order_from_groups([[o] for o in chain])


def check_swo(outcomes: Iterable, pairs: Iterable) -> StrictWeakOrder:
    """Accept a raw relation iff it is a strict weak order.

    ``pairs`` holds the related couples ``(x, y)`` meaning ``x < y``.
    Raises ``OrderViolation`` with a witness triple on the first failed
    axiom (irreflexivity, then transitivity, then negative transitivity);
    otherwise returns the rank representation.
    """
    os = tuple(outcomes)
    if len(set(os)) != len(os):
        raise InvalidInputError("duplicate outcome in relation domain")
    rel = frozenset(pairs)
    for (x, y) in rel:
        if x not in os or y not in os:
            raise InvalidInputError(f"relation mentions unknown outcome in ({x!r}, {y!r})")
    for x in os:
        if (x, x) in rel:
            raise OrderViolation("irreflexivity", (x, x, x))
    for (x, y) in sorted(rel, key=lambda p: (skey(p[0]), skey(p[1]))):
        for z in sorted(os, key=skey):
            if (y, z) in rel and (x, z) not in rel:
                raise OrderViolation("transitivity", (x, y, z))
    for x in sorted(os, key=skey):
        for y in sorted(os, key=skey):
            for z in sorted(os, key=skey):
                if (x, y) not in rel and (y, z) not in rel and (x, z) in rel:
                    raise OrderViolation("negative_transitivity", (x, y, z))
    below = {x: sum(1 for y in os if (y, x) in rel) for x in os}
    dense = {b: i for i, b in enumerate(sorted(set(below.values())))}
    return StrictWeakOrder(os, {x: dense[below[x]] for x in os})


@dataclass(frozen=True, eq=False)
class PreferenceProfile:
    """One strict weak order per player over a shared outcome set."""

    outcomes: tuple
    orders: Mapping

    def __post_init__(self):
        for p, order in self.orders.items():
            if set(order.outcomes) != set(self.outcomes):
                raise InvalidInputError(f"order for {p!r} covers a different outcome set")

    def players(self) -> tuple:
        return tuple(sorted(self.orders, key=skey))

    def order_of(self, player) -> StrictWeakOrder:
        return self.orders[player]


def _orders_of(prefs) -> Mapping:
    return prefs.orders if hasattr(prefs, "orders") else prefs


def forbidden_pattern(profile) -> tuple | None:
    """Search for players a, b and outcomes with z < y < x for a, x < z < y for b.

    Returns the witness ``(a, b, x, y, z)`` or ``None``.  The presence of
    this pattern is exactly what blocks Pareto-optimal equilibria for
    linear preferences.
    """
    orders = _orders_of(profile)
    players = sorted(orders, key=skey)
    if not players:
        raise InvalidInputError("profile has no players")
    outcomes = sorted(set(orders[players[0]].outcomes), key=skey)
    # each order's strict relation as a set of (worse, better) pairs
    below = {p: {(x, y) for x in outcomes for y in outcomes if orders[p].lt(x, y)} for p in players}
    for a, b in permutations(players, 2):
        la, lb = below[a], below[b]
        for x in outcomes:  # (x, y, z) in lexicographic order, so the witness is the first one
            for y in outcomes:
                if (y, x) in la:
                    for z in outcomes:
                        if (z, y) in la and (x, z) in lb and (z, y) in lb:
                            return (a, b, x, y, z)
    return None


def require_linear_pattern_free(profile: PreferenceProfile) -> None:
    """Refuse a profile with the blocking pattern, then one with tied outcomes."""
    witness = forbidden_pattern(profile)
    if witness is not None:
        raise PatternPresentError(witness)
    for p in profile.players():
        if not profile.order_of(p).is_linear():
            raise LinearityRequired(f"player {p!r} has tied outcomes")


def _dominates(orders: Mapping, q, o) -> bool:
    """Someone strictly prefers ``q`` and nobody strictly prefers ``o``."""
    if q == o:
        return False
    someone = any(orders[p].lt(o, q) for p in orders)
    nobody_hurt = all(not orders[p].lt(q, o) for p in orders)
    return someone and nobody_hurt


def pareto_front(prefs, realizable: Iterable) -> frozenset:
    """Realizable outcomes no other realizable outcome dominates.

    Domination: some player strictly prefers the alternative and no player
    strictly prefers the original.
    """
    orders = _orders_of(prefs)
    todo = set(realizable)
    if not todo:
        raise InvalidInputError("realizable set must be non-empty")
    return frozenset(o for o in todo if not any(_dominates(orders, q, o) for q in todo))


def grid_discretize(payoffs: Mapping, k: int) -> dict:
    """Map payoffs in [0, 1] to grid cell indices in {1, ..., k+1}.

    Cell ``i`` covers ``[(i-1)/k, i/k)``; the payoff 1 lands in cell
    ``k + 1``.  Payoffs are exact rationals, so cell boundaries are exact.
    """
    if k < 1:
        raise InvalidInputError(f"grid resolution must be >= 1, got {k}")
    out = {}
    for p, raw in payoffs.items():
        value = Fraction(raw)
        if value < 0 or value > 1:
            raise OutOfRangeError(f"payoff {value} for {p!r} outside [0, 1]")
        out[p] = int(value * k) + 1
    return out
