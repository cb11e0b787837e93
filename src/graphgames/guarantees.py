"""Best guarantees via one-vs-all threshold games on finite arenas.

A graph game couples an arena with a prefix-independent outcome map (a
function of the set of vertices visited infinitely often) and one strict
weak order per player.  A player's best guarantee at a vertex is the best
outcome class she can force against the coalition of everyone else; it is
computed by solving one threshold game per preference class, and each
threshold solve also yields the coalition machine that holds her to that
class (used later as a punishment).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .arena import (
    DEFAULT_PRODUCT_BOUND,
    Arena,
    StrategyMachine,
    bits_for,
    closed_strongly_connected_sets,
    fallback_machine,
    feasible_among,
    machine_rows,
    minimize_table,
    skey,
)
from .errors import InvalidInputError
from .orders import PreferenceProfile, StrictWeakOrder
from .winlose import MullerSearch

COALITION = "coalition-vs"


@dataclass(frozen=True, eq=False)
class GraphGame:
    """Arena + outcome map on recurrence sets + preference profile."""

    arena: Arena
    outcome_map: Mapping  # frozenset of vertices -> outcome
    prefs: PreferenceProfile

    def __post_init__(self):
        if set(self.prefs.orders) != set(self.arena.players):
            raise InvalidInputError("preference profile players differ from arena players")
        outcomes = set(self.prefs.outcomes)
        for s, o in self.outcome_map.items():
            if o not in outcomes:
                raise InvalidInputError(f"outcome {o!r} for {sorted(map(str, s))} not declared")

    def validate_total(self, max_product_states: int = DEFAULT_PRODUCT_BOUND) -> None:
        """Check the outcome map covers every possible recurrence set."""
        sets = closed_strongly_connected_sets(self.arena, None, max_product_states)
        require_covered(sets, self.outcome_map, "recurrence set")

    def realizable_outcomes(self) -> frozenset:
        """Outcomes some play from the start vertex realizes; needs a total map."""
        feasible = feasible_among(self.arena, self.outcome_map, self.arena.start)
        return frozenset(self.outcome_map[s] for s in feasible)

    def outcome_of(self, recurrence: frozenset):
        try:
            return self.outcome_map[frozenset(recurrence)]
        except KeyError:
            raise InvalidInputError(
                f"outcome map undefined on {sorted(map(str, recurrence))}"
            ) from None


def require_covered(sets, outcome_map: Mapping, what: str) -> None:
    """Refuse an outcome map missing one of ``sets``, naming the first missing one in sorted order."""
    first = min((sorted(map(str, s)) for s in sets if s not in outcome_map), default=None)
    if first is not None:
        raise InvalidInputError(f"outcome map undefined on {what} {first}")


def coalition_tag(player):
    return (COALITION, player)


def _threshold_family(game: GraphGame, order: StrictWeakOrder, outcome) -> frozenset:
    """Recurrence sets whose outcome ``order`` ranks strictly above ``outcome``."""
    return frozenset(s for s, o in game.outcome_map.items() if order.lt(outcome, o))


@dataclass(frozen=True, eq=False)
class GuaranteeRow:
    """Per-vertex guarantee classes of one player, with witnessing machines.

    ``class_rank`` holds the preference rank of the best class the player
    can force from each vertex.  ``machines[c]`` forces class >= c from
    every vertex of class >= c; ``punish[c]`` is the coalition machine that
    holds the player to class <= c from every vertex of class <= c.
    ``solves[j]`` is the solved threshold game for class ``j``, played by
    ``sides``; the machines and the memory bound are flattened from them
    when first read.
    """

    player: object
    order: StrictWeakOrder
    class_rank: Mapping   # vertex -> rank
    solves: tuple         # threshold rank -> ZielonkaRecursion
    sides: tuple          # (player, her coalition)

    def representative(self, v):
        return self.order.representative(self.class_rank[v])

    def _used(self) -> list:
        return sorted(set(self.class_rank.values()))

    @cached_property
    def machines(self) -> dict:
        """Rank -> StrategyMachine of the player, for every rank some vertex has."""
        arena = self.solves[0].arena
        return {
            c: self.solves[c - 1].machine(0) if c >= 1 else fallback_machine(arena, self.player, {})
            for c in self._used()
        }

    @cached_property
    def punish(self) -> dict:
        """Rank -> StrategyMachine of the coalition, for every rank some vertex has.

        No vertex is ranked above the top threshold, whose family is empty."""
        return {c: self.solves[c].machine(1) for c in self._used()}

    @cached_property
    def solver_bits(self) -> int:
        """Memory bits of the largest machine over every threshold solve."""
        return max(solve.memory_bits() for solve in self.solves)


@dataclass(frozen=True, eq=False)
class GuaranteeTable:
    """Guarantee rows for every player plus the memory accounting terms."""

    rows: Mapping
    piece_count: int      # number of history pieces; one per vertex here
    piece_bits: int       # memory needed to track the piece; zero here

    @cached_property
    def solver_bits(self) -> int:
        """Uniform bound over all threshold solves."""
        return max(row.solver_bits for row in self.rows.values())

    def ne_memory_bound(self) -> int:
        n_players = len(self.rows)
        log_n = bits_for(self.piece_count)
        return n_players * (self.solver_bits + log_n + self.piece_bits) + 1


def best_guarantee(game: GraphGame, player, search: MullerSearch | None = None) -> GuaranteeRow:
    """Guarantee classes of one player at every vertex.

    Thresholds ascend through the player's classes: the guarantee at a
    vertex is the best class such that she wins the threshold game for the
    class immediately below it (the bottom class needs no witness).  Every
    threshold game is solved by the Zielonka recursion that ``search``, a
    ``MullerSearch`` of the game's arena, hands out; without one, a search
    bounded by ``DEFAULT_PRODUCT_BOUND`` is made.  Every threshold is
    solved, lowest first, so a size refusal comes from the lowest
    threshold that has one; no machine is built until the row's are read.
    """
    order = game.prefs.order_of(player)
    arena = game.arena
    if search is None:
        search = MullerSearch(arena, DEFAULT_PRODUCT_BOUND)
    sides = (player, coalition_tag(player))
    solves = tuple(
        search.game(_threshold_family(game, order, order.representative(j)), sides)
        for j in range(order.num_classes())
    )
    class_rank = dict.fromkeys(arena.vertices, 0)
    for j, solve in enumerate(solves):
        if not solve.win0:
            break
        for v in solve.win0:
            class_rank[v] = j + 1
    return GuaranteeRow(player, order, class_rank, solves, sides)


def guarantee_table(game: GraphGame, max_product_states: int = DEFAULT_PRODUCT_BOUND) -> GuaranteeTable:
    """Every player's guarantee row; all threshold games share one Muller search."""
    search = MullerSearch(game.arena, max_product_states)
    return GuaranteeTable(
        rows={p: best_guarantee(game, p, search) for p in game.arena.players},
        piece_count=len(game.arena.vertices),
        piece_bits=0,
    )


def optimal_strategy(game: GraphGame, player, row: GuaranteeRow | None = None) -> StrategyMachine:
    """A single machine realizing the player's guarantee from every vertex.

    The machine simulates, for the class of the current vertex, the
    threshold machine certifying that class, and restarts the simulation
    whenever the class changes.  Because the per-class machines win from
    any vertex of their region regardless of memory content, the composite
    stays optimal at every configuration reachable along any walk, not
    only on its own play.
    """
    if row is None:
        row = best_guarantee(game, player)
    arena = game.arena
    vertices = arena.sorted_vertices()
    owned = arena.owned_by(player)
    machines = row.machines
    cls = [row.class_rank[w] for w in vertices]
    base = {}  # class -> the state its machine's memory 0 becomes; state 0 is fresh
    size = 1
    for c in sorted(set(cls)):
        base[c] = size
        size += max(machines[c].states()) + 1
    enter = [base[c] + machines[c].init for c in cls]
    nxt, choice, block = [enter], [()], [None]
    for c, b in base.items():
        rows, moves = machine_rows(arena, machines[c], owned, b)
        nxt += ([t if k == c else e for t, k, e in zip(r, cls, enter)] for r in rows)
        choice += moves
        block += [c] * len(moves)
    # fresh, it moves as the state it enters at the current vertex would;
    # a block is read only at its class's vertices, so elsewhere it does too
    index = arena.view.index
    mine = [cls[index[v]] for v in owned]
    fill = choice[0] = tuple(choice[enter[index[v]]][j] for j, v in enumerate(owned))
    choice = [tuple(m if k == c else f for m, k, f in zip(r, mine, fill)) for r, c in zip(choice, block)]
    return minimize_table(player, vertices, owned, nxt, choice)


def local_consistency_violations(game: GraphGame, table: GuaranteeTable) -> list:
    """Vertices where the guarantee is not the best/worst over successors.

    At a vertex the player owns, her guarantee class must equal the best
    class among the successors' guarantees; elsewhere the worst.  Returns
    the list of ``(player, vertex)`` mismatches (empty when consistent).
    """
    arena = game.arena
    bad = []
    for p, row in sorted(table.rows.items(), key=lambda kv: skey(kv[0])):
        for v in arena.sorted_vertices():
            succ_ranks = [row.class_rank[w] for w in arena.successors(v)]
            expect = max(succ_ranks) if arena.owner[v] == p else min(succ_ranks)
            if row.class_rank[v] != expect:
                bad.append((p, v))
    return bad
