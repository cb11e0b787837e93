"""Finite extensive-form games: backward induction, NE enumeration, grids.

Trees carry either a single outcome per leaf (compared through preference
relations) or exact rational payoffs per player.  The gallery builders
reproduce finite truncations of classic games whose infinite versions lack
equilibria, so the truncation behaviour can be regression-tested.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from typing import Mapping

from .arena import skey
from .errors import CapExceededError, InvalidInputError
from .orders import PreferenceProfile, grid_discretize, linear_order, pareto_front


@dataclass(frozen=True)
class Leaf:
    outcome: object = None
    payoffs: Mapping | None = None

    def __post_init__(self):
        if (self.outcome is None) == (self.payoffs is None):
            raise InvalidInputError("leaf needs exactly one of outcome / payoffs")


@dataclass(frozen=True)
class Decision:
    owner: object
    children: tuple

    def __post_init__(self):
        if not self.children:
            raise InvalidInputError("decision node needs at least one child")


@dataclass(frozen=True, eq=False)
class PartialPreference:
    """Strict partial order given by its full set of (worse, better) pairs."""

    outcomes: tuple
    pairs: frozenset

    def lt(self, x, y) -> bool:
        return (x, y) in self.pairs


def partial_from_chains(outcomes, chains) -> PartialPreference:
    """Transitive closure of the union of worst-to-best chains."""
    above = {}
    for chain in chains:
        for i, x in enumerate(chain):
            above.setdefault(x, set()).update(chain[i + 1:])
    # Warshall: after round k, above[x] holds every y reached through the
    # intermediates handled so far
    for k in above:
        for ups in above.values():
            if k in ups:
                ups |= above[k]
    # the first cyclic pair in sorted order is (x, x) for the least x on a cycle
    for x in sorted(above, key=skey):
        if x in above[x]:
            raise InvalidInputError(f"chains create a cycle through ({x!r}, {x!r})")
    return PartialPreference(tuple(outcomes), frozenset((x, y) for x, ups in above.items() for y in ups))


@dataclass(frozen=True, eq=False)
class TreeGame:
    """Rooted finite tree with owners on decision nodes.

    ``prefs`` maps players to preference objects exposing ``lt`` for
    outcome leaves; payoff leaves compare each player's own coordinate and
    need no preference objects.
    """

    root: object
    players: tuple
    prefs: Mapping | None = None

    def is_payoff_game(self) -> bool:
        node = self.root
        while isinstance(node, Decision):
            node = node.children[0]
        return node.payoffs is not None


def _decision_paths(root):
    paths = []

    def rec(node, path):
        if isinstance(node, Decision):
            paths.append((path, node))
            for i, child in enumerate(node.children):
                rec(child, path + (i,))

    rec(root, ())
    return paths


def _leaf_value(leaf: Leaf):
    return leaf.outcome if leaf.outcome is not None else dict(leaf.payoffs)


def _better(game: TreeGame, player, current, candidate) -> bool:
    if isinstance(current, dict):
        return candidate[player] > current[player]
    return game.prefs[player].lt(current, candidate)


@dataclass(frozen=True)
class InductionResult:
    choices: Mapping   # decision path -> chosen child index
    values: Mapping    # node path -> value (outcome or payoff dict)

    def root_value(self):
        return self.values[()]


def backward_induction(game: TreeGame) -> InductionResult:
    """Subgame-perfect profile by folding leaf values toward the root.

    The owner of each node takes the child value she prefers most, ties
    resolved to the lowest child index, so every subtree's prescription is
    an equilibrium of that subtree.
    """
    if not game.is_payoff_game() and game.prefs is None:
        raise InvalidInputError("outcome trees need preferences")
    choices = {}
    values = {}

    def rec(node, path):
        if isinstance(node, Leaf):
            values[path] = _leaf_value(node)
            return values[path]
        best_i = 0
        best = rec(node.children[0], path + (0,))
        for i in range(1, len(node.children)):
            cand = rec(node.children[i], path + (i,))
            if _better(game, node.owner, best, cand):
                best_i, best = i, cand
        choices[path] = best_i
        values[path] = best
        return best

    rec(game.root, ())
    return InductionResult(choices, values)


def play_profile(game: TreeGame, choices: Mapping):
    """Value reached from the root when every node follows ``choices``."""
    node = game.root
    path = ()
    while isinstance(node, Decision):
        i = choices[path]
        node = node.children[i]
        path = path + (i,)
    return _leaf_value(node)


def _achievable_values(game: TreeGame, player, choices: Mapping, node=None, path=()):
    """Every value ``player`` can reach when everyone else follows ``choices``.

    The full set matters: with partial preferences an improving deviation
    need not be comparable to any single "best" representative.
    """
    if node is None:
        node = game.root
    if isinstance(node, Leaf):
        return [_leaf_value(node)]
    if node.owner != player:
        i = choices[path]
        return _achievable_values(game, player, choices, node.children[i], path + (i,))
    values = []
    for i, child in enumerate(node.children):
        values.extend(_achievable_values(game, player, choices, child, path + (i,)))
    return values


def _best_response_value(game: TreeGame, player, choices: Mapping):
    """A maximal achievable deviation value (payoff games: the payoff maximum)."""
    values = _achievable_values(game, player, choices)
    best = values[0]
    for cand in values[1:]:
        if _better(game, player, best, cand):
            best = cand
    return best


def profile_is_ne(game: TreeGame, choices: Mapping) -> bool:
    induced = play_profile(game, choices)
    for p in game.players:
        for cand in _achievable_values(game, p, choices):
            if _better(game, p, induced, cand):
                return False
    return True


def enumerate_ne_outcomes(game: TreeGame, cap: int = 200_000) -> frozenset:
    """Outcomes of all pure-profile equilibria, by exhaustive enumeration.

    Every assignment of one child per decision node is tried; a profile
    survives when no player can improve by re-deciding her own nodes.
    """
    decisions = _decision_paths(game.root)
    total = 1
    for _, node in decisions:
        total *= len(node.children)
        if total > cap:
            raise CapExceededError(f"{total}+ profiles exceed cap {cap}")
    outcomes = set()
    for combo in iproduct(*[range(len(node.children)) for _, node in decisions]):
        choices = {path: i for (path, _), i in zip(decisions, combo)}
        if profile_is_ne(game, choices):
            value = play_profile(game, choices)
            if isinstance(value, dict):
                value = tuple(sorted(value.items()))
            outcomes.add(value)
    return frozenset(outcomes)


# ---------------------------------------------------------------------------
# grid discretization


@dataclass(frozen=True)
class EpsilonCertificate:
    """Statement that a profile is a 1/k-equilibrium of the payoff game."""

    k: int
    choices: Mapping
    max_gain: Mapping     # player -> largest payoff improvement by deviation
    holds: bool

    def statement(self) -> str:
        return f"no unilateral deviation improves any player by more than 1/{self.k}"


def _map_leaves(node, fn):
    if isinstance(node, Leaf):
        return fn(node)
    return Decision(node.owner, tuple(_map_leaves(c, fn) for c in node.children))


def epsilon_grid_game(game: TreeGame, k: int):
    """Discretize payoffs onto a 1/k grid and certify the grid equilibrium.

    Payoffs in [0, 1] map to cell indices; backward induction on the index
    game yields a profile whose deviations in the original game are then
    checked exhaustively to gain at most 1/k.
    """
    if not game.is_payoff_game():
        raise InvalidInputError("grid discretization needs payoff leaves")

    def discretize(leaf: Leaf) -> Leaf:
        idx = grid_discretize(leaf.payoffs, k)
        return Leaf(payoffs={p: Fraction(i) for p, i in idx.items()})

    index_game = TreeGame(_map_leaves(game.root, discretize), game.players)
    result = backward_induction(index_game)
    induced = play_profile(game, result.choices)
    gains = {}
    for p in game.players:
        best = _best_response_value(game, p, result.choices)
        gains[p] = best[p] - induced[p]
    holds = all(g <= Fraction(1, k) for g in gains.values())
    return index_game, result, EpsilonCertificate(k, result.choices, gains, holds)


# ---------------------------------------------------------------------------
# gallery builders


def build_nonash_truncation(depth: int) -> TreeGame:
    """Single-player stopping game whose value climbs toward an unreached 1.

    At level j the player may exit for j/(j+1) or continue; continuing past
    the last level is worth 0, the value of never stopping.  Continue
    branches come first so ties resolve to continuing.
    """
    if depth < 1:
        raise InvalidInputError("depth must be >= 1")
    player = "P"
    node = Leaf(payoffs={player: Fraction(0)})
    for j in range(depth - 1, -1, -1):
        exit_leaf = Leaf(payoffs={player: Fraction(j, j + 1)})
        node = Decision(player, (node, exit_leaf))
    return TreeGame(node, (player,))


ESCAPE_PREFS = PreferenceProfile(
    outcomes=("x", "y", "z"),
    orders={
        "a": linear_order(["z", "y", "x"]),
        "b": linear_order(["x", "z", "y"]),
    },
)


def build_escape_truncation(depth: int) -> TreeGame:
    """Alternation game where each player may bail out or push deeper.

    Player a owns even levels (exit pays y), player b odd levels (exit
    pays z); surviving to the cut-off depth yields x, the value of the
    never-exiting play.  Continue branches come first.
    """
    if depth < 2:
        raise InvalidInputError("depth must be >= 2")
    node = Leaf(outcome="x")
    for j in range(depth - 1, -1, -1):
        owner = "a" if j % 2 == 0 else "b"
        exit_leaf = Leaf(outcome="y" if owner == "a" else "z")
        node = Decision(owner, (node, exit_leaf))
    return TreeGame(node, ("a", "b"), prefs=dict(ESCAPE_PREFS.orders))


def build_usc_escape_truncation(depth: int) -> TreeGame:
    """Payoff variant of the escape game with geometrically shrinking exits.

    Player a's n-th exit pays (2^-n, 2^-n); player b's pays (0, 2^-n-2);
    surviving to the cut-off pays (2, 0), the value of the infinite play.
    """
    if depth < 2:
        raise InvalidInputError("depth must be >= 2")
    node = Leaf(payoffs={"a": Fraction(2), "b": Fraction(0)})
    for j in range(depth - 1, -1, -1):
        n = j // 2
        if j % 2 == 0:
            owner = "a"
            exit_leaf = Leaf(payoffs={"a": Fraction(1, 2 ** n), "b": Fraction(1, 2 ** n)})
        else:
            owner = "b"
            exit_leaf = Leaf(payoffs={"a": Fraction(0), "b": Fraction(1, 2 ** (n + 2))})
        node = Decision(owner, (node, exit_leaf))
    return TreeGame(node, ("a", "b"))


def three_leaf_game(prefs: Mapping, root_owner="b", sub_owner="a",
                    left="x", right="y", out="z") -> TreeGame:
    """The three-leaf template: root picks the subtree or exits.

    The subtree owner chooses between ``left`` and ``right``; the root
    owner may instead take ``out`` directly.
    """
    sub = Decision(sub_owner, (Leaf(outcome=left), Leaf(outcome=right)))
    root = Decision(root_owner, (sub, Leaf(outcome=out)))
    players = tuple(sorted({root_owner, sub_owner}))
    return TreeGame(root, players, prefs=dict(prefs))


def build_three_leaf_example() -> TreeGame:
    """Canonical three-leaf game with the blocking preference pattern."""
    return three_leaf_game(ESCAPE_PREFS.orders)


def build_six_outcome_example() -> TreeGame:
    """Two-player game with chain preferences whose equilibria all disappoint.

    Both players' preferences are unions of two disjoint chains; every NE
    outcome is dominated for both players by an unreached leaf.
    """
    outcomes = ("x", "y", "z", "alpha", "beta", "gamma")
    prefs = {
        "a": partial_from_chains(outcomes, [["gamma", "y", "x"], ["z", "beta", "alpha"]]),
        "b": partial_from_chains(outcomes, [["x", "z", "y"], ["alpha", "gamma", "beta"]]),
    }
    sub = Decision("a", (Leaf(outcome="x"), Leaf(outcome="y"),
                         Leaf(outcome="alpha"), Leaf(outcome="beta")))
    root = Decision("b", (sub, Leaf(outcome="z"), Leaf(outcome="gamma")))
    return TreeGame(root, ("a", "b"), prefs=prefs)


def realizable_outcomes(game: TreeGame) -> frozenset:
    """Leaf outcomes of an outcome tree."""
    found = set()

    def rec(node):
        if isinstance(node, Leaf):
            if node.outcome is None:
                raise InvalidInputError("payoff tree has no outcome set")
            found.add(node.outcome)
        else:
            for c in node.children:
                rec(c)

    rec(game.root)
    return frozenset(found)


def gallery(depth: int) -> dict:
    """The counterexample gallery's report: truncation values up to ``depth``
    (the payoff escape game's up to 8) and the two examples' equilibria."""
    stopping = {}
    for d in range(2, depth + 1):
        value = backward_induction(build_nonash_truncation(d)).root_value()["P"]
        stopping[str(d)] = str(value)
    escape = {}
    for d in range(3, depth + 1):
        result = backward_induction(build_escape_truncation(d))
        deepest_b = (0,) * (d - 1 if (d - 1) % 2 == 1 else d - 2)
        escape[str(d)] = {
            "root": str(result.root_value()),
            "deepest_b_exits": result.choices[deepest_b] == 1,
        }
    three = build_three_leaf_example()
    six = build_six_outcome_example()
    six_ne = sorted(map(str, enumerate_ne_outcomes(six)))
    six_front = pareto_front(six.prefs, realizable_outcomes(six))
    usc = {}
    for d in range(2, min(depth, 8) + 1):
        value = backward_induction(build_usc_escape_truncation(d)).root_value()
        usc[str(d)] = {str(p): str(x) for p, x in value.items()}
    return {
        "stopping_values": stopping,
        "escape": escape,
        "three_leaf_ne_outcomes": sorted(map(str, enumerate_ne_outcomes(three))),
        "six_outcome": {
            "ne_outcomes": six_ne,
            "weakly_pareto_optimal": {o: (o in six_front) for o in six_ne},
        },
        "usc_escape_values": usc,
    }
