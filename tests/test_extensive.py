import random
from fractions import Fraction

import pytest

from graphgames.errors import CapExceededError, InvalidInputError
from graphgames.extensive import (
    Decision,
    Leaf,
    TreeGame,
    backward_induction,
    build_escape_truncation,
    build_nonash_truncation,
    build_six_outcome_example,
    build_three_leaf_example,
    build_usc_escape_truncation,
    enumerate_ne_outcomes,
    epsilon_grid_game,
    partial_from_chains,
    play_profile,
    realizable_outcomes,
    three_leaf_game,
)
from graphgames.gen import random_payoff_tree, random_profile
from graphgames.orders import (
    forbidden_pattern,
    grid_discretize,
    linear_order,
    pareto_front,
)

from oracles import build_four_outcome_example, partial_from_chains_by_fixpoint, tree_value


# --- backward induction ----------------------------------------------------


def test_single_leaf_tree():
    game = TreeGame(Decision("a", (Leaf(outcome="x"),)), ("a",), prefs={"a": linear_order(["x"])})
    assert backward_induction(game).root_value() == "x"
    assert enumerate_ne_outcomes(game) == {"x"}


def test_three_leaf_root_value_is_z():
    game = build_three_leaf_example()
    assert backward_induction(game).root_value() == "z"


def test_three_leaf_unique_ne_outcome():
    assert enumerate_ne_outcomes(build_three_leaf_example()) == {"z"}


def test_one_player_dominance():
    game = TreeGame(
        Decision("a", (Leaf(outcome="o1"), Leaf(outcome="o2"))),
        ("a",),
        prefs={"a": linear_order(["o1", "o2"])},
    )
    assert enumerate_ne_outcomes(game) == {"o2"}


@pytest.mark.parametrize("seed", range(20))
def test_backward_induction_matches_independent_recursion(seed):
    rng = random.Random(seed)
    outcomes = ["o0", "o1", "o2"]
    prefs = dict(random_profile(rng, ["a", "b"], outcomes).orders)

    def node(depth):
        if depth == 0 or rng.random() < 0.3:
            return Leaf(outcome=rng.choice(outcomes))
        return Decision(rng.choice(["a", "b"]), tuple(node(depth - 1) for _ in range(rng.randint(2, 3))))

    root = node(3)
    if isinstance(root, Leaf):
        root = Decision("a", (root, Leaf(outcome=rng.choice(outcomes))))
    game = TreeGame(root, ("a", "b"), prefs=prefs)
    got = backward_induction(game).root_value()
    expected = tree_value(root, prefs)
    # both must sit in the same preference class for every player
    for p in ("a", "b"):
        assert not prefs[p].lt(got, expected) and not prefs[p].lt(expected, got)


def _subtrees(game: TreeGame):
    def rec(node):
        if isinstance(node, Decision):
            yield node
            for child in node.children:
                yield from rec(child)

    yield from rec(game.root)


@pytest.mark.parametrize("seed", range(15))
def test_backward_induction_is_subgame_perfect(seed):
    rng = random.Random(seed + 50)
    outcomes = ["o0", "o1", "o2"]
    prefs = dict(random_profile(rng, ["a", "b"], outcomes).orders)

    def node(depth):
        if depth == 0 or rng.random() < 0.4:
            return Leaf(outcome=rng.choice(outcomes))
        return Decision(rng.choice(["a", "b"]), tuple(node(depth - 1) for _ in range(2)))

    root = node(3)
    if isinstance(root, Leaf):
        root = Decision("a", (root, Leaf(outcome=rng.choice(outcomes))))
    game = TreeGame(root, ("a", "b"), prefs=prefs)
    result = backward_induction(game)
    for sub in _subtrees(game):
        sub_game = TreeGame(sub, game.players, prefs=prefs)
        sub_result = backward_induction(sub_game)
        assert sub_result.root_value() in enumerate_ne_outcomes(sub_game)


def test_enumeration_cap():
    leafs = tuple(Leaf(outcome="x") for _ in range(4))
    root = Decision("a", tuple(Decision("a", leafs) for _ in range(4)))
    game = TreeGame(root, ("a",), prefs={"a": linear_order(["x"])})
    with pytest.raises(CapExceededError):
        enumerate_ne_outcomes(game, cap=3)


# --- grid discretization -------------------------------------------------------


def test_grid_game_trivial_resolution():
    leaves = Decision(
        "a",
        (Leaf(payoffs={"a": Fraction(1, 3)}), Leaf(payoffs={"a": Fraction(2, 3)})),
    )
    game = TreeGame(leaves, ("a",))
    index_game, _, cert = epsilon_grid_game(game, 1)
    idx = [leaf.payoffs["a"] for leaf in index_game.root.children]
    assert idx == [Fraction(1), Fraction(1)]
    assert cert.holds


def test_grid_game_indices_example():
    assert grid_discretize({"a": Fraction(3, 5), "b": Fraction(3, 10)}, 2) == {"a": 2, "b": 1}


@pytest.mark.parametrize("seed", range(30))
def test_grid_certificates_match_independent_deviation_search(seed):
    rng = random.Random(seed)
    game = random_payoff_tree(rng, rng.randint(1, 3), ["A", "B"])
    for k in (1, 2, 4):
        _, result, cert = epsilon_grid_game(game, k)
        induced = play_profile(game, result.choices)
        for player in game.players:
            best = _exhaustive_best(game, player, result.choices)
            gain = best - induced[player]
            assert gain == cert.max_gain[player]
            assert gain <= Fraction(1, k)


def _exhaustive_best(game, player, choices):
    from itertools import product as iproduct

    own = [
        (path, node)
        for path, node in _decision_items(game)
        if node.owner == player
    ]
    best = None
    for combo in iproduct(*[range(len(node.children)) for _, node in own]):
        trial = dict(choices)
        trial.update({path: i for (path, _), i in zip(own, combo)})
        value = play_profile(game, trial)[player]
        if best is None or value > best:
            best = value
    return best


def _decision_items(game):
    out = []

    def rec(node, path):
        if isinstance(node, Decision):
            out.append((path, node))
            for i, child in enumerate(node.children):
                rec(child, path + (i,))

    rec(game.root, ())
    return out


# --- gallery -----------------------------------------------------------------------


def _oracle_stopping_value(depth):
    best = Fraction(0)
    for j in range(depth):
        best = max(best, Fraction(j, j + 1))
    return best


def test_stopping_game_values():
    assert backward_induction(build_nonash_truncation(1)).root_value()["P"] == Fraction(0)
    previous = None
    for d in range(2, 11):
        value = backward_induction(build_nonash_truncation(d)).root_value()["P"]
        assert value == Fraction(d - 1, d)
        assert value == _oracle_stopping_value(d)
        if previous is not None:
            assert value > previous
        previous = value


def test_escape_truncation_roots_and_flip():
    for d in range(3, 11):
        result = backward_induction(build_escape_truncation(d))
        assert result.root_value() == "y"
    # the deepest b-node exits while the next one up keeps going at depth 4
    result = backward_induction(build_escape_truncation(4))
    assert result.choices[(0, 0, 0)] == 1  # deepest b exits with z
    assert result.choices[(0,)] == 0       # second-deepest b continues


def test_escape_preferences_carry_the_pattern():
    game = build_escape_truncation(3)
    assert forbidden_pattern(game.prefs) == ("a", "b", "x", "y", "z")


def test_six_outcome_example_equilibria():
    game = build_six_outcome_example()
    assert enumerate_ne_outcomes(game) == {"z", "gamma"}
    front = pareto_front(game.prefs, realizable_outcomes(game))
    assert "z" not in front and "gamma" not in front
    assert {"y", "beta"} <= pareto_front(game.prefs, realizable_outcomes(game))


def test_six_outcome_prefs_avoid_pattern_directly():
    game = build_six_outcome_example()
    assert forbidden_pattern(game.prefs) is None


def test_four_outcome_example_unique_equilibrium():
    game = build_four_outcome_example()
    assert enumerate_ne_outcomes(game) == {"z"}
    # everyone prefers y, yet it is not an equilibrium outcome
    for p in ("a", "b"):
        assert game.prefs[p].lt("z", "y")


def test_usc_escape_truncation_values():
    game = build_usc_escape_truncation(4)
    value = backward_induction(game).root_value()
    assert set(value) == {"a", "b"}
    assert all(isinstance(x, Fraction) for x in value.values())


def test_partial_preference_rejects_cycles():
    with pytest.raises(InvalidInputError):
        partial_from_chains(("x", "y"), [["x", "y"], ["y", "x"]])


def test_partial_preference_matches_the_fixpoint_oracle():
    rng = random.Random(11)
    pool = ("o0", "o1", "o2", "o3", "o4", "o5")
    closed = cyclic = 0
    for _ in range(500):
        chains = [rng.sample(pool, rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]
        try:
            expected = partial_from_chains_by_fixpoint(pool, chains).pairs
        except InvalidInputError:
            cyclic += 1
            with pytest.raises(InvalidInputError):
                partial_from_chains(pool, chains)
            continue
        closed += 1
        assert partial_from_chains(pool, chains).pairs == expected
    assert closed > 50 and cyclic > 50


def test_partial_preference_reports_the_least_outcome_on_a_cycle():
    chains = [["z", "w"], ["w", "y", "x"], ["x", "y"]]
    with pytest.raises(InvalidInputError, match=r"cycle through \('x', 'x'\)"):
        partial_from_chains(("w", "x", "y", "z"), chains)


# --- template instantiation ----------------------------------------------------------


def test_three_leaf_template_roles():
    prefs = {
        "a": linear_order(["z", "y", "x"]),
        "b": linear_order(["x", "z", "y"]),
    }
    game = three_leaf_game(prefs, root_owner="b", sub_owner="a", left="x", right="y", out="z")
    assert realizable_outcomes(game) == {"x", "y", "z"}
    assert enumerate_ne_outcomes(game) == {"z"}
