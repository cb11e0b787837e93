import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graphgames.errors import (
    InvalidInputError,
    LinearityRequired,
    OrderViolation,
    OutOfRangeError,
    PatternPresentError,
)
from graphgames.orders import (
    PreferenceProfile,
    StrictWeakOrder,
    check_swo,
    forbidden_pattern,
    grid_discretize,
    order_from_groups,
    pareto_front,
    require_linear_pattern_free,
)

from oracles import forbidden_pattern_by_lt


def profile(**chains):
    orders = {p: order_from_groups(groups) for p, groups in chains.items()}
    outcomes = next(iter(orders.values())).outcomes
    return PreferenceProfile(tuple(sorted(outcomes)), orders)


# --- strict weak order checking ---------------------------------------------


def test_empty_relation_single_outcome():
    order = check_swo(["x"], [])
    assert order.classes() == (frozenset({"x"}),)


def test_two_cycle_rejected():
    with pytest.raises(OrderViolation) as exc:
        check_swo(["x", "y"], [("x", "y"), ("y", "x")])
    assert exc.value.kind in ("irreflexivity", "transitivity")
    # the witness exhibits the cycle
    assert set(exc.value.witness) == {"x", "y"}


def test_negative_transitivity_violation():
    with pytest.raises(OrderViolation) as exc:
        check_swo(["x", "y", "z"], [("x", "y")])
    assert exc.value.kind == "negative_transitivity"
    assert exc.value.witness == ("x", "z", "y")


def _axioms_hold(outcomes, rel):
    for x in outcomes:
        if (x, x) in rel:
            return False
    for x in outcomes:
        for y in outcomes:
            for z in outcomes:
                if (x, y) in rel and (y, z) in rel and (x, z) not in rel:
                    return False
                if (x, y) not in rel and (y, z) not in rel and (x, z) in rel:
                    return False
    return True


def test_checker_matches_axioms_exhaustively():
    outcomes = ("x", "y", "z")
    pairs = [(a, b) for a in outcomes for b in outcomes]
    for mask in range(1 << len(pairs)):
        rel = frozenset(p for i, p in enumerate(pairs) if mask >> i & 1)
        expected = _axioms_hold(outcomes, rel)
        try:
            order = check_swo(outcomes, rel)
        except OrderViolation:
            assert not expected
        else:
            assert expected
            for x in outcomes:
                for y in outcomes:
                    assert ((x, y) in rel) == order.lt(x, y)


# --- forbidden pattern ---------------------------------------------------------


def test_pattern_canonical_witness():
    p = profile(a=[["z"], ["y"], ["x"]], b=[["x"], ["z"], ["y"]])
    assert forbidden_pattern(p) == ("a", "b", "x", "y", "z")


def test_pattern_absent_for_identical_orders():
    p = profile(a=[["z"], ["y"], ["x"]], b=[["z"], ["y"], ["x"]])
    assert forbidden_pattern(p) is None


def test_pattern_absent_for_inverse_orders():
    p = profile(a=[["z"], ["y"], ["x"]], b=[["x"], ["y"], ["z"]])
    assert forbidden_pattern(p) is None


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False))
def test_pattern_invariant_under_relabeling(rnd):
    from graphgames.gen import random_profile

    players = ["a", "b", "c"]
    outcomes = ["o0", "o1", "o2", "o3"]
    p = random_profile(rnd, players, outcomes)
    renamed_players = dict(zip(players, rnd.sample(players, len(players))))
    renamed_outcomes = dict(zip(outcomes, rnd.sample(outcomes, len(outcomes))))
    relabeled = PreferenceProfile(
        tuple(sorted(outcomes)),
        {
            renamed_players[pl]: StrictWeakOrder(
                tuple(renamed_outcomes[o] for o in p.order_of(pl).outcomes),
                {renamed_outcomes[o]: r for o, r in p.order_of(pl).ranks.items()},
            )
            for pl in players
        },
    )
    assert (forbidden_pattern(p) is None) == (forbidden_pattern(relabeled) is None)


def test_pattern_matches_the_order_by_order_oracle():
    # the first witness, in player-pair and outcome-triple order, is the
    # one that asking both orders about every triple finds
    from graphgames.gen import random_profile

    rng = random.Random(7171)
    found = 0
    for i in range(2400):
        players = ["a", "b", "c", "d"][: rng.randint(2, 4)]
        outcomes = [f"o{j}" for j in range(rng.randint(1, 5))]
        p = random_profile(rng, players, outcomes, linear=i % 2 == 0)
        witness = forbidden_pattern(p)
        assert witness == forbidden_pattern_by_lt(p)
        found += witness is not None
    assert 0 < found < 2400


# --- linear, pattern-free profiles -------------------------------------------------


def test_require_linear_pattern_free_refuses_the_pattern():
    require_linear_pattern_free(profile(a=[["z"], ["y"], ["x"]], b=[["z"], ["x"], ["y"]]))
    p = profile(a=[["z"], ["y"], ["x"]], b=[["x"], ["z"], ["y"]])
    with pytest.raises(PatternPresentError):
        require_linear_pattern_free(p)


def test_require_linear_pattern_free_refuses_ties():
    p = profile(a=[["z", "y"], ["x"]], b=[["z"], ["y"], ["x"]])
    with pytest.raises(LinearityRequired):
        require_linear_pattern_free(p)


# --- Pareto fronts -----------------------------------------------------------------


def test_front_single_outcome():
    p = profile(a=[["x"]], b=[["x"]])
    assert pareto_front(p, {"x"}) == {"x"}


def test_front_inverse_orders_keep_everything():
    p = profile(a=[["z"], ["y"], ["x"]], b=[["x"], ["y"], ["z"]])
    assert pareto_front(p, {"x", "y", "z"}) == {"x", "y", "z"}


def test_front_shared_order_keeps_best_realizable():
    p = profile(a=[["z"], ["y"], ["x"]], b=[["z"], ["y"], ["x"]])
    assert pareto_front(p, {"z", "y"}) == {"y"}


def test_front_requires_realizable():
    p = profile(a=[["x"]])
    with pytest.raises(InvalidInputError):
        pareto_front(p, set())


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_front_nonempty(rnd):
    from graphgames.gen import random_profile

    outcomes = ["o0", "o1", "o2", "o3"]
    p = random_profile(rnd, ["a", "b", "c"], outcomes)
    realizable = set(rnd.sample(outcomes, rnd.randint(1, 4)))
    assert pareto_front(p, realizable)


# --- grid discretization -------------------------------------------------------------


def test_grid_examples():
    assert grid_discretize({"p": Fraction(0)}, 5) == {"p": 1}
    assert grid_discretize({"p": Fraction(3, 5)}, 2) == {"p": 2}
    assert grid_discretize({"p": Fraction(1)}, 2) == {"p": 3}


def test_grid_out_of_range():
    with pytest.raises(OutOfRangeError):
        grid_discretize({"p": Fraction(11, 10)}, 2)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(1, 6),
    st.fractions(min_value=0, max_value=1, max_denominator=40),
    st.fractions(min_value=0, max_value=1, max_denominator=40),
)
def test_grid_monotone_and_separating(k, p1, p2):
    i1 = grid_discretize({"p": p1}, k)["p"]
    i2 = grid_discretize({"p": p2}, k)["p"]
    if p1 <= p2:
        assert i1 <= i2
    if abs(p1 - p2) > Fraction(1, k):
        assert i1 != i2
