import random
from fractions import Fraction
from itertools import permutations, product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from graphgames.errors import (
    GraphGamesError,
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
    linear_order,
    order_from_groups,
    pareto_front,
    slice_partition,
)

from oracles import forbidden_pattern_by_lt, slice_partition_by_union_find


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


# --- slice partition ------------------------------------------------------------


def test_slice_single_outcome():
    p = profile(a=[["x"]], b=[["x"]])
    result = slice_partition(p)
    assert result.slices == (frozenset({"x"}),)


def test_slice_shared_linear_order_fully_splits():
    p = profile(a=[["z"], ["y"], ["x"]], b=[["z"], ["y"], ["x"]])
    result = slice_partition(p)
    assert result.slices == (frozenset({"z"}), frozenset({"y"}), frozenset({"x"}))
    assert all(f == {"a": "aligned", "b": "aligned"} for f in result.flags)


def test_slice_disagreement_merges_top():
    p = profile(a=[["z"], ["y"], ["x"]], b=[["z"], ["x"], ["y"]])
    result = slice_partition(p)
    assert result.slices == (frozenset({"z"}), frozenset({"x", "y"}))
    assert result.flags[1]["a"] == "aligned"
    assert result.flags[1]["b"] == "reversed"


def test_slice_requires_pattern_freedom():
    p = profile(a=[["z"], ["y"], ["x"]], b=[["x"], ["z"], ["y"]])
    with pytest.raises(PatternPresentError):
        slice_partition(p)


def test_slice_requires_linearity():
    p = profile(a=[["z", "y"], ["x"]], b=[["z"], ["y"], ["x"]])
    with pytest.raises(LinearityRequired):
        slice_partition(p)


def _partition_is_valid(profile_, slices):
    players = profile_.players()
    for i, lo in enumerate(slices):
        for hi in slices[i + 1:]:
            for x in lo:
                for y in hi:
                    if not all(profile_.order_of(p).lt(x, y) for p in players):
                        return False
    ref = profile_.order_of(players[0])
    for sl in slices:
        members = sorted(sl, key=ref.rank_of)
        for p in players:
            order = profile_.order_of(p)
            aligned = all(order.lt(a, b) for a, b in zip(members, members[1:]))
            reversed_ = all(order.lt(b, a) for a, b in zip(members, members[1:]))
            if not (aligned or reversed_):
                return False
    return True


def _ordered_partitions(items):
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in _ordered_partitions(rest):
        for i, block in enumerate(sub):
            yield sub[:i] + (block | {first},) + sub[i + 1:]
        for i in range(len(sub) + 1):
            yield sub[:i] + (frozenset({first}),) + sub[i:]


def test_slice_partition_is_finest_valid_partition_on_small_profiles():
    outcomes = ("o0", "o1", "o2", "o3")
    rng = random.Random(7)
    checked = 0
    for trial in range(200):
        chains = [list(outcomes), list(outcomes)]
        rng.shuffle(chains[0])
        rng.shuffle(chains[1])
        p = profile(a=[[o] for o in chains[0]], b=[[o] for o in chains[1]])
        if forbidden_pattern(p) is not None:
            continue
        checked += 1
        result = slice_partition(p)
        assert _partition_is_valid(p, result.slices)
        best = max(
            (len(sub) for sub in _ordered_partitions(outcomes) if _partition_is_valid(p, sub)),
            default=0,
        )
        assert len(result.slices) == best
    assert checked > 20


def _answer(fn, prefs):
    """The function's result, or its refusal as (type, message)."""
    try:
        return fn(prefs)
    except GraphGamesError as exc:
        return (type(exc), str(exc))


@pytest.mark.parametrize("num_players, num_outcomes", [(2, 3), (2, 4), (2, 5), (3, 3), (3, 4)])
def test_slice_partition_matches_the_union_find_oracle(num_players, num_outcomes):
    players = ("a", "b", "c")[:num_players]
    outcomes = tuple(f"o{i}" for i in range(num_outcomes))
    refused = 0
    for chains in iproduct(permutations(outcomes), repeat=num_players):
        p = PreferenceProfile(outcomes, {pl: linear_order(c) for pl, c in zip(players, chains)})
        answer = _answer(slice_partition, p)
        assert answer == _answer(slice_partition_by_union_find, p)
        refused += isinstance(answer, tuple)
    assert 0 < refused < len(list(permutations(outcomes))) ** num_players


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
