import random

import pytest

import graphgames.arena as ar
from graphgames.arena import (
    ArenaIndex,
    StrategyMachine,
    StrategyProfile,
    bits_for,
    explore,
    induced_lasso,
    inf_set,
    make_arena,
    memoryless_machine,
    primitive_cycle,
    walk_configurations,
)
import graphgames.equilibria as equilibria
from graphgames.equilibria import (
    muller_pareto_ne,
    synthesize_antagonistic_spe,
    synthesize_ne,
    verify_ne,
    verify_spe,
)
from graphgames.errors import InvalidInputError, NotAntagonisticError, PatternPresentError, TooLargeError
from graphgames.gen import inverse_pair_profile, pattern_free_profile, random_graph_game
from graphgames.guarantees import GraphGame, guarantee_table, optimal_strategy
from graphgames.jsonio import graph_game_from_json, graph_game_to_json, machine_to_json
from graphgames.orders import PreferenceProfile, linear_order, pareto_front
from oracles import (
    IndexByCallables,
    conformance_machine_by_dicts,
    deviation_by_fresh_products,
    joint_configurations,
    masks_by_sums,
    optimal_strategy_by_dicts,
    outcome_from,
    owned_is_built,
    pareto_target_by_all_realizable,
    position_machine_by_dicts,
    spe_by_fresh_products,
    successors_by_machine_calls,
)


def single_vertex_game():
    arena = make_arena(["A"], ["v"], [("v", "v")], {"v": "A"}, "v")
    prefs = PreferenceProfile(("o1",), {"A": linear_order(["o1"])})
    return GraphGame(arena, {frozenset({"v"}): "o1"}, prefs)


def single_player_game():
    arena = make_arena(
        ["A"], ["u", "w"], [("u", "u"), ("u", "w"), ("w", "w")], {"u": "A", "w": "A"}, "u"
    )
    prefs = PreferenceProfile(("o1", "o2"), {"A": linear_order(["o1", "o2"])})
    return GraphGame(arena, {frozenset({"u"}): "o1", frozenset({"w"}): "o2"}, prefs)


def parity_outcome_game():
    arena = make_arena(
        ["a", "b"],
        ["v0", "v1"],
        [("v0", "v0"), ("v0", "v1"), ("v1", "v0"), ("v1", "v1")],
        {"v0": "a", "v1": "b"},
        "v0",
    )
    omap = {
        frozenset({"v0"}): "win0",
        frozenset({"v1"}): "win1",
        frozenset({"v0", "v1"}): "win0",
    }
    prefs = PreferenceProfile(
        ("win0", "win1"),
        {"a": linear_order(["win1", "win0"]), "b": linear_order(["win0", "win1"])},
    )
    return GraphGame(arena, omap, prefs)


def non_credible_threat_game():
    # B's machine threatens the cycle that hurts both players; the threat
    # deters A on the main play but is not subgame perfect at t
    arena = make_arena(
        ["A", "B"],
        ["s", "t", "g", "p"],
        [("s", "g"), ("s", "t"), ("t", "g"), ("t", "p"), ("g", "g"), ("p", "p")],
        {"s": "A", "t": "B", "g": "A", "p": "B"},
        "s",
    )
    omap = {frozenset({"g"}): "mid", frozenset({"p"}): "bad"}
    prefs = PreferenceProfile(
        ("bad", "mid"),
        {"A": linear_order(["bad", "mid"]), "B": linear_order(["bad", "mid"])},
    )
    game = GraphGame(arena, omap, prefs)
    profile = StrategyProfile(
        {
            "A": memoryless_machine("A", {"s": "g", "g": "g"}),
            "B": memoryless_machine("B", {"t": "p", "p": "p"}),
        }
    )
    return game, profile


# --- synthesis ---------------------------------------------------------------


def test_synthesize_single_vertex():
    report = synthesize_ne(single_vertex_game())
    assert report.induced_outcome == "o1"
    assert report.main_lasso.cycle == ("v",)


def test_synthesize_single_player_gets_best():
    game = single_player_game()
    report = synthesize_ne(game)
    assert report.induced_outcome == "o2"
    assert verify_ne(game, report.profile) is None


@pytest.mark.parametrize("seed", range(40))
def test_synthesized_profiles_verify_and_fit_in_memory(seed):
    rng = random.Random(seed)
    players = [f"P{i}" for i in range(rng.randint(1, 3))]
    outcomes = [f"o{i}" for i in range(rng.randint(1, 4))]
    game = random_graph_game(rng, rng.randint(1, 4), players, outcomes)
    report = synthesize_ne(game)
    assert verify_ne(game, report.profile) is None
    assert all(bits <= report.memory_bound for bits in report.memory_bits.values())
    # threat-point soundness: nobody on the main play is punished above the
    # outcome they already receive
    for (b, v), held_to in report.punishments.items():
        order = game.prefs.order_of(b)
        assert order.rank_of(held_to) <= order.rank_of(report.induced_outcome)


def test_main_lasso_is_the_profile_play():
    game = single_player_game()
    report = synthesize_ne(game)
    replay = induced_lasso(game.arena, report.profile)
    assert replay == report.main_lasso


def test_main_lassos_are_canonical_and_replay_the_profile():
    # a play has one lasso: the shortest stem and a primitive cycle, so the
    # emitted main lasso does not depend on the machines' memory
    rng = random.Random(7070)
    for _ in range(300):
        players = [f"P{i}" for i in range(rng.randint(1, 3))]
        outcomes = [f"o{i}" for i in range(rng.randint(1, 4))]
        profile = pattern_free_profile(rng, players, outcomes)
        game = random_graph_game(rng, rng.randint(1, 5), players, outcomes, profile=profile)
        table = guarantee_table(game)
        for report in (synthesize_ne(game, table), muller_pareto_ne(game, table)):
            lasso = report.main_lasso
            assert primitive_cycle(lasso.cycle) == lasso.cycle
            assert not lasso.stem or lasso.stem[-1] != lasso.cycle[-1]
            assert induced_lasso(game.arena, report.profile) == lasso


# --- punishments ----------------------------------------------------------------


def test_punishment_trivial_vertex():
    row = guarantee_table(single_vertex_game()).rows["A"]
    machine = row.punish[row.class_rank["v"]]
    assert row.representative("v") == "o1"
    assert machine.memory_bits == 0


def test_punishment_holds_deviator_down():
    # the coalition owns everything; with both outcomes reachable under its
    # control it pins B at her guarantee o1
    arena = make_arena(
        ["A", "B"], ["u", "w"], [("u", "u"), ("u", "w"), ("w", "w")], {"u": "A", "w": "A"}, "u"
    )
    prefs = PreferenceProfile(
        ("o1", "o2"), {"A": linear_order(["o2", "o1"]), "B": linear_order(["o1", "o2"])}
    )
    game = GraphGame(arena, {frozenset({"u"}): "o1", frozenset({"w"}): "o2"}, prefs)
    row = guarantee_table(game).rows["B"]
    machine = row.punish[row.class_rank["u"]]
    assert row.representative("u") == "o1"
    profile = StrategyProfile(
        {"A": machine_as_player(machine, "A"), "B": memoryless_machine("B", {})}
    )
    assert outcome_from(game, profile, "u") == "o1"


def machine_as_player(machine, player):
    from graphgames.arena import StrategyMachine

    return StrategyMachine(player, machine.memory_bits, machine.update, machine.choice, machine.init)


@pytest.mark.parametrize("seed", range(15))
def test_punishment_memory_within_solver_bound(seed):
    rng = random.Random(seed)
    players = ["A", "B"]
    outcomes = [f"o{i}" for i in range(rng.randint(1, 3))]
    game = random_graph_game(rng, rng.randint(1, 4), players, outcomes)
    table = guarantee_table(game)
    for b in players:
        row = table.rows[b]
        for v in game.arena.vertices:
            assert row.punish[row.class_rank[v]].memory_bits <= row.solver_bits


# --- verification ------------------------------------------------------------------


def test_verify_single_vertex_profile():
    game = single_vertex_game()
    profile = StrategyProfile({"A": memoryless_machine("A", {"v": "v"})})
    assert verify_ne(game, profile) is None
    assert verify_spe(game, profile) is None


def test_verify_finds_improvement_and_witness_replays():
    game = single_player_game()
    lazy = StrategyProfile({"A": memoryless_machine("A", {"u": "u", "w": "w"})})
    witness = verify_ne(game, lazy)
    assert witness is not None
    assert witness.player == "A"
    assert witness.vertex == "u"
    assert witness.improved_outcome == "o2"
    better = StrategyProfile({"A": witness.machine})
    lasso = induced_lasso(game.arena, better)
    assert game.outcome_map[inf_set(lasso)] == "o2"


def random_machine(rng, arena, player, states):
    update, choice = {}, {}
    for v in arena.vertices:
        for q in range(states):
            update[(v, q)] = rng.randrange(states)
    for v in arena.owned_by(player):
        for q in range(states):
            choice[(v, q)] = rng.choice(arena.successors(v))
    return StrategyMachine(player, bits_for(states), update, choice)


@pytest.mark.parametrize("seed", range(40))
def test_verify_agrees_with_machine_enumeration(seed):
    # if any one-bit machine improves a player, verification must notice,
    # and every witness it produces must replay to the claimed improvement
    from oracles import all_machines

    rng = random.Random(seed)
    players = ["A", "B"][: rng.randint(1, 2)]
    outcomes = [f"o{i}" for i in range(rng.randint(1, 3))]
    game = random_graph_game(rng, rng.randint(1, 3), players, outcomes)
    machines = {p: random_machine(rng, game.arena, p, 2 ** rng.randint(0, 1)) for p in players}
    profile = StrategyProfile(machines)
    induced = game.outcome_map[inf_set(induced_lasso(game.arena, profile))]
    witness = verify_ne(game, profile)
    for a in players:
        order = game.prefs.order_of(a)
        brute_improves = any(
            order.lt(
                induced,
                game.outcome_map[
                    inf_set(induced_lasso(game.arena, StrategyProfile({**machines, a: m})))
                ],
            )
            for m in all_machines(game.arena, a, 1)
        )
        if brute_improves:
            assert witness is not None
    if witness is not None:
        alt = StrategyProfile({**machines, witness.player: witness.machine})
        realized = game.outcome_map[inf_set(induced_lasso(game.arena, alt))]
        order = game.prefs.order_of(witness.player)
        assert order.lt(induced, realized)


@pytest.mark.parametrize("seed", range(150))
def test_verify_search_agrees_with_product_oracle(seed):
    # the outcome-ordered search finds an improvement exactly when the
    # independent product oracle shows one, for the first such player, and
    # claims that player's best achievable class
    from oracles import outcomes_against_machine

    rng = random.Random(seed)
    outcomes = [f"o{i}" for i in range(rng.randint(2, 4))]
    game = random_graph_game(rng, rng.randint(3, 5), ["A", "B"], outcomes)
    arena = game.arena
    machines = {p: random_machine(rng, arena, p, 2 ** rng.randint(1, 2)) for p in ("A", "B")}
    profile = StrategyProfile(machines)
    induced = game.outcome_map[inf_set(induced_lasso(arena, profile))]
    expected = None
    for a, b in (("A", "B"), ("B", "A")):
        order = game.prefs.order_of(a)
        sets = outcomes_against_machine(arena, machines[b], arena.start)
        best = max(order.rank_of(game.outcome_map[T]) for T in sets)
        if best > order.rank_of(induced):
            expected = (a, best)
            break
    witness = verify_ne(game, profile)
    if expected is None:
        assert witness is None
    else:
        assert witness is not None and witness.player == expected[0]
        assert game.prefs.order_of(witness.player).rank_of(witness.improved_outcome) == expected[1]


def test_verify_spe_flags_non_credible_threat():
    game, profile = non_credible_threat_game()
    assert verify_ne(game, profile) is None
    found = verify_spe(game, profile)
    assert found is not None
    vertex, witness = found
    assert vertex == "t"
    assert witness.player == "B"
    assert witness.improved_outcome == "mid"


def play_prefix(arena, profile, v, mems, steps):
    """The first ``steps + 1`` vertices of the profile's play from a configuration."""
    mems = dict(mems)
    seq = [v]
    for _ in range(steps):
        own = arena.owner[v]
        v = profile.machines[own].move(v, mems[own])
        mems = {p: profile.machines[p].next_state(v, q) for p, q in mems.items()}
        seq.append(v)
    return seq


@pytest.mark.parametrize("seed", range(120))
def test_witnesses_replay_from_every_configuration(seed):
    # a witness found mid-play must replay, from that configuration, to the
    # outcome it claims, which beats the induced one, and the deviation must
    # leave the original play at the vertex it names
    rng = random.Random(seed)
    outcomes = [f"o{i}" for i in range(rng.randint(2, 4))]
    game = random_graph_game(rng, rng.randint(3, 5), ["P0", "P1", "P2"], outcomes)
    profile = synthesize_ne(game).profile
    arena = game.arena
    for v, mems in joint_configurations(arena, profile):
        witness = verify_ne(game, profile, start=v, init_mems=mems)
        if witness is None:
            continue
        a = witness.player
        alt = StrategyProfile({**profile.machines, a: witness.machine})
        alt_mems = {**mems, a: witness.machine.init}
        induced = outcome_from(game, profile, v, mems)
        assert outcome_from(game, alt, v, alt_mems) == witness.improved_outcome
        assert game.prefs.order_of(a).lt(induced, witness.improved_outcome)
        # both plays are ultimately periodic, so they part within as many
        # steps as their two walks have configurations
        steps = len(walk_configurations(arena, profile, v, mems)[0])
        steps += len(walk_configurations(arena, alt, v, alt_mems)[0])
        sa = play_prefix(arena, profile, v, mems, steps)
        sb = play_prefix(arena, alt, v, alt_mems, steps)
        apart = next((i for i in range(1, len(sa)) if sa[i] != sb[i]), None)
        assert apart is not None
        assert sa[apart - 1] == witness.vertex


def witness_data(w):
    """A deviation witness as plain data, its machine as its JSON document."""
    return None if w is None else (w.player, w.vertex, w.improved_outcome, machine_to_json(w.machine))


def verdict(found):
    """A ``verify_spe`` answer as plain data: the configuration's vertex and the witness."""
    return None if found is None else (found[0], witness_data(found[1]))


def random_profile_game(seed):
    """A random game on 2-5 vertices with 2-3 players, each playing a random 1-3-state machine."""
    rng = random.Random(seed + 50_000)
    players = ["A", "B", "C"][: rng.randint(2, 3)]
    outcomes = [f"o{i}" for i in range(rng.randint(2, 4))]
    game = random_graph_game(rng, rng.randint(2, 5), players, outcomes)
    machines = {p: random_machine(rng, game.arena, p, rng.randint(1, 3)) for p in players}
    return game, StrategyProfile(machines)


def synthesized_profile_game(seed):
    """A synthesized profile: an antagonistic SPE on even seeds, a 2-3 player NE on odd ones."""
    rng = random.Random(seed + 60_000)
    outcomes = [f"o{i}" for i in range(rng.randint(2, 4))]
    if seed % 2 == 0:
        prof = inverse_pair_profile(rng, outcomes, players=("A", "B"))
        game = random_graph_game(rng, rng.randint(2, 5), ["A", "B"], outcomes, profile=prof)
        return game, synthesize_antagonistic_spe(game)
    players = ["A", "B", "C"][: rng.randint(2, 3)]
    game = random_graph_game(rng, rng.randint(2, 5), players, outcomes)
    return game, synthesize_ne(game).profile


@pytest.mark.parametrize("seed", range(1400))
def test_shared_products_agree_with_fresh_products_on_random_profiles(seed):
    # one product per tempted player, shared by every configuration, gives
    # the witness that a fresh product per configuration and player gives,
    # byte for byte
    game, profile = random_profile_game(seed)
    assert verdict(verify_spe(game, profile)) == verdict(spe_by_fresh_products(game, profile))
    assert witness_data(verify_ne(game, profile)) == witness_data(deviation_by_fresh_products(game, profile))


@pytest.mark.parametrize("seed", range(600))
def test_shared_products_agree_with_fresh_products_on_synthesized_profiles(seed):
    game, profile = synthesized_profile_game(seed)
    assert verdict(verify_spe(game, profile)) == verdict(spe_by_fresh_products(game, profile))
    assert witness_data(verify_ne(game, profile)) == witness_data(deviation_by_fresh_products(game, profile))


def count_deviation_products(monkeypatch) -> list:
    """Patch ``equilibria.explore`` to log the products it explores by name."""
    built = []
    explore = equilibria.explore

    def counting(starts, successors, bound, what):
        built.append(what)
        return explore(starts, successors, bound, what)

    monkeypatch.setattr(equilibria, "explore", counting)
    return built


def tempted_players(game, profile) -> set:
    """The players ``verify_spe`` builds a product for: those for whom the
    map names an outcome better than some configuration's outcome, over
    the configurations in search order, up to the first witness and its
    player."""
    values = set(game.outcome_map.values())
    tempted = set()
    for v, mems in joint_configurations(game.arena, profile):
        induced = outcome_from(game, profile, v, mems)
        witness = deviation_by_fresh_products(game, profile, v, mems)
        for a in game.arena.sorted_players():
            if any(game.prefs.order_of(a).lt(induced, o) for o in values):
                tempted.add(a)
            if witness is not None and witness.player == a:
                return tempted
    return tempted


@pytest.mark.parametrize("seed", range(40))
def test_verify_spe_builds_one_deviation_product_per_player(seed, monkeypatch):
    # one product for each player some configuration's outcome can be
    # improved on for, and none for any other player
    game, profile = random_profile_game(seed) if seed % 2 else synthesized_profile_game(seed // 2)
    expected = tempted_players(game, profile)
    built = count_deviation_products(monkeypatch)
    verify_spe(game, profile)
    assert built.count("joint product") == 1
    assert built.count("deviation product") == len(expected)


def searched_configurations(monkeypatch) -> list:
    """Patch the deviation product to log the configuration each ``first_improvement`` search starts from."""
    searched, last = [], []
    state, search = equilibria._DeviationProduct.state, equilibria._DeviationProduct.first_improvement

    def recording_state(self, cfg):
        last[:] = [cfg]
        return state(self, cfg)

    def recording_search(self, start, induced):
        assert state(self, last[0]) == start
        searched.append(last[0])
        return search(self, start, induced)

    monkeypatch.setattr(equilibria._DeviationProduct, "state", recording_state)
    monkeypatch.setattr(equilibria._DeviationProduct, "first_improvement", recording_search)
    return searched


def test_verify_spe_searches_no_configuration_an_earlier_play_met(monkeypatch):
    # a configuration on the play of one searched before it has that one's
    # outcome, and its deviations are that one's, so it is not searched;
    # the seeded random and synthesised profiles of the tests above
    searched = searched_configurations(monkeypatch)
    starts = 0
    for game, profile in [*map(random_profile_game, range(1400)), *map(synthesized_profile_game, range(600))]:
        searched.clear()
        verify_spe(game, profile)
        players = game.arena.sorted_players()
        met = set()
        for cfg in dict.fromkeys(searched):  # one search per tempted player
            assert cfg not in met
            met.update(walk_configurations(game.arena, profile, cfg[0], dict(zip(players, cfg[1])))[0])
            starts += 1
    assert starts > 2000


@pytest.mark.parametrize("seed", range(40))
def test_verify_spe_fits_in_the_joint_product_bound(seed):
    # every deviation product state projects a joint configuration, so a
    # bound the joint product meets is met by every deviation product
    game, profile = random_profile_game(seed) if seed % 2 else synthesized_profile_game(seed // 2)
    size = len(joint_configurations(game.arena, profile))
    expected = verdict(verify_spe(game, profile))
    assert verdict(verify_spe(game, profile, max_product_states=size)) == expected
    if size > 1:
        with pytest.raises(TooLargeError, match="joint product"):
            verify_spe(game, profile, max_product_states=size - 1)


def test_deviation_products_index_their_states_as_an_arena_index(monkeypatch):
    # every deviation product verify_spe builds is an ArenaIndex equal to
    # the index of a product explored afresh; its masks equal the summed
    # formula, and searching it never works out ``owned``
    built = []
    init = equilibria._DeviationProduct.__init__

    def recording(self, game, profile, player, configs, bound):
        init(self, game, profile, player, configs, bound)
        built.append((self, player, list(configs)))

    monkeypatch.setattr(equilibria._DeviationProduct, "__init__", recording)
    checked = 0
    for seed in range(1000):
        game, profile = random_profile_game(seed) if seed % 4 else synthesized_profile_game(seed // 4)
        built.clear()
        verify_spe(game, profile)
        players = game.arena.sorted_players()
        for product, player, configs in built:
            view = product.view
            assert type(view) is ArenaIndex and not owned_is_built(view), seed
            fixed = [profile.machines[p] for p in players if p != player]
            states, succ = explore(
                [product.state(cfg) for cfg in configs],
                successors_by_machine_calls(game.arena, (player,), fixed),
                10**6,
                "deviation product",
            )
            oracle = IndexByCallables(sorted(states, key=ar.skey), succ.__getitem__, lambda s: s[0])
            for name in ("vertices", "index", "succ", "pred", "owner"):
                assert getattr(view, name) == getattr(oracle, name), (seed, name)
            assert view.masks() == masks_by_sums(oracle), seed
            checked += 1
    assert checked > 800  # 850 products over the 1,000 profiles


# --- antagonistic subgame perfection ---------------------------------------------------


def test_spe_requires_two_inverse_players():
    with pytest.raises(NotAntagonisticError):
        synthesize_antagonistic_spe(single_vertex_game())
    game = single_player_game()
    arena = make_arena(
        ["A", "B"], ["u", "w"], [("u", "u"), ("u", "w"), ("w", "w")], {"u": "A", "w": "B"}, "u"
    )
    prefs = PreferenceProfile(
        ("o1", "o2"), {"A": linear_order(["o1", "o2"]), "B": linear_order(["o1", "o2"])}
    )
    aligned = GraphGame(arena, {frozenset({"u"}): "o1", frozenset({"w"}): "o2"}, prefs)
    with pytest.raises(NotAntagonisticError):
        synthesize_antagonistic_spe(aligned)


def test_spe_parity_outcome_game():
    game = parity_outcome_game()
    profile = synthesize_antagonistic_spe(game)
    assert outcome_from(game, profile, "v0") == "win0"
    assert outcome_from(game, profile, "v1") == "win1"
    assert verify_spe(game, profile) is None


@pytest.mark.parametrize("seed", range(20))
def test_spe_guarantees_meet_and_verify(seed):
    rng = random.Random(seed)
    outcomes = [f"o{i}" for i in range(rng.randint(1, 4))]
    prof = inverse_pair_profile(rng, outcomes, players=("A", "B"))
    game = random_graph_game(rng, rng.randint(1, 4), ["A", "B"], outcomes, profile=prof)
    table = guarantee_table(game)
    for v in game.arena.vertices:
        ca = table.rows["A"].order.class_of(table.rows["A"].representative(v))
        cb = table.rows["B"].order.class_of(table.rows["B"].representative(v))
        assert ca == cb
    profile = synthesize_antagonistic_spe(game, table)
    assert verify_spe(game, profile) is None
    for v in game.arena.vertices:
        induced = outcome_from(game, profile, v)
        expected = table.rows["A"].order.class_of(table.rows["A"].representative(v))
        assert induced in expected


@pytest.mark.parametrize("seed", range(10))
def test_spe_at_larger_scale(seed):
    rng = random.Random(seed + 30_000)
    outcomes = [f"o{i}" for i in range(rng.randint(2, 5))]
    prof = inverse_pair_profile(rng, outcomes, players=("A", "B"))
    game = random_graph_game(rng, rng.randint(4, 6), ["A", "B"], outcomes, profile=prof)
    table = guarantee_table(game)
    profile = synthesize_antagonistic_spe(game, table)
    assert verify_spe(game, profile) is None
    for v in game.arena.vertices:
        induced = outcome_from(game, profile, v)
        assert induced in table.rows["A"].order.class_of(table.rows["A"].representative(v))


# --- Pareto-optimal equilibria ------------------------------------------------------------


def test_pareto_ne_shared_preferences_reach_top():
    arena = make_arena(
        ["A", "B"], ["u", "w"], [("u", "u"), ("u", "w"), ("w", "w")], {"u": "A", "w": "B"}, "u"
    )
    prefs = PreferenceProfile(
        ("o1", "o2"), {"A": linear_order(["o1", "o2"]), "B": linear_order(["o1", "o2"])}
    )
    game = GraphGame(arena, {frozenset({"u"}): "o1", frozenset({"w"}): "o2"}, prefs)
    report = muller_pareto_ne(game)
    assert report.induced_outcome == "o2"


def test_pareto_ne_single_feasible_set():
    arena = make_arena(
        ["A", "B"], ["u", "w"], [("u", "w"), ("w", "u")], {"u": "A", "w": "B"}, "u"
    )
    prefs = PreferenceProfile(
        ("o1", "o2"), {"A": linear_order(["o1", "o2"]), "B": linear_order(["o2", "o1"])}
    )
    game = GraphGame(arena, {frozenset({"u", "w"}): "o1"}, prefs)
    report = muller_pareto_ne(game)
    assert report.induced_outcome == "o1"


def test_pareto_ne_rejects_pattern():
    game = single_player_game()
    prefs = PreferenceProfile(
        ("x", "y", "z"),
        {"A": linear_order(["z", "y", "x"]), "B": linear_order(["x", "z", "y"])},
    )
    arena = make_arena(
        ["A", "B"], ["u", "w"], [("u", "u"), ("u", "w"), ("w", "w")], {"u": "A", "w": "B"}, "u"
    )
    patterned = GraphGame(arena, {frozenset({"u"}): "x", frozenset({"w"}): "y"}, prefs)
    with pytest.raises(PatternPresentError) as exc:
        muller_pareto_ne(patterned)
    assert exc.value.witness == ("A", "B", "x", "y", "z")


@pytest.mark.parametrize("seed", range(25))
def test_pareto_ne_output_is_front_and_stable(seed):
    rng = random.Random(seed)
    players = [f"P{i}" for i in range(rng.randint(2, 3))]
    outcomes = [f"o{i}" for i in range(rng.randint(3, 4))]
    prof = pattern_free_profile(rng, players, outcomes)
    game = random_graph_game(rng, rng.randint(1, 4), players, outcomes, profile=prof)
    report = muller_pareto_ne(game)
    assert report.induced_outcome in pareto_front(game.prefs, game.realizable_outcomes())
    assert verify_ne(game, report.profile) is None


def test_pareto_ne_target_matches_the_all_realizable_oracle():
    for seed in range(200):
        rng = random.Random(seed + 60_000)
        players = ["A", "B", "C"][: rng.randint(2, 3)]
        outcomes = [f"o{i}" for i in range(rng.randint(2, 4))]
        prof = pattern_free_profile(rng, players, outcomes)
        game = random_graph_game(rng, rng.randint(1, 5), players, outcomes, profile=prof)
        table = guarantee_table(game)
        report = muller_pareto_ne(game, table)
        assert (report.induced_outcome, inf_set(report.main_lasso)) == pareto_target_by_all_realizable(game, table)


def test_loading_guarantees_and_pareto_synthesis_share_the_arena_index(monkeypatch):
    # the loader's totality check, the guarantee table's Muller search and
    # muller_pareto_ne's feasibility test all read one arena's index
    rng = random.Random(0)
    players, outcomes = ["A", "B", "C"], ["o1", "o2", "o3"]
    prof = pattern_free_profile(rng, players, outcomes)
    doc = graph_game_to_json(random_graph_game(rng, 6, players, outcomes, profile=prof))
    reads, split = [], []
    masks, split_components = ar.ArenaIndex.masks, ar.split_components

    def reading(view):
        reads.append((view, masks(view)))
        return reads[-1][1]

    def counting(x, *args):
        split.append(x)
        return split_components(x, *args)

    monkeypatch.setattr(ar.ArenaIndex, "masks", reading)
    monkeypatch.setattr(ar, "split_components", counting)
    game = graph_game_from_json(doc)
    loaded = len(split)
    muller_pareto_ne(game, guarantee_table(game))
    # every read gets the one pair of masks built for the game's arena
    assert len(reads) > 3 and {id(v) for v, _ in reads} == {id(game.arena.view)}
    assert all(pair is reads[0][1] for _, pair in reads)
    # loading splits each of the 19 recurrence sets once, and nothing splits any again
    assert len(set(split)) == len(split) == loaded == len(game.outcome_map) == 19


def ring_game(n):
    """Ring of ``n`` self-looping vertices; staying put and going round differ."""
    vs = [f"r{i:02d}" for i in range(n)]
    edges = [(v, v) for v in vs] + [(v, vs[(i + 1) % n]) for i, v in enumerate(vs)]
    owner = {v: "A" if i % 2 == 0 else "B" for i, v in enumerate(vs)}
    arena = make_arena(["A", "B"], vs, edges, owner, vs[0])
    omap = {frozenset({v}): ("a" if owner[v] == "A" else "b") for v in vs}
    omap[frozenset(vs)] = "c"
    prefs = PreferenceProfile(
        ("a", "b", "c"), {"A": linear_order(["a", "b", "c"]), "B": linear_order(["c", "b", "a"])}
    )
    return GraphGame(arena, omap, prefs)


def test_pareto_ne_takes_recurrence_sets_from_the_outcome_map():
    # 21 vertices is past the recurrence-set enumeration bound of 20; the
    # game is built directly, so no 2^21 totality scan runs either
    game = ring_game(21)
    report = muller_pareto_ne(game)
    assert report.induced_outcome in pareto_front(game.prefs, game.realizable_outcomes())
    assert verify_ne(game, report.profile) is None


def test_verifiers_take_the_product_bound_by_name():
    game = parity_outcome_game()
    profile = synthesize_ne(game).profile
    assert verify_ne(game, profile, max_product_states=100) is None
    assert verify_spe(game, synthesize_antagonistic_spe(game), max_product_states=100) is None
    # a moves to v1 and b stays there: a is tempted back to win0, and her
    # product holds both vertices
    moved = StrategyProfile({"a": memoryless_machine("a", {"v0": "v1"}), "b": memoryless_machine("b", {"v1": "v1"})})
    witness = verify_ne(game, moved, max_product_states=2)
    assert (witness.player, witness.improved_outcome) == ("a", "win0")
    with pytest.raises(TooLargeError, match="deviation product exceeds 1 states"):
        verify_ne(game, moved, max_product_states=1)
    # verify --subgames is still refused by its joint product first
    with pytest.raises(TooLargeError, match="joint product exceeds 1 states"):
        verify_spe(game, profile, max_product_states=1)


def test_verify_ne_builds_no_product_for_a_player_no_outcome_tempts(monkeypatch):
    # in the NE profile a keeps the token at v0 and her best outcome win0;
    # b is tempted but never moves, so b's one-state product fits the bound
    # and a's two-state product, needed by no one, is not built
    game = parity_outcome_game()
    profile = synthesize_ne(game).profile
    built = count_deviation_products(monkeypatch)
    assert verify_ne(game, profile, max_product_states=1) is None
    assert built == ["deviation product"]
    # b's machine has no choice at v1, which only a deviation by a reaches:
    # a's product meets the gap, and no one needs it
    gappy = StrategyProfile({"a": memoryless_machine("a", {"v0": "v0"}), "b": StrategyMachine("b", 0, {}, {})})
    assert verify_ne(game, gappy) is None
    # once a is tempted, her product is built and the gap refused
    tempted = GraphGame(game.arena, game.outcome_map, PreferenceProfile(
        ("win0", "win1"), {"a": linear_order(["win0", "win1"]), "b": linear_order(["win0", "win1"])}
    ))
    with pytest.raises(InvalidInputError, match="machine for 'b' has no choice at vertex 'v1', state 0"):
        verify_ne(tempted, gappy)
    # verify --subgames explores the joint product first, which meets the gap
    with pytest.raises(InvalidInputError, match="machine for 'b' has no choice at vertex 'v1', state 0"):
        verify_spe(game, gappy)


# --- table builders against dict builders ------------------------------------------------


def optimal_pairs(monkeypatch):
    for seed in range(200):
        rng = random.Random(seed + 70_000)
        players = ["A", "B", "C"][: rng.randint(1, 3)]
        game = random_graph_game(rng, rng.randint(1, 5), players, [f"o{i}" for i in range(rng.randint(1, 4))])
        table = guarantee_table(game)
        for p in players:
            yield optimal_strategy(game, p, table.rows[p]), optimal_strategy_by_dicts(game, p, table.rows[p])


def conformance_pairs(monkeypatch):
    for seed in range(200):
        rng = random.Random(seed + 80_000)
        players = ["A", "B", "C"][: rng.randint(1, 3)]
        outcomes = [f"o{i}" for i in range(rng.randint(1, 4))]
        ne_game = random_graph_game(rng, rng.randint(1, 5), players, outcomes)
        # pareto-ne needs linear preferences without the blocking pattern
        prof = pattern_free_profile(rng, players, outcomes)
        pareto_game = random_graph_game(rng, rng.randint(1, 5), players, outcomes, profile=prof)
        for game, synthesize in ((ne_game, synthesize_ne), (pareto_game, muller_pareto_ne)):
            table = guarantee_table(game)
            report = synthesize(game, table)
            for p in players:
                yield report.profile.machines[p], conformance_machine_by_dicts(game, table, report.main_lasso, p)


def witness_pairs(monkeypatch):
    built = []
    position_machine = equilibria._position_machine

    def recording(*args):
        built.append((args, position_machine(*args)))
        return built[-1][1]

    monkeypatch.setattr(equilibria, "_position_machine", recording)
    witnesses = seed = 0
    while witnesses < 200:
        rng = random.Random(seed + 90_000)
        seed += 1
        players = ["A", "B", "C"][: rng.randint(2, 3)]
        game = random_graph_game(rng, rng.randint(2, 5), players, [f"o{i}" for i in range(rng.randint(2, 4))])
        profile = StrategyProfile({p: random_machine(rng, game.arena, p, rng.randint(2, 3)) for p in players})
        built.clear()
        witness = verify_ne(game, profile)
        if witness is not None:
            witnesses += 1
            (args, machine), = built
            assert witness.machine is machine
            yield machine, position_machine_by_dicts(*args)


@pytest.mark.parametrize(
    "pairs", [optimal_pairs, conformance_pairs, witness_pairs], ids=["optimal", "conformance", "witness"]
)
def test_table_builders_match_the_dict_builders(pairs, monkeypatch):
    # the builders fill integer tables for minimize_table; the references
    # build dict machines and minimise them through minimize_machine.  Each
    # case runs 200 seeded random games (200 witnesses for verify_ne)
    count = 0
    for machine, expected in pairs(monkeypatch):
        assert machine_to_json(machine) == machine_to_json(expected)
        count += 1
    assert count >= 200
