import importlib
import json
import random
from pathlib import Path

import pytest

from graphgames import jsonio
from graphgames.arena import (
    StrategyProfile,
    bits_for,
    closed_strongly_connected_sets,
    feasible_among,
    induced_lasso,
    inf_set,
    make_arena,
    validate_arena,
)
from graphgames.equilibria import synthesize_ne, verify_ne
from graphgames.errors import TooLargeError
from graphgames.cli import main
from graphgames.gen import inverse_pair_profile, random_graph_game, random_linear, random_profile
from graphgames.guarantees import (
    GraphGame,
    best_guarantee,
    coalition_tag,
    guarantee_table,
    local_consistency_violations,
    optimal_strategy,
)
from graphgames.orders import PreferenceProfile, linear_order
from graphgames.winlose import MullerSearch, solve_muller

from oracles import (
    RecordProduct,
    TreeProduct,
    guarantee_row_by_fresh_solves,
    all_machines,
    feasible_sets_by_walk_search,
    machine_product_arena,
    outcomes_against_machine,
    recurrence_sets_by_mask_scan,
    row_certificate_violations,
    threshold_game,
    zielonka_memory_bound,
)


def single_player_game():
    arena = make_arena(
        ["A"], ["u", "w"], [("u", "u"), ("u", "w"), ("w", "w")], {"u": "A", "w": "A"}, "u"
    )
    prefs = PreferenceProfile(("o1", "o2"), {"A": linear_order(["o1", "o2"])})
    return GraphGame(arena, {frozenset({"u"}): "o1", frozenset({"w"}): "o2"}, prefs)


def coalition_owned_game():
    arena = make_arena(
        ["A", "B"], ["u", "w"], [("u", "u"), ("u", "w"), ("w", "w")], {"u": "B", "w": "A"}, "u"
    )
    prefs = PreferenceProfile(
        ("o1", "o2"), {"A": linear_order(["o1", "o2"]), "B": linear_order(["o2", "o1"])}
    )
    return GraphGame(arena, {frozenset({"u"}): "o1", frozenset({"w"}): "o2"}, prefs)


# --- threshold games -----------------------------------------------------------


def test_threshold_top_class_has_empty_family():
    game = single_player_game()
    tg = threshold_game(game, "A", "o2")
    assert tg.objective.family == frozenset()


def test_threshold_family_collects_strictly_better_sets():
    game = single_player_game()
    tg = threshold_game(game, "A", "o1")
    assert tg.objective.family == frozenset({frozenset({"w"})})


def test_threshold_coalition_blocks_at_start():
    # the coalition owns u and loops there forever, so A cannot force more
    # than o1 from the start; from w the only play already yields o2
    game = coalition_owned_game()
    tg = threshold_game(game, "A", "o1")
    res = solve_muller(tg)
    assert res.win1 == frozenset({"u"})
    assert res.win0 == frozenset({"w"})


# --- best guarantees --------------------------------------------------------------


def test_guarantee_single_self_loop():
    arena = make_arena(["A"], ["v"], [("v", "v")], {"v": "A"}, "v")
    prefs = PreferenceProfile(("o1",), {"A": linear_order(["o1"])})
    game = GraphGame(arena, {frozenset({"v"}): "o1"}, prefs)
    row = best_guarantee(game, "A")
    assert row.representative("v") == "o1"


def test_guarantee_single_player_reaches_best():
    row = best_guarantee(single_player_game(), "A")
    assert row.representative("u") == "o2"
    assert row.representative("w") == "o2"


def test_guarantee_against_coalition():
    row = best_guarantee(coalition_owned_game(), "A")
    assert row.representative("u") == "o1"
    assert row.representative("w") == "o2"


def test_guarantee_matches_machine_enumeration_single_player():
    # with no opponent, the guarantee is the best outcome any machine reaches
    game = single_player_game()
    order = game.prefs.order_of("A")
    best = {}
    for bits in (0, 1):
        for machine in all_machines(game.arena, "A", bits):
            for v in game.arena.vertices:
                lasso = induced_lasso(game.arena, StrategyProfile({"A": machine}), v)
                o = game.outcome_map[inf_set(lasso)]
                if v not in best or order.lt(best[v], o):
                    best[v] = o
    row = best_guarantee(game, "A")
    assert {v: row.representative(v) for v in game.arena.vertices} == best


@pytest.mark.parametrize("seed", range(25))
def test_guarantee_is_tight_against_enumeration(seed):
    # no memoryless machine forces more than the table class, and the
    # optimal machine never falls below it (the worst reachable recurrence
    # set against free opponents decides)
    rng = random.Random(seed)
    players = ["A", "B"][: rng.randint(1, 2)]
    outcomes = [f"o{i}" for i in range(rng.randint(1, 3))]
    game = random_graph_game(rng, rng.randint(1, 3), players, outcomes)
    table = guarantee_table(game)
    for a in players:
        order = game.prefs.order_of(a)
        row = table.rows[a]
        for machine in all_machines(game.arena, a, 0):
            for v in game.arena.vertices:
                reachable = outcomes_against_machine(game.arena, machine, v)
                worst = min(
                    (order.rank_of(game.outcome_map[t]) for t in reachable),
                )
                assert worst <= row.class_rank[v]
        opt = optimal_strategy(game, a, row)
        for v in game.arena.vertices:
            reachable = outcomes_against_machine(game.arena, opt, v)
            worst = min(order.rank_of(game.outcome_map[t]) for t in reachable)
            assert worst == row.class_rank[v]


# --- optimal strategies --------------------------------------------------------------


def test_optimal_machine_moves_to_better_loop():
    game = single_player_game()
    machine = optimal_strategy(game, "A")
    assert machine.move("u", machine.init) == "w"


def test_optimal_machine_trivial_vertex():
    arena = make_arena(["A"], ["v"], [("v", "v")], {"v": "A"}, "v")
    prefs = PreferenceProfile(("o1",), {"A": linear_order(["o1"])})
    game = GraphGame(arena, {frozenset({"v"}): "o1"}, prefs)
    machine = optimal_strategy(game, "A")
    assert machine.memory_bits == 0


@pytest.mark.parametrize("seed", range(30))
def test_optimal_memory_bound(seed):
    # selector over classes plus one simulated threshold machine
    rng = random.Random(seed)
    players = [f"P{i}" for i in range(rng.randint(1, 3))]
    outcomes = [f"o{i}" for i in range(rng.randint(1, 4))]
    game = random_graph_game(rng, rng.randint(1, 5), players, outcomes)
    table = guarantee_table(game)
    n = len(game.arena.vertices)
    for p in players:
        machine = optimal_strategy(game, p, table.rows[p])
        assert machine.memory_bits <= table.rows[p].solver_bits + bits_for(n) + 0


@pytest.mark.parametrize("seed", range(20))
def test_optimal_certifies_guarantee_at_every_reachable_configuration(seed):
    rng = random.Random(seed)
    players = ["A", "B"][: rng.randint(1, 2)]
    outcomes = [f"o{i}" for i in range(rng.randint(1, 3))]
    game = random_graph_game(rng, rng.randint(1, 4), players, outcomes)
    table = guarantee_table(game)
    from graphgames.arena import feasible_inf_sets

    for a in players:
        order = game.prefs.order_of(a)
        row = table.rows[a]
        machine = optimal_strategy(game, a, row)
        product, proj = machine_product_arena(game.arena, machine, game.arena.start)
        for pv in product.vertices:
            sets = feasible_inf_sets(product, pv)
            worst = min(
                order.rank_of(game.outcome_map[frozenset(proj[s] for s in t)]) for t in sets
            )
            assert worst >= row.class_rank[proj[pv]]


@pytest.mark.parametrize("seed", range(20))
def test_guarantee_classes_never_drop_along_optimal_play(seed):
    # along any walk the certified class only improves, and switches are
    # bounded by the number of distinct classes
    rng = random.Random(seed)
    players = ["A", "B"][: rng.randint(1, 2)]
    outcomes = [f"o{i}" for i in range(rng.randint(2, 3))]
    game = random_graph_game(rng, rng.randint(2, 4), players, outcomes)
    table = guarantee_table(game)
    a = players[0]
    row = table.rows[a]
    machine = optimal_strategy(game, a, row)
    n = len(game.arena.vertices)
    for trial in range(10):
        v = game.arena.start
        q = machine.init
        ranks = [row.class_rank[v]]
        for _ in range(3 * n):
            if game.arena.owner[v] == a:
                w = machine.move(v, q)
            else:
                w = rng.choice(game.arena.successors(v))
            q = machine.next_state(w, q)
            v = w
            ranks.append(row.class_rank[v])
        assert all(x <= y for x, y in zip(ranks, ranks[1:]))
        switches = sum(1 for x, y in zip(ranks, ranks[1:]) if x != y)
        assert switches <= n - 1


# --- table-level invariants --------------------------------------------------------------


@pytest.mark.parametrize("seed", range(30))
def test_local_consistency(seed):
    rng = random.Random(seed)
    players = [f"P{i}" for i in range(rng.randint(1, 3))]
    outcomes = [f"o{i}" for i in range(rng.randint(1, 4))]
    game = random_graph_game(rng, rng.randint(1, 5), players, outcomes)
    table = guarantee_table(game)
    assert local_consistency_violations(game, table) == []


def test_table_serialization_shape():
    table = guarantee_table(single_player_game())
    doc = jsonio.table_to_json(table)
    assert doc == {"A": {"u": "o2", "w": "o2"}}
    assert table.piece_bits == 0
    assert table.piece_count == 2


@pytest.mark.parametrize("seed", range(10))
def test_threshold_games_are_determined(seed):
    rng = random.Random(seed + 500)
    players = [f"P{i}" for i in range(rng.randint(1, 3))]
    outcomes = [f"o{i}" for i in range(rng.randint(2, 4))]
    game = random_graph_game(rng, rng.randint(1, 4), players, outcomes)
    for a in players:
        for o in outcomes:
            res = solve_muller(threshold_game(game, a, o))
            assert res.win0 | res.win1 == frozenset(game.arena.vertices)
            assert not res.win0 & res.win1


def test_shared_product_rows_match_fresh_threshold_solves():
    # every threshold of every player is played on one search's products,
    # only the regions up to the first empty one are solved, and machines
    # are pulled back when read; each row must equal the row read off a
    # fresh solve of every threshold game, so nothing one solve leaves
    # behind reaches the next and nothing left unsolved is missed
    rng = random.Random(4040)
    top_seen = set()
    for n in range(300):
        kind = ("weak", "linear", "inverse")[n % 3]
        players = ["A", "B"] if kind == "inverse" else ["A", "B", "C"][: rng.randint(2, 3)]
        outcomes = [f"o{i}" for i in range(rng.randint(2, 4))]
        prefs = inverse_pair_profile(rng, outcomes) if kind == "inverse" else None
        game = random_graph_game(rng, rng.randint(3, 5), players, outcomes, linear=kind == "linear", profile=prefs)
        table = guarantee_table(game)
        bits = []
        for p in players:
            rank, machines, punish, solver_bits = guarantee_row_by_fresh_solves(game, p)
            row = table.rows[p]
            assert row.class_rank == rank
            assert sorted(row.machines) == sorted(row.punish) == sorted(machines)
            for c in machines:
                assert jsonio.machine_to_json(row.machines[c]) == jsonio.machine_to_json(machines[c])
                assert jsonio.machine_to_json(row.punish[c]) == jsonio.machine_to_json(punish[c])
            assert row.solver_bits == solver_bits
            bits.append(solver_bits)
            top_seen.add(max(rank.values()) == row.order.num_classes() - 1)
        assert table.solver_bits == max(bits)
    assert top_seen == {True, False}


def test_guarantee_builds_no_machine_and_spe_only_its_own(tmp_path, capsys, monkeypatch):
    import graphgames.winlose as wl

    built = []
    machine = wl.ZielonkaRecursion.machine

    def counting(self, s):
        if self.machines[s] is None:
            built.append(self.sides[s])
        return machine(self, s)

    monkeypatch.setattr(wl.ZielonkaRecursion, "machine", counting)
    rng = random.Random(6262)
    for i in range(20):
        outcomes = ["o1", "o2", "o3"]
        game = random_graph_game(rng, 5, ["A", "B"], outcomes, profile=inverse_pair_profile(rng, outcomes))
        path = tmp_path / f"game{i}.json"
        path.write_text(json.dumps(jsonio.graph_game_to_json(game)))
        assert main(["guarantee", str(path)]) == 0
        assert built == []
        assert main(["spe", str(path)]) == 0
        assert all(not isinstance(p, tuple) for p in built)  # no coalition machine
        built.clear()
    capsys.readouterr()


def test_threshold_regions_match_the_record_product_oracle():
    # every threshold of every player: the guarantee class is above the
    # threshold exactly where the record product says the player wins
    rng = random.Random(6060)
    for _ in range(200):
        players = ["A", "B", "C"][: rng.randint(1, 3)]
        outcomes = [f"o{i}" for i in range(rng.randint(1, 4))]
        game = random_graph_game(rng, rng.randint(1, 7), players, outcomes)
        table = guarantee_table(game)
        oracle = RecordProduct(game.arena)
        for p in players:
            order = game.prefs.order_of(p)
            for j in range(order.num_classes()):
                family = frozenset(s for s, o in game.outcome_map.items() if order.lt(order.representative(j), o))
                above = {v for v in game.arena.vertices if table.rows[p].class_rank[v] > j}
                assert oracle.win0(family, p) == above


@pytest.mark.parametrize("block", range(10))
def test_threshold_regions_match_the_tree_product_oracle(block):
    # every threshold of every player, at least 200 threshold games a block
    # and 2,000 in all, n=3-10 with 2-4 players and 2-5 outcomes: the
    # guarantee class is above the threshold exactly where the parity
    # product over the family's Zielonka trees says the player wins
    rng = random.Random(f"tree product regions {block}")
    solved = 0
    while solved < 200:
        players = ["A", "B", "C", "D"][: rng.randint(2, 4)]
        outcomes = [f"o{i}" for i in range(rng.randint(2, 5))]
        game = random_graph_game(rng, rng.randint(3, 10), players, outcomes)
        table = guarantee_table(game)
        recurrence = recurrence_sets_by_mask_scan(game.arena)
        for p in players:
            order = game.prefs.order_of(p)
            for j in range(order.num_classes()):
                tg = threshold_game(game, p, order.representative(j))
                above = {v for v, c in table.rows[p].class_rank.items() if c > j}
                assert TreeProduct(tg.arena, tg.objective.family, recurrence).win0(p) == above
                solved += 1


def certified(game, bounded=True):
    """The game's guarantee table, after every row passes the certificate.

    When ``bounded``, both sides' machines of every threshold solve have at
    most the states of the memory bound read off the solve's Zielonka DAG.
    """
    table = guarantee_table(game)
    for row in table.rows.values():
        assert row_certificate_violations(game, row) == []
        for solve in row.solves if bounded else ():
            for s in (0, 1):
                assert solve.machine(s).state_count() <= zielonka_memory_bound(solve, s)
    return table


@pytest.mark.parametrize("block", range(6))
def test_guarantee_rows_pass_the_certificate(block):
    # 300 seeded games with 2-4 players: from every vertex of its class or
    # above, in every memory state, machines[c] lets the player achieve no
    # set ranked below c, and punish[c] lets her achieve none ranked above;
    # no threshold machine outgrows the memory bound
    rng = random.Random(f"certificate {block}")
    for _ in range(50):
        players = ["A", "B", "C", "D"][: rng.randint(2, 4)]
        game = random_graph_game(rng, rng.randint(2, 8), players, [f"o{i}" for i in range(rng.randint(2, 5))])
        certified(game)


def test_synth_corpus_rows_pass_the_certificate(monkeypatch):
    # the games of the seed-1 synth workload, generated as the benchmark
    # generates them, from its seed and slot list
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    corpus = importlib.import_module("corpus")
    workloads = importlib.import_module("workloads")
    rng = random.Random("synth:1")
    for _ in range(workloads.SIZES["synth"]["full"]["rounds"]):
        for _, n, players, outcomes, prefs in workloads.SYNTH_SLOTS:
            doc = corpus.graph_game_doc(rng, n, ["A", "B", "C"][:players], outcomes, prefs)
            certified(jsonio.graph_game_from_json(doc))


def test_memory_bits_build_no_machine_for_a_side_without_phases(monkeypatch):
    # the 300 certificate games and the seed-1 synth corpus: a side that is
    # σ at no memo entry of two phases is answered 0 bits without its
    # machine, which, built afterwards, has one state; every answer is the
    # larger machine's bits
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    corpus = importlib.import_module("corpus")
    workloads = importlib.import_module("workloads")
    games = []
    for block in range(6):
        rng = random.Random(f"certificate {block}")
        for _ in range(50):
            players = ["A", "B", "C", "D"][: rng.randint(2, 4)]
            games.append(random_graph_game(rng, rng.randint(2, 8), players, [f"o{i}" for i in range(rng.randint(2, 5))]))
    rng = random.Random("synth:1")
    for _ in range(workloads.SIZES["synth"]["full"]["rounds"]):
        for _, n, players, outcomes, prefs in workloads.SYNTH_SLOTS:
            games.append(jsonio.graph_game_from_json(corpus.graph_game_doc(rng, n, ["A", "B", "C"][:players], outcomes, prefs)))
    lean = 0
    for game in games:
        solves = {id(solve): solve for row in guarantee_table(game).rows.values() for solve in row.solves}
        for solve in solves.values():
            sides = [s for s in (0, 1) if not solve.keeps_memory(s)]
            bits = solve.memory_bits()
            assert all(solve.machines[s] is None for s in sides)
            assert bits == max(solve.machine(0).memory_bits, solve.machine(1).memory_bits)
            assert all(solve.machine(s).state_count() == 1 for s in sides)
            lean += len(sides)
    assert lean


def wall_game(seed):
    return random_graph_game(random.Random(seed), seed // 1000, ["A", "B", "C"], ["o1", "o2", "o3", "o4"])


@pytest.mark.parametrize("seed", [11000, 13000, 13001, 13003, 14000, 14001, 14002, 14004, 18000, 18003])
def test_wall_games_answer_at_the_default_bound(seed):
    # 3 players, 4 outcomes and 11-14 vertices: the tree products of these
    # games outgrew the default bound; at 18 vertices, a count of the sets
    # met per scan of the family did.  The recursion answers them, its rows
    # pass the certificate, and the Nash profile built on them verifies.
    # The memory bound is not read here: its DAG is most of these games'
    # recurrence sets, and the machines lie far inside it
    game = wall_game(seed)
    report = synthesize_ne(game, certified(game, bounded=False))
    assert verify_ne(game, report.profile) is None


def test_the_largest_wall_game_answers_at_the_default_bound():
    # seed 18002 has 37,988 recurrence sets
    game = wall_game(18002)
    report = synthesize_ne(game, certified(game, bounded=False))
    assert verify_ne(game, report.profile) is None


def threshold_games(game):
    """Every threshold family of every player with the player, in the order ``guarantee_table`` solves them."""
    for p in game.arena.players:
        order = game.prefs.order_of(p)
        for j in range(order.num_classes()):
            yield frozenset(s for s, o in game.outcome_map.items() if order.lt(order.representative(j), o)), p


def fresh_refusal(game, family, player, bound):
    """The message a search of its own refuses the threshold game with, or None."""
    try:
        MullerSearch(game.arena, bound).game(family, (player, coalition_tag(player)))
    except TooLargeError as exc:
        return str(exc)
    return None


def test_shared_search_refuses_exactly_where_fresh_searches_do():
    # the games share the arena's split memo, but each game counts every
    # split and every subgame it meets, so the table is refused at the
    # first game a search of its own would refuse, with the same message.
    # Just below the largest bound any game needs, a game that counted only
    # the splits no earlier game had met would slip through
    rng = random.Random(9090)
    refused = set()
    for _ in range(100):
        n = rng.randint(3, 6)
        players = ["A", "B", "C"][: rng.randint(1, 3)]
        game = random_graph_game(rng, n, players, [f"o{i}" for i in range(rng.randint(2, 4))])
        games = list(threshold_games(game))
        need = 1
        for family, p in games:
            lo, hi = need, 1000
            while lo < hi:
                mid = (lo + hi) // 2
                lo, hi = (mid + 1, hi) if fresh_refusal(game, family, p, mid) else (lo, mid)
            need = lo
        guarantee_table(game, need)
        for bound in (need - 1, rng.randint(1, need - 1)) if need > 1 else ():
            expected = next(filter(None, (fresh_refusal(game, f, p, bound) for f, p in games)))
            with pytest.raises(TooLargeError) as refusal:
                guarantee_table(game, bound)
            assert str(refusal.value) == expected
            refused.add(expected.split(" exceeds")[0])
    assert refused == {"Zielonka recursion"}


@pytest.mark.parametrize("block", range(4))
def test_listed_children_are_the_maximal_sets_on_the_other_side(block):
    # 400 seeded games, n=3-9 with 2-3 players and 2-5 outcomes: every node
    # whose children a threshold game listed has as children exactly the
    # maximal recurrence sets strictly inside it whose membership in the
    # family differs from its own
    rng = random.Random(f"zielonka children {block}")
    listed = 0
    for _ in range(100):
        players = ["A", "B", "C"][: rng.randint(2, 3)]
        game = random_graph_game(rng, rng.randint(3, 9), players, [f"o{i}" for i in range(rng.randint(2, 5))])
        view = game.arena.view
        recurrence = [view.recurrence_mask(s) for s in closed_strongly_connected_sets(game.arena)]
        for family, p in threshold_games(game):
            zg = MullerSearch(game.arena, 10**6).game(family, (p, coalition_tag(p)))
            for node, kids in zg.kids.items():
                inside = [m for m in recurrence if m & node == m != node and (m in zg.good) != (node in zg.good)]
                assert kids == sorted(m for m in inside if not any(m & k == m != k for k in inside))
                listed += 1
    assert listed > 1500


def test_a_family_of_every_recurrence_set_expands_none_of_them():
    # 300 seeded documents, n=3-8 with 3 players and 4 outcomes: loading
    # counts the arena's recurrence sets, and a threshold game whose family
    # holds all of them splits no set of the family, as an empty family's
    # game splits none.  The regions and both machines are those of the
    # same game on an arena whose sets were never counted
    rng = random.Random("full family")
    full = 0
    for _ in range(300):
        game = random_graph_game(rng, rng.randint(3, 8), ["A", "B", "C"], ["o1", "o2", "o3", "o4"])
        doc = jsonio.graph_game_to_json(game)
        game, uncounted = jsonio.graph_game_from_json(doc), validate_arena(doc["arena"])
        count = len(recurrence_sets_by_mask_scan(game.arena))
        search, plain = MullerSearch(game.arena, 10**6), MullerSearch(uncounted, 10**6)
        for family, p in threshold_games(game):
            sides = (p, coalition_tag(p))
            zg, zp = search.game(family, sides), plain.game(family, sides)
            assert zg.win0 == zp.win0
            assert [jsonio.machine_to_json(zg.machine(s)) for s in (0, 1)] == [
                jsonio.machine_to_json(zp.machine(s)) for s in (0, 1)
            ]
            if len(zg.good) == count:
                assert not zg.met & zg.good
                full += 1
        assert uncounted.view.set_count is None
    assert full > 150


def test_the_recursion_is_refused_while_its_memo_grows(monkeypatch):
    # every memo entry and every set met is counted as it is made, so a
    # refused game has never held more memo entries than its bound, and
    # its count passes the bound at the step that refuses it
    import graphgames.winlose as wl

    seen = []
    tick = wl.ZielonkaRecursion.tick

    def recording(self, count):
        try:
            tick(self, count)
        except TooLargeError:
            seen.append((len(self.memo), self.count - count, self.bound))
            raise

    monkeypatch.setattr(wl.ZielonkaRecursion, "tick", recording)
    rng = random.Random(5151)
    refused = 0
    for _ in range(200):
        players = ["A", "B", "C"][: rng.randint(2, 3)]
        game = random_graph_game(rng, rng.randint(4, 7), players, [f"o{i}" for i in range(rng.randint(2, 4))])
        for family, p in threshold_games(game):
            count = MullerSearch(game.arena, 10**6).game(family, (p, coalition_tag(p))).count
            if count > 2:
                seen.clear()
                bound = rng.randint(1, count - 1)
                assert fresh_refusal(game, family, p, bound) == f"Zielonka recursion exceeds {bound} subgames and sets"
                ((entries, before, at),) = seen
                assert entries <= bound and before <= bound == at
                refused += 1
    assert refused > 100


def test_guarantee_table_solves_one_game_per_distinct_family_and_player(monkeypatch):
    import graphgames.winlose as wl

    built = []
    init = wl.ZielonkaRecursion.__init__

    def counting(self, arena, good, sides, bound):
        built.append((good, sides))
        init(self, arena, good, sides, bound)

    monkeypatch.setattr(wl.ZielonkaRecursion, "__init__", counting)
    rng = random.Random(7070)
    for _ in range(100):
        players = ["A", "B", "C"][: rng.randint(1, 3)]
        game = random_graph_game(rng, rng.randint(1, 6), players, [f"o{i}" for i in range(rng.randint(1, 4))])
        built.clear()
        guarantee_table(game)
        distinct = {(feasible_among(game.arena, family, None), p) for family, p in threshold_games(game)}
        assert len(built) == len(distinct)


@pytest.mark.parametrize(
    "seed, bound, detail, answers",
    [
        (3, 1, "2 recurrence sets exceed the bound 1", 19),
        (3, 18, "19 recurrence sets exceed the bound 18", 19),
        (1, 4, "Zielonka recursion exceeds 4 subgames and sets", 9),
    ],
)
@pytest.mark.parametrize("command", ["guarantee", "ne", "spe", "pareto-ne"])
def test_over_bound_games_are_refused_at_the_same_layer_with_the_same_payload(
    tmp_path, capsys, command, seed, bound, detail, answers
):
    # the document's recurrence sets are counted as it is read, then every
    # threshold game is solved, lowest threshold first, before any machine
    # is built, so every command is refused at the same game with the same
    # words.  Seed 3's 19 sets bound every game's count, as the empty
    # family's game expands none; seed 1's 4 sets load at 4, and its first
    # game counts 5 and its largest 9.  Inverse linear orders pass the spe
    # and pareto-ne pre-checks
    rng = random.Random(seed)
    outcomes = ["o1", "o2", "o3", "o4"]
    order = random_linear(rng, outcomes)
    prefs = PreferenceProfile(tuple(outcomes), {"A": order, "B": order.inverse()})
    game = random_graph_game(rng, 6, ["A", "B"], outcomes, profile=prefs)
    path = tmp_path / "game.json"
    path.write_text(json.dumps(jsonio.graph_game_to_json(game)))
    assert main([command, str(path), "--max-product-states", str(bound)]) == 2
    captured = capsys.readouterr()
    assert captured.out == jsonio.dumps({"errors": [{"code": "TooLargeError", "detail": detail}]})
    assert captured.err == ""
    assert main([command, str(path), "--max-product-states", str(answers - 1)]) == 2
    assert main([command, str(path), "--max-product-states", str(answers)]) == 0


def test_complete_eight_vertex_arena_solves_within_the_default_bound():
    # the complete arena with self-loops has 8! appearance records, which
    # the record product cannot fit in the default bound; every nonempty
    # vertex set is a recurrence set here
    rng = random.Random(8)
    vs = [f"v{i}" for i in range(8)]
    players = ["A", "B", "C"]
    arena = make_arena(players, vs, [(u, w) for u in vs for w in vs], {v: players[i % 3] for i, v in enumerate(vs)}, "v0")
    outcomes = ["o1", "o2", "o3", "o4"]
    omap = {
        frozenset(v for i, v in enumerate(vs) if mask >> i & 1): rng.choice(outcomes) for mask in range(1, 1 << 8)
    }
    game = GraphGame(arena, omap, random_profile(rng, players, outcomes))
    table = guarantee_table(game)
    assert local_consistency_violations(game, table) == []
    assert sorted(table.rows) == players


def test_feasible_sets_among_map_keys_agree_with_walk_search():
    rng = random.Random(5)
    for _ in range(300):
        game = random_graph_game(rng, rng.randint(1, 6), ["A", "B"], ["o1", "o2", "o3"])
        vertices = sorted(game.arena.vertices)
        # keys that name an unknown vertex or are no recurrence set are skipped
        keys = set(game.outcome_map) | {frozenset({"ghost"}), frozenset(vertices + ["ghost"])}
        keys.update(frozenset(rng.sample(vertices, rng.randint(1, len(vertices)))) for _ in range(3))
        source = rng.choice(vertices)
        expected = feasible_sets_by_walk_search(game.arena, source)
        assert feasible_among(game.arena, game.outcome_map, source) == expected
        assert feasible_among(game.arena, keys, source) == expected
        from_start = feasible_sets_by_walk_search(game.arena, game.arena.start)
        assert game.realizable_outcomes() == {game.outcome_map[s] for s in from_start}
