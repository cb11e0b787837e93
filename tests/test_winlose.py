import math
import random

import pytest

from graphgames import winlose
from graphgames.arena import StrategyMachine, make_arena
from graphgames.errors import CapExceededError, TooLargeError
from graphgames.gen import random_arena, random_muller_game, random_parity_game
from graphgames.jsonio import machine_to_json
from graphgames.winlose import (
    Muller,
    Parity,
    Reachability,
    Safety,
    WinLoseGame,
    attractor,
    brute_force_solve,
    solve,
    solve_muller,
    solve_parity,
    _sides,
)

from oracles import (
    RecordProduct,
    TreeProduct,
    achieved_sets,
    achieved_sets_by_candidate,
    attractor_by_deque,
    minimize_machine_by_dicts,
    outcomes_against_machine,
    parity_strategy_wins,
    parity_win0,
    recurrence_sets_by_mask_scan,
)


def two_sided(vertices, edges, owner, start="v0"):
    return make_arena(["P0", "P1"], vertices, edges, owner, start)


def parity_two_vertices():
    arena = two_sided(
        ["v0", "v1"],
        [("v0", "v0"), ("v0", "v1"), ("v1", "v0"), ("v1", "v1")],
        {"v0": "P0", "v1": "P1"},
    )
    return WinLoseGame(arena, Parity({"v0": 0, "v1": 1}), protagonist="P0")


# --- attractor -------------------------------------------------------------


def test_attractor_contains_seed():
    arena = two_sided(["v0"], [("v0", "v0")], {"v0": "P1"})
    region, _ = attractor(arena, "P0", {"v0"})
    assert region == {"v0"}


def test_attractor_forced_chain():
    arena = two_sided(["u", "t"], [("u", "t"), ("t", "t")], {"u": "P0", "t": "P1"}, start="u")
    region, machine = attractor(arena, "P0", {"t"})
    assert region == {"u", "t"}
    assert machine.move("u", 0) == "t"


def test_attractor_opponent_escape():
    # opponent owns u and can stay on a safe self-loop instead of entering t
    arena = two_sided(["u", "t"], [("u", "t"), ("u", "u"), ("t", "t")], {"u": "P1", "t": "P1"}, start="u")
    region, _ = attractor(arena, "P0", {"t"})
    assert region == {"t"}


def test_attractor_levels_decrease():
    arena = two_sided(
        ["a", "b", "t"],
        [("a", "b"), ("b", "t"), ("t", "t"), ("a", "a")],
        {"a": "P0", "b": "P0", "t": "P0"},
        start="a",
    )
    region, machine = attractor(arena, "P0", {"t"})
    assert region == {"a", "b", "t"}
    assert machine.move("a", 0) == "b" and machine.move("b", 0) == "t"


def test_attractor_agrees_with_the_deque_oracle():
    # the same set and the same strategy, in the same insertion order, on
    # arena indices and on Zielonka-tree parity products, over 4,000
    # seeded cases
    for seed in range(2000):
        rng = random.Random(seed)
        if seed % 5:
            view = random_arena(rng, rng.randint(1, 14), ["P0", "P1"]).view
        else:
            game = random_muller_game(rng, rng.randint(2, 5))
            view = TreeProduct(game.arena, game.objective.family).view
        n = len(view.vertices)
        for _ in range(2):
            sub = {v for v in range(n) if rng.random() < 0.8}
            side = [rng.randint(0, 1) for _ in range(n)]
            player = rng.randint(0, 1)
            target = rng.sample(range(n), rng.randint(0, n))
            if rng.random() < 0.5:
                target = set(target)
            attr, strategy = winlose._attractor(view, sub, side, player, target)
            want_attr, want_strategy = attractor_by_deque(view, sub, side, player, target)
            assert attr == want_attr, seed
            assert list(strategy.items()) == list(want_strategy.items()), seed


def test_mask_attractor_agrees_with_the_deque_oracle():
    # the Muller recursion's attractor over successor and predecessor masks
    # finds the same set as the oracle, and each strategy move goes to a
    # vertex attracted in an earlier round, so every play following it
    # reaches the target inside the subgame
    for seed in range(2000):
        rng = random.Random(seed)
        view = random_arena(rng, rng.randint(1, 14), ["P0", "P1"]).view
        adj, radj = view.masks()
        n = len(view.vertices)
        within = sum(1 << v for v in range(n) if rng.random() < 0.8)
        side = [rng.randint(0, 1) for _ in range(n)]
        own = sum(1 << v for v in range(n) if side[v] == 0)
        target = sum(1 << v for v in range(n) if rng.random() < 0.3)
        attr, strategy = winlose._attract(adj, radj, own, within, target)
        sub = {v for v in range(n) if within >> v & 1}
        want, _ = attractor_by_deque(view, sub, side, 0, [v for v in sub if target >> v & 1])
        assert attr == sum(1 << v for v in want), seed
        assert set(strategy) == {v for v in want if side[v] == 0 and not target >> v & 1}, seed
        level = {v: 0 for v in sub if target >> v & 1}
        while len(level) < len(want):
            k = max(level.values()) + 1
            level.update({v: k for v in want - set(level) if (
                any(w in level for w in view.succ[v]) if side[v] == 0
                else all(w in level for w in view.succ[v] if w in sub)
            )})
        assert all(level[w] < level[v] and w in view.succ[v] for v, w in strategy.items()), seed


# --- parity -----------------------------------------------------------------


def test_parity_single_even_loop():
    arena = two_sided(["v0"], [("v0", "v0")], {"v0": "P0"})
    res = solve_parity(WinLoseGame(arena, Parity({"v0": 0}), protagonist="P0"))
    assert res.win0 == {"v0"}


def test_parity_solver_leaves_the_recursion_limit_alone(monkeypatch):
    # 3,000 self-loops of distinct priorities, each its own component.  Only
    # the lowest priority is odd: with odd ones higher up, a decomposition
    # of them all as one game would also solve the subgame left after the
    # other side's region at every level, and the levels would number
    # millions
    import sys

    monkeypatch.setattr(sys, "setrecursionlimit", refuse_recursion_limit)
    vs = [f"v{i}" for i in range(3000)]
    arena = two_sided(vs, [(v, v) for v in vs], {v: f"P{i % 2}" for i, v in enumerate(vs)})
    prio = {v: 2 * i if i else 1 for i, v in enumerate(vs)}
    game = WinLoseGame(arena, Parity(prio), protagonist="P0")
    even = {v for v in vs if prio[v] % 2 == 0}
    assert solve_parity(game).win0 == even


def refuse_recursion_limit(limit):
    raise AssertionError(f"the solver set the recursion limit to {limit}")


def test_parity_self_loops_take_a_few_attractors_each(monkeypatch):
    # every self-loop of priorities 0..n-1 is its own component; solving
    # them all as one game took about n**2 / 4 levels and 252,498 attractor
    # calls at n=1,000
    calls = []
    real = winlose._attractor

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(winlose, "_attractor", counted)
    n = 3000
    vs = [f"v{i}" for i in range(n)]
    arena = two_sided(vs, [(v, v) for v in vs], {v: f"P{i % 2}" for i, v in enumerate(vs)})
    res = solve_parity(WinLoseGame(arena, Parity({v: i for i, v in enumerate(vs)}), protagonist="P0"))
    assert res.win0 == set(vs[::2])
    assert len(calls) <= 3 * n


@pytest.mark.parametrize("shape", ["cycle", "chain"])
def test_parity_long_components_leave_the_recursion_limit_alone(monkeypatch, shape):
    # one 5,000-vertex cycle is one component 5,000 vertices deep; a
    # 5,000-vertex chain into a self-loop is 5,000 components, each one
    # step from the next
    import sys

    monkeypatch.setattr(sys, "setrecursionlimit", refuse_recursion_limit)
    n = 5000
    vs = [f"v{i}" for i in range(n)]
    edges = [(vs[i], vs[i + 1]) for i in range(n - 1)]
    edges.append((vs[-1], vs[0] if shape == "cycle" else vs[-1]))
    arena = two_sided(vs, edges, {v: f"P{i % 2}" for i, v in enumerate(vs)})
    # least priority on the cycle is 0, and the chain's sink has priority 1
    prio = {v: i if shape == "cycle" else n - i for i, v in enumerate(vs)}
    res = solve_parity(WinLoseGame(arena, Parity(prio), protagonist="P0"))
    assert (res.win0, res.win1) == ((set(vs), set()) if shape == "cycle" else (set(), set(vs)))


def layered_parity_game(seed):
    """Random parity game of 1-60 vertices with many components and self-loops.

    Each vertex has 1-3 edges: some self-loops, most to a vertex no lower,
    so the components come in long chains, and the rest anywhere, which
    merges them into larger ones.  Priorities are drawn from 0..n.
    """
    rng = random.Random(seed)
    n = rng.randint(1, 60)
    anywhere = rng.choice([0.05, 0.2, 0.5])
    vs = [f"v{i}" for i in range(n)]
    edges = set()
    for i in range(n):
        for _ in range(rng.randint(1, 3)):
            r = rng.random()
            j = i if r < 0.15 else rng.randrange(n) if r < 0.15 + anywhere else rng.randint(i, n - 1)
            edges.add((vs[i], vs[j]))
    arena = two_sided(vs, sorted(edges), {v: rng.choice(["P0", "P1"]) for v in vs})
    return WinLoseGame(arena, Parity({v: rng.randint(0, n) for v in vs}), protagonist="P0")


@pytest.mark.parametrize("block", range(10))
def test_parity_components_agree_with_the_undecomposed_core(block):
    for seed in range(50 * block, 50 * block + 50):
        game = layered_parity_game(seed)
        view = game.arena.view
        res = solve_parity(game)
        W0 = parity_win0(view, _sides(game), [game.objective.priority[v] for v in view.vertices])
        assert res.win0 == {view.vertices[i] for i in W0}, seed
        assert res.win1 == {v for i, v in enumerate(view.vertices) if i not in W0}, seed
        assert parity_strategy_wins(game, 0, res.strategy0, res.win0), seed
        assert parity_strategy_wins(game, 1, res.strategy1, res.win1), seed


def test_parity_two_vertex_regions():
    res = solve_parity(parity_two_vertices())
    assert res.win0 == {"v0"} and res.win1 == {"v1"}
    bf = brute_force_solve(parity_two_vertices(), 0)
    assert bf.win0 == res.win0 and bf.win1 == res.win1 and not bf.not_determined


def test_parity_all_odd():
    arena = two_sided(["v0", "v1"], [("v0", "v1"), ("v1", "v0")], {"v0": "P0", "v1": "P1"})
    res = solve_parity(WinLoseGame(arena, Parity({"v0": 1, "v1": 3}), protagonist="P0"))
    assert res.win1 == {"v0", "v1"}


@pytest.mark.parametrize("seed", range(40))
def test_parity_matches_positional_enumeration(seed):
    rng = random.Random(seed)
    game = random_parity_game(rng, rng.randint(1, 4), 1)
    res = solve_parity(game)
    bf = brute_force_solve(game, 0)
    assert res.win0 == bf.win0 and res.win1 == bf.win1
    assert not bf.not_determined


# --- muller -------------------------------------------------------------------


def test_muller_single_vertex():
    arena = two_sided(["v"], [("v", "v")], {"v": "P0"}, start="v")
    win = solve_muller(WinLoseGame(arena, Muller(frozenset({frozenset({"v"})})), protagonist="P0"))
    lose = solve_muller(WinLoseGame(arena, Muller(frozenset()), protagonist="P0"))
    assert win.win0 == {"v"} and lose.win1 == {"v"}


def test_muller_alternation_game():
    arena = two_sided(
        ["u", "w"],
        [("u", "u"), ("u", "w"), ("w", "w"), ("w", "u")],
        {"u": "P0", "w": "P0"},
        start="u",
    )
    game = WinLoseGame(arena, Muller(frozenset({frozenset({"u", "w"})})), protagonist="P0")
    res = solve_muller(game)
    assert res.win0 == {"u", "w"}
    assert res.memory_bits_used <= 1  # record bound for two vertices
    # the oracle also finds a memoryless winner here: a plain two-cycle
    # already visits both vertices forever
    bf = brute_force_solve(game, 0)
    assert bf.win0 == {"u", "w"} and not bf.not_determined


@pytest.mark.parametrize("seed", range(60))
def test_muller_agrees_with_parity_on_encoded_conditions(seed):
    # a parity objective restated as the explicit family of recurrence sets
    # whose least priority is even must solve to the same regions
    from graphgames.arena import closed_strongly_connected_sets

    rng = random.Random(seed)
    game = random_parity_game(rng, rng.randint(1, 5), 3)
    prio = game.objective.priority
    family = frozenset(
        s
        for s in closed_strongly_connected_sets(game.arena)
        if min(prio[v] for v in s) % 2 == 0
    )
    as_muller = WinLoseGame(game.arena, Muller(family), protagonist=game.protagonist)
    rp = solve_parity(game)
    rm = solve_muller(as_muller)
    assert rp.win0 == rm.win0 and rp.win1 == rm.win1


@pytest.mark.parametrize("seed", range(25))
def test_product_regions_are_record_independent(seed):
    # whether a vertex is won does not depend on the memory record the
    # machine carries there: from every vertex of its region, in every
    # memory state, each machine lets no recurrence set of the other side
    # be achieved, which the composite strategies rely on when they
    # restart a machine mid-play
    rng = random.Random(seed)
    game = random_muller_game(rng, rng.randint(2, 6))
    res = solve_muller(game)
    arena, family = game.arena, game.objective.family
    sets = recurrence_sets_by_mask_scan(arena)
    for machine, region, losing in (
        (res.strategy0, res.win0, [s for s in sets if s not in family]),
        (res.strategy1, res.win1, [s for s in sets if s in family]),
    ):
        owned = arena.owned_by(machine.player)
        assert achieved_sets(arena, machine, owned, region, losing) == []


def test_one_descent_achieves_the_sets_that_per_candidate_searches_do():
    # 600 seeded games, n=1-7, each against a random machine of up to 3
    # bits for one side, from random starts: the candidates are every
    # recurrence set in a random order, random vertex sets and one set
    # naming an unknown vertex, and the descent through the product finds
    # the same ones, in the same order, as one search per candidate
    rng = random.Random(4242)
    nonempty = 0
    for _ in range(600):
        arena = random_arena(rng, rng.randint(1, 7), ["P0", "P1"])
        vs = arena.sorted_vertices()
        player = rng.choice(["P0", "P1"])
        states = range(2 ** rng.randint(0, 3))
        update = {(v, q): rng.choice(states) for v in vs for q in states if rng.random() < 0.5}
        choice = {(v, q): rng.choice(arena.successors(v)) for v in arena.owned_by(player) for q in states}
        machine = StrategyMachine(player, max(states).bit_length(), update, choice)
        candidates = sorted(recurrence_sets_by_mask_scan(arena), key=sorted)
        candidates += [frozenset(rng.sample(vs, rng.randint(1, len(vs)))) for _ in range(3)]
        candidates.append(frozenset({vs[0], "ghost"}))
        rng.shuffle(candidates)
        starts = rng.sample(vs, rng.randint(1, len(vs)))
        owned = arena.owned_by(player)
        found = achieved_sets(arena, machine, owned, starts, candidates)
        assert found == achieved_sets_by_candidate(arena, machine, owned, starts, candidates)
        nonempty += bool(found)
    assert nonempty > 500


def test_muller_regions_match_the_record_product_oracle():
    rng = random.Random(606)
    for _ in range(200):
        game = random_muller_game(rng, rng.randint(1, 7))
        oracle = RecordProduct(game.arena).win0(game.objective.family, "P0")
        assert solve_muller(game).win0 == oracle


@pytest.mark.parametrize("seed", range(20))
def test_muller_machines_are_minimal_and_canonical(seed):
    # the record machines come out of the table minimiser merged and
    # numbered breadth-first, so the reference minimiser leaves them as they are
    rng = random.Random(seed + 900)
    game = random_muller_game(rng, rng.randint(2, 5))
    res = solve_muller(game)
    for m in (res.strategy0, res.strategy1):
        again = minimize_machine_by_dicts(m, game.arena.vertices, game.arena.owned_by(m.player))
        assert machine_to_json(again) == machine_to_json(m)


def test_muller_refuses_over_bound_records_while_enumerating(monkeypatch):
    # an 8-vertex complete arena has 8! appearance records; with a bound of
    # 1000 the refusal must come while they are enumerated, not after
    import graphgames.winlose as wl

    n, bound = 8, 1000
    vs = [f"v{i}" for i in range(n)]
    arena = two_sided(vs, [(u, w) for u in vs for w in vs], {v: f"P{i % 2}" for i, v in enumerate(vs)})
    calls = 0
    process = wl.LarContext.process

    def counting(self, r, v):
        nonlocal calls
        calls += 1
        return process(self, r, v)

    monkeypatch.setattr(wl.LarContext, "process", counting)
    with pytest.raises(TooLargeError):
        wl.LarContext(arena).reachable_records(arena, bound)
    assert calls <= bound * n


def test_muller_refuses_over_bound_trees_while_they_grow(monkeypatch):
    # on the complete 7-vertex arena the family of even-sized sets has a
    # Zielonka tree with 7! leaves, whose recursion expands the splits of
    # 31 sets and makes 36 memo entries; the refusal must come while the
    # recursion meets them, after few component passes and few memo
    # entries, and name the layer.  The family {V} is refused one short of
    # its count too.
    import graphgames.arena as ar
    import graphgames.winlose as wl

    n, bound = 7, 30
    vs = [f"v{i}" for i in range(n)]
    arena = two_sided(vs, [(u, w) for u in vs for w in vs], {v: f"P{i % 2}" for i, v in enumerate(vs)})
    family = frozenset(
        frozenset(v for i, v in enumerate(vs) if mask >> i & 1)
        for mask in range(1, 1 << n)
        if bin(mask).count("1") % 2 == 0
    )
    game = WinLoseGame(arena, Muller(family), protagonist="P0")
    assert wl.ZielonkaRecursion(arena, game.objective.family, game.sides(), 10**6).count == 67
    calls = 0
    components = ar.looping_components

    def counting(*args):
        nonlocal calls
        calls += 1
        return components(*args)

    subgames = []
    solve_at = wl.ZielonkaRecursion._solve

    def entering(self, G, X):
        subgames.append((G, X))
        return solve_at(self, G, X)

    monkeypatch.setattr(ar, "looping_components", counting)  # the splits call it from arena
    monkeypatch.setattr(wl.ZielonkaRecursion, "_solve", entering)
    with pytest.raises(TooLargeError, match="Zielonka recursion exceeds 30 subgames and sets"):
        solve_muller(game, bound)
    assert calls <= bound * n
    assert len(subgames) <= bound
    # the family {V}: one bound short of its count is refused, its count is not
    small = WinLoseGame(arena, Muller(frozenset({frozenset(vs)})), protagonist="P0")
    count = wl.ZielonkaRecursion(arena, small.objective.family, small.sides(), 10**6).count
    with pytest.raises(TooLargeError, match=f"Zielonka recursion exceeds {count - 1} subgames and sets"):
        solve_muller(small, count - 1)
    assert solve_muller(small, count).win1 == set(vs)  # side 1 stays on its own self-loop


def test_solve_muller_builds_a_machine_only_when_one_is_read(monkeypatch):
    # the regions are known on return; a side's machine is built when its
    # strategy is first read, and the memory bound builds only the machines
    # of sides that keep memory
    built = []
    machine = winlose.ZielonkaRecursion.machine

    def counting(self, s):
        if self.machines[s] is None:
            built.append(s)
        return machine(self, s)

    monkeypatch.setattr(winlose.ZielonkaRecursion, "machine", counting)
    rng = random.Random("lazy muller")
    kept = 0
    for _ in range(60):
        game = random_muller_game(rng, rng.randint(1, 5))
        res = solve_muller(game)
        assert res.win0 | res.win1 == frozenset(game.arena.vertices) and not res.win0 & res.win1
        assert built == []
        bits = res.memory_bits_used
        assert built == [s for s in (0, 1) if res.keeps_memory(s)]
        kept += bool(built)
        built.clear()
        assert res.strategy1 is res.strategy1
        assert res.strategy0 is res.strategy0
        assert built == [s for s in (1, 0) if not res.keeps_memory(s)]
        assert bits == max(res.strategy0.memory_bits, res.strategy1.memory_bits)
        built.clear()
    assert kept


def test_muller_memory_within_record_bound():
    rng = random.Random(3)
    for _ in range(40):
        game = random_muller_game(rng, rng.randint(1, 4))
        res = solve_muller(game)
        n = len(game.arena.vertices)
        assert res.memory_bits_used <= math.ceil(math.log2(max(math.factorial(n), 2)))


@pytest.mark.parametrize("seed", range(40))
def test_solver_strategies_beat_every_opponent(seed):
    # for every vertex of a winning region, the region's machine leaves the
    # opponent no recurrence set outside (inside) the family; arenas go up
    # to 6 vertices, skipping the rare case where machine memory makes the
    # product too large for exhaustive recurrence-set enumeration
    rng = random.Random(seed)
    game = random_muller_game(rng, rng.randint(1, 6))
    res = solve_muller(game)
    family = game.objective.family
    assert res.win0 | res.win1 == frozenset(game.arena.vertices)
    assert not res.win0 & res.win1
    for v in game.arena.vertices:
        if v in res.win0:
            reachable = outcomes_against_machine(game.arena, res.strategy0, v)
            assert all(t in family for t in reachable)
        else:
            reachable = outcomes_against_machine(game.arena, res.strategy1, v)
            assert all(t not in family for t in reachable)


@pytest.mark.parametrize("seed", range(25))
def test_parity_strategies_beat_every_opponent(seed):
    rng = random.Random(seed + 100)
    game = random_parity_game(rng, rng.randint(1, 6), 2)
    res = solve_parity(game)
    prio = game.objective.priority
    for v in game.arena.vertices:
        machine = res.strategy0 if v in res.win0 else res.strategy1
        want_even = v in res.win0
        for t in outcomes_against_machine(game.arena, machine, v):
            assert (min(prio[u] for u in t) % 2 == 0) == want_even


# --- reachability / safety ------------------------------------------------------


def test_reachability_and_safety():
    arena = two_sided(
        ["a", "b", "t"],
        [("a", "b"), ("a", "a"), ("b", "t"), ("b", "a"), ("t", "t")],
        {"a": "P1", "b": "P0", "t": "P1"},
        start="a",
    )
    reach = solve(WinLoseGame(arena, Reachability(frozenset({"t"})), protagonist="P0"))
    assert "b" in reach.win0 and "t" in reach.win0
    assert "a" in reach.win1  # the opponent can loop at a forever
    safe = solve(WinLoseGame(arena, Safety(frozenset({"a", "b"})), protagonist="P0"))
    assert safe.win0 == {"a", "b"}  # protagonist picks b -> a, opponent stuck at a
    assert safe.win1 == {"t"}


# --- brute force ------------------------------------------------------------------


def test_brute_force_single_vertex_agrees():
    arena = two_sided(["v"], [("v", "v")], {"v": "P0"}, start="v")
    game = WinLoseGame(arena, Muller(frozenset({frozenset({"v"})})), protagonist="P0")
    assert brute_force_solve(game, 0).win0 == solve_muller(game).win0


@pytest.mark.parametrize("objective", [Reachability, Safety])
def test_brute_force_agrees_with_solve_on_reachability_and_safety(objective):
    # memoryless strategies win both, so at zero memory bits the
    # enumeration decides every vertex, the way solve does
    for seed in range(300):
        rng = random.Random(seed + 80_000)
        arena = random_arena(rng, rng.randint(1, 5), ["P0", "P1"])
        chosen = frozenset(v for v in arena.vertices if rng.random() < 0.4)
        game = WinLoseGame(arena, objective(chosen), protagonist=rng.choice(["P0", "P1"]))
        bf, result = brute_force_solve(game, 0), solve(game)
        assert (bf.win0, bf.win1, bf.not_determined) == (result.win0, result.win1, frozenset()), seed


def test_brute_force_cap():
    arena = two_sided(
        ["u", "w"],
        [("u", "u"), ("u", "w"), ("w", "w"), ("w", "u")],
        {"u": "P0", "w": "P1"},
        start="u",
    )
    game = WinLoseGame(arena, Parity({"u": 0, "w": 1}), protagonist="P0")
    with pytest.raises(CapExceededError):
        brute_force_solve(game, 3, cap=10)


def test_two_cycle_needs_no_memory_at_all():
    arena = two_sided(
        ["u", "w"],
        [("u", "w"), ("w", "u"), ("w", "w")],
        {"u": "P1", "w": "P0"},
        start="u",
    )
    family = frozenset({frozenset({"u", "w"})})
    game = WinLoseGame(arena, Muller(family), protagonist="P0")
    res = solve_muller(game)
    assert res.win0 == {"u", "w"}
    bf0 = brute_force_solve(game, 0)
    assert bf0.win0 == {"u", "w"} and not bf0.not_determined


def test_brute_force_reports_not_determined_at_low_bound():
    # the winning side needs memory (the family holds exactly the pairs of
    # vertices), and at bound 0 neither side can beat every opposing
    # machine: the verdict stays open instead of being forced
    arena = two_sided(
        ["v0", "v1", "v2"],
        [
            ("v0", "v1"), ("v0", "v2"),
            ("v1", "v0"), ("v1", "v1"), ("v1", "v2"),
            ("v2", "v0"), ("v2", "v1"),
        ],
        {"v0": "P1", "v1": "P0", "v2": "P1"},
        start="v0",
    )
    family = frozenset(
        {
            frozenset({"v0", "v1"}),
            frozenset({"v0", "v2"}),
            frozenset({"v1", "v2"}),
        }
    )
    game = WinLoseGame(arena, Muller(family), protagonist="P0")
    bf0 = brute_force_solve(game, 0)
    assert bf0.not_determined == {"v0", "v1", "v2"}
    assert bf0.win0 == frozenset() and bf0.win1 == frozenset()
    res = solve_muller(game)
    assert res.win1 == {"v0", "v1", "v2"}
    assert res.memory_bits_used >= 1
