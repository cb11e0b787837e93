import random

import pytest
from hypothesis import given, settings, strategies as st

import graphgames.arena as arena_module
from graphgames.arena import (
    EnergySpec,
    Lasso,
    StrategyMachine,
    StrategyProfile,
    canonical_lasso,
    clamp_budget,
    closed_strongly_connected_sets,
    configuration_successors,
    energy_product,
    feasible_inf_sets,
    induced_lasso,
    inf_set,
    looping_components,
    make_arena,
    memoryless_machine,
    minimize_machine,
    primitive_cycle,
    validate_arena,
    walk_configurations,
)
from graphgames.errors import InvalidArenaError, InvalidInputError, TooLargeError
from graphgames.gen import random_arena
from graphgames.jsonio import machine_to_json

from oracles import (
    IndexByCallables,
    arena_index_by_skey,
    bfs_reachable,
    closed_and_strongly_connected,
    feasible_sets_by_walk_search,
    looping_components_by_component_masks,
    masks_by_sums,
    minimize_machine_by_dicts,
    recurrence_sets_by_mask_scan,
    successors_by_machine_calls,
)


def two_vertex_arena():
    return make_arena(
        ["A"], ["u", "w"], [("u", "u"), ("u", "w"), ("w", "w")], {"u": "A", "w": "A"}, "u"
    )


# --- validation ---------------------------------------------------------


def test_minimal_legal_arena():
    doc = {
        "players": ["A"],
        "vertices": [{"id": "v", "owner": "A"}],
        "edges": [["v", "v"]],
        "start": "v",
    }
    arena = validate_arena(doc)
    assert arena.successors("v") == ("v",)


def test_dead_end_vertex_rejected():
    with pytest.raises(InvalidArenaError) as exc:
        make_arena(["A"], ["v", "w"], [("v", "v"), ("v", "w")], {"v": "A", "w": "A"}, "v")
    assert any(code == "DeadEndVertex" for code, _ in exc.value.errors)


def test_dangling_edge_rejected():
    with pytest.raises(InvalidArenaError) as exc:
        make_arena(["A"], ["u"], [("u", "u"), ("u", "x")], {"u": "A"}, "u")
    assert any(code == "DanglingEdge" for code, _ in exc.value.errors)


def test_all_violations_reported_together():
    doc = {
        "players": ["A"],
        "vertices": [{"id": "u", "owner": "B"}, {"id": "w", "owner": "A"}],
        "edges": [["u", "x"], ["u", "u"]],
        "start": "nope",
    }
    with pytest.raises(InvalidArenaError) as exc:
        validate_arena(doc)
    codes = {code for code, _ in exc.value.errors}
    assert {"UnknownOwner", "DanglingEdge", "MissingStart", "DeadEndVertex"} <= codes


def test_arena_parts_name_a_vertex_without_owner():
    with pytest.raises(InvalidArenaError) as exc:
        make_arena(["A"], ["u", "w"], [("u", "w"), ("w", "u")], {"u": "A"}, "u")
    assert exc.value.errors == [("UnknownOwner", "vertex 'w' has no owner")]


MIXED_IDS = list(range(15)) + [str(i) for i in range(15)] + [f"v{i}" for i in range(15)]
# only strings, which sort as they are: digit strings, capitals, non-ASCII, a space, the empty string
STRING_IDS = [str(i) for i in range(15)] + [f"v{i}" for i in range(15)] + ["V", "é", "Z z", ""]


def mixed_arena_doc(rng: random.Random, pool: list = MIXED_IDS) -> dict:
    """Random valid arena document whose ids are drawn from ``pool``; by
    default they mix strings and integers.

    Integers above 9 sort apart from their numeric order under ``skey``,
    and digit strings such as ``"3"`` sit beside the integer ``3``.
    """
    vertices = rng.sample(pool, rng.randint(1, 12))
    players = ["A", 1]
    edges = []
    for v in vertices:
        edges += [[v, w] for w in rng.sample(vertices, rng.randint(1, len(vertices)))]
    rng.shuffle(edges)
    return {
        "players": players,
        "vertices": [{"id": v, "owner": rng.choice(players)} for v in vertices],
        "edges": edges,
        "start": rng.choice(vertices),
    }


def test_arena_index_agrees_with_skey_sorted_index():
    # the successor table by vertex is built on the first call to successors
    for pool in (MIXED_IDS, STRING_IDS):
        for seed in range(300):
            arena = validate_arena(mixed_arena_doc(random.Random(seed), pool))
            assert "_succ" not in vars(arena), seed
            view, oracle = arena.view, arena_index_by_skey(arena)
            assert view.vertices == oracle.vertices, seed
            assert view.succ == oracle.succ, seed
            assert view.pred == oracle.pred, seed
            assert view.owner == oracle.owner, seed
            assert view.owned == oracle.owned, seed
            assert view.masks() == masks_by_sums(oracle), seed
            for i, v in enumerate(oracle.vertices):
                assert arena.successors(v) == tuple(oracle.vertices[j] for j in oracle.succ[i]), seed
            assert "_succ" in vars(arena), seed


def test_fallback_machine_agrees_with_the_eager_formula():
    for seed in range(200):
        rng = random.Random(seed)
        arena = validate_arena(mixed_arena_doc(rng))
        for player in arena.players:
            owned = list(arena.owned_by(player))
            partial = {v: rng.choice(arena.successors(v)) for v in rng.sample(owned, rng.randint(0, len(owned)))}
            want = memoryless_machine(player, {v: partial.get(v, arena.successors(v)[0]) for v in owned})
            got = arena_module.fallback_machine(arena, player, partial)
            assert (got.player, got.memory_bits, got.update) == (want.player, want.memory_bits, want.update)
            assert list(got.choice.items()) == list(want.choice.items()), seed


def index_oracle_doc(rng: random.Random) -> dict:
    """Random valid arena document with repeated edges, self-loops and numeric owners.

    Ids mix integers and digit strings (``10`` sorts before ``"9"`` under
    ``skey``), and every vertex keeps at least one edge.
    """
    pool = list(range(20)) + [str(i) for i in range(20)] + [f"v{i}" for i in range(10)]
    vertices = rng.sample(pool, rng.randint(1, 16))
    players = rng.choice([[0, 1], ["A", 2, 3.5], [True, "B"]])
    edges = [[v, rng.choice(vertices)] for v in vertices]
    edges += [[rng.choice(vertices), rng.choice(vertices)] for _ in range(rng.randint(0, 3 * len(vertices)))]
    edges += rng.sample(edges, rng.randint(0, len(edges)))  # repeats
    edges += [[v, v] for v in rng.sample(vertices, rng.randint(0, len(vertices)))]
    rng.shuffle(edges)
    return {
        "players": players,
        "vertices": [{"id": v, "owner": rng.choice(players)} for v in vertices],
        "edges": edges,
        "start": rng.choice(vertices),
    }


def test_one_pass_index_agrees_with_the_index_built_from_callables():
    for seed in range(500):
        doc = index_oracle_doc(random.Random(seed))
        owner = {vd["id"]: vd["owner"] for vd in doc["vertices"]}
        pairs = {(u, w) for u, w in doc["edges"]}
        oracle = IndexByCallables(
            sorted(owner, key=arena_module.skey),
            lambda v: sorted({w for u, w in pairs if u == v}, key=arena_module.skey),
            owner.__getitem__,
        )
        built = [validate_arena(doc), make_arena(doc["players"], owner, pairs, owner, doc["start"])]
        for arena in built:
            view = arena.view
            for name in ("vertices", "index", "succ", "pred", "owner", "owned"):
                assert getattr(view, name) == getattr(oracle, name), (seed, name)
            for i, v in enumerate(oracle.vertices):
                assert arena.successors(v) == tuple(oracle.vertices[j] for j in oracle.succ[i]), seed


def test_validate_arena_calls_skey_once_per_vertex(monkeypatch):
    doc = mixed_arena_doc(random.Random(5))
    calls = []
    skey = arena_module.skey

    def counting(x):
        calls.append(x)
        return skey(x)

    monkeypatch.setattr(arena_module, "skey", counting)
    validate_arena(doc)
    assert len(calls) <= len(doc["vertices"])


# --- lassos and inf-sets --------------------------------------------------


def test_inf_set_is_cycle_support():
    assert inf_set(Lasso(("u",), ("w",))) == {"w"}
    assert inf_set(Lasso((), ("u", "w"))) == {"u", "w"}


def test_inf_set_matches_long_simulation():
    lasso = Lasso(("u", "w", "u"), ("u", "w"))
    seq = list(lasso.stem)
    while len(seq) < len(lasso.stem) + 3 * len(lasso.cycle):
        seq.extend(lasso.cycle)
    tail = seq[len(lasso.stem) + len(lasso.cycle):]
    assert inf_set(lasso) == frozenset(tail)


@pytest.mark.parametrize(
    "stem, cycle, message",
    [
        (("u",), (), "lasso cycle must be non-empty"),
        ((), ("w",), "lasso must begin at the start vertex, got 'w'"),
        (("u",), ("w", "u"), "lasso uses missing edge ('w', 'u')"),
        ((), ("u", "w"), "lasso cycle does not close"),
    ],
    ids=["empty-cycle", "other-start", "missing-edge", "open-cycle"],
)
def test_lasso_refusals(stem, cycle, message):
    # two_vertex_arena has no edge from w back to u
    with pytest.raises(InvalidInputError) as exc:
        Lasso(stem, cycle).validate(two_vertex_arena())
    assert str(exc.value) == message


def test_profile_refuses_a_machine_filed_under_another_player():
    profile = StrategyProfile({"A": memoryless_machine("B", {"u": "u", "w": "w"})})
    with pytest.raises(InvalidInputError, match="machine under key 'A' claims player 'B'"):
        profile.validate(two_vertex_arena())


def test_primitive_cycle_reduction():
    assert primitive_cycle(("v", "v")) == ("v",)
    assert primitive_cycle(("u", "w", "u", "w")) == ("u", "w")
    assert primitive_cycle(("u", "w", "w")) == ("u", "w", "w")


def test_canonical_lasso_rolls_the_stem_into_the_cycle():
    assert canonical_lasso(("v3", "v3"), ("v3",)) == Lasso((), ("v3",))
    assert canonical_lasso(("s", "u", "w"), ("u", "w", "u", "w")) == Lasso(("s",), ("u", "w"))
    assert canonical_lasso(("s", "w"), ("u", "w")) == Lasso(("s",), ("w", "u"))
    assert canonical_lasso(("u",), ("w",)) == Lasso(("u",), ("w",))


# --- feasible recurrence sets ---------------------------------------------


def test_feasible_single_self_loop():
    arena = make_arena(["A"], ["v"], [("v", "v")], {"v": "A"}, "v")
    assert feasible_inf_sets(arena, "v") == {frozenset({"v"})}


def test_feasible_two_vertices():
    arena = two_vertex_arena()
    assert feasible_inf_sets(arena, "u") == {frozenset({"u"}), frozenset({"w"})}
    assert feasible_inf_sets(arena, "w") == {frozenset({"w"})}


def test_feasible_two_cycle():
    arena = make_arena(["A"], ["u", "w"], [("u", "w"), ("w", "u")], {"u": "A", "w": "A"}, "u")
    assert feasible_inf_sets(arena, "u") == {frozenset({"u", "w"})}


def test_feasible_bound_guard(monkeypatch):
    # a complete 12-vertex arena has 4095 recurrence sets; the bound stops
    # the descent after expanding as many sets as it allows
    import graphgames.arena as ar

    vs = [f"v{i}" for i in range(12)]
    arena = make_arena(["A"], vs, [(u, w) for u in vs for w in vs], {v: "A" for v in vs}, "v0")
    expanded = []
    split = ar.split_components

    def counting(x, *args):
        expanded.append(x)
        return split(x, *args)

    monkeypatch.setattr(ar, "split_components", counting)
    with pytest.raises(TooLargeError, match="11 recurrence sets exceed the bound 10"):
        feasible_inf_sets(arena, "v0", max_product_states=10)
    assert len(expanded) == 10
    assert len(feasible_inf_sets(arena, "v0", max_product_states=4095)) == 4095


def test_descent_agrees_with_mask_scan():
    for seed in range(300):
        rng = random.Random(seed)
        arena = random_arena(rng, rng.randint(1, 14), ["A", "B"])
        everything = recurrence_sets_by_mask_scan(arena)
        assert closed_strongly_connected_sets(arena) == everything, seed
        source = rng.choice(arena.sorted_vertices())
        reach = bfs_reachable(arena, source)
        assert closed_strongly_connected_sets(arena, source) == {s for s in everything if s <= reach}, seed


def dangling_graph(rng) -> tuple:
    """Successor and predecessor masks of a random core with chains hanging
    into and out of it and vertices whose only cycle is a self-loop,
    numbered in a random order."""
    core = rng.randint(0, 6)
    edges = {(u, w) for u in range(core) for w in range(core) if rng.random() < 0.3}
    n = core
    for _ in range(rng.randint(0, 3)):
        chain = list(range(n, n + rng.randint(1, 4)))
        n += len(chain)
        edges.update(zip(chain, chain[1:]))
        if core:
            anchor = rng.randrange(core)
            edges.add((chain[-1], anchor) if rng.random() < 0.5 else (anchor, chain[0]))
    for _ in range(rng.randint(0, 3)):
        edges.add((n, n))
        if core:
            anchor = rng.randrange(core)
            edges.add((n, anchor) if rng.random() < 0.5 else (anchor, n))
        n += 1
    number = rng.sample(range(n), n)
    adj, radj = [0] * n, [0] * n
    for u, w in edges:
        adj[number[u]] |= 1 << number[w]
        radj[number[w]] |= 1 << number[u]
    return adj, radj


def test_peel_agrees_with_component_masks():
    # the peel, which drops a lowest vertex with no successor or no
    # predecessor left, and the peel by forward and backward component
    # masks give the same components in the same order, on 2,000 random
    # graphs and masks inside them, and on 1,000 graphs with dangling
    # chains and self-loop singletons
    rng = random.Random(4242)
    for _ in range(2000):
        n = rng.randint(1, 12)
        adj = [sum(1 << j for j in range(n) if rng.random() < rng.choice((0.1, 0.25, 0.5))) for _ in range(n)]
        radj = [sum(1 << i for i in range(n) if adj[i] >> j & 1) for j in range(n)]
        within = rng.getrandbits(n) | rng.choice((0, (1 << n) - 1))
        assert looping_components(within, adj, radj) == list(looping_components_by_component_masks(within, adj, radj))
    for _ in range(1000):
        adj, radj = dangling_graph(rng)
        for within in ((1 << len(adj)) - 1, rng.getrandbits(len(adj))):
            want = list(looping_components_by_component_masks(within, adj, radj))
            assert looping_components(within, adj, radj) == want


def test_recurrence_mask_agrees_with_closed_and_strongly_connected():
    # the index tests a vertex set by the peel; the reference checks that
    # every member has a successor inside and that one forward and one
    # backward reach cover it, on 2,000 random arenas and vertex sets
    rng = random.Random(5151)
    answers = []
    for _ in range(2000):
        arena = random_arena(rng, rng.randint(1, 9), ["A", "B"])
        view = arena.view
        vs = arena.sorted_vertices()
        pick = rng.random()
        if pick < 0.4:
            s = frozenset(v for v in vs if rng.random() < 0.5)
        else:
            s = rng.choice(sorted(closed_strongly_connected_sets(arena), key=sorted))
            if pick < 0.7:  # one vertex more or one less
                s ^= {rng.choice(vs)}
            if pick > 0.95:
                s |= {"zz"}
        mask = sum(1 << view.index[v] for v in s if v in view.index)
        known = all(v in view.index for v in s)
        want = mask if known and mask and closed_and_strongly_connected(mask, *view.masks()) else 0
        assert view.recurrence_mask(frozenset(s)) == want, (sorted(arena.edges), sorted(s))
        answers.append(want != 0)
    assert 500 < sum(answers) < 1500, sum(answers)


def test_configuration_steps_agree_with_machine_calls():
    # steps read the machines' tables directly; every successor list, and
    # the refusal of a missing choice, is what move and next_state give
    rng = random.Random(777)
    refused = 0
    for _ in range(300):
        players = ["A", "B", "C"][: rng.randint(1, 3)]
        arena = random_arena(rng, rng.randint(1, 5), players)
        machines = []
        for p in players:
            states = rng.randint(1, 3)
            update = {(v, q): rng.randrange(states) for v in arena.vertices for q in range(states) if rng.random() < 0.7}
            choice = {
                (v, q): rng.choice(arena.successors(v))
                for v in arena.owned_by(p) for q in range(states) if rng.random() < 0.9
            }
            machines.append(StrategyMachine(p, 2, update, choice))
        free = tuple(rng.sample(players, rng.randint(0, len(players))))
        fast = configuration_successors(arena, free, machines)
        slow = successors_by_machine_calls(arena, free, machines)
        for v in arena.vertices:
            state = (v, tuple(rng.randrange(3) for _ in machines))
            try:
                expected = slow(state)
            except InvalidInputError as exc:
                refused += 1
                with pytest.raises(InvalidInputError) as caught:
                    fast(state)
                assert str(caught.value) == str(exc)
            else:
                assert fast(state) == expected
    assert refused


@pytest.mark.parametrize("seed", range(30))
def test_feasible_agrees_with_walk_search(seed):
    rng = random.Random(seed)
    arena = random_arena(rng, rng.randint(1, 6), ["A", "B"])
    source = rng.choice(list(arena.vertices))
    assert feasible_inf_sets(arena, source) == feasible_sets_by_walk_search(arena, source)


# --- induced lassos --------------------------------------------------------


def test_lasso_single_self_loop():
    arena = make_arena(["A"], ["v"], [("v", "v")], {"v": "A"}, "v")
    lasso = induced_lasso(arena, StrategyProfile({"A": memoryless_machine("A", {"v": "v"})}))
    assert lasso.stem == () and lasso.cycle == ("v",)


def test_lasso_memoryless_step():
    arena = make_arena(["A"], ["u", "w"], [("u", "w"), ("w", "w")], {"u": "A", "w": "A"}, "u")
    lasso = induced_lasso(arena, StrategyProfile({"A": memoryless_machine("A", {"u": "w", "w": "w"})}))
    assert lasso.stem == ("u",) and lasso.cycle == ("w",)


def test_lasso_memory_cycle_normalized():
    # one bit flipping on every visit of the single vertex; the projected
    # cycle (v, v) collapses to its primitive period (v,)
    arena = make_arena(["A"], ["v"], [("v", "v")], {"v": "A"}, "v")
    machine = StrategyMachine(
        "A", 1, {("v", 0): 1, ("v", 1): 0}, {("v", 0): "v", ("v", 1): "v"}
    )
    configs, loop = walk_configurations(arena, StrategyProfile({"A": machine}))
    assert [v for v, _ in configs[loop:]] == ["v", "v"]
    lasso = induced_lasso(arena, StrategyProfile({"A": machine}))
    assert lasso.cycle == ("v",)


def test_walk_refuses_a_machine_move_off_the_edges():
    # u -> w is no edge; the unvalidated profile reaches the walk, which
    # stops at the move and names it, and induced_lasso walks the same way
    arena = make_arena(["A"], ["u", "w"], [("u", "u"), ("w", "w")], {"u": "A", "w": "A"}, "u")
    profile = StrategyProfile({"A": memoryless_machine("A", {"u": "w", "w": "w"})})
    with pytest.raises(InvalidInputError, match=r"^machine for 'A' chose non-edge \('u', 'w'\)$"):
        walk_configurations(arena, profile)
    with pytest.raises(InvalidInputError, match=r"^machine for 'A' chose non-edge \('u', 'w'\)$"):
        induced_lasso(arena, profile)


@pytest.mark.parametrize("seed", range(20))
def test_walk_termination_bound_and_feasibility(seed):
    rng = random.Random(seed)
    arena = random_arena(rng, rng.randint(1, 5), ["A", "B"])
    machines = {}
    for p in arena.players:
        bits = rng.randint(0, 1)
        update = {}
        choice = {}
        for v in arena.vertices:
            for q in range(2 ** bits):
                update[(v, q)] = rng.randrange(2 ** bits)
        for v in arena.owned_by(p):
            for q in range(2 ** bits):
                choice[(v, q)] = rng.choice(arena.successors(v))
        machines[p] = StrategyMachine(p, bits, update, choice)
    profile = StrategyProfile(machines)
    configs, loop = walk_configurations(arena, profile)
    states = 1
    for m in machines.values():
        states *= 2 ** m.memory_bits
    assert len(configs) <= len(arena.vertices) * states + 1
    lasso = induced_lasso(arena, profile)
    assert inf_set(lasso) in feasible_inf_sets(arena, arena.start)


# --- machine minimization ---------------------------------------------------


@pytest.mark.parametrize("seed", range(15))
def test_minimization_preserves_behavior(seed):
    rng = random.Random(seed)
    arena = random_arena(rng, rng.randint(1, 4), ["A"])
    bits = rng.randint(0, 2)
    update = {}
    choice = {}
    for v in arena.vertices:
        for q in range(2 ** bits):
            update[(v, q)] = rng.randrange(2 ** bits)
            choice[(v, q)] = rng.choice(arena.successors(v))
    machine = StrategyMachine("A", bits, update, choice)
    small = minimize_machine(machine, arena.vertices, arena.vertices)
    assert small.memory_bits <= machine.memory_bits
    for trial in range(20):
        seq = [rng.choice(list(arena.vertices)) for _ in range(10)]
        q1, q2 = machine.init, small.init
        for v in seq:
            assert machine.choice.get((v, q1)) == small.choice.get((v, q2))
            q1 = machine.next_state(v, q1)
            q2 = small.next_state(v, q2)


def random_table_machine(rng, vertices, owned):
    """A machine with sparse state numbers, unreachable states and missing moves."""
    states = rng.sample(range(50), rng.randint(1, 7))
    update = {}
    choice = {}
    for q in states:
        for v in vertices:
            if rng.random() < 0.7:
                update[(v, q)] = rng.choice(states)
        for v in owned:
            if rng.random() < 0.8:
                choice[(v, q)] = rng.choice(vertices)
    return StrategyMachine("A", 6, update, choice, rng.choice(states))


def renamed(machine, rng):
    """The machine with its states renamed by a random permutation."""
    states = machine.states()
    name = dict(zip(states, rng.sample(states, len(states))))
    return StrategyMachine(
        machine.player,
        machine.memory_bits,
        {(v, name[q]): name[t] for (v, q), t in machine.update.items()},
        {(v, name[q]): w for (v, q), w in machine.choice.items()},
        name[machine.init],
    )


def test_minimization_agrees_with_dict_minimiser():
    rng = random.Random(2024)
    for _ in range(200):
        vertices = [f"v{i}" for i in range(rng.randint(1, 4))]
        owned = rng.sample(vertices, rng.randint(0, len(vertices)))
        machine = random_table_machine(rng, vertices, owned)
        expected = machine_to_json(minimize_machine_by_dicts(machine, vertices, owned))
        assert machine_to_json(minimize_machine(machine, vertices, owned)) == expected


def test_minimization_ignores_state_names():
    rng = random.Random(7)
    for _ in range(100):
        vertices = [f"v{i}" for i in range(rng.randint(1, 4))]
        owned = rng.sample(vertices, rng.randint(0, len(vertices)))
        machine = random_table_machine(rng, vertices, owned)
        other = renamed(machine, rng)
        assert machine_to_json(minimize_machine(other, vertices, owned)) == machine_to_json(
            minimize_machine(machine, vertices, owned)
        )


# --- energy product ---------------------------------------------------------


def test_clamp_recurrence_examples():
    assert clamp_budget(3 + 5, -2, 4) == 4
    assert clamp_budget(0 - 7, -2, 4) == -2
    assert clamp_budget(0, -2, 4) == 0


def test_energy_zero_weights_constant_budget():
    arena = two_vertex_arena()
    spec = EnergySpec({"A": {}}, {"A": (-1, 1)}, {"u": 0, "w": 1})
    product = energy_product(arena, spec)
    assert all(pv[1] == (0,) for pv in product.vertices)
    assert all(pv[2] == (0,) for pv in product.vertices)


def test_energy_clamping_and_minimum():
    arena = make_arena(["A"], ["u", "w"], [("u", "w"), ("w", "w")], {"u": "A", "w": "A"}, "u")
    spec = EnergySpec({"A": {"u": 0, "w": -7}}, {"A": (-2, 4)}, {"u": 0, "w": 0})
    product = energy_product(arena, spec)
    (w_state,) = [pv for pv in product.vertices if pv[0] == "w"]
    assert w_state[1] == (-2,)
    assert w_state[2] == (-2,)


@pytest.mark.parametrize("seed", range(10))
def test_energy_minima_monotone_along_edges(seed):
    rng = random.Random(seed)
    from graphgames.gen import random_energy_spec

    arena = random_arena(rng, rng.randint(1, 4), ["A", "B"])
    spec = random_energy_spec(rng, arena)
    product = energy_product(arena, spec)
    order = arena.sorted_players()
    for (u, w) in product.edges:
        for i, p in enumerate(order):
            lo, hi = spec.caps[p]
            assert lo <= w[1][i] <= hi
            assert w[2][i] <= u[2][i]


def test_energy_product_bound_guard():
    arena = two_vertex_arena()
    spec = EnergySpec({"A": {"u": 1, "w": -1}}, {"A": (-5, 5)}, {"u": 0, "w": 0})
    with pytest.raises(TooLargeError):
        energy_product(arena, spec, max_product_states=2)


# --- property-based checks ---------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(-8, 0), st.integers(0, 8), st.integers(-20, 20))
def test_clamp_stays_in_caps(base, lo, hi, cost):
    value = clamp_budget(base % (hi - lo + 1) + lo + cost, lo, hi)
    assert lo <= value <= hi
