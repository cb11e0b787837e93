"""End-to-end acceptance criteria, runnable from the CLI and from pytest.

Each criterion returns a result with a one-line summary; ``run_all`` prints
one pass/fail line per criterion.  Everything is seeded, so reruns are
reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product as iproduct

from .arena import (
    Arena,
    clamp_budget,
    make_arena,
    closed_strongly_connected_sets,
)
from .equilibria import (
    muller_pareto_ne,
    synthesize_antagonistic_spe,
    synthesize_ne,
    verify_ne,
    verify_spe,
)
from .extensive import (
    Decision,
    Leaf,
    TreeGame,
    enumerate_ne_outcomes,
    epsilon_grid_game,
    gallery,
    realizable_outcomes,
    three_leaf_game,
)
from .gen import (
    inverse_pair_profile,
    pattern_free_profile,
    random_arena,
    random_energy_spec,
    random_graph_game,
    random_muller_game,
    random_parity_game,
    random_payoff_tree,
)
from .guarantees import GraphGame, guarantee_table, local_consistency_violations
from .orders import (
    PreferenceProfile,
    forbidden_pattern,
    linear_order,
    pareto_front,
)
from .winlose import Parity, WinLoseGame, brute_force_solve, solve, solve_muller, solve_parity
from .arena import EnergySpec, energy_product

DEFAULT_SEED = 20260808


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] criterion {self.number}: {self.name} -- {self.detail}"


def criterion_1_determinacy(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Winning regions partition the vertices on 1000 random games."""
    rng = random.Random(seed)
    games = [random_parity_game(rng, rng.randint(1, 5), 2) for _ in range(600)]
    games += [random_muller_game(rng, rng.randint(1, 3)) for _ in range(400)]
    bad = 0
    for game in games:
        res = solve(game)
        if res.win0 | res.win1 != frozenset(game.arena.vertices) or res.win0 & res.win1:
            bad += 1
    return CriterionResult(
        1, "determinacy partition", bad == 0, f"{len(games) - bad}/{len(games)} games partition cleanly"
    )


def _exhaustive_small_parity_games():
    for n in (1, 2, 3):
        vertices = [f"v{i}" for i in range(n)]
        subsets = []
        for mask in range(1, 1 << n):
            subsets.append([vertices[i] for i in range(n) if mask >> i & 1])
        for succs in iproduct(subsets, repeat=n):
            edges = [(vertices[i], w) for i in range(n) for w in succs[i]]
            for omask in range(1 << n):
                owner = {
                    vertices[i]: ("P0" if omask >> i & 1 else "P1") for i in range(n)
                }
                for pmask in range(1 << n):
                    priority = {vertices[i]: (pmask >> i) & 1 for i in range(n)}
                    arena = Arena(("P0", "P1"), tuple(vertices), frozenset(edges), owner, vertices[0])
                    yield WinLoseGame(arena, Parity(priority), protagonist="P0")


def criterion_2_solver_oracle(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Region solvers agree with machine enumeration.

    Exhaustive arenas up to 3 vertices with 2 priorities, plus a seeded
    sample of 4-vertex arenas (full enumeration at 4 vertices is out of
    desk reach); Muller agreement is checked at the record memory bound on
    instances small enough to enumerate machines.
    """
    mismatches = 0
    total = 0
    for game in _exhaustive_small_parity_games():
        res = solve_parity(game)
        bf = brute_force_solve(game, 0)
        total += 1
        if res.win0 != bf.win0 or res.win1 != bf.win1 or bf.not_determined:
            mismatches += 1
    parity_exhaustive = total
    rng = random.Random(seed)
    for _ in range(2000):
        n = 4
        vertices = [f"v{i}" for i in range(n)]
        edges = set()
        for v in vertices:
            for w in rng.sample(vertices, rng.randint(1, 2)):
                edges.add((v, w))
        owner = {v: rng.choice(["P0", "P1"]) for v in vertices}
        priority = {v: rng.randint(0, 1) for v in vertices}
        arena = make_arena(["P0", "P1"], vertices, edges, owner, vertices[0])
        game = WinLoseGame(arena, Parity(priority), protagonist="P0")
        res = solve_parity(game)
        bf = brute_force_solve(game, 0)
        total += 1
        if res.win0 != bf.win0 or res.win1 != bf.win1 or bf.not_determined:
            mismatches += 1
    muller_total = 0
    for _ in range(200):
        n = rng.randint(1, 2)
        game = random_muller_game(rng, n)
        bits = 0 if n <= 1 else 1  # ceil(log2(n!))
        res = solve_muller(game)
        bf = brute_force_solve(game, bits)
        muller_total += 1
        total += 1
        if res.win0 != bf.win0 or res.win1 != bf.win1 or bf.not_determined:
            mismatches += 1
    return CriterionResult(
        2,
        "solver-oracle agreement",
        mismatches == 0,
        f"{total - mismatches}/{total} agree "
        f"({parity_exhaustive} exhaustive parity, 2000 sampled 4-vertex, {muller_total} Muller)",
    )


def criterion_3_ne_synthesis(seed: int = DEFAULT_SEED, games: int = 500) -> CriterionResult:
    """Synthesized Nash profiles verify and respect the memory bound."""
    rng = random.Random(seed)
    deviations = 0
    over_budget = 0
    for _ in range(games):
        players = [f"P{i}" for i in range(rng.randint(1, 3))]
        outcomes = [f"o{i}" for i in range(rng.randint(1, 4))]
        game = random_graph_game(rng, rng.randint(1, 4), players, outcomes)
        report = synthesize_ne(game)
        if verify_ne(game, report.profile) is not None:
            deviations += 1
        if any(b > report.memory_bound for b in report.memory_bits.values()):
            over_budget += 1
    ok = deviations == 0 and over_budget == 0
    return CriterionResult(
        3,
        "NE synthesis soundness",
        ok,
        f"{games} games, {deviations} deviations, {over_budget} memory-bound violations",
    )


def criterion_4_antagonistic_spe(seed: int = DEFAULT_SEED, games: int = 200) -> CriterionResult:
    """Optimal play everywhere is subgame perfect in antagonistic games."""
    rng = random.Random(seed)
    failures = 0
    meets = 0
    for _ in range(games):
        outcomes = [f"o{i}" for i in range(rng.randint(1, 4))]
        profile = inverse_pair_profile(rng, outcomes, players=("A", "B"))
        game = random_graph_game(rng, rng.randint(1, 4), ["A", "B"], outcomes, profile=profile)
        table = guarantee_table(game)
        ra, rb = table.rows["A"], table.rows["B"]
        for v in game.arena.vertices:
            if ra.order.class_of(ra.representative(v)) != rb.order.class_of(rb.representative(v)):
                meets += 1
        prof = synthesize_antagonistic_spe(game, table)
        if verify_spe(game, prof) is not None:
            failures += 1
    ok = failures == 0 and meets == 0
    return CriterionResult(
        4,
        "antagonistic subgame perfection",
        ok,
        f"{games} games, {failures} SPE failures, {meets} guarantee-meet violations",
    )


def _three_leaf_instances(prefs: dict, outcomes):
    players = tuple(sorted(prefs))
    for owner_root in players:
        for perm in permutations(outcomes):
            root = Decision(owner_root, tuple(Leaf(outcome=o) for o in perm))
            yield TreeGame(root, players, prefs=dict(prefs))
        for owner_sub in players:
            for perm in permutations(outcomes):
                yield three_leaf_game(prefs, owner_root, owner_sub, perm[0], perm[1], perm[2])


def _has_pareto_ne(game: TreeGame) -> bool:
    front = pareto_front(game.prefs, realizable_outcomes(game))
    return bool(enumerate_ne_outcomes(game) & front)


def criterion_5_pareto_biconditional() -> CriterionResult:
    """Over 3 outcomes, pattern-free preference pairs are exactly the ones
    whose every three-leaf game has a Pareto-optimal equilibrium."""
    outcomes = ("x", "y", "z")
    violations = 0
    checked = 0
    for chain_a in permutations(outcomes):
        for chain_b in permutations(outcomes):
            prefs = {"a": linear_order(chain_a), "b": linear_order(chain_b)}
            witness = forbidden_pattern(prefs)
            checked += 1
            if witness is None:
                if not all(_has_pareto_ne(t) for t in _three_leaf_instances(prefs, outcomes)):
                    violations += 1
            else:
                wa, wb, wx, wy, wz = witness
                template = three_leaf_game(prefs, root_owner=wb, sub_owner=wa,
                                           left=wx, right=wy, out=wz)
                if _has_pareto_ne(template):
                    violations += 1
    canonical = {"a": linear_order(["z", "y", "x"]), "b": linear_order(["x", "z", "y"])}
    template = three_leaf_game(canonical)
    exact = enumerate_ne_outcomes(template) == frozenset({"z"})
    ok = violations == 0 and exact
    return CriterionResult(
        5,
        "Pareto biconditional on 3 outcomes",
        ok,
        f"{checked} preference pairs, {violations} violations, "
        f"counterexample NE set {'exactly' if exact else 'NOT'} {{z}}",
    )


def criterion_6_muller_pareto(seed: int = DEFAULT_SEED, games: int = 200) -> CriterionResult:
    """Pattern-free linear games admit a verified Pareto-optimal NE."""
    rng = random.Random(seed)
    failures = 0
    for _ in range(games):
        players = [f"P{i}" for i in range(rng.randint(2, 3))]
        outcomes = [f"o{i}" for i in range(rng.randint(3, 4))]
        profile = pattern_free_profile(rng, players, outcomes)
        game = random_graph_game(rng, rng.randint(1, 4), players, outcomes, profile=profile)
        report = muller_pareto_ne(game)
        front = pareto_front(game.prefs, game.realizable_outcomes())
        if report.induced_outcome not in front:
            failures += 1
        elif verify_ne(game, report.profile) is not None:
            failures += 1
    return CriterionResult(
        6, "Pareto-optimal NE synthesis", failures == 0, f"{games} games, {failures} failures"
    )


def criterion_7_grid(seed: int = DEFAULT_SEED, trees: int = 500) -> CriterionResult:
    """Grid equilibria are 1/k-equilibria of the original payoff game."""
    rng = random.Random(seed)
    failures = 0
    for _ in range(trees):
        n_players = rng.randint(1, 3)
        tree = random_payoff_tree(rng, rng.randint(1, 4), [f"P{i}" for i in range(n_players)])
        for k in (1, 2, 4):
            _, _, cert = epsilon_grid_game(tree, k)
            if not cert.holds:
                failures += 1
    return CriterionResult(
        7, "grid discretization certificates", failures == 0,
        f"{trees} trees x k in {{1,2,4}}, {failures} certificate failures",
    )


def criterion_8_gallery() -> CriterionResult:
    """Regression values of the counterexample gallery."""
    report = gallery(10)
    problems = []
    for d, value in report["stopping_values"].items():
        if value != str(Fraction(int(d) - 1, int(d))):
            problems.append(f"stopping game depth {d} value {value}")
    for d, escape in report["escape"].items():
        if escape["root"] != "y":
            problems.append(f"escape depth {d} root {escape['root']}")
        if not escape["deepest_b_exits"]:
            problems.append(f"escape depth {d} deepest b-node keeps going")
    six = report["six_outcome"]
    if six["ne_outcomes"] != ["gamma", "z"]:
        problems.append(f"six-outcome NE set {six['ne_outcomes']}")
    if any(six["weakly_pareto_optimal"].values()):
        problems.append("six-outcome equilibria not flagged")
    return CriterionResult(
        8, "gallery regressions", not problems,
        "stopping values (d-1)/d, escape roots y, six-outcome {z, gamma}"
        if not problems else "; ".join(problems),
    )


def criterion_9_energy(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Product budgets match the clamping recurrence; guarantees stay local."""
    rng = random.Random(seed)
    budget_errors = 0
    for _ in range(100):
        players = [f"P{i}" for i in range(rng.randint(1, 2))]
        arena = random_arena(rng, rng.randint(1, 5), players)
        spec = random_energy_spec(rng, arena)
        product = energy_product(arena, spec)
        order = arena.sorted_players()
        pv = product.start
        budgets = {p: pv[1][i] for i, p in enumerate(order)}
        direct = {
            p: clamp_budget(spec.weights[p].get(arena.start, 0), *spec.caps[p]) for p in order
        }
        if direct != budgets:
            budget_errors += 1
            continue
        for _ in range(1000):
            succs = product.successors(pv)
            pv = succs[rng.randrange(len(succs))]
            direct = {
                p: clamp_budget(direct[p] + spec.weights[p].get(pv[0], 0), *spec.caps[p])
                for p in order
            }
            if any(direct[p] != pv[1][i] for i, p in enumerate(order)):
                budget_errors += 1
                break
    inconsistencies = 0
    for _ in range(30):
        arena = _tiny_energy_arena(rng)
        spec = EnergySpec(
            {"A": {v: rng.randint(-1, 1) for v in arena.vertices}},
            {"A": (rng.choice([-1, 0]), rng.choice([0, 1]))},
            {v: rng.randint(0, 1) for v in arena.vertices},
        )
        game = _energy_outcome_game(energy_product(arena, spec), spec)
        table = guarantee_table(game)
        if local_consistency_violations(game, table):
            inconsistencies += 1
    ok = budget_errors == 0 and inconsistencies == 0
    return CriterionResult(
        9, "energy product", ok,
        f"100 budget walks ({budget_errors} mismatches), "
        f"30 product guarantee checks ({inconsistencies} inconsistent)",
    )


def _tiny_energy_arena(rng) -> Arena:
    return random_arena(rng, 2, ["A"])


def _energy_outcome_game(arena: Arena, spec: EnergySpec) -> GraphGame:
    """Outcome per recurrence set from (least priority parity, limit minima).

    Minima agree across any recurrence set since they never increase along
    edges; larger limit minima are preferred, even least priority breaks
    ties upward.
    """
    sets = closed_strongly_connected_sets(arena)
    omap = {}
    keys = {}
    for s in sets:
        minima = {pv[2] for pv in s}
        mn = sorted(minima)[0]
        parity = min(spec.priorities[pv[0]] for pv in s) % 2
        key = (mn, 1 - parity)
        name = f"m{'_'.join(str(x) for x in mn)}.p{1 - parity}"
        omap[s] = name
        keys[name] = key
    ranked = sorted(keys, key=lambda o: keys[o])
    order = linear_order(ranked)
    prefs = PreferenceProfile(tuple(ranked), {"A": order})
    return GraphGame(arena, omap, prefs)


ALL_CRITERIA = (
    criterion_1_determinacy,
    criterion_2_solver_oracle,
    criterion_3_ne_synthesis,
    criterion_4_antagonistic_spe,
    lambda seed=DEFAULT_SEED: criterion_5_pareto_biconditional(),
    criterion_6_muller_pareto,
    criterion_7_grid,
    lambda seed=DEFAULT_SEED: criterion_8_gallery(),
    criterion_9_energy,
)


def run_all(seed: int = DEFAULT_SEED, emit=print) -> list:
    results = []
    for fn in ALL_CRITERIA:
        result = fn(seed=seed)
        results.append(result)
        emit(result.line())
    return results
