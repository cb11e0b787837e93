"""Equilibrium synthesis and verification for games on finite arenas.

Nash profiles are built from the players' uniformly optimal machines: the
joint play becomes the main lasso, every machine tracks conformance to it,
and the first player to leave it is handed to the coalition machine that
holds her to her guarantee at the point of deviation.  Verification never
trusts the construction: it recomputes each player's best achievable
outcome class against the fixed machines of everyone else.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Mapping

from .arena import (
    DEFAULT_PRODUCT_BOUND,
    Arena,
    ArenaIndex,
    Lasso,
    StrategyMachine,
    StrategyProfile,
    canonical_lasso,
    configuration_successors,
    explore,
    feasible_among,
    induced_lasso,
    inf_set,
    looping_components,
    machine_rows,
    minimize_table,
    reach_mask,
    skey,
    walk_configurations,
)
from .errors import GraphGamesError, NotAntagonisticError
from .guarantees import GraphGame, GuaranteeTable, guarantee_table
from .orders import pareto_front, require_linear_pattern_free


@dataclass(frozen=True)
class DeviationWitness:
    """A profitable unilateral deviation found by verification."""

    player: object
    vertex: object
    machine: StrategyMachine
    improved_outcome: object


@dataclass(frozen=True, eq=False)
class SynthesisReport:
    """Synthesized profile with its main play and memory accounting."""

    profile: StrategyProfile
    main_lasso: Lasso
    induced_outcome: object
    memory_bits: Mapping        # player -> bits of the emitted machine
    punishments: Mapping        # (player, vertex on lasso) -> outcome class representative
    solver_bits: int            # m: uniform threshold-solve memory bound
    piece_count: int            # n: history pieces (vertices)
    piece_bits: int             # K: bits to track the piece (0 here)
    memory_bound: int           # |A| * (m + ceil(log2 n) + K) + 1


# ---------------------------------------------------------------------------
# verification: one player free, everyone else fixed


class _DeviationProduct:
    """One player's deviation product, built once and searched from any start.

    The states are ``(vertex, memories of the others)``, explored from the
    projections of ``configs`` (``(vertex, memories in player order)``
    pairs) while the fixed machines move everyone but ``player``, refused
    past ``max_product_states`` states and indexed in ``skey`` order.  A start
    reaches a forward-closed part of the product, the very product a
    search from that start alone would build, and a strongly connected
    component meets that part only if it lies inside it.  So the looping
    components covering each outcome-map key, and the states that reach
    each of them, are found once over the whole product, and a start only
    looks up its own bit.
    """

    def __init__(self, game: GraphGame, profile: StrategyProfile, player, configs, max_product_states: int):
        arena = game.arena
        self.slots = [i for i, p in enumerate(arena.sorted_players()) if p != player]
        fixed = [profile.machines[p] for p in arena.sorted_players() if p != player]
        states, succ = explore(
            [self.state(cfg) for cfg in configs],
            configuration_successors(arena, (player,), fixed),
            max_product_states,
            "deviation product",
        )
        vs = tuple(sorted(states, key=skey))
        index = {s: i for i, s in enumerate(vs)}
        self.view = ArenaIndex(
            vs, index, tuple(tuple(map(index.__getitem__, succ[s])) for s in vs), tuple(s[0] for s in vs)
        )
        self.over = over = {}  # arena vertex -> mask of the states over it
        for i, v in enumerate(self.view.owner):
            over[v] = over.get(v, 0) | 1 << i
        self.everything = (1 << len(vs)) - 1
        self.outcome_map = game.outcome_map
        self.order = game.prefs.order_of(player)
        self.better: dict = {}
        self.covering: dict = {}

    def state(self, cfg: tuple) -> tuple:
        """The product state of the configuration ``cfg``: its vertex and the others' memories."""
        v, mems = cfg
        return (v, tuple(mems[i] for i in self.slots))

    def _better(self, induced) -> list:
        """The outcome map's items beating ``induced``, best class first, then by ``skey``."""
        rank = self.order.rank_of(induced)
        items = self.better.get(rank)
        if items is None:
            order = self.order
            items = self.better[rank] = sorted(
                ((T, o) for T, o in self.outcome_map.items() if order.lt(induced, o)),
                key=lambda item: (-order.rank_of(item[1]), sorted(map(skey, item[0]))),
            )
        return items

    def _covering(self, T) -> list:
        """``(component, states that reach it)`` for each looping component
        over ``T``'s states that meets every vertex of ``T``, by lowest
        member.  The list is built when ``T`` is first asked for."""
        found = self.covering.get(T)
        if found is None:
            parts = [self.over.get(v, 0) for v in T]
            adj, radj = self.view.masks()
            comps = looping_components(sum(parts), adj, radj) if all(parts) else ()
            found = self.covering[T] = [
                (c, reach_mask(c, radj, self.everything))
                for c in comps if all(c & part for part in parts)
            ]
        return found

    def first_improvement(self, start: tuple, induced):
        """Best outcome beating ``induced`` that the play from ``start`` can settle on.

        A set ``T`` is achieved by a looping component over ``T`` that
        covers ``T`` and is reachable from ``start``.  Returns the outcome
        and the component with the lowest index of the first achieved set,
        or ``None``.
        """
        bit = 1 << self.view.index[start]
        for T, o in self._better(induced):
            for comp, back in self._covering(T):
                if back & bit:
                    return o, comp
        return None


def _bfs_path(start: int, goals, succ, allowed: int = -1) -> list:
    """Shortest index path ``[start, ..., goal]`` through the index mask ``allowed``; ties break by index."""
    goals = set(goals)
    if start in goals:
        return [start]
    parent = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for s in sorted(frontier):
            for w in sorted(succ[s]):
                if not allowed >> w & 1 or w in parent:
                    continue
                parent[w] = s
                if w in goals:
                    path = [w]
                    while parent[path[-1]] is not None:
                        path.append(parent[path[-1]])
                    return list(reversed(path))
                nxt.append(w)
        frontier = nxt
    raise GraphGamesError("internal: no path to goal")


def _cover_cycle(members, succ, entry: int) -> list:
    """Closed walk from ``entry`` covering the indices ``members``, as a cycle."""
    members = set(members)
    inside = sum(1 << i for i in members)
    walk = [entry]
    visited = {entry}
    while visited != members:
        path = _bfs_path(walk[-1], members - visited, succ, inside)
        walk.extend(path[1:])
        visited.update(path[1:])
    # return to the entry with at least one step
    firsts = sorted(w for w in succ[walk[-1]] if w in members)
    if not firsts:
        raise GraphGamesError("internal: component is not closed")
    if entry in firsts:
        back = [entry]
    else:
        back = _bfs_path(firsts[0], {entry}, succ, inside)
    walk.extend(back)
    return walk[:-1]


def _index_lasso(view: ArenaIndex, start: int, comp: int, labels, allowed: int = -1) -> tuple:
    """``(stem, cycle)`` of the lasso from index ``start`` into the component mask ``comp``, as ``labels``.

    The stem is a shortest path through ``allowed`` to the component's
    lowest member, and the cycle covers the component from there.
    """
    members = [i for i in range(comp.bit_length()) if comp >> i & 1]
    stem = _bfs_path(start, {members[0]}, view.succ, allowed)[:-1]
    cycle = _cover_cycle(members, view.succ, members[0])
    return [labels[i] for i in stem], [labels[i] for i in cycle]


def _lasso_rows(arena: Arena, owned: tuple, seq, loop_at: int, off_play: list) -> tuple:
    """``minimize_table`` rows of a machine replaying the lasso ``seq`` by position.

    State ``p`` stands at ``seq[p]``.  Arriving at the next vertex of the
    lasso (``seq[loop_at]`` after the last) moves it to that position, and
    any other arrival at ``arena.sorted_vertices()[i]`` to ``off_play[p][i]``.
    At ``seq[p]`` it moves to the next vertex, elsewhere to the first
    successor.
    """
    nxt, choice = [], []
    for p, v in enumerate(seq):
        q = p + 1 if p + 1 < len(seq) else loop_at
        nxt.append([q if w == seq[q] else t for w, t in zip(arena.sorted_vertices(), off_play[p])])
        choice.append(tuple(seq[q] if u == v else arena.successors(u)[0] for u in owned))
    return nxt, choice


def _position_machine(player, seq_vertices, loop_index, arena: Arena) -> StrategyMachine:
    """Machine replaying a fixed lasso of vertices by position; off the lasso it keeps its state."""
    owned = arena.owned_by(player)
    stay = [[p] * len(arena.vertices) for p in range(len(seq_vertices))]
    nxt, choice = _lasso_rows(arena, owned, seq_vertices, loop_index, stay)
    return minimize_table(player, arena.sorted_vertices(), owned, nxt, choice)


def _leaving_vertex(cfgs: list, loop: int, seq: list, loop_at: int):
    """Vertex at which the walk ``(cfgs, loop)`` leaves the lasso ``seq`` that loops back to ``seq[loop_at]``.

    Both plays are ultimately periodic, so if they agree for
    ``len(cfgs) + len(seq) + 2`` steps they agree forever (Fine and Wilf).
    """
    play = [v for v, _ in cfgs]
    induced = itertools.chain(play[:loop], itertools.cycle(play[loop:]))
    deviation = itertools.chain(seq[:loop_at], itertools.cycle(seq[loop_at:]))
    steps = list(itertools.islice(zip(induced, deviation), len(play) + len(seq) + 2))
    for (v, _), (w, x) in zip(steps, steps[1:]):
        if w != x:
            return v
    raise GraphGamesError("internal: the deviation never leaves the play")


def _first_deviation(game: GraphGame, profile: StrategyProfile, configs: list, max_product_states: int):
    """The first of ``configs`` with a profitable deviation, as ``(vertex, witness)``, or ``None``.

    ``configs`` are ``(vertex, memories in player order)`` pairs of a
    validated profile.  Each player's product is built once, from all of
    them, on first use: when some outcome of the map beats, in her order,
    the outcome a configuration's play settles on.  A player no outcome
    tempts has no profitable deviation, so her product is never built.
    A configuration an earlier walk met is skipped: the walk's start
    reaches it along the play in every player's product and settles on
    the same outcome, so the start's search already answered it.
    """
    arena = game.arena
    players = arena.sorted_players()
    product_of = functools.cache(lambda a: _DeviationProduct(game, profile, a, configs, max_product_states))
    values = set(game.outcome_map.values())
    tempted = functools.cache(lambda a, induced: any(game.prefs.order_of(a).lt(induced, o) for o in values))

    met: set = set()  # configurations an earlier walk met
    for cfg in configs:
        if cfg in met:
            continue
        cfgs, loop = walked = walk_configurations(arena, profile, cfg[0], dict(zip(players, cfg[1])))
        met.update(cfgs)
        induced = game.outcome_of(frozenset(v for v, _ in cfgs[loop:]))
        for a in players:
            if not tempted(a, induced):
                continue
            product = product_of(a)
            s0 = product.state(cfg)
            found = product.first_improvement(s0, induced)
            if found is None:
                continue
            improved, comp = found
            view = product.view
            stem, cycle = _index_lasso(view, view.index[s0], comp, view.owner)
            seq = stem + cycle
            machine = _position_machine(a, seq, len(stem), arena)
            vertex = _leaving_vertex(*walked, seq, len(stem))
            return cfg[0], DeviationWitness(a, vertex, machine, improved)
    return None


def verify_ne(
    game: GraphGame,
    profile: StrategyProfile,
    start=None,
    init_mems=None,
    max_product_states: int = DEFAULT_PRODUCT_BOUND,
) -> DeviationWitness | None:
    """Search for a profitable unilateral deviation.

    For each player the other machines are frozen into a product of
    vertices and their memories, refused past ``max_product_states`` states.  The
    outcome map's sets that beat the induced outcome are searched best
    class first; a witness machine replays the play that settles on the
    first set the product can achieve.  Only the sets the map names are
    searched, so the map must be total on recurrence sets, as
    ``GraphGame.validate_total`` checks.
    """
    arena = game.arena
    profile.validate(arena)
    players = arena.sorted_players()
    v0 = arena.start if start is None else start
    mems0 = dict(init_mems) if init_mems else {p: profile.machines[p].init for p in players}
    found = _first_deviation(game, profile, [(v0, tuple(mems0[p] for p in players))], max_product_states)
    return None if found is None else found[1]


def verify_spe(game: GraphGame, profile: StrategyProfile, max_product_states: int = DEFAULT_PRODUCT_BOUND):
    """Check the profile is an equilibrium from every reachable configuration.

    The joint product moves the token along every edge (deviations
    included) while all memories update; the ``verify_ne`` search runs
    from each configuration in breadth-first order and the first failure
    comes back as ``(vertex, witness)``.  Each player's deviation product
    is built once, on first use, from every configuration, and answers the
    search from each of them.  Each of its states is a configuration's
    projection, so it is never larger than the joint product.
    ``max_product_states`` bounds every product built.
    """
    arena = game.arena
    profile.validate(arena)
    players = arena.sorted_players()
    machines = [profile.machines[p] for p in players]
    s0 = (arena.start, tuple(m.init for m in machines))
    step = configuration_successors(arena, players, machines)
    configs, _ = explore([s0], step, max_product_states, "joint product")
    return _first_deviation(game, profile, configs, max_product_states)


# ---------------------------------------------------------------------------
# synthesis


def _conformance_machine(game: GraphGame, table: GuaranteeTable, lasso: Lasso, player) -> StrategyMachine:
    """Follow the main lasso; on any off-play arrival punish the deviator.

    Conformance is tracked by the position in the lasso, so the expected
    next vertex and the blame for a wrong arrival are determined by the
    state alone.  Punishment states embed the coalition machine against
    the deviating player, seeded as if started where the deviation began.
    """
    arena = game.arena
    seq = lasso.sequence()
    owned = arena.owned_by(player)
    entry = {}  # (deviator, her class) -> the states arrivals enter her punishment at
    off_play, blocks, moves = [], [], []
    for v in seq:
        b = arena.owner[v]
        key = (b, table.rows[b].class_rank[v])
        if key not in entry:
            pun = table.rows[b].punish[key[1]]
            rows, pun_moves = machine_rows(arena, pun, owned, len(seq) + len(blocks))
            entry[key] = rows[pun.init]
            blocks += rows
            moves += pun_moves
        off_play.append(entry[key])
    nxt, choice = _lasso_rows(arena, owned, seq, len(lasso.stem), off_play)
    return minimize_table(player, arena.sorted_vertices(), owned, nxt + blocks, choice + moves)


def _report_from_lasso(game: GraphGame, table: GuaranteeTable, lasso: Lasso) -> SynthesisReport:
    arena = game.arena
    outcome = game.outcome_of(inf_set(lasso))
    machines = {p: _conformance_machine(game, table, lasso, p) for p in arena.players}
    profile = StrategyProfile(machines)
    punishments = {}
    for v in sorted(set(lasso.sequence()), key=skey):
        b = arena.owner[v]
        punishments[(b, v)] = table.rows[b].representative(v)
    return SynthesisReport(
        profile=profile,
        main_lasso=lasso,
        induced_outcome=outcome,
        memory_bits={p: machines[p].memory_bits for p in machines},
        punishments=punishments,
        solver_bits=table.solver_bits,
        piece_count=table.piece_count,
        piece_bits=table.piece_bits,
        memory_bound=table.ne_memory_bound(),
    )


def synthesize_ne(game: GraphGame, table: GuaranteeTable | None = None) -> SynthesisReport:
    """Build a Nash profile: optimal main play plus punishment threats.

    The main lasso is the joint play of the players' uniformly optimal
    machines, so its outcome sits inside every player's guarantee at every
    visited vertex; deviations therefore never pay.
    """
    from .guarantees import optimal_strategy

    if table is None:
        table = guarantee_table(game)
    arena = game.arena
    opts = {p: optimal_strategy(game, p, table.rows[p]) for p in arena.players}
    main = induced_lasso(arena, StrategyProfile(opts))
    return _report_from_lasso(game, table, main)


def antagonistic_pair(game: GraphGame) -> tuple:
    """The two players in ``skey`` order, refused unless their preferences are inverse."""
    arena = game.arena
    if len(arena.players) != 2:
        raise NotAntagonisticError(f"need exactly 2 players, got {len(arena.players)}")
    a, b = arena.sorted_players()
    oa, ob = game.prefs.order_of(a), game.prefs.order_of(b)
    for x in oa.outcomes:
        for y in oa.outcomes:
            if oa.lt(x, y) != ob.lt(y, x):
                raise NotAntagonisticError(
                    f"preferences are not inverse at ({x!r}, {y!r})"
                )
    return a, b


def synthesize_antagonistic_spe(game: GraphGame, table: GuaranteeTable | None = None) -> StrategyProfile:
    """Subgame-perfect profile for two players with inverse preferences.

    Both players simply play their uniformly optimal machines everywhere.
    At every vertex the guarantees of the two players meet in a single
    class, which the induced play from that vertex realizes.
    """
    from .guarantees import optimal_strategy

    arena = game.arena
    a, b = antagonistic_pair(game)
    if table is None:
        table = guarantee_table(game)
    for v in arena.vertices:
        ca = table.rows[a].order.class_of(table.rows[a].representative(v))
        cb = table.rows[b].order.class_of(table.rows[b].representative(v))
        if ca != cb:
            raise GraphGamesError(
                f"internal: guarantees of {a!r} and {b!r} do not meet at {v!r}"
            )
    return StrategyProfile({p: optimal_strategy(game, p, table.rows[p]) for p in arena.players})


def muller_pareto_ne(game: GraphGame, table: GuaranteeTable | None = None) -> SynthesisReport:
    """Nash profile whose outcome is Pareto-optimal among realizable ones.

    Requires linear preferences without the blocking pattern (z < y < x
    for one player with x < z < y for another); the pattern is reported
    as an error with its witness, no claim attached.  The target is the
    first outcome of the Pareto front, in key order, that a lasso can
    support: some feasible set among the outcome map's keys (so the map
    must be total on recurrence sets) yields it, and its every vertex lets
    the owner be held to at most the target outcome.
    """
    require_linear_pattern_free(game.prefs)
    if table is None:
        table = guarantee_table(game)
    arena = game.arena
    view = arena.view
    start = 1 << view.index[arena.start]
    feas = feasible_among(arena, game.outcome_map, arena.start)
    realizable = {game.outcome_map[s] for s in feas}
    front = pareto_front(game.prefs, realizable)

    for target in sorted(front, key=skey):
        # vertices without a choice, or whose owner can be held to the target
        allowed = sum(
            1 << i for i, v in enumerate(view.vertices)
            if len(view.succ[i]) == 1
            or game.prefs.order_of(view.owner[i]).rank_of(target) >= table.rows[view.owner[i]].class_rank[v]
        )
        reach = reach_mask(start, view.masks()[0], allowed) if allowed & start else 0
        sets = [
            s for s in feas
            if game.outcome_map[s] == target and not (m := view.recurrence_mask(s)) & ~allowed and m & reach
        ]
        if sets:
            break
    else:
        raise GraphGamesError("internal: no supportable Pareto-optimal outcome")
    # the set is strongly connected and meets ``reach``, so every member is
    # reachable inside the allowed vertices; enter at the lowest
    chosen = min(sets, key=lambda s: tuple(sorted(map(skey, s))))
    stem, cycle = _index_lasso(view, view.index[arena.start], view.recurrence_mask(chosen), view.vertices, allowed)
    lasso = canonical_lasso(stem, cycle)
    lasso.validate(arena)
    report = _report_from_lasso(game, table, lasso)
    if report.induced_outcome != target:
        raise GraphGamesError("internal: constructed lasso misses its outcome")
    return report
