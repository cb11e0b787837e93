"""Equilibrium synthesis and verification for games on finite arenas.

Nash profiles are built from the players' uniformly optimal machines: the
joint play becomes the main lasso, every machine tracks conformance to it,
and the first player to leave it is handed to the coalition machine that
holds her to her guarantee at the point of deviation.  Verification never
trusts the construction: it recomputes each player's best achievable
outcome class against the fixed machines of everyone else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .arena import (
    DEFAULT_PRODUCT_BOUND,
    Arena,
    ArenaIndex,
    Lasso,
    StrategyMachine,
    StrategyProfile,
    adjacency_masks,
    bits_for,
    canonical_lasso,
    explore,
    feasible_among,
    induced_lasso,
    inf_set,
    looping_components,
    minimize_machine,
    skey,
    walk_configurations,
)
from .errors import GraphGamesError, InvalidInputError, NotAntagonisticError
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


def punishment_strategy(game: GraphGame, player, vertex, table: GuaranteeTable | None = None):
    """Coalition machine holding ``player`` to her guarantee at ``vertex``.

    Returns the machine together with the representative of the class the
    deviator is held to.
    """
    if table is None:
        table = guarantee_table(game)
    row = table.rows[player]
    if vertex not in row.class_rank:
        raise InvalidInputError(f"unknown vertex {vertex!r}")
    c = row.class_rank[vertex]
    return row.punish[c], row.representative(vertex)


def induced_outcome_from(game: GraphGame, profile: StrategyProfile, vertex=None, mems=None):
    """Outcome of the profile's deterministic play from a configuration."""
    cfgs, loop = walk_configurations(game.arena, profile, vertex, mems)
    return game.outcome_of(frozenset(v for v, _ in cfgs[loop:]))


# ---------------------------------------------------------------------------
# verification: one player free, everyone else fixed


def _product_successors(arena: Arena, free: tuple, machines: list):
    """Successors of ``(vertex, memories)`` when the players in ``free`` choose.

    ``machines`` lists the tracked machines in player order, and the
    memories are theirs in the same order.  At a vertex of any other
    player the token moves as that player's machine says.
    """
    slot = {m.player: i for i, m in enumerate(machines)}

    def successors(state):
        v, mems = state
        own = arena.owner[v]
        if own in free:
            targets = arena.successors(v)
        else:
            i = slot[own]
            targets = (machines[i].move(v, mems[i]),)
        return [(w, tuple(m.next_state(w, q) for m, q in zip(machines, mems))) for w in targets]

    return successors


def _first_improvement(game: GraphGame, order, induced, view: ArenaIndex):
    """Best outcome the free player can make the product settle on.

    ``view`` indexes the reachable configurations, labelled by vertex.
    The outcome map's sets beating ``induced`` are tried best class first,
    then by ``skey``.  A set ``T`` is achieved by a strongly connected
    component of the configurations over ``T`` that covers ``T`` and can
    loop.  Returns the outcome and the component with the lowest index of
    the first achieved set, or ``None``.
    """
    adj, radj = adjacency_masks(view)
    over: dict = {}
    for i, v in enumerate(view.owner):
        over[v] = over.get(v, 0) | 1 << i
    better = sorted(
        ((T, o) for T, o in game.outcome_map.items() if order.lt(induced, o)),
        key=lambda item: (-order.rank_of(item[1]), sorted(map(skey, item[0]))),
    )
    for T, o in better:
        parts = [over.get(v, 0) for v in T]
        if not all(parts):
            continue
        for comp in looping_components(sum(parts), adj, radj):
            if all(comp & part for part in parts):
                return o, comp
    return None


def _bfs_path(start: int, goals, succ, allowed=None) -> list:
    """Shortest index path ``[start, ..., goal]``; ties break by index."""
    goals = set(goals)
    if start in goals:
        return [start]
    parent = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for s in sorted(frontier):
            for w in sorted(succ[s]):
                if allowed is not None and w not in allowed:
                    continue
                if w in parent:
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
    walk = [entry]
    visited = {entry}
    while visited != members:
        path = _bfs_path(walk[-1], members - visited, succ, allowed=members)
        walk.extend(path[1:])
        visited.update(path[1:])
    # return to the entry with at least one step
    firsts = sorted(w for w in succ[walk[-1]] if w in members)
    if not firsts:
        raise GraphGamesError("internal: component is not closed")
    if entry in firsts:
        back = [entry]
    else:
        back = _bfs_path(firsts[0], {entry}, succ, allowed=members)
    walk.extend(back)
    return walk[:-1]


def _position_machine(player, seq_vertices, loop_index, arena: Arena) -> StrategyMachine:
    """Machine replaying a fixed lasso of vertices by position."""
    L = len(seq_vertices)

    def nxt(p):
        return p + 1 if p + 1 < L else loop_index

    vertices = arena.sorted_vertices()
    owned = arena.owned_by(player)
    update = {}
    choice = {}
    for p in range(L):
        for w in vertices:
            if w == seq_vertices[nxt(p)] and nxt(p) != p:
                update[(w, p)] = nxt(p)
        for v in owned:
            if v == seq_vertices[p]:
                choice[(v, p)] = seq_vertices[nxt(p)]
            else:
                choice[(v, p)] = arena.successors(v)[0]
    machine = StrategyMachine(player, bits_for(L), update, choice, 0)
    return minimize_machine(machine, vertices, owned)


def _first_divergence(walk_a, walk_b):
    """Vertex at which two walks ``(configs, loop_index)`` first move apart."""
    (ca, la), (cb, lb) = walk_a, walk_b

    def expand(cfgs, loop, length):
        seq = [v for v, _ in cfgs]
        cyc = seq[loop:]
        while len(seq) < length:
            seq.extend(cyc)
        return seq[:length]

    horizon = len(ca) + len(cb) + 2
    sa = expand(ca, la, horizon)
    sb = expand(cb, lb, horizon)
    for i in range(1, horizon):
        if sa[i] != sb[i]:
            return sa[i - 1]
    raise GraphGamesError("internal: walks never diverge")


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
    profile.validate(game.arena)
    return _deviation_from(game, profile, start, init_mems, max_product_states)


def _deviation_from(game: GraphGame, profile: StrategyProfile, start, init_mems, max_product_states: int):
    """``verify_ne`` on a profile already validated against the arena."""
    arena = game.arena
    players = arena.sorted_players()
    v0 = arena.start if start is None else start
    mems0 = dict(init_mems) if init_mems else {p: profile.machines[p].init for p in players}
    cfgs, loop = walk_configurations(arena, profile, v0, mems0)
    induced = game.outcome_of(frozenset(v for v, _ in cfgs[loop:]))
    for a in players:
        others = [p for p in players if p != a]
        fixed = [profile.machines[p] for p in others]
        s0 = (v0, tuple(mems0[p] for p in others))
        states, succ = explore(
            [s0], _product_successors(arena, (a,), fixed), max_product_states, "deviation product"
        )
        view = ArenaIndex(sorted(states, key=skey), succ.__getitem__, lambda s: s[0])
        found = _first_improvement(game, game.prefs.order_of(a), induced, view)
        if found is None:
            continue
        improved, comp = found
        members = [i for i in range(len(states)) if comp >> i & 1]
        stem = _bfs_path(view.index[s0], {members[0]}, view.succ)[:-1]
        cycle = _cover_cycle(members, view.succ, members[0])
        seq = [view.owner[i] for i in stem + cycle]
        machine = _position_machine(a, seq, len(stem), arena)
        alt = StrategyProfile({**profile.machines, a: machine})
        mems_alt = dict(mems0)
        mems_alt[a] = machine.init
        vertex = _first_divergence((cfgs, loop), walk_configurations(arena, alt, v0, mems_alt))
        return DeviationWitness(a, vertex, machine, improved)
    return None


def verify_spe(game: GraphGame, profile: StrategyProfile, max_product_states: int = DEFAULT_PRODUCT_BOUND):
    """Check the profile is an equilibrium from every reachable configuration.

    The joint product moves the token along every edge (deviations
    included) while all memories update; the ``verify_ne`` search runs
    from each configuration in breadth-first order and the first failure
    comes back as ``(vertex, witness)``.  ``max_product_states`` bounds every
    product built.
    """
    arena = game.arena
    profile.validate(arena)
    players = arena.sorted_players()
    machines = [profile.machines[p] for p in players]
    s0 = (arena.start, tuple(m.init for m in machines))
    step = _product_successors(arena, players, machines)
    configs, _ = explore([s0], step, max_product_states, "joint product")
    for v, mems in configs:
        witness = _deviation_from(game, profile, v, dict(zip(players, mems)), max_product_states)
        if witness is not None:
            return (v, witness)
    return None


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
    L = len(seq)
    loop_at = len(lasso.stem)

    def nxt(p):
        return p + 1 if p + 1 < L else loop_at

    pun_keys = []
    pun_machines = {}
    for p in range(L):
        b = arena.owner[seq[p]]
        key = (b, table.rows[b].class_rank[seq[p]])
        if key not in pun_machines:
            pun_machines[key] = table.rows[b].punish[key[1]]
            pun_keys.append(key)
    base = {}
    span = {}
    offset = L
    for key in pun_keys:
        base[key] = offset
        span[key] = max(pun_machines[key].states()) + 1
        offset += span[key]
    vertices = arena.sorted_vertices()
    owned = arena.owned_by(player)
    update = {}
    choice = {}
    for p in range(L):
        v = seq[p]
        b = arena.owner[v]
        key = (b, table.rows[b].class_rank[v])
        pun = pun_machines[key]
        for w in vertices:
            if w == seq[nxt(p)]:
                if nxt(p) != p:
                    update[(w, p)] = nxt(p)
            else:
                update[(w, p)] = base[key] + pun.next_state(w, pun.init)
        for u in owned:
            if u == v:
                choice[(u, p)] = seq[nxt(p)]
            else:
                choice[(u, p)] = arena.successors(u)[0]
    for key in pun_keys:
        pun = pun_machines[key]
        for q in range(span[key]):
            s = base[key] + q
            for w in vertices:
                nq = pun.next_state(w, q)
                if nq != q:
                    update[(w, s)] = base[key] + nq
            for u in owned:
                choice[(u, s)] = pun.choice.get((u, q), arena.successors(u)[0])
    machine = StrategyMachine(player, bits_for(offset), update, choice, 0)
    return minimize_machine(machine, vertices, owned)


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
    as an error with its witness, no claim attached.  Supportable outcomes
    are found by scanning lassos over the feasible sets among the outcome
    map's keys (so the map must be total on recurrence sets) whose every
    vertex lets the owner be held to at most the target outcome.
    """
    require_linear_pattern_free(game.prefs)
    if table is None:
        table = guarantee_table(game)
    arena = game.arena
    feas = feasible_among(arena, game.outcome_map, arena.start)
    realizable = {game.outcome_map[s] for s in feas}
    front = pareto_front(game.prefs, realizable)

    def allowed_for(o) -> set:
        """Vertices without a choice, or whose owner can be held to ``o``."""
        return {
            v for v in arena.vertices
            if len(arena.successors(v)) == 1
            or game.prefs.order_of(arena.owner[v]).rank_of(o) >= table.rows[arena.owner[v]].class_rank[v]
        }

    supportable = {}
    for o in sorted(realizable, key=skey):
        allowed = allowed_for(o)
        if arena.start not in allowed:
            continue
        reach = {arena.start}
        frontier = [arena.start]
        while frontier:
            v = frontier.pop()
            for w in arena.successors(v):
                if w in allowed and w not in reach:
                    reach.add(w)
                    frontier.append(w)
        sets = [
            s for s in feas
            if game.outcome_map[s] == o and s <= allowed and s & reach
        ]
        if sets:
            supportable[o] = min(sets, key=lambda s: tuple(sorted(map(skey, s))))
    candidates = sorted(set(supportable) & front, key=skey)
    if not candidates:
        raise GraphGamesError("internal: no supportable Pareto-optimal outcome")
    target = candidates[0]
    # the set is strongly connected and meets ``reach``, so every member is
    # reachable inside the allowed vertices; enter at the lowest
    view = arena.view
    members = sorted(view.index[v] for v in supportable[target])
    allowed = {view.index[v] for v in allowed_for(target)}
    path = _bfs_path(view.index[arena.start], {members[0]}, view.succ, allowed)
    cycle = _cover_cycle(members, view.succ, members[0])
    lasso = canonical_lasso((view.vertices[i] for i in path[:-1]), (view.vertices[i] for i in cycle))
    lasso.validate(arena)
    report = _report_from_lasso(game, table, lasso)
    if report.induced_outcome != target:
        raise GraphGamesError("internal: constructed lasso misses its outcome")
    return report
