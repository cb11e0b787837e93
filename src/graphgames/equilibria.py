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
    Arena,
    Lasso,
    StrategyMachine,
    StrategyProfile,
    bits_for,
    feasible_inf_sets,
    induced_lasso,
    inf_set,
    minimize_machine,
    skey,
    walk_configurations,
)
from .errors import (
    GraphGamesError,
    InvalidInputError,
    LinearityRequired,
    NotAntagonisticError,
    PatternPresentError,
    TooLargeError,
)
from .guarantees import GraphGame, GuaranteeTable, guarantee_table
from .orders import forbidden_pattern, pareto_front


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
# products with one player free and everyone else fixed


def _one_player_product(arena: Arena, fixed: Mapping, free, start_v, start_mems, cap=100_000):
    order = tuple(sorted(fixed, key=skey))
    ms = [fixed[p] for p in order]
    s0 = (start_v, tuple(start_mems[p] for p in order))
    states = [s0]
    seen = {s0}
    succ = {}
    i = 0
    while i < len(states):
        v, mems = states[i]
        i += 1
        own = arena.owner[v]
        if own == free:
            targets = arena.successors(v)
        else:
            pi = order.index(own)
            targets = (ms[pi].move(v, mems[pi]),)
        outs = []
        for w in targets:
            nm = tuple(m.next_state(w, q) for m, q in zip(ms, mems))
            st = (w, nm)
            outs.append(st)
            if st not in seen:
                if len(seen) >= cap:
                    raise TooLargeError(f"deviation product exceeds {cap} states")
                seen.add(st)
                states.append(st)
        succ[(v, mems)] = tuple(outs)
    return states, succ, s0


def _state_key(s):
    return str(s)


def _tarjan_sccs(nodes, succ_fn):
    index = {}
    low = {}
    on_stack = set()
    stack = []
    sccs = []
    counter = [0]
    for root in nodes:
        if root in index:
            continue
        work = [(root, iter(succ_fn(root)))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ_fn(w))))
                    advanced = True
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(comp)
    return sccs


def _achievable_recurrences(arena: Arena, states, succ):
    """Map each achievable recurrence set of base vertices to a component.

    A set T of arena vertices is achievable when the product restricted to
    T has a strongly connected component that projects onto all of T and
    can loop (more than one state, or a self-loop).  All supplied states
    are reachable, so no extra reachability check is needed.
    """
    verts = arena.sorted_vertices()
    present = {v for (v, _) in states}
    out = {}
    for mask in range(1, 1 << len(verts)):
        T = frozenset(verts[i] for i in range(len(verts)) if mask >> i & 1)
        if not T <= present:
            continue
        sub = [s for s in states if s[0] in T]

        def sub_succ(s):
            return tuple(t for t in succ[s] if t[0] in T)

        best = None
        for comp in _tarjan_sccs(sub, sub_succ):
            if {s[0] for s in comp} != T:
                continue
            if len(comp) == 1 and comp[0] not in sub_succ(comp[0]):
                continue
            key = tuple(sorted(map(_state_key, comp)))
            if best is None or key < best[0]:
                best = (key, comp)
        if best is not None:
            out[T] = best[1]
    return out


def _bfs_path(start, goals, succ_fn, allowed=None):
    """Shortest path ``[start, ..., goal]`` with deterministic tie-breaks."""
    goals = set(goals)
    if start in goals:
        return [start]
    parent = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for s in sorted(frontier, key=_state_key):
            for w in sorted(succ_fn(s), key=_state_key):
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


def _cover_cycle(members, succ_fn, entry):
    """Closed walk from ``entry`` covering ``members``, as a cycle sequence."""
    members = set(members)
    walk = [entry]
    visited = {entry}
    while visited != members:
        path = _bfs_path(walk[-1], members - visited, succ_fn, allowed=members)
        walk.extend(path[1:])
        visited.update(path[1:])
    # return to the entry with at least one step
    firsts = sorted((w for w in succ_fn(walk[-1]) if w in members), key=_state_key)
    if not firsts:
        raise GraphGamesError("internal: component is not closed")
    if entry in firsts:
        back = [entry]
    else:
        back = _bfs_path(firsts[0], {entry}, succ_fn, allowed=members)
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
    max_product: int = 100_000,
) -> DeviationWitness | None:
    """Search for a profitable unilateral deviation.

    For each player the other machines are frozen into a product whose
    achievable recurrence sets give her best reachable outcome class; a
    witness machine is extracted from the certifying play when that class
    beats the induced outcome.
    """
    arena = game.arena
    profile.validate(arena)
    players = arena.sorted_players()
    v0 = arena.start if start is None else start
    mems0 = dict(init_mems) if init_mems else {p: profile.machines[p].init for p in players}
    cfgs, loop = walk_configurations(arena, profile, v0, mems0)
    induced = game.outcome_of(frozenset(v for v, _ in cfgs[loop:]))
    for a in players:
        order = game.prefs.order_of(a)
        fixed = {p: profile.machines[p] for p in players if p != a}
        states, succ, s0 = _one_player_product(arena, fixed, a, v0, mems0, max_product)
        achievable = _achievable_recurrences(arena, states, succ)
        best = None
        for T in sorted(achievable, key=lambda t: tuple(sorted(map(skey, t)))):
            o = game.outcome_of(T)
            if best is None or order.lt(best[1], o):
                best = (T, o)
        if best is None or not order.lt(induced, best[1]):
            continue
        T, improved = best
        comp = achievable[T]
        entry = min(comp, key=_state_key)
        stem_states = _bfs_path(s0, {entry}, lambda s: succ[s])[:-1]
        cycle_states = _cover_cycle(comp, lambda s: succ[s], entry)
        seq = [s[0] for s in stem_states + cycle_states]
        machine = _position_machine(a, seq, len(stem_states), arena)
        alt = StrategyProfile({**fixed, a: machine})
        mems_alt = dict(mems0)
        mems_alt[a] = machine.init
        vertex = _first_divergence((cfgs, loop), walk_configurations(arena, alt, v0, mems_alt))
        return DeviationWitness(a, vertex, machine, improved)
    return None


def verify_spe(game: GraphGame, profile: StrategyProfile, max_states: int = 100_000):
    """Check the profile is an equilibrium from every reachable configuration.

    The full product moves the token along every edge (deviations included)
    while all memories update; ``verify_ne`` runs from each configuration
    and the first failure comes back as ``(vertex, witness)``.
    """
    arena = game.arena
    profile.validate(arena)
    players = arena.sorted_players()
    machines = [profile.machines[p] for p in players]
    s0 = (arena.start, tuple(m.init for m in machines))
    seen = {s0}
    queue = [s0]
    i = 0
    while i < len(queue):
        v, mems = queue[i]
        i += 1
        for w in arena.successors(v):
            nm = tuple(m.next_state(w, q) for m, q in zip(machines, mems))
            st = (w, nm)
            if st not in seen:
                if len(seen) >= max_states:
                    raise TooLargeError(f"joint product exceeds {max_states} states")
                seen.add(st)
                queue.append(st)
    for v, mems in queue:
        witness = verify_ne(game, profile, start=v, init_mems=dict(zip(players, mems)))
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


def synthesize_antagonistic_spe(game: GraphGame, table: GuaranteeTable | None = None) -> StrategyProfile:
    """Subgame-perfect profile for two players with inverse preferences.

    Both players simply play their uniformly optimal machines everywhere.
    At every vertex the guarantees of the two players meet in a single
    class, which the induced play from that vertex realizes.
    """
    from .guarantees import optimal_strategy

    arena = game.arena
    if len(arena.players) != 2:
        raise NotAntagonisticError(f"need exactly 2 players, got {len(arena.players)}")
    a, b = sorted(arena.players, key=skey)
    oa, ob = game.prefs.order_of(a), game.prefs.order_of(b)
    for x in oa.outcomes:
        for y in oa.outcomes:
            if oa.lt(x, y) != ob.lt(y, x):
                raise NotAntagonisticError(
                    f"preferences are not inverse at ({x!r}, {y!r})"
                )
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
    are found by scanning lassos over feasible recurrence sets whose every
    vertex lets the owner be held to at most the target outcome.
    """
    witness = forbidden_pattern(game.prefs)
    if witness is not None:
        raise PatternPresentError(witness)
    for p in game.prefs.players():
        if not game.prefs.order_of(p).is_linear():
            raise LinearityRequired(f"player {p!r} has tied outcomes")
    if table is None:
        table = guarantee_table(game)
    arena = game.arena
    feas = feasible_inf_sets(arena, arena.start)
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
    cycle_set = supportable[target]
    entry_candidates = sorted(cycle_set, key=skey)
    allowed = allowed_for(target)
    entry = None
    path = None
    for cand in entry_candidates:
        try:
            path = _bfs_path(arena.start, {cand}, arena.successors, allowed=allowed)
            entry = cand
            break
        except GraphGamesError:
            continue
    if entry is None:
        raise GraphGamesError("internal: supportable set unreachable")
    stem = tuple(path[:-1])
    cycle = tuple(
        _cover_cycle(cycle_set, lambda v: tuple(w for w in arena.successors(v) if w in cycle_set), entry)
    )
    lasso = Lasso(stem, cycle)
    lasso.validate(arena)
    report = _report_from_lasso(game, table, lasso)
    if report.induced_outcome != target:
        raise GraphGamesError("internal: constructed lasso misses its outcome")
    return report
