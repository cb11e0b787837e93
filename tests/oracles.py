"""Independent brute-force oracles used across the test modules.

These deliberately avoid the package's solver code paths: recurrence sets
come from explicit closed-walk searches, values from plain recursion, and
strategy quality from products built right here.  The Muller solver's
regions are checked against the appearance-record product, which tracks
the whole latest-appearance record instead of a Zielonka tree, and against
the parity product of the arena with the family's Zielonka trees.  Its
machines, and every guarantee row's, are certified by looping components
of the arena-by-machine product, without a tree or a parity solver, and
the threshold machines' states are held to the memory bound read off the
recursion's Zielonka DAG.  Subgame verification, which shares one deviation product
per player, is checked against a search that explores, indexes and
searches a fresh product from every configuration, and places each
witness where a second walk, of the deviating profile, first parts from
the profile's own walk.  Chain
closures come from a fixpoint that rescans every pair of pairs.  The
Pareto target comes from testing every realizable outcome for support
before intersecting with the front.  The
blocking preference pattern comes from asking the orders about every
triple of outcomes.  Guarantee rows come from solving every threshold game
afresh, regions and both machines, and reading every solve.  A machine's
DOT text comes from rescanning every choice entry once per state.  A
memoryless solve's attributes come from name maps of its index answer,
completed by ``fallback_machine``.
"""

from __future__ import annotations

from collections import deque
from itertools import permutations, product as iproduct
from types import SimpleNamespace

from graphgames.arena import (
    Arena,
    ArenaIndex,
    StrategyMachine,
    StrategyProfile,
    bits_for,
    explore,
    fallback_machine,
    minimize_machine,
    reach_mask,
    skey,
    walk_configurations,
)
from graphgames.errors import GraphGamesError, InvalidInputError
from graphgames.extensive import Decision, Leaf, PartialPreference, TreeGame
from graphgames.guarantees import GraphGame, coalition_tag
from graphgames.orders import (
    StrictWeakOrder,
    linear_order,
    pareto_front,
)
from graphgames.winlose import LarContext, MemorylessResult, Muller, WinLoseGame, _drive, solve_muller


def bfs_reachable(arena: Arena, source) -> set:
    seen = {source}
    todo = [source]
    while todo:
        v = todo.pop()
        for w in arena.successors(v):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


def attractor_by_deque(view: ArenaIndex, sub: set, side, player: int, target):
    """``player``'s attractor of ``target`` inside ``sub``, walked with a
    ``deque`` as its first-in first-out queue, each opponent vertex's
    successors in ``sub`` counted one by one.  Returns the attractor and a
    strategy mapping each attracted vertex of ``player`` to its successor
    one level closer, with ties broken by index."""
    succ, pred = view.succ, view.pred
    attr = {t for t in target if t in sub}
    strategy: dict = {}
    remaining: dict = {}
    queue = deque(sorted(attr))
    while queue:
        w = queue.popleft()
        for v in pred[w]:
            if v in attr or v not in sub:
                continue
            if side[v] == player:
                strategy[v] = w
            else:
                left = remaining.get(v)
                if left is None:
                    left = sum(1 for x in succ[v] if x in sub)
                remaining[v] = left = left - 1
                if left:
                    continue
            attr.add(v)
            queue.append(v)
    return attr, strategy


class IndexByCallables(ArenaIndex):
    """An ``ArenaIndex`` built vertex by vertex from callables: the
    successors and the owner of each vertex, in the order given."""

    __slots__ = ()

    def __init__(self, vertices, successors, owner):
        self.vertices = tuple(vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        self.succ = tuple(tuple(map(self.index.__getitem__, successors(v))) for v in self.vertices)
        pred: list = [[] for _ in self.vertices]
        for i, ws in enumerate(self.succ):
            for j in ws:
                pred[j].append(i)
        self.pred = tuple(map(tuple, pred))
        self.owner = tuple(owner(v) for v in self.vertices)
        owned: dict = {}
        for v, o in zip(self.vertices, self.owner):
            owned.setdefault(o, []).append(v)
        self._owned = {o: tuple(vs) for o, vs in owned.items()}
        self._masks = None
        self._recurrence = {}
        self._splits = {}


def masks_by_sums(view: ArenaIndex) -> tuple:
    """``ArenaIndex.masks``' answer, each mask summed over its index list on its own."""
    return (
        [sum(1 << j for j in ws) for ws in view.succ],
        [sum(1 << j for j in ws) for ws in view.pred],
    )


def owned_is_built(view: ArenaIndex) -> bool:
    """Whether ``view.owned`` has been worked out."""
    return view._owned is not None


def arena_index_by_skey(arena: Arena) -> ArenaIndex:
    """The arena's index with the vertices and every successor list sorted
    by ``skey``, successors read from the edge set."""

    def succ_of(v):
        return [w for (u, w) in arena.edges if u == v]

    return IndexByCallables(
        sorted(arena.vertices, key=skey), lambda v: sorted(succ_of(v), key=skey), arena.owner.__getitem__
    )


def closed_walk_covers(arena: Arena, subset: frozenset, start) -> bool:
    """Is there a walk ``start -> ... -> start`` of length >= 1 inside
    ``subset`` that visits every member of ``subset``?"""
    full = frozenset(subset)
    todo = [(w, frozenset({w})) for w in arena.successors(start) if w in full]
    seen = set(todo)
    while todo:
        v, visited = todo.pop()
        if v == start and visited | {start} == full:
            return True
        for w in arena.successors(v):
            if w not in full:
                continue
            state = (w, visited | {w})
            if state not in seen:
                seen.add(state)
                todo.append(state)
    return False


def feasible_sets_by_walk_search(arena: Arena, source) -> frozenset:
    """Recurrence sets found by explicitly searching for a covering closed walk."""
    vs = arena.sorted_vertices()
    reach = bfs_reachable(arena, source)
    found = []
    for mask in range(1, 1 << len(vs)):
        subset = frozenset(vs[i] for i in range(len(vs)) if mask >> i & 1)
        for s0 in sorted(subset, key=str):
            if s0 in reach and closed_walk_covers(arena, subset, s0):
                found.append(subset)
                break
    return frozenset(found)


def recurrence_sets_by_mask_scan(arena: Arena) -> frozenset:
    """Every recurrence set, by testing each vertex subset as a bitmask.

    The reference for the package's descent through components.  A subset
    qualifies when every member has a successor inside it and its lowest
    member reaches, and is reached from, every member inside it.
    """
    vs = arena.sorted_vertices()
    bit = {v: 1 << i for i, v in enumerate(vs)}
    adj = [sum(bit[w] for w in arena.successors(v)) for v in vs]
    radj = [sum(bit[u] for u in vs if v in arena.successors(u)) for v in vs]

    def reach(start: int, edges: list, within: int) -> int:
        seen = frontier = start
        while frontier:
            nxt = 0
            while frontier:
                b = frontier & -frontier
                nxt |= edges[b.bit_length() - 1]
                frontier ^= b
            frontier = nxt & within & ~seen
            seen |= frontier
        return seen

    found = []
    for mask in range(1, 1 << len(vs)):
        members = [i for i in range(len(vs)) if mask >> i & 1]
        low = mask & -mask
        if (
            all(adj[i] & mask for i in members)
            and reach(low, adj, mask) == mask
            and reach(low, radj, mask) == mask
        ):
            found.append(frozenset(vs[i] for i in members))
    return frozenset(found)


def machine_product_arena(arena: Arena, machine: StrategyMachine, start) -> tuple:
    """One-player product: the machine's owner is forced, everyone else free.

    Returns ``(product_arena, projection)`` where the projection maps
    product vertices back to arena vertices.
    """
    s0 = (start, machine.init)
    vertices = [s0]
    seen = {s0}
    edges = set()
    i = 0
    while i < len(vertices):
        v, q = vertices[i]
        i += 1
        if arena.owner[v] == machine.player:
            targets = (machine.move(v, q),)
        else:
            targets = arena.successors(v)
        for w in targets:
            st = (w, machine.next_state(w, q))
            edges.add(((v, q), st))
            if st not in seen:
                seen.add(st)
                vertices.append(st)
    owner = {pv: "any" for pv in vertices}
    product = Arena(("any",), tuple(vertices), frozenset(edges), owner, s0)
    return product, {pv: pv[0] for pv in vertices}


def _kosaraju_sccs(nodes, succ):
    order = []
    seen = set()
    for root in nodes:
        if root in seen:
            continue
        stack = [(root, iter(succ(root)))]
        seen.add(root)
        while stack:
            node, it = stack[-1]
            pushed = False
            for w in it:
                if w not in seen:
                    seen.add(w)
                    stack.append((w, iter(succ(w))))
                    pushed = True
                    break
            if not pushed:
                stack.pop()
                order.append(node)
    preds = {n: [] for n in nodes}
    for n in nodes:
        for w in succ(n):
            preds[w].append(n)
    assigned = set()
    sccs = []
    for node in reversed(order):
        if node in assigned:
            continue
        comp = [node]
        assigned.add(node)
        stack = [node]
        while stack:
            n = stack.pop()
            for w in preds[n]:
                if w not in assigned:
                    assigned.add(w)
                    comp.append(w)
                    stack.append(w)
        sccs.append(comp)
    return sccs


def parity_strategy_wins(game, side: int, machine: StrategyMachine, region) -> bool:
    """Whether the memoryless ``machine`` of ``side`` wins the parity game from all of ``region``.

    Independent of the solvers.  In the strategy graph the side's vertices
    keep only the machine's move and the other side's vertices keep every
    edge.  The machine wins iff ``region`` is closed in that graph and
    every cycle inside it has a least priority of the side's parity: for
    each priority ``p`` of the other parity, no vertex of priority ``p``
    lies on a cycle through priorities of at least ``p``.
    """
    arena, prio = game.arena, game.objective.priority
    region = sorted(region, key=str)

    def succ(v):
        return (machine.move(v, 0),) if game.side_of(v) == side else arena.successors(v)

    inside = set(region)
    if any(w not in inside for v in region for w in succ(v)):
        return False
    for p in {prio[v] for v in region if prio[v] % 2 != side}:
        nodes = [v for v in region if prio[v] >= p]
        keep = set(nodes)
        for comp in _kosaraju_sccs(nodes, lambda v: [w for w in succ(v) if w in keep]):
            if any(prio[v] == p for v in comp) and (len(comp) > 1 or comp[0] in succ(comp[0])):
                return False
    return True


def outcomes_against_machine(arena: Arena, machine: StrategyMachine, start) -> frozenset:
    """All recurrence sets (of arena vertices) opponents can force vs the machine.

    A projection T is achievable when the product restricted to states over
    T has a loopable strongly connected component covering exactly T; small
    products are double-checked against full recurrence-set enumeration.
    """
    product, proj = machine_product_arena(arena, machine, start)
    vs = arena.sorted_vertices()
    succ_map = {pv: [] for pv in product.vertices}
    for (u, w) in product.edges:
        succ_map[u].append(w)
    found = set()
    for mask in range(1, 1 << len(vs)):
        T = frozenset(vs[i] for i in range(len(vs)) if mask >> i & 1)
        sub = [pv for pv in product.vertices if proj[pv] in T]
        if {proj[pv] for pv in sub} != T:
            continue

        def sub_succ(pv):
            return [w for w in succ_map[pv] if proj[w] in T]

        for comp in _kosaraju_sccs(sub, sub_succ):
            if {proj[pv] for pv in comp} != T:
                continue
            if len(comp) == 1 and comp[0] not in sub_succ(comp[0]):
                continue
            found.add(T)
            break
    if len(product.vertices) <= 14:
        from graphgames.arena import feasible_inf_sets

        sets = feasible_inf_sets(product, product.start)
        assert found == {frozenset(proj[pv] for pv in s) for s in sets}
    return frozenset(found)


def tree_value(node, prefs):
    """Independent backward induction for outcome or payoff trees."""
    from graphgames.extensive import Leaf

    if isinstance(node, Leaf):
        return node.outcome if node.outcome is not None else dict(node.payoffs)
    best = None
    for child in node.children:
        value = tree_value(child, prefs)
        if best is None:
            best = value
        elif isinstance(value, dict):
            if value[node.owner] > best[node.owner]:
                best = value
        elif prefs[node.owner].lt(best, value):
            best = value
    return best


def all_machines(arena: Arena, player, bits: int):
    """Every machine of the player up to the memory bound (test-local copy)."""
    owned = arena.owned_by(player)
    states = tuple(range(2 ** bits))
    vs = arena.sorted_vertices()
    update_keys = [(v, q) for v in vs for q in states] if bits > 0 else []
    choice_keys = [(v, q) for v in owned for q in states]
    for upd in iproduct(*[states for _ in update_keys]) if update_keys else [()]:
        update = {k: t for k, t in zip(update_keys, upd)}
        for ch in iproduct(*[arena.successors(v) for (v, _) in choice_keys]) if choice_keys else [()]:
            choice = {k: w for k, w in zip(choice_keys, ch)}
            yield StrategyMachine(player, bits, update, choice, 0)


def minimize_machine_by_dicts(machine: StrategyMachine, vertices, owned) -> StrategyMachine:
    """Behavioural minimisation over dicts keyed by the machine's own states.

    The slow reference for the package's table minimiser: blocks are
    numbered by sorting their keys as strings at every refinement, and the
    result is renumbered breadth-first from the initial block.
    """
    vs = tuple(sorted(vertices, key=skey))
    ow = tuple(sorted(owned, key=skey))
    reachable = [machine.init]
    seen = {machine.init}
    i = 0
    while i < len(reachable):
        q = reachable[i]
        i += 1
        for v in vs:
            nq = machine.next_state(v, q)
            if nq not in seen:
                seen.add(nq)
                reachable.append(nq)
    sig = {q: tuple(machine.choice.get((v, q)) for v in ow) for q in reachable}
    blocks = {}
    for q in reachable:
        blocks.setdefault(sig[q], []).append(q)
    part = {q: idx for idx, (_, qs) in enumerate(sorted(blocks.items(), key=lambda kv: str(kv[0]))) for q in qs}
    while True:
        refined = {}
        for q in reachable:
            key = (part[q], tuple(part[machine.next_state(v, q)] for v in vs))
            refined.setdefault(key, []).append(q)
        if len(refined) == len(set(part.values())):
            break
        part = {q: idx for idx, (_, qs) in enumerate(sorted(refined.items(), key=lambda kv: str(kv[0]))) for q in qs}
    order = {part[machine.init]: 0}
    queue = [part[machine.init]]
    rep = {}
    for q in reachable:
        rep.setdefault(part[q], q)
    while queue:
        b = queue.pop(0)
        q = rep[b]
        for v in vs:
            nb = part[machine.next_state(v, q)]
            if nb not in order:
                order[nb] = len(order)
                queue.append(nb)
    update = {}
    choice = {}
    for b, q in sorted(rep.items(), key=lambda kv: order[kv[0]]):
        for v in vs:
            nb = order[part[machine.next_state(v, q)]]
            if nb != order[b]:
                update[(v, order[b])] = nb
        for v in ow:
            w = machine.choice.get((v, q))
            if w is not None:
                choice[(v, order[b])] = w
    return StrategyMachine(machine.player, bits_for(len(order)), update, choice, 0)


def solve_result_by_names(result: MemorylessResult) -> SimpleNamespace:
    """The eager answer of a memoryless solve, under the names a result
    reads: both regions as frozensets of names, and each side's index
    choices turned into a name map that ``fallback_machine`` completes."""
    arena, vs = result.arena, result.arena.view.vertices
    win0 = frozenset(vs[v] for v in result.region0)
    strategies = [
        fallback_machine(arena, player, {vs[v]: vs[w] for v, w in choice.items()})
        for player, choice in zip(result.players, result.choices)
    ]
    return SimpleNamespace(
        win0=win0,
        win1=frozenset(arena.vertices) - win0,
        strategy0=strategies[0],
        strategy1=strategies[1],
        memory_bits_used=0,
    )


def machine_to_dot_by_rescans(machine: StrategyMachine, name: str = "machine") -> str:
    """``jsonio.machine_to_dot``'s text, re-sorting every choice entry once
    per state and keeping the entries of that state."""
    lines = [f"digraph {name} {{"]
    for q in machine.states():
        marks = []
        for (v, qq), w in sorted(machine.choice.items(), key=lambda kv: (skey(kv[0][0]), kv[0][1])):
            if qq == q:
                marks.append(f"{v}->{w}")
        label = f"q{q}" + (("\\n" + "\\n".join(marks)) if marks else "")
        shape = "doublecircle" if q == machine.init else "circle"
        lines.append(f'  "q{q}" [label="{label}", shape={shape}];')
    for (v, q), nq in sorted(machine.update.items(), key=lambda kv: (kv[0][1], skey(kv[0][0]))):
        lines.append(f'  "q{q}" -> "q{nq}" [label="{v}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# The composite machines built as dicts keyed by their own states, then
# explored, renumbered and minimised by ``minimize_machine``: the reference
# for the package's builders, which fill integer tables for
# ``minimize_table`` directly.


def optimal_strategy_by_dicts(game, player, row) -> StrategyMachine:
    """Reference for ``guarantees.optimal_strategy`` with the guarantee row ``row``."""
    arena = game.arena
    vertices = arena.sorted_vertices()
    owned = arena.owned_by(player)
    used = sorted(set(row.class_rank.values()))
    machines = {c: row.machines[c] for c in used}
    states_of = {c: machines[c].states() for c in used}
    sid = {"fresh": 0}
    for c in used:
        for q in states_of[c]:
            sid[(c, q)] = len(sid)
    update = {}
    choice = {}
    cls = row.class_rank
    for w in vertices:
        target = (cls[w], machines[cls[w]].init)
        if sid[target] != 0:
            update[(w, 0)] = sid[target]
    for v in owned:
        m = machines[cls[v]]
        choice[(v, 0)] = m.choice.get((v, m.init), arena.successors(v)[0])
    for c in used:
        m = machines[c]
        for q in states_of[c]:
            s = sid[(c, q)]
            for w in vertices:
                if cls[w] == c:
                    nxt = (c, m.next_state(w, q))
                else:
                    nxt = (cls[w], machines[cls[w]].init)
                if sid[nxt] != s:
                    update[(w, s)] = sid[nxt]
            for v in owned:
                # read only at vertices of class c; elsewhere it moves as fresh
                choice[(v, s)] = m.choice.get((v, q), arena.successors(v)[0]) if cls[v] == c else choice[(v, 0)]
    machine = StrategyMachine(player, bits_for(len(sid)), update, choice, 0)
    return minimize_machine(machine, vertices, owned)


def position_machine_by_dicts(player, seq_vertices, loop_index, arena: Arena) -> StrategyMachine:
    """Reference for ``equilibria._position_machine``."""
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


def conformance_machine_by_dicts(game, table, lasso, player) -> StrategyMachine:
    """Reference for ``equilibria._conformance_machine``."""
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


def parity_win0(view: ArenaIndex, side, prio) -> set:
    """Indices side 0 wins in the min-parity game on the whole graph ``view``,
    solved in one decomposition, without splitting it into components."""
    return _drive(view, side, prio, range(len(prio)))[0]


class RecordProduct:
    """The appearance-record parity product of one arena.

    Every reachable record ``r`` is a move node ``("m", r)`` at vertex
    ``r[0]``; each move to a successor ``w`` passes through a transition
    node ``("d", r, w)`` whose priority comes from the position ``h`` at
    which ``w`` is hit: ``2(n - h)``, plus one when the hit prefix
    ``r[:h]`` is not in the Muller family.  The graph part is built once
    and serves every family and every split into two sides.
    """

    def __init__(self, arena: Arena, max_product_states: int = 10**6):
        ctx = LarContext(arena)
        records = ctx.reachable_records(arena, max_product_states)
        succ: dict = {}
        for r in records:
            outs = []
            for w in arena.successors(r[0]):
                d = ("d", r, w)
                succ[d] = (("m", ctx.process(r, w)),)
                outs.append(d)
            succ[("m", r)] = tuple(outs)
        index = arena.view.index
        self.view = IndexByCallables(
            sorted(succ, key=skey), succ.__getitem__, lambda x: index[x[1][0] if x[0] == "m" else x[2]]
        )
        self.arena = arena
        self.n = ctx.n

    def win0(self, family: frozenset, p0) -> frozenset:
        """Vertices from which ``p0``'s side wins the Muller game ``family``."""
        side_of = [0 if o == p0 else 1 for o in self.arena.view.owner]
        side, prio = [], []
        for x, v in zip(self.view.vertices, self.view.owner):
            if x[0] == "m":
                side.append(side_of[v])
                prio.append(2 * self.n)
            else:
                _, r, w = x
                h = r.index(w) + 1
                side.append(1)
                prio.append(2 * (self.n - h) + (frozenset(r[:h]) not in family))
        W0 = parity_win0(self.view, side, prio)
        return frozenset(self.view.vertices[k][1][0] for k in W0 if self.view.vertices[k][0] == "m")


def component_mask(start: int, adj: list, radj: list, within: int) -> int:
    """Strongly connected component of the one-bit mask ``start`` inside ``within``."""
    return reach_mask(start, adj, within) & reach_mask(start, radj, within)


def closed_and_strongly_connected(mask: int, adj: list, radj: list) -> bool:
    """Whether every member of ``mask`` has a successor in it and it is strongly connected."""
    m = mask
    while m:
        b = m & -m
        if not adj[b.bit_length() - 1] & mask:
            return False
        m ^= b
    return component_mask(mask & -mask, adj, radj, mask) == mask


def looping_components_by_component_masks(within: int, adj: list, radj: list):
    """``looping_components``' masks, each component the intersection of a
    forward and a backward reach of its lowest member inside what is left."""
    rest = within
    while rest:
        low = rest & -rest
        comp = component_mask(low, adj, radj, rest)
        rest &= ~comp
        if comp != low or adj[low.bit_length() - 1] & low:
            yield comp


def successors_by_machine_calls(arena: Arena, free: tuple, machines: list):
    """``configuration_successors``' answers, each step through the
    machines' ``move`` and ``next_state``."""
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


def _first_improvement_in(game, order, induced, view: ArenaIndex):
    """Best outcome beating ``induced`` that the product ``view`` can settle on.

    The outcome map's sets are tried best class first, then by ``skey``; a
    set ``T`` is achieved by a looping component of the states over ``T``
    that meets every vertex of ``T``.  Returns the outcome and the
    component with the lowest index of the first achieved set, or ``None``.
    """
    adj, radj = view.masks()
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
        for comp in looping_components_by_component_masks(sum(parts), adj, radj):
            if all(comp & part for part in parts):
                return o, comp
    return None


def outcome_from(game, profile, vertex=None, mems=None):
    """Outcome of the profile's deterministic play from a configuration."""
    cfgs, loop = walk_configurations(game.arena, profile, vertex, mems)
    return game.outcome_of(frozenset(v for v, _ in cfgs[loop:]))


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


def deviation_by_fresh_products(game, profile, start=None, init_mems=None, max_product_states=10**5):
    """``verify_ne``'s witness, each player's product explored from this one
    start alone and indexed and searched afresh."""
    from graphgames.equilibria import (
        DeviationWitness,
        _index_lasso,
        _position_machine,
    )

    arena = game.arena
    profile.validate(arena)
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
            [s0], successors_by_machine_calls(arena, (a,), fixed), max_product_states, "deviation product"
        )
        view = IndexByCallables(sorted(states, key=skey), succ.__getitem__, lambda s: s[0])
        found = _first_improvement_in(game, game.prefs.order_of(a), induced, view)
        if found is None:
            continue
        improved, comp = found
        stem, cycle = _index_lasso(view, view.index[s0], comp, view.owner)
        seq = stem + cycle
        machine = _position_machine(a, seq, len(stem), arena)
        alt = StrategyProfile({**profile.machines, a: machine})
        mems_alt = dict(mems0)
        mems_alt[a] = machine.init
        vertex = _first_divergence((cfgs, loop), walk_configurations(arena, alt, v0, mems_alt))
        return DeviationWitness(a, vertex, machine, improved)
    return None


def joint_configurations(arena: Arena, profile) -> list:
    """Every ``(vertex, memories)`` reached when the token may take any edge,
    in breadth-first order, memories keyed by player."""
    players = arena.sorted_players()
    machines = [profile.machines[p] for p in players]
    start = (arena.start, tuple(m.init for m in machines))
    seen = {start}
    queue = [start]
    for v, mems in queue:
        for w in arena.successors(v):
            nxt = (w, tuple(m.next_state(w, q) for m, q in zip(machines, mems)))
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return [(v, dict(zip(players, mems))) for v, mems in queue]


def spe_by_fresh_products(game, profile):
    """``verify_spe``'s answer with a fresh deviation product per configuration."""
    for v, mems in joint_configurations(game.arena, profile):
        witness = deviation_by_fresh_products(game, profile, v, mems)
        if witness is not None:
            return (v, witness)
    return None


def partial_from_chains_by_fixpoint(outcomes, chains) -> PartialPreference:
    """``partial_from_chains``'s closure by adding ``(x, z)`` for every
    ``(x, y)`` and ``(y, z)`` until nothing changes; raises
    ``InvalidInputError`` on a cycle, at a pair that depends on set order."""
    pairs = set()
    for chain in chains:
        for i, x in enumerate(chain):
            for y in chain[i + 1:]:
                pairs.add((x, y))
    changed = True
    while changed:
        changed = False
        for (x, y) in list(pairs):
            for (y2, z) in list(pairs):
                if y2 == y and (x, z) not in pairs:
                    pairs.add((x, z))
                    changed = True
    for (x, y) in pairs:
        if (y, x) in pairs:
            raise InvalidInputError(f"chains create a cycle through ({x!r}, {y!r})")
    return PartialPreference(tuple(outcomes), frozenset(pairs))


def pareto_target_by_all_realizable(game, table) -> tuple:
    """``muller_pareto_ne``'s target outcome and recurrence set, found by
    collecting every realizable outcome that a feasible set supports and
    only then taking the least of them on the Pareto front."""
    arena = game.arena
    feas = feasible_sets_by_walk_search(arena, arena.start)
    realizable = {game.outcome_map[s] for s in feas}
    supportable = {}
    for o in sorted(realizable, key=skey):
        allowed = {
            v for v in arena.vertices
            if len(arena.successors(v)) == 1
            or game.prefs.order_of(arena.owner[v]).rank_of(o) >= table.rows[arena.owner[v]].class_rank[v]
        }
        if arena.start not in allowed:
            continue
        reach = {arena.start}
        todo = [arena.start]
        while todo:
            for w in arena.successors(todo.pop()):
                if w in allowed and w not in reach:
                    reach.add(w)
                    todo.append(w)
        sets = [s for s in feas if game.outcome_map[s] == o and s <= allowed and s & reach]
        if sets:
            supportable[o] = min(sets, key=lambda s: tuple(sorted(map(skey, s))))
    target = min(set(supportable) & pareto_front(game.prefs, realizable), key=skey)
    return target, supportable[target]


def forbidden_pattern_by_lt(profile):
    """The first ``(a, b, x, y, z)`` with z < y < x for a and x < z < y for b,
    asking ``lt`` of both orders about every triple, or ``None``."""
    orders = profile.orders
    players = sorted(orders, key=skey)
    outcomes = sorted(set(orders[players[0]].outcomes), key=skey)
    for a, b in permutations(players, 2):
        oa, ob = orders[a], orders[b]
        for x, y, z in iproduct(outcomes, repeat=3):
            if oa.lt(z, y) and oa.lt(y, x) and ob.lt(x, z) and ob.lt(z, y):
                return (a, b, x, y, z)
    return None


def guarantee_row_by_fresh_solves(game, player) -> tuple:
    """``(class_rank, machines, punish, solver_bits)`` of ``player``'s row, from
    a fresh Muller solve of every threshold game.

    The class at a vertex is one above the highest threshold won there;
    ``machines[c]`` is threshold ``c - 1``'s winning machine (the fallback
    machine for class 0), ``punish[c]`` threshold ``c``'s coalition machine
    (the top threshold's for the top class), for every class some vertex
    has; ``solver_bits`` is the largest machine of every solve.
    """
    order = game.prefs.order_of(player)
    k = order.num_classes()
    solves = [solve_muller(threshold_game(game, player, order.representative(j))) for j in range(k)]
    rank = {v: max([j + 1 for j in range(k) if v in solves[j].win0], default=0) for v in game.arena.vertices}
    used = sorted(set(rank.values()))
    machines = {c: solves[c - 1].strategy0 if c else fallback_machine(game.arena, player, {}) for c in used}
    punish = {c: solves[min(c, k - 1)].strategy1 for c in used}
    return rank, machines, punish, max(r.memory_bits_used for r in solves)


def threshold_game(game: GraphGame, player, outcome) -> WinLoseGame:
    """One-vs-all game: ``player`` tries to force an outcome above ``outcome``.

    The protagonist owns her vertices; everyone else merges into a single
    coalition side.  The winning family collects the recurrence sets whose
    outcome she strictly prefers to the threshold.
    """
    order = game.prefs.order_of(player)
    if outcome not in set(order.outcomes):
        raise InvalidInputError(f"unknown threshold outcome {outcome!r}")
    arena = game.arena
    other = coalition_tag(player)
    owner = {v: (player if arena.owner[v] == player else other) for v in arena.vertices}
    two_sided = Arena((player, other), tuple(arena.vertices), arena.edges, owner, arena.start)
    family = frozenset(s for s, o in game.outcome_map.items() if order.lt(outcome, o))
    return WinLoseGame(two_sided, Muller(family), protagonist=player)


class TreeProduct:
    """Regions reference for the Muller solver: the parity product of an
    arena with the Zielonka trees of one family.

    Every looping component of the arena, a maximal recurrence set, roots a
    tree.  The children of a node are the maximal recurrence sets strictly
    inside it whose membership in the family differs from the node's,
    found by scanning every recurrence set (``recurrence``, the arena's
    when not given); a node at depth ``d`` has priority ``d``, plus one
    when the root is not in the family.  A move node ``("m", v, leaf)``
    pairs a vertex with a leaf of its component's tree, a path of child
    positions (the empty path on no cycle).  A move to ``w`` in the same
    component passes through the transition node ``("t", leaf, w)``, which
    carries the priority of the deepest node of the leaf's branch holding
    ``w`` and leads to the leftmost leaf below that node's next child,
    taken cyclically; a move into another component enters its leftmost
    leaf.
    """

    def __init__(self, arena: Arena, family, recurrence=None):
        if recurrence is None:
            recurrence = recurrence_sets_by_mask_scan(arena)
        family = {s for s in family if s in recurrence}
        kids: dict = {}

        def children(node):
            if node not in kids:
                inside = [s for s in recurrence if s < node and (s in family) != (node in family)]
                kids[node] = sorted((s for s in inside if not any(s < t for t in inside)), key=lambda s: sorted(map(skey, s)))
            return kids[node]

        branches: dict = {}  # (root, leaf path) -> the nodes from the root down to the leaf

        def leftmost(chain, path):
            while children(chain[-1]):
                chain, path = chain + [children(chain[-1])[0]], path + (0,)
            branches[(chain[0], path)] = chain
            return path

        roots = [s for s in recurrence if not any(s < t for t in recurrence)]
        root_of = {v: next((r for r in roots if v in r), None) for v in arena.vertices}
        fresh = {r: leftmost([r], ()) for r in roots}
        # the leaves of every tree that stepping from the leftmost one reaches
        steps: dict = {}
        leaves: dict = {}
        for r in roots:
            todo = [fresh[r]]
            seen = leaves[r] = set(todo)
            while todo:
                path = todo.pop()
                chain = branches[(r, path)]
                for w in r:
                    d = max(k for k, node in enumerate(chain) if w in node)
                    nxt = path
                    if d < len(path):
                        below = children(chain[d])
                        i = (path[d] + 1) % len(below)
                        nxt = leftmost(chain[: d + 1] + [below[i]], path[:d] + (i,))
                    steps[(r, path, w)] = nxt, d + (r not in family)
                    if nxt not in seen:
                        seen.add(nxt)
                        todo.append(nxt)
        succ, prio, label = {}, {}, {}
        top = 2 * len(arena.vertices) + 2
        for v in arena.sorted_vertices():
            r = root_of[v]
            for leaf in sorted(leaves[r]) if r is not None else [()]:
                outs = []
                for w in arena.successors(v):
                    if r is not None and root_of[w] == r:
                        t = ("t", leaf, w)
                        nxt, prio[t] = steps[(r, leaf, w)]
                        succ[t] = (("m", w, nxt),)
                        label[t] = w
                        outs.append(t)
                    else:
                        outs.append(("m", w, fresh.get(root_of[w], ())))
                node = ("m", v, leaf)
                succ[node], prio[node], label[node] = tuple(outs), top, v
        self.arena = arena
        self.view = IndexByCallables(list(succ), succ.__getitem__, label.__getitem__)
        self.prio = [prio[x] for x in self.view.vertices]
        self.fresh = {v: ("m", v, fresh.get(root_of[v], ())) for v in arena.vertices}

    def win0(self, p0) -> frozenset:
        """Vertices from which ``p0``'s side wins with a fresh leaf."""
        owner = self.arena.owner
        side = [0 if x[0] == "m" and owner[x[1]] == p0 else 1 for x in self.view.vertices]
        W0 = parity_win0(self.view, side, self.prio)
        return frozenset(v for v, x in self.fresh.items() if self.view.index[x] in W0)


def _machine_product(arena: Arena, machine: StrategyMachine, owned, starts) -> tuple:
    """``(over, adj, radj)``: the part of the arena-by-machine product reachable from the starts.

    The product pairs every arena vertex with every memory state the
    machine names, and starts from every start vertex in every state.  At
    a vertex of ``owned`` the machine moves, and every move must be an
    edge; elsewhere every edge is open.  ``over[v]`` is the mask of the
    product states over vertex ``v``, and ``adj`` and ``radj`` the
    successor and predecessor masks of every product state.
    """
    owned = set(owned)
    states = machine.states()
    start = [(v, q) for v in starts for q in states]
    seen = set(start)
    order = list(start)
    for v, q in order:
        if v in owned:
            w = machine.choice.get((v, q))
            if (v, w) not in arena.edges:
                raise AssertionError(f"machine for {machine.player!r} moves {v!r} -> {w!r} in state {q}")
            targets = (w,)
        else:
            targets = arena.successors(v)
        for w in targets:
            t = (w, machine.next_state(w, q))
            if t not in seen:
                seen.add(t)
                order.append(t)
    number = {s: i for i, s in enumerate(order)}
    adj, radj = [0] * len(order), [0] * len(order)
    over: dict = {}
    for (v, q), i in number.items():
        over[v] = over.get(v, 0) | 1 << i
        targets = (machine.choice[(v, q)],) if v in owned else arena.successors(v)
        for w in targets:
            j = number[(w, machine.next_state(w, q))]
            adj[i] |= 1 << j
            radj[j] |= 1 << i
    return over, adj, radj


def achieved_sets_by_candidate(arena: Arena, machine: StrategyMachine, owned, starts, candidates) -> list:
    """``achieved_sets``, one search of the product per candidate.

    A vertex set ``T`` is achieved when some looping component of the
    reachable product, restricted to the states over ``T``, meets every
    vertex of ``T``.
    """
    over, adj, radj = _machine_product(arena, machine, owned, starts)
    found = []
    for T in candidates:
        parts = [over.get(v, 0) for v in T]
        if all(parts) and any(
            all(comp & part for part in parts)
            for comp in looping_components_by_component_masks(sum(parts), adj, radj)
        ):
            found.append(T)
    return found


def achieved_sets(arena: Arena, machine: StrategyMachine, owned, starts, candidates) -> list:
    """The ``candidates`` some play achieves against ``machine`` from a start vertex in any memory state.

    One descent through the reachable product (``_machine_product``)
    answers every candidate: from the product's looping components into
    the looping components of each component minus the states over one
    vertex of its projection, once per component, while some candidate not
    yet found lies strictly inside the projection.  A candidate is achieved
    exactly when some component met projects onto it.  No Zielonka tree and
    no parity solver is used.
    """
    over, adj, radj = _machine_product(arena, machine, owned, starts)
    bit = {v: 1 << i for i, v in enumerate(arena.sorted_vertices())}
    parts = [(states, bit[v]) for v, states in over.items()]
    beyond = 1 << len(bit)  # in no projection, for a candidate naming an unknown vertex
    wanted = [sum(bit[v] for v in T) if T and all(v in bit for v in T) else beyond for T in candidates]
    missing = set(wanted) - {beyond}
    stack = list(looping_components_by_component_masks((1 << len(adj)) - 1, adj, radj))
    seen = set(stack)
    while stack and missing:
        comp = stack.pop()
        projection = sum(b for states, b in parts if states & comp)
        missing.discard(projection)
        if any(T & projection == T != projection for T in missing):
            for states, _ in parts:
                if states & comp:
                    for c in looping_components_by_component_masks(comp & ~states, adj, radj):
                        if c not in seen:
                            seen.add(c)
                            stack.append(c)
    return [T for T, m in zip(candidates, wanted) if m != beyond and m not in missing]


def row_certificate_violations(game, row) -> list:
    """Where a guarantee row's machines let the player do better or worse than her class.

    ``machines[c]`` must let no set ranked below ``c`` be achieved from any
    vertex of class at least ``c``, and ``punish[c]`` no set ranked above
    ``c`` from any vertex of class at most ``c``, in any memory state.
    Returns ``(kind, c, set)`` for every set achieved that should not be.
    """
    arena = game.arena
    vs = arena.sorted_vertices()
    ranked = [(T, row.order.rank_of(o)) for T, o in game.outcome_map.items()]
    mine = arena.owned_by(row.player)
    others = [v for v in vs if arena.owner[v] != row.player]
    bad = []
    for c, machine in row.machines.items():
        starts = [v for v in vs if row.class_rank[v] >= c]
        losing = [T for T, r in ranked if r < c]
        bad += [("machines", c, T) for T in achieved_sets(arena, machine, mine, starts, losing)]
    for c, machine in row.punish.items():
        starts = [v for v in vs if row.class_rank[v] <= c]
        losing = [T for T, r in ranked if r > c]
        bad += [("punish", c, T) for T in achieved_sets(arena, machine, others, starts, losing)]
    return bad


def zielonka_memory_bound(recursion, s: int) -> int:
    """``m_s`` at the root of a ``ZielonkaRecursion``'s Zielonka DAG: a bound on side ``s``'s states.

    ``m_s(X)`` is 1 at a leaf.  Where ``X``'s side (0 when ``X`` is in the
    family) is ``s``, it is the sum over ``X``'s children; elsewhere it is
    their maximum.  This is the memory bound of Dziembowski, Jurdziński and
    Walukiewicz (LICS 1997), taken over the arena's recurrence sets.  The
    DAG is read through ``children``, which lists every node's children.
    """
    bound: dict = {}

    def m(x: int) -> int:
        if x not in bound:
            kids = [m(c) for c in recursion.children(x)]
            bound[x] = (sum(kids) if (x not in recursion.good) == s else max(kids)) if kids else 1
        return bound[x]

    return m(recursion.root[1])


def build_four_outcome_example() -> TreeGame:
    """Two-player game with tied preferences; the lone NE outcome is z."""
    outcomes = ("x", "y", "z", "t")
    prefs = {
        "a": StrictWeakOrder(outcomes, {"t": 0, "z": 0, "x": 1, "y": 1}),
        "b": linear_order(["x", "z", "y", "t"]),
    }
    deep = Decision("b", (Leaf(outcome="t"), Leaf(outcome="y")))
    sub = Decision("a", (deep, Leaf(outcome="x")))
    root = Decision("b", (sub, Leaf(outcome="z")))
    return TreeGame(root, ("a", "b"), prefs=prefs)
