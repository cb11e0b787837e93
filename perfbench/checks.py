"""Output checks that do not reuse the code path under test.

Each check takes the input documents and the parsed ``--out`` payload and
returns a description of the first problem, or ``None``.  Plays are replayed
and regions re-verified here from the JSON alone; only the synthesis checks
call back into the library, and then into ``verify_ne``, which shares no code
with synthesis.
"""

from __future__ import annotations

from collections import deque


class Machine:
    """A strategy machine read straight from its JSON form."""

    def __init__(self, doc: dict):
        self.init = doc["init"]
        self.update = {(v, q): nq for v, q, nq in doc["update"]}
        self.choice = {(v, q): w for v, q, w in doc["choice"]}

    def next_state(self, v, q):
        return self.update.get((v, q), q)


class Game:
    """Arena, outcome map and preference ranks of a graph-game document."""

    def __init__(self, doc: dict):
        arena = doc["arena"]
        self.players = sorted(arena["players"])
        self.start = arena["start"]
        self.owner = {vd["id"]: vd["owner"] for vd in arena["vertices"]}
        self.succ = {v: [] for v in self.owner}
        for u, w in arena["edges"]:
            self.succ[u].append(w)
        self.outcome = {frozenset(s): o for s, o in doc["outcomes"]["map"]}
        self.rank = {
            p: {o: r for r, group in enumerate(groups) for o in group}
            for p, groups in doc["preferences"].items()
        }

    def play(self, machines: dict, v, mems: dict):
        """Outcome of the deterministic play from configuration ``(v, mems)``."""
        mems = tuple(mems[p] for p in self.players)
        index = {}
        trail = []
        while (v, mems) not in index:
            index[(v, mems)] = len(trail)
            trail.append(v)
            mover = self.owner[v]
            w = machines[mover].choice[(v, mems[self.players.index(mover)])]
            if w not in self.succ[v]:
                raise ValueError(f"machine of {mover} moves along non-edge {v}->{w}")
            mems = tuple(machines[p].next_state(w, q) for p, q in zip(self.players, mems))
            v = w
        return self.outcome[frozenset(trail[index[(v, mems)]:])]

    def configurations(self, machines: dict):
        """Every ``(vertex, memories)`` reachable along any edge from the start."""
        first = (self.start, tuple(machines[p].init for p in self.players))
        seen = {first}
        queue = deque([first])
        while queue:
            v, mems = queue.popleft()
            for w in self.succ[v]:
                nxt = (w, tuple(machines[p].next_state(w, q) for p, q in zip(self.players, mems)))
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return seen


def _loops(nodes: set, succ) -> list:
    """Strongly connected components of ``nodes`` that contain a cycle."""
    index, low, on_stack, stack, out = {}, {}, set(), [], []
    for root in sorted(nodes):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(succ(root)))]
        while work:
            node, it = work[-1]
            for w in it:
                if w not in nodes:
                    continue
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(succ(w))))
                    break
                if w in on_stack:
                    low[node] = min(low[node], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = set()
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.add(w)
                        if w == node:
                            break
                    if len(comp) > 1 or any(w == node for w in succ(node)):
                        out.append(comp)
    return out


def check_parity(doc: dict, out: dict):
    """Regions partition V, are closed for their winner, and win for them.

    Closure: the winner's strategy stays inside the region and every move of
    the loser does too.  Winning: in the region's graph with the winner's
    strategy fixed, the least priority on every cycle has the winner's
    parity, which is checked by repeatedly removing the least priority of
    each cyclic component.
    """
    arena = doc["arena"]
    prio = doc["objective"]["parity"]
    owner = {vd["id"]: vd["owner"] for vd in arena["vertices"]}
    succ = {v: set() for v in owner}
    for u, w in arena["edges"]:
        succ[u].add(w)
    regions = (set(out["win0"]), set(out["win1"]))
    if regions[0] & regions[1] or regions[0] | regions[1] != set(owner):
        return "regions do not partition the vertices"
    sides = (doc["protagonist"], next(p for p in arena["players"] if p != doc["protagonist"]))
    for parity, (region, player, strategy) in enumerate(
        zip(regions, sides, (out["strategy0"], out["strategy1"]))
    ):
        moves = {v: w for v, q, w in strategy["choice"] if q == 0}
        graph = {}
        for v in region:
            if owner[v] == player:
                if moves.get(v) not in succ[v]:
                    return f"strategy of {player} has no legal move at {v}"
                graph[v] = {moves[v]}
            else:
                graph[v] = succ[v]
            if not graph[v] <= region:
                return f"region of {player} is not closed at {v}"
        pending = _loops(region, graph.__getitem__)
        while pending:
            comp = pending.pop()
            least = min(prio[v] for v in comp)
            if least % 2 != parity:
                return f"{player} loses a cycle with least priority {least}"
            rest = {v for v in comp if prio[v] != least}
            pending.extend(_loops(rest, graph.__getitem__))
    return None


def check_guarantee(doc: dict, out: dict):
    """Each guarantee is the best (own vertex) or worst (other) over successors."""
    game = Game(doc)
    for p in game.players:
        rank = {v: game.rank[p][o] for v, o in out[p].items()}
        if set(rank) != set(game.owner):
            return f"guarantee table of {p} does not cover the vertices"
        for v in game.owner:
            options = [rank[w] for w in game.succ[v]]
            expect = max(options) if game.owner[v] == p else min(options)
            if rank[v] != expect:
                return f"guarantee of {p} at {v} is locally inconsistent"
    return None


def check_equilibrium(doc: dict, out: dict, verify_ne, load_game, load_profile):
    """The library's verifier finds no deviation; reports respect their bound."""
    accounting = out.get("memory_accounting")
    if accounting is not None:
        for p, machine in out["machines"].items():
            if machine["memory_bits"] > accounting["bound"]:
                return f"machine of {p} uses {machine['memory_bits']} bits, bound is {accounting['bound']}"
    if verify_ne(load_game(doc), load_profile(out)) is not None:
        return "verify_ne finds a profitable deviation"
    return None


def check_witness(doc: dict, profile: dict, out: dict):
    """A witness replays to its improved outcome, strictly better than before.

    A plain witness starts at the arena's start; a ``--subgames`` witness
    (with ``at_vertex``) must do so from some reachable configuration at
    that vertex, with the deviator's machine started fresh as the verifier
    starts it.
    """
    game = Game(doc)
    machines = {p: Machine(m) for p, m in profile["machines"].items()}
    player = out["player"]
    deviated = dict(machines, **{player: Machine(out["machine"])})
    improved = out["improved_outcome"]
    if "at_vertex" in out:
        starts = [
            (v, dict(zip(game.players, mems)))
            for v, mems in game.configurations(machines)
            if v == out["at_vertex"]
        ]
    else:
        starts = [(game.start, {p: m.init for p, m in machines.items()})]
    rank = game.rank[player]
    for v, mems in sorted(starts, key=repr):
        fresh = dict(mems, **{player: deviated[player].init})
        if game.play(deviated, v, fresh) != improved:
            continue
        if rank[improved] > rank[game.play(machines, v, mems)]:
            return None
    return "witness does not replay to a strictly better outcome"
