"""Arenas, lassos, finite-memory strategy machines and the energy product.

An arena is a finite directed graph with no dead ends; each vertex belongs
to exactly one player and a token is moved along edges forever.  Plays of
finite-memory profiles are ultimately periodic, so they are represented as
lassos (stem + repeated cycle).
"""

from __future__ import annotations

import math
from collections.abc import Callable, Hashable, Iterable, Mapping
from dataclasses import dataclass, field
from typing import Any

from .errors import InvalidArenaError, InvalidInputError, TooLargeError

Vertex = Hashable
Player = Hashable

DEFAULT_PRODUCT_BOUND = 100_000


def skey(x: Any) -> str:
    """Stable sort key for mixed-type identifiers."""
    return f"{type(x).__name__}:{x}"


class ArenaIndex:
    """Integer view of a game graph, built once and shared by every solver.

    Vertices are numbered in the order given, which is ``skey`` order for
    an arena, and ``index`` maps each back to its number.  ``succ[i]``
    lists the successor indices of vertex ``i`` in the graph's successor
    order, ``pred[i]`` its predecessor indices in ascending order,
    ``owner[i]`` its owner label, and ``owned[label]`` the vertices of each
    label in index order.  A product graph labels each node with the arena
    vertex it stands at instead of an owner.  ``owned`` and the bitmask
    facts below are worked out on first use and kept, so every layer that
    reads them shares one copy.
    """

    __slots__ = ("vertices", "index", "succ", "pred", "owner", "_owned", "_masks", "_recurrence", "_splits", "set_count")

    def __init__(self, vertices, index, succ, owner):
        self.vertices = vertices
        self.index = index
        self.succ = succ
        pred: list = [[] for _ in vertices]
        for i, ws in enumerate(succ):
            for j in ws:
                pred[j].append(i)
        self.pred = tuple(map(tuple, pred))
        self.owner = owner
        self._owned = None
        self._masks = None
        self._recurrence: dict = {}  # vertex set -> its mask, or 0 when it is no recurrence set
        self._splits: dict = {}  # mask -> distinct looping components of mask - v, over every member v
        self.set_count = None  # how many recurrence sets the graph has, once they are all listed

    @property
    def owned(self) -> dict:
        if self._owned is None:
            owned: dict = {}
            for v, o in zip(self.vertices, self.owner):
                owned.setdefault(o, []).append(v)
            self._owned = {o: tuple(vs) for o, vs in owned.items()}
        return self._owned

    def masks(self) -> tuple:
        """``(adj, radj)``: the successor and predecessor bitmask of every index, built in one pass."""
        if self._masks is None:
            adj: list = []
            radj = [0] * len(self.succ)
            for i, ws in enumerate(self.succ):
                bit = 1 << i
                out = 0
                for j in ws:
                    out |= 1 << j
                    radj[j] |= bit
                adj.append(out)
            self._masks = (adj, radj)
        return self._masks

    def recurrence_mask(self, s) -> int:
        """Index mask of the vertex set ``s``; 0 when it is no recurrence set or names an unknown vertex."""
        m = self._recurrence.get(s)
        if m is None:
            index = self.index
            m = sum(1 << index[v] for v in s) if all(v in index for v in s) else 0
            m = self._recurrence[s] = m if m and looping_components(m, *self.masks()) == [m] else 0
        return m

    def recurrence_masks(self, sets) -> frozenset:
        """Index masks of the recurrence sets among ``sets``; the other sets are skipped."""
        return frozenset(filter(None, map(self.recurrence_mask, sets)))

    def splits(self, x: int) -> tuple:
        """The distinct looping components of ``x`` minus one member, over every member."""
        parts = self._splits.get(x)
        if parts is None:
            parts = self._splits[x] = tuple(dict.fromkeys(split_components(x, *self.masks())))
        return parts


@dataclass(frozen=True, eq=False)
class Arena:
    """Finite directed game graph with per-vertex ownership and a start vertex.

    Successors are listed in ``skey`` order; ``view`` is the arena's
    integer index.  The successor table by vertex is built on the first
    call to ``successors``.
    """

    players: tuple
    vertices: tuple
    edges: frozenset
    owner: Mapping
    start: Vertex
    view: ArenaIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # the one skey sort of an arena, which is string order when every
        # vertex is a str; successors are sorted as indices
        vertices = self.vertices
        vs = tuple(sorted(vertices) if set(map(type, vertices)) <= {str} else sorted(vertices, key=skey))
        index = {v: i for i, v in enumerate(vs)}
        out: list = [[] for _ in vs]
        for (u, w) in self.edges:
            out[index[u]].append(index[w])
        for ws in out:
            ws.sort()
        view = ArenaIndex(vs, index, tuple(map(tuple, out)), tuple(map(self.owner.__getitem__, vs)))
        object.__setattr__(self, "view", view)

    def successors(self, v: Vertex) -> tuple:
        try:
            return self._succ[v]
        except AttributeError:  # the first call builds the table
            vs = self.view.vertices
            succ = {u: tuple(map(vs.__getitem__, ws)) for u, ws in zip(vs, self.view.succ)}
            object.__setattr__(self, "_succ", succ)
            return succ[v]

    def owned_by(self, player: Player) -> tuple:
        return self.view.owned.get(player, ())

    def sorted_vertices(self) -> tuple:
        return self.view.vertices

    def sorted_players(self) -> tuple:
        return tuple(sorted(self.players, key=skey))


def check_arena_parts(players, vertices, edges, owner, start) -> list:
    """Collect every structural violation of the arena invariants."""
    errors = []
    seen = set()
    for v in vertices:
        if v in seen:
            errors.append(("DuplicateVertex", f"vertex {v!r} declared twice"))
        seen.add(v)
    pseen = set()
    for p in players:
        if p in pseen:
            errors.append(("DuplicatePlayer", f"player {p!r} declared twice"))
        pseen.add(p)
    out = dict.fromkeys(vertices, 0)
    for (u, w) in edges:
        if u not in out or w not in out:
            errors.append(("DanglingEdge", f"edge ({u!r}, {w!r}) references undeclared vertex"))
        else:
            out[u] += 1
    for v in vertices:
        if v not in owner:
            errors.append(("UnknownOwner", f"vertex {v!r} has no owner"))
        elif owner[v] not in pseen:
            errors.append(("UnknownOwner", f"vertex {v!r} owned by undeclared player {owner[v]!r}"))
    if start not in out:
        errors.append(("MissingStart", f"start vertex {start!r} is not declared"))
    # only dead ends are sorted, so a valid arena is sorted once, by Arena
    for v in sorted((v for v in vertices if not out[v]), key=skey):
        errors.append(("DeadEndVertex", f"vertex {v!r} has no outgoing edge"))
    return errors


def make_arena(players, vertices, edges, owner, start) -> Arena:
    """Build an arena, raising ``InvalidArenaError`` with all violations."""
    players = tuple(players)
    vertices = tuple(vertices)
    edges = [(u, w) for (u, w) in edges]
    arena = _sound_arena(players, vertices, edges, dict(owner), start)
    if arena is None:
        edges = tuple(dict.fromkeys(edges))  # document order, for the error list
        raise InvalidArenaError(check_arena_parts(players, vertices, edges, owner, start))
    return arena


def _sound_arena(players: tuple, vertices: tuple, edges: list, owner: dict, start):
    """The arena of these parts, or None where ``check_arena_parts`` finds a violation.

    Building the arena's index looks up every edge end and every owner, so
    the index answers each check at once; only a refusal reads the parts
    again, to word each violation.  An unhashable part also gives None.
    """
    try:
        arena = Arena(players, vertices, frozenset(edges), owner, start)
        view = arena.view
        declared = set(players)
        if (
            len(view.index) < len(vertices)
            or len(declared) < len(players)
            or not declared.issuperset(view.owner)  # hashes every owner
            or start not in view.index
            or not all(view.succ)
        ):
            return None
    except (KeyError, TypeError):
        return None
    return arena


def identifier(x, what: str):
    """Return ``x`` if it can name a player, vertex or outcome.

    Identifiers are hashable; the JSON lists and objects are not.
    """
    try:
        hash(x)
    except TypeError:
        raise InvalidInputError(f"{what} {x!r} must be a string or a number") from None
    return x


def integer(x, what: str) -> int:
    """Return ``x`` if it is an integer; floats, strings and booleans are refused."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise InvalidInputError(f"{what} {x!r} must be an integer")
    return x


def validate_arena(doc: Mapping) -> Arena:
    """Parse and validate the arena JSON document form.

    Expected shape::

        {"players": [...], "vertices": [{"id": ..., "owner": ...}, ...],
         "edges": [[src, dst], ...], "start": ...}
    """
    if not isinstance(doc, Mapping):
        raise InvalidInputError("arena document must be an object")
    try:
        players = [identifier(p, "player") for p in _listed(doc, "players")]
        vertex_docs = _listed(doc, "vertices")
        edge_docs = _listed(doc, "edges")
        start = identifier(doc["start"], "start vertex")
    except KeyError as exc:
        raise InvalidInputError(f"arena document missing field: {exc}") from exc
    players = tuple(players)
    arena = _read_in_one_pass(players, vertex_docs, edge_docs, start)
    if arena is not None:
        return arena
    # the pass refused the document: word why, entry by entry
    vertices = []
    owner = {}
    for vd in vertex_docs:
        if not isinstance(vd, Mapping) or "id" not in vd or "owner" not in vd:
            raise InvalidInputError(f"vertex entry {vd!r} must have 'id' and 'owner'")
        vertices.append(identifier(vd["id"], "vertex id"))
        owner[vd["id"]] = identifier(vd["owner"], "owner")
    edges = []
    for ed in edge_docs:
        if not isinstance(ed, (list, tuple)) or len(ed) != 2:
            raise InvalidInputError(f"edge entry {ed!r} must be a [src, dst] pair")
        edges.append((identifier(ed[0], "edge end"), identifier(ed[1], "edge end")))
    return make_arena(players, vertices, edges, owner, start)


def _read_in_one_pass(players: tuple, vertex_docs: list, edge_docs: list, start):
    """The arena of a document of plain objects and pairs, or None when an entry or an invariant fails."""
    # exact types only: a two-character string would unpack as an edge
    if not (set(map(type, vertex_docs)) <= {dict} and set(map(type, edge_docs)) <= {list}):
        return None
    try:
        owner = {vd["id"]: vd["owner"] for vd in vertex_docs}
        edges = [(u, w) for u, w in edge_docs]
    except (KeyError, TypeError, ValueError):
        return None
    if len(owner) < len(vertex_docs):  # a repeated id
        return None
    return _sound_arena(players, tuple(owner), edges, owner, start)


def _listed(doc: Mapping, name: str) -> list:
    """The document's field ``name``, refused unless it is a list."""
    if not isinstance(doc[name], list):
        raise InvalidInputError(f"arena {name} must be a list")
    return doc[name]


@dataclass(frozen=True)
class Lasso:
    """Ultimately periodic play: the infinite play is ``stem . cycle^omega``."""

    stem: tuple
    cycle: tuple

    def __post_init__(self):
        if not self.cycle:
            raise InvalidInputError("lasso cycle must be non-empty")

    def sequence(self) -> tuple:
        return self.stem + self.cycle

    def validate(self, arena: Arena) -> None:
        seq = self.sequence()
        if seq[0] != arena.start:
            raise InvalidInputError(f"lasso must begin at the start vertex, got {seq[0]!r}")
        for u, w in zip(seq, seq[1:]):
            if (u, w) not in arena.edges:
                raise InvalidInputError(f"lasso uses missing edge ({u!r}, {w!r})")
        if (self.cycle[-1], self.cycle[0]) not in arena.edges:
            raise InvalidInputError("lasso cycle does not close")


def inf_set(lasso: Lasso) -> frozenset:
    """Vertices visited infinitely often by the lasso's play."""
    return frozenset(lasso.cycle)


def primitive_cycle(cycle: tuple) -> tuple:
    """Reduce a cycle to its primitive period."""
    n = len(cycle)
    for d in range(1, n + 1):
        if n % d == 0 and cycle == cycle[:d] * (n // d):
            return cycle[:d]
    return cycle


@dataclass(frozen=True, eq=False)
class StrategyMachine:
    """Moore-style finite-memory strategy for one player.

    Memory states are integers below ``2**memory_bits``; the initial state
    is 0.  The memory updates on every arrival at a vertex; the move chosen
    at an owned vertex is a function of the vertex and the updated memory.
    Missing update entries leave the memory unchanged.
    """

    player: Player
    memory_bits: int
    update: Mapping
    choice: Mapping
    init: int = 0

    def next_state(self, v: Vertex, q: int) -> int:
        return self.update.get((v, q), q)

    def move(self, v: Vertex, q: int) -> Vertex:
        try:
            return self.choice[(v, q)]
        except KeyError:
            raise InvalidInputError(
                f"machine for {self.player!r} has no choice at vertex {v!r}, state {q}"
            ) from None

    def states(self) -> tuple:
        """Every memory state the machine mentions, ascending."""
        used = {self.init}
        used.update(q for (_, q) in self.update)
        used.update(self.update.values())
        used.update(q for (_, q) in self.choice)
        return tuple(sorted(used))

    def state_count(self) -> int:
        return len(self.states())


def memoryless_machine(player: Player, choices: Mapping) -> StrategyMachine:
    """Machine with no memory, picking a fixed successor per owned vertex."""
    return StrategyMachine(player, 0, {}, {(v, 0): w for v, w in choices.items()})


def fallback_machine(arena: Arena, player: Player, partial: Mapping) -> StrategyMachine:
    """Memoryless machine following ``partial`` and the first successor elsewhere."""
    view = arena.view
    vs, index, succ = view.vertices, view.index, view.succ
    return memoryless_machine(
        player, {v: partial[v] if v in partial else vs[succ[index[v]][0]] for v in view.owned.get(player, ())}
    )


def bits_for(n_states: int) -> int:
    return 0 if n_states <= 1 else math.ceil(math.log2(n_states))


def minimize_machine(machine: StrategyMachine, vertices: Iterable, owned: Iterable) -> StrategyMachine:
    """Behavioural minimisation with canonical state numbering.

    Tabulates the states reachable from the initial state and hands the
    table to ``minimize_table``.
    """
    vs = tuple(sorted(vertices, key=skey))
    ow = tuple(sorted(owned, key=skey))
    states, succ = explore(
        [machine.init], lambda q: [machine.next_state(v, q) for v in vs], math.inf, "machine"
    )
    sid = {q: i for i, q in enumerate(states)}
    return minimize_table(
        machine.player,
        vs,
        ow,
        [[sid[t] for t in succ[q]] for q in states],
        [tuple(machine.choice.get((v, q)) for v in ow) for q in states],
    )


def minimize_table(player: Player, vertices: tuple, owned: tuple, nxt: list, choice: list) -> StrategyMachine:
    """Minimal machine of a tabulated one, numbered canonically.

    States are ``0 .. len(nxt) - 1`` and 0 is initial; ``nxt[q][i]`` is the
    state after arriving at ``vertices[i]`` in state ``q`` and ``choice[q][j]``
    the move at ``owned[j]`` (``None`` for no move).  States are merged when
    they prescribe the same moves and their successors under every arrival
    are merged as well.  The result is numbered by breadth-first discovery
    from the initial block over ``vertices``, so equal behaviours serialise
    identically whatever the table's numbering.
    """
    ids: dict = {}
    part = [ids.setdefault(row, len(ids)) for row in choice]
    count = len(ids)
    while True:
        ids = {}
        block = part.__getitem__
        refined = [ids.setdefault((b, *map(block, row)), len(ids)) for b, row in zip(part, nxt)]
        if len(ids) == count:
            break
        part, count = refined, len(ids)
    rep: dict = {}
    for q, b in enumerate(part):
        rep.setdefault(b, q)
    order = {part[0]: 0}
    queue = [part[0]]
    update = {}
    moves = {}
    for b in queue:
        q = rep[b]
        s = order[b]
        for v, t in zip(vertices, nxt[q]):
            nb = part[t]
            if nb not in order:
                order[nb] = len(order)
                queue.append(nb)
            if order[nb] != s:
                update[(v, s)] = order[nb]
        for v, w in zip(owned, choice[q]):
            if w is not None:
                moves[(v, s)] = w
    return StrategyMachine(player, bits_for(len(order)), update, moves, 0)


def machine_rows(arena: Arena, machine: StrategyMachine, owned: tuple, base: int) -> tuple:
    """``machine`` as ``minimize_table`` rows over ``arena.sorted_vertices()`` and ``owned``.

    Memory state ``q`` becomes the row of state ``base + q``, for every
    ``q`` up to the largest the machine names; where the machine has no
    choice it moves to the first successor.
    """
    vertices = arena.sorted_vertices()
    states = range(max(machine.states()) + 1)
    nxt = [[base + machine.next_state(w, q) for w in vertices] for q in states]
    choice = [tuple(machine.choice.get((u, q), arena.successors(u)[0]) for u in owned) for q in states]
    return nxt, choice


@dataclass(frozen=True)
class StrategyProfile:
    """One strategy machine per player."""

    machines: Mapping

    def players(self) -> tuple:
        return tuple(sorted(self.machines, key=skey))

    def validate(self, arena: Arena) -> None:
        if set(self.machines) != set(arena.players):
            raise InvalidInputError(
                f"profile players {sorted(map(str, self.machines))} do not match "
                f"arena players {sorted(map(str, arena.players))}"
            )
        for p, m in self.machines.items():
            if m.player != p:
                raise InvalidInputError(f"machine under key {p!r} claims player {m.player!r}")
            for (v, q), w in m.choice.items():
                if (v, w) not in arena.edges:
                    raise InvalidInputError(f"machine for {p!r} chooses non-edge ({v!r}, {w!r}) in state {q}")


def configuration_successors(arena: Arena, free: tuple, machines: list):
    """Successors of a configuration ``(vertex, memories)`` when the players in ``free`` choose.

    The memories are those of ``machines``, in the same order.  Any other
    player's machine moves the token at her vertices; every memory updates
    on arrival.  Each step reads the machines' tables directly, as
    ``next_state`` and ``move`` do; a missing choice is refused by ``move``.
    """
    slot = {m.player: i for i, m in enumerate(machines)}
    updates = [m.update for m in machines]
    owner = arena.owner

    def successors(state):
        v, mems = state
        own = owner[v]
        if own in free:
            targets = arena.successors(v)
        else:
            i = slot[own]
            try:
                targets = (machines[i].choice[v, mems[i]],)
            except KeyError:
                targets = (machines[i].move(v, mems[i]),)
        return [(w, tuple([u.get((w, q), q) for u, q in zip(updates, mems)])) for w in targets]

    return successors


def walk_configurations(
    arena: Arena,
    profile: StrategyProfile,
    start: Vertex | None = None,
    init_mems: Mapping | None = None,
):
    """Run the joint deterministic walk until a (vertex, memories) pair repeats.

    Returns ``(configs, loop_index)`` where ``configs`` is the list of
    visited pairs, memories in player order, and ``configs[loop_index]``
    is the first repeated pair.  ``init_mems`` lets the walk resume from
    mid-flight memory contents.
    """
    order = profile.players()
    machines = [profile.machines[p] for p in order]
    step = configuration_successors(arena, (), machines)
    v = arena.start if start is None else start
    if init_mems is None:
        cfg = (v, tuple(m.init for m in machines))
    else:
        cfg = (v, tuple(init_mems[p] for p in order))
    index = {}  # configuration -> step it was first visited at
    while cfg not in index:
        index[cfg] = len(index)
        (nxt,) = step(cfg)
        if (cfg[0], nxt[0]) not in arena.edges:
            own = arena.owner[cfg[0]]
            raise InvalidInputError(f"machine for {own!r} chose non-edge ({cfg[0]!r}, {nxt[0]!r})")
        cfg = nxt
    return list(index), index[cfg]


def canonical_lasso(stem: Iterable, cycle: Iterable) -> Lasso:
    """The lasso of the play ``stem . cycle^omega`` with the shortest stem.

    The cycle is reduced to its primitive period and rolled back over the
    stem while the stem ends with the cycle's last vertex, so every play
    has exactly one lasso and its first vertex stays the same.
    """
    stem, cycle = tuple(stem), primitive_cycle(tuple(cycle))
    while stem and stem[-1] == cycle[-1]:
        stem, cycle = stem[:-1], cycle[-1:] + cycle[:-1]
    return Lasso(stem, cycle)


def induced_lasso(arena: Arena, profile: StrategyProfile, start: Vertex | None = None) -> Lasso:
    """Deterministic play of a profile, folded into its canonical lasso.

    The walk stops at the first repeated (vertex, joint memory) pair; the
    vertices it visited give the stem and the cycle.
    """
    configs, loop = walk_configurations(arena, profile, start)
    return canonical_lasso((v for v, _ in configs[:loop]), (v for v, _ in configs[loop:]))


def closed_strongly_connected_sets(
    arena: Arena, source: Vertex | None = None, max_product_states: int = DEFAULT_PRODUCT_BOUND
) -> frozenset:
    """All non-empty vertex sets a play can eventually stay in while covering.

    A set qualifies when its induced subgraph is strongly connected and
    every member has a successor inside the set.  With a ``source`` it must
    also be reachable from there, which makes these exactly the sets some
    play from ``source`` visits infinitely often; without one the result is
    the union of those families over all sources.

    The largest sets are the looping components of the reachable part, and
    each set is expanded once through the index's ``splits``.  Finding more
    than ``max_product_states`` sets raises ``TooLargeError`` at once.
    """
    view = arena.view
    adj, radj = view.masks()
    reach = (1 << len(view.vertices)) - 1
    if source is not None:
        reach = reach_mask(1 << view.index[source], adj, reach)
    found: set = set()
    stack = [looping_components(reach, adj, radj)]  # iterables of sets to meet
    while stack:
        for x in stack.pop():
            if x not in found:
                found.add(x)
                if len(found) > max_product_states:
                    raise TooLargeError(f"{len(found)} recurrence sets exceed the bound {max_product_states}")
                stack.append(view.splits(x))
    if source is None:
        view.set_count = len(found)
    vs = view.vertices

    def members(x: int) -> frozenset:
        names = []
        while x:
            b = x & -x
            names.append(vs[b.bit_length() - 1])
            x ^= b
        return frozenset(names)

    return frozenset(map(members, found))


def feasible_inf_sets(
    arena: Arena, source: Vertex, max_product_states: int = DEFAULT_PRODUCT_BOUND
) -> frozenset:
    """All sets of vertices some play from ``source`` visits infinitely often."""
    return closed_strongly_connected_sets(arena, source, max_product_states)


def feasible_among(arena: Arena, candidates: Iterable, source: Vertex | None) -> frozenset:
    """The ``candidates`` some play from ``source`` visits infinitely often.

    Tests only the given vertex sets and enumerates none; sets naming an
    unknown vertex are skipped.  Fed the keys of an outcome map that is
    total on recurrence sets, it returns ``feasible_inf_sets``.  With no
    ``source`` it keeps every candidate that is a recurrence set.
    """
    view = arena.view
    reach = -1
    if source is not None:
        reach = reach_mask(1 << view.index[source], view.masks()[0], (1 << len(view.vertices)) - 1)
    return frozenset(s for s in candidates if view.recurrence_mask(s) & reach)


def looping_components(within: int, adj: list, radj: list) -> list:
    """Strongly connected components inside ``within`` that hold a cycle.

    Returns index masks in the order of their lowest member.  Each
    component is peeled off what is left: the states its lowest member
    reaches, then those of them that reach it back.  A lowest member with
    no successor or no predecessor left lies on no cycle and is dropped
    alone.
    """
    comps = []
    rest = within
    while rest:
        low = rest & -rest
        i = low.bit_length() - 1
        if not (adj[i] & rest and radj[i] & rest):
            rest ^= low
            continue
        # every path back to ``low`` from a state it reaches runs inside that reach
        comp = reach_mask(low, radj, reach_mask(low, adj, rest))
        rest &= ~comp
        if comp != low or adj[i] & low:
            comps.append(comp)
    return comps


def split_components(x: int, adj: list, radj: list):
    """Looping components of ``x`` minus one member, for every member, maybe repeated.

    Every recurrence set strictly inside ``x`` lies in one of them.
    """
    m = x
    while m:
        low = m & -m
        m ^= low
        yield from looping_components(x ^ low, adj, radj)


def reach_mask(start: int, adj: list, within: int) -> int:
    """Bitmask of the vertices reachable from ``start`` inside ``within``."""
    seen = frontier = start
    while frontier:
        nxt = 0
        while frontier:
            b = frontier & -frontier
            nxt |= adj[b.bit_length() - 1]
            frontier ^= b
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def explore(starts: Iterable, successors: Callable, bound: int, what: str) -> tuple:
    """Breadth-first closure of ``starts`` under ``successors``.

    Returns the states in discovery order and a map from each state to the
    successors ``successors`` listed for it.  Discovering a state past ``bound`` raises
    ``TooLargeError`` at once, before any more work is done.
    """
    states: list = []
    seen: set = set()
    succ: dict = {}
    found = tuple(starts)
    while True:
        for t in found:
            if t not in seen:
                if len(seen) >= bound:
                    raise TooLargeError(f"{what} exceeds {bound} states")
                seen.add(t)
                states.append(t)
        if len(succ) == len(states):
            return states, succ
        s = states[len(succ)]
        found = succ[s] = successors(s)


@dataclass(frozen=True)
class EnergySpec:
    """Per-player vertex weights with budget caps, plus vertex priorities."""

    weights: Mapping  # player -> {vertex: int}
    caps: Mapping     # player -> (lo, hi) with lo <= 0 <= hi
    priorities: Mapping  # vertex -> int

    def validate(self, arena: Arena) -> None:
        for p in arena.players:
            if p not in self.caps:
                raise InvalidInputError(f"energy caps omit player {p!r}")
            lo, hi = self.caps[p]
            if not (lo <= 0 <= hi):
                raise InvalidInputError(f"caps for {p!r} must satisfy lo <= 0 <= hi, got ({lo}, {hi})")
        for v in arena.vertices:
            if v not in self.priorities:
                raise InvalidInputError(f"vertex {v!r} has no priority")


def clamp_budget(value: int, lo: int, hi: int) -> int:
    """One step of the capped budget recurrence."""
    return max(min(value, hi), lo)


def energy_product(
    arena: Arena, spec: EnergySpec, max_product_states: int = DEFAULT_PRODUCT_BOUND
) -> Arena:
    """Unfold budgets into the arena, clamping into each player's caps.

    Product vertices are ``(vertex, budgets, minima)`` triples where budgets
    and minima are per-player tuples in sorted player order.  Visiting a
    vertex charges its weight:  ``b' = clamp(b + weight, lo, hi)`` starting
    from budget 0 before the start vertex is charged.  Minima never
    increase along edges, so any outcome read off the priorities and the
    minima is a function of the set of product vertices seen infinitely
    often.
    """
    spec.validate(arena)
    players = arena.sorted_players()
    caps = {p: spec.caps[p] for p in players}
    weights = {p: spec.weights.get(p, {}) for p in players}

    def charge(budgets: tuple, v: Vertex) -> tuple:
        return tuple(
            clamp_budget(b + weights[p].get(v, 0), *caps[p]) for p, b in zip(players, budgets)
        )

    def step(pv: tuple) -> list:
        v, budgets, minima = pv
        out = []
        for w in arena.successors(v):
            nb = charge(budgets, w)
            out.append((w, nb, tuple(min(m, b) for m, b in zip(minima, nb))))
        return out

    b0 = charge(tuple(0 for _ in players), arena.start)
    start = (arena.start, b0, tuple(min(0, b) for b in b0))
    vertices, succ = explore([start], step, max_product_states, "energy product")
    edges = frozenset((pv, pw) for pv in vertices for pw in succ[pv])
    owner = {pv: arena.owner[pv[0]] for pv in vertices}
    return Arena(tuple(arena.players), tuple(vertices), edges, owner, start)
