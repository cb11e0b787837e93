"""Two-player win/lose games on arenas and their solvers.

Provides the reachability attractor, a recursive parity solver (min-parity:
the protagonist wins iff the least priority seen infinitely often is even)
that solves one strongly connected component at a time, a Muller solver
by McNaughton's and Zielonka's recursion memoised on (subgame, tree node),
and an exhaustive machine-enumeration oracle that never asserts
determinacy beyond the memory bound it was given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product as iproduct
from typing import Iterable, Mapping

from .arena import (
    DEFAULT_PRODUCT_BOUND,
    Arena,
    ArenaIndex,
    StrategyMachine,
    explore,
    fallback_machine,
    memoryless_machine,
    minimize_table,
)
from .errors import CapExceededError, InvalidInputError, TooLargeError

DEFAULT_BRUTE_CAP = 1_000_000


@dataclass(frozen=True)
class Reachability:
    targets: frozenset


@dataclass(frozen=True)
class Safety:
    safe: frozenset


@dataclass(frozen=True)
class Parity:
    priority: Mapping  # vertex -> non-negative int

    def require_total(self, arena: Arena) -> None:
        for v in arena.vertices:
            if v not in self.priority:
                raise InvalidInputError(f"vertex {v!r} has no priority")


@dataclass(frozen=True)
class Muller:
    family: frozenset  # of frozensets of vertices


@dataclass(frozen=True, eq=False)
class WinLoseGame:
    """Arena split into a protagonist side and the complementary side."""

    arena: Arena
    objective: object
    protagonist: object = None

    def sides(self) -> tuple:
        players = self.arena.players
        if len(players) != 2:
            raise InvalidInputError(f"win/lose game needs exactly 2 players, got {len(players)}")
        p0 = self.protagonist if self.protagonist is not None else players[0]
        if p0 not in players:
            raise InvalidInputError(f"protagonist {p0!r} is not a player")
        p1 = players[0] if players[1] == p0 else players[1]
        return (p0, p1)

    def side_of(self, v) -> int:
        p0, _ = self.sides()
        return 0 if self.arena.owner[v] == p0 else 1


@dataclass(frozen=True)
class SolveResult:
    """Winning regions with finite-memory witnesses; the regions partition V."""

    win0: frozenset
    win1: frozenset
    strategy0: StrategyMachine
    strategy1: StrategyMachine
    memory_bits_used: int


class MemorylessResult:
    """A memoryless solver's answer, kept on the arena's index.

    ``region0`` is the set of indices side 0 wins, and side 1 wins the
    rest.  ``side[i]`` is the side owning vertex ``i``, and ``choices[s]``
    maps indices side ``s`` owns to the index it moves to; an owned vertex
    the map lacks moves to its first successor.  The attributes of a
    ``SolveResult`` are built on first read, with the same values.
    """

    memory_bits_used = 0

    def __init__(self, arena: Arena, players: tuple, side: list, region0: set, choices: tuple):
        self.arena = arena
        self.players = players
        self.side = side
        self.region0 = region0
        self.choices = choices

    def moves(self, s: int, order: Iterable) -> list:
        """``(vertex, successor)`` index pairs of side ``s`` at the vertices it owns, taken in ``order``."""
        side, choice, succ = self.side, self.choices[s], self.arena.view.succ
        return [(v, choice[v] if v in choice else succ[v][0]) for v in order if side[v] == s]

    def _machine(self, s: int) -> StrategyMachine:
        vs = self.arena.view.vertices
        return memoryless_machine(self.players[s], {vs[v]: vs[w] for v, w in self.moves(s, range(len(vs)))})

    @cached_property
    def win0(self) -> frozenset:
        vs = self.arena.view.vertices
        return frozenset(vs[v] for v in self.region0)

    @cached_property
    def win1(self) -> frozenset:
        region0 = self.region0
        return frozenset(v for i, v in enumerate(self.arena.view.vertices) if i not in region0)

    @cached_property
    def strategy0(self) -> StrategyMachine:
        return self._machine(0)

    @cached_property
    def strategy1(self) -> StrategyMachine:
        return self._machine(1)


@dataclass(frozen=True)
class BruteForceResult:
    """Regions certified by machine enumeration at a fixed memory bound.

    Vertices where neither side has a machine beating every opposing
    machine within the bound are listed in ``not_determined`` instead of
    being forced into a region.
    """

    win0: frozenset
    win1: frozenset
    not_determined: frozenset


def _attractor(view: ArenaIndex, sub: set, side, player: int, target: Iterable):
    """Least fixpoint attractor of ``player`` inside the index set ``sub``.

    ``side[i]`` is the side (0 or 1) owning vertex ``i``; edges leaving
    ``sub`` are ignored.  Returns the attractor and a strategy mapping each
    newly attracted vertex of ``player`` to a successor one level closer to
    the target.  Ties break by index, that is by ``skey``.
    """
    succ, pred = view.succ, view.pred
    attr = {t for t in target if t in sub}
    strategy: dict = {}
    remaining: dict = {}
    queue = sorted(attr)
    for w in queue:  # the queue grows as it is walked, so the walk is breadth first
        for v in pred[w]:
            if v in attr or v not in sub:
                continue
            if side[v] == player:
                strategy[v] = w
            else:
                left = remaining.get(v)
                if left is None:
                    left = len(sub.intersection(succ[v]))
                remaining[v] = left = left - 1
                if left:
                    continue
            attr.add(v)
            queue.append(v)
    return attr, strategy


def _regions(view: ArenaIndex, side, levels: list, buckets: list, sub: set, lo: int):
    """Region decomposition of the parity subgame on ``sub``, one level of it.

    ``buckets[k]`` lists the vertices of priority ``levels[k]`` in index
    order, and no vertex of ``sub`` lies in a bucket below ``lo``.  The
    generator yields each subgame it needs as ``(sub, lo)`` and is sent its
    regions back; it returns ``(W0, W1, s0, s1)``: both winning regions and
    memoryless strategies, all over vertex indices.
    """
    if not sub:
        return set(), set(), {}, {}
    k = lo
    while True:
        P = [v for v in buckets[k] if v in sub]
        if P:
            break
        k += 1
    i = levels[k] % 2
    A, astrat = _attractor(view, sub, side, i, P)
    W0, W1, s0, s1 = yield sub - A, k + 1
    w_opp = W1 if i == 0 else W0
    if not w_opp:
        si = dict(s0 if i == 0 else s1)
        si.update(astrat)
        for v in P:
            if side[v] == i and v not in si:
                si[v] = next(w for w in view.succ[v] if w in sub)
        if i == 0:
            return sub, set(), si, {}
        return set(), sub, {}, si
    B, bstrat = _attractor(view, sub, side, 1 - i, w_opp)
    W0b, W1b, s0b, s1b = yield sub - B, k
    s_opp = dict(s1 if i == 0 else s0)
    s_opp.update(bstrat)
    s_opp.update(s1b if i == 0 else s0b)
    s_i = dict(s0b if i == 0 else s1b)
    if i == 0:
        return W0b, W1b | B, s_i, s_opp
    return W0b | B, W1b, s_opp, s_i


def _drive(view: ArenaIndex, side, prio, sub):
    """Regions and strategies of the parity subgame on ``sub``, over indices.

    ``sub`` lists the subgame's vertices in index order, and ``prio[v]`` is
    the priority of vertex ``v``.  Consecutive priorities of one parity
    share a level.  The levels of the decomposition wait on an
    explicit stack for the subgames they yield, so its depth is bounded by
    memory alone.
    """
    levels: list = []
    rank = {}
    for p in sorted({prio[v] for v in sub}):
        if not (levels and (p - levels[-1]) % 2 == 0):
            levels.append(p)
        rank[p] = len(levels) - 1
    buckets: list = [[] for _ in levels]
    for v in sub:
        buckets[rank[prio[v]]].append(v)
    stack = [_regions(view, side, levels, buckets, set(sub), 0)]
    result = None
    while True:
        try:
            nested = stack[-1].send(result)
        except StopIteration as done:
            stack.pop()
            if not stack:
                return done.value
            result = done.value
        else:
            stack.append(_regions(view, side, levels, buckets, *nested))
            result = None


def _components(succ) -> list:
    """Strongly connected components of the graph ``succ``, sinks first.

    One iterative pass of Tarjan's algorithm: a component is complete only
    after every component it reaches, so the list is in reverse
    topological order.  Each component lists its indices in ascending order.
    """
    n = len(succ)
    number = [-1] * n  # discovery number, or n once the vertex has its component
    low = [0] * n
    stack: list = []
    found: list = []
    count = 0
    for root in range(n):
        if number[root] >= 0:
            continue
        number[root] = low[root] = count
        count += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if number[w] < 0:
                    number[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if number[w] < low[v]:
                    low[v] = number[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == number[v]:
                    at = len(stack) - 1
                    while stack[at] != v:
                        at -= 1
                    comp = stack[at:]
                    del stack[at:]
                    for w in comp:
                        number[w] = n
                    comp.sort()
                    found.append(comp)
    return found


def _solve_by_components(view: ArenaIndex, side, prio):
    """Parity regions and strategies of the whole graph, one component at a time.

    Components are solved sinks first.  The undecided part of each one
    is closed in what is left, so it is solved alone, with consecutive
    priorities of one parity merged into one level; then player 0's
    attractor of its 0-region and player 1's attractor of its 1-region
    are decided with it.
    """
    left = set(range(len(view.vertices)))
    regions, strategies = (set(), set()), ({}, {})
    for comp in _components(view.succ):
        sub = [v for v in comp if v in left]
        if not sub:
            continue
        w0, w1, s0, s1 = _drive(view, side, prio, sub)
        alone = len(sub) == len(left)
        for i, won, strategy in ((0, w0, s0), (1, w1, s1)):
            if not alone:
                won, attracted = _attractor(view, left, side, i, won)
                left -= won
                strategy.update(attracted)
            regions[i].update(won)
            strategies[i].update(strategy)
    return (*regions, *strategies)


def _sides(game: WinLoseGame) -> list:
    """Side (0 or 1) of every vertex of the game's arena, by index."""
    p0, _ = game.sides()
    return [0 if o == p0 else 1 for o in game.arena.view.owner]


def attractor(arena: Arena, side, target: Iterable):
    """Vertices from which ``side`` can force a visit to ``target``.

    Returns the attractor set together with a memoryless machine whose
    moves strictly decrease the attractor level.
    """
    view = arena.view
    target = set(target)
    for t in target:
        if t not in view.index:
            raise InvalidInputError(f"target vertex {t!r} not in arena")
    sides = [0 if o == side else 1 for o in view.owner]
    attr, strategy = _attractor(
        view, set(range(len(view.vertices))), sides, 0, [view.index[t] for t in target]
    )
    vs = view.vertices
    return frozenset(vs[v] for v in attr), memoryless_machine(side, {vs[v]: vs[w] for v, w in strategy.items()})


def solve_parity(game: WinLoseGame) -> MemorylessResult:
    """Solve a parity game one strongly connected component at a time.

    Components are taken sinks first, as in the generic solver of Friedmann
    and Lange (ATVA 2009).  The vertices of a component that the components
    below it have not decided are solved by the classical recursive region
    decomposition (Zielonka 1998), with consecutive priorities of one
    parity merged; both players' attractors of the regions found are then
    decided too.  Both winning strategies are memoryless; the regions
    always partition the vertex set.
    """
    if not isinstance(game.objective, Parity):
        raise InvalidInputError("solve_parity requires a Parity objective")
    arena = game.arena
    prio = game.objective.priority
    game.objective.require_total(arena)
    side = _sides(game)
    W0, _, s0, s1 = _solve_by_components(arena.view, side, [prio[v] for v in arena.view.vertices])
    return MemorylessResult(arena, game.sides(), side, W0, (s0, s1))


def _forced_visit(game: WinLoseGame, reacher: int, target: Iterable) -> MemorylessResult:
    """Side ``reacher`` forces a visit to the indices ``target``; the other side avoids them.

    The avoiding side keeps to the first successor outside the attractor.
    """
    view = game.arena.view
    side = _sides(game)
    everything = range(len(view.vertices))
    attr, force = _attractor(view, set(everything), side, reacher, target)
    avoid = {
        v: next(w for w in view.succ[v] if w not in attr)
        for v in everything
        if side[v] != reacher and v not in attr
    }
    if reacher == 1:
        return MemorylessResult(game.arena, game.sides(), side, set(everything) - attr, (avoid, force))
    return MemorylessResult(game.arena, game.sides(), side, attr, (force, avoid))


def solve_reachability(game: WinLoseGame) -> MemorylessResult:
    index = game.arena.view.index
    return _forced_visit(game, 0, [index[t] for t in game.objective.targets if t in index])


def solve_safety(game: WinLoseGame) -> MemorylessResult:
    safe = game.objective.safe
    return _forced_visit(game, 1, [i for i, v in enumerate(game.arena.view.vertices) if v not in safe])


class LarContext:
    """Latest-appearance records over an arena's vertex set.

    A record is a permutation of the vertices; visiting ``v`` moves it to
    the front.  The fresh record is the sorted vertex tuple.  The solvers
    do not use records; the tests build their independent region oracle,
    the appearance-record product, on this enumerator.
    """

    def __init__(self, arena: Arena):
        self.vertices = arena.sorted_vertices()
        self.n = len(self.vertices)
        self.r_init = tuple(self.vertices)

    def process(self, r: tuple, v) -> tuple:
        if r and r[0] == v:
            return r
        return (v,) + tuple(x for x in r if x != v)

    def reachable_records(self, arena: Arena, max_product_states: int = DEFAULT_PRODUCT_BOUND) -> tuple:
        """Every record reachable from a first visit, refused past ``max_product_states``."""
        records, _ = explore(
            [self.process(self.r_init, v) for v in self.vertices],
            lambda r: [self.process(r, w) for w in arena.successors(r[0])],
            max_product_states,
            "record product",
        )
        return tuple(sorted(records))


class MullerSearch:
    """The Muller games over one arena, each solved once.

    ``game`` hands out one ``ZielonkaRecursion`` per distinct family of
    recurrence sets and split into sides, and hands it out again.  Every
    recursion is refused past ``bound`` subgames and sets.
    """

    def __init__(self, arena: Arena, max_product_states: int):
        self.arena = arena
        self.bound = max_product_states
        self.games: dict = {}  # (masks of a family's recurrence sets, sides) -> ZielonkaRecursion

    def game(self, family: frozenset, sides: tuple) -> ZielonkaRecursion:
        """The solved game of ``family`` with side 0 played by ``sides[0]`` and side 1 by ``sides[1]``.

        Side 0 owns the vertices of player ``sides[0]``, side 1 all others.
        Sets of ``family`` that are not recurrence sets of the arena, or
        that name an unknown vertex, are skipped.
        """
        good = frozenset(filter(None, map(self.arena.view.recurrence_mask, family)))
        game = self.games.get((good, sides))
        if game is None:
            game = self.games[(good, sides)] = ZielonkaRecursion(self.arena, good, sides, self.bound)
        return game


def _attract(adj: list, radj: list, own: int, within: int, target: int) -> tuple:
    """Attractor of the index mask ``target`` inside ``within`` for the side owning the mask ``own``.

    Edges leaving ``within`` are ignored.  Returns the attractor's mask and
    a strategy mapping each attracted vertex of that side outside
    ``target`` to its lowest successor attracted one round before it or
    earlier, so every move lowers the attractor level.
    """
    attr = frontier = target & within
    strategy: dict = {}
    while frontier:
        near = 0
        while frontier:
            b = frontier & -frontier
            near |= radj[b.bit_length() - 1]
            frontier ^= b
        near &= within & ~attr
        new = 0
        while near:
            b = near & -near
            near ^= b
            v = b.bit_length() - 1
            if own & b:
                m = adj[v] & attr
                strategy[v] = (m & -m).bit_length() - 1
                new |= b
            elif not adj[v] & within & ~attr:
                new |= b
        attr |= new
        frontier = new
    return attr, strategy


class ZielonkaRecursion:
    """McNaughton's and Zielonka's recursion for one Muller game, memoised on (subgame, tree node).

    Vertex sets are index masks over the arena.  Side 0 owns the vertices
    of player ``sides[0]``, side 1 all others, and side 0 wins a play whose
    recurrence set is in ``good``.  The children of a Zielonka-tree node
    (``children``) depend on its set alone, so the tree is a DAG over
    recurrence sets and ``solve(G, X)`` is a function of the subgame ``G``
    and the node ``X``.  Its side σ is 0 when ``X`` is in ``good`` and 1
    otherwise:

    - for each child ``Y`` of ``X`` that meets ``G``, ``H = G - Attr_σ(G, G - Y)``
      is solved at ``(H, Y)``;
    - if σ's opponent wins a non-empty part ``L`` of ``H``, the piece
      ``Attr_opp(G, L)`` is removed from ``G`` and the children are tried
      again;
    - when no child yields anything, σ wins the rest of ``G``.

    The root is the whole vertex set.  Each memo entry is
    ``(σ, won, pieces, phases)``: σ's region ``won``, the opponent's pieces
    ``(B, L, attractor strategy to L, child key)`` in the order removed,
    and one phase ``(Y, H, attractor strategy out of Y, child key)`` per
    child meeting ``won``.  Memo entries and the distinct sets whose split
    the game expands while listing children (``_split``) are counted, one
    each, against ``bound`` as they grow.

    Each side's machine is flattened from the entries by one walk down
    them per memory and vertex (``_step``), which gives both the memory
    after arriving there and the move there.  On a region σ cycles through
    its phases: in ``H`` it plays the child's machine, in the rest of
    ``won`` it plays the attractor out of ``Y``, and arriving outside ``Y``
    starts a later phase, where the memory stops and the move goes on with
    that child's memory fresh.  On a piece the opponent attracts to ``L``
    and there plays the child's machine.  The piece is read off the vertex,
    so the opponent keeps only the child's memory, and the memory a play
    brings into another piece's ``L`` is read as a state of that piece's
    child.  Every choice checks the phase or piece against the current
    vertex, so a machine wins from every vertex of its region in every
    memory state.
    """

    def __init__(self, arena: Arena, good: frozenset, sides: tuple, bound: int):
        view = arena.view
        n = len(view.vertices)
        self.arena = arena
        self.good = good
        self.sides = sides
        self.bound = bound
        self.count = 0
        self.met: set = set()  # masks whose split this game has counted
        self.kids: dict = {}
        self.memo: dict = {}  # (G, X) -> (σ, won, pieces, phases)
        self.machines: list = [None, None]
        everything = (1 << n) - 1
        own0 = sum(1 << i for i, o in enumerate(view.owner) if o == sides[0])
        self.own = (own0, everything & ~own0)
        self.root = (everything, everything)
        self._memoise(self.root)
        sigma, won = self.memo[self.root][:2]
        win0 = won if sigma == 0 else everything & ~won
        self.win0 = frozenset(v for i, v in enumerate(view.vertices) if win0 >> i & 1)

    def tick(self, count: int) -> None:
        self.count += count
        if self.count > self.bound:
            raise TooLargeError(f"Zielonka recursion exceeds {self.bound} subgames and sets")

    def children(self, node: int) -> list:
        """Maximal recurrence sets strictly inside ``node`` on the other side of the family, by mask.

        Each such set misses some member ``v`` of the node, so it lies in a
        looping component of the node minus ``v``: either that component is
        the set, or it is on the node's side and holds the set strictly.  So
        the descent through splits expands the components on the node's
        side, takes the others as candidates, and keeps a candidate unless
        it lies inside one kept before it, largest first.  A node outside
        the family has children only among its sets, and a node in it only
        among the others, so an empty family starts no descent, nor does a
        family node when the family holds every recurrence set the arena's
        index has counted.
        """
        kids = self.kids.get(node)
        if kids is None:
            side = node in self.good
            others = self.arena.view.set_count != len(self.good) if side else self.good
            found, seen, stack = [], {node}, [node] if others else []
            while stack:
                for c in self._split(stack.pop()):
                    if c not in seen:
                        seen.add(c)
                        (stack if (c in self.good) == side else found).append(c)
            kids = []
            for c in sorted(found, key=int.bit_count, reverse=True):
                if all(c & k != c for k in kids):
                    kids.append(c)
            kids = self.kids[node] = sorted(kids)
        return kids

    def _split(self, x: int) -> tuple:
        if x not in self.met:
            self.met.add(x)
            self.tick(1)
        return self.arena.view.splits(x)

    def _solve(self, G: int, X: int):
        """``solve(G, X)`` as a generator: it yields each ``(H, Y)`` it needs and is sent that entry back."""
        adj, radj = self.arena.view.masks()
        sigma = 0 if X in self.good else 1
        mine, theirs = self.own[sigma], self.own[1 - sigma]
        pieces = []
        while True:
            phases = []
            for Y in self.children(X):
                if not Y & G:
                    continue
                A, leave = _attract(adj, radj, mine, G, G & ~Y)
                H = G & ~A
                lost = (yield H, Y)[1] if H else 0  # the child's σ is the opponent
                if lost:
                    B, to_lost = _attract(adj, radj, theirs, G, lost)
                    pieces.append((B, lost, to_lost, (H, Y)))
                    G &= ~B
                    break
                phases.append((Y, H, leave, (H, Y)))
            else:
                return sigma, G, tuple(pieces), tuple(phases)

    def _memoise(self, key: tuple) -> None:
        """Solve ``key`` and every entry it needs, on an explicit stack, so depth is bounded by memory alone."""
        self.tick(1)
        stack = [(key, self._solve(*key))]
        entry = None
        while stack:
            key, solving = stack[-1]
            try:
                need = solving.send(entry)
            except StopIteration as done:
                stack.pop()
                entry = self.memo[key] = done.value
            else:
                entry = self.memo.get(need)
                if entry is None:
                    self.tick(1)
                    stack.append((need, self._solve(*need)))

    def _step(self, s: int, q: tuple, v: int) -> tuple:
        """``(memory, move)``: side ``s`` arrives at the vertex of index ``v`` with memory ``q``.

        A memory lists a phase number for every level from the root down
        where ``s`` is σ; a piece is read off the vertex, so the levels
        where ``s`` is the opponent add none.  A missing number, or one
        past the last phase, is 0, which is fresh, so trailing zeros are
        dropped.  Arriving outside the phase's ``Y`` skips to the next
        phase whose ``Y`` holds the vertex, or to phase 0 when none does:
        every phase passed over has seen a vertex outside its ``Y``.  The
        memory stops there, and the move goes on down with the levels below
        fresh.  The move is a vertex index, or None at a vertex ``s`` does
        not own.  Outside the region it is the first successor; inside,
        where no child or attractor decides it, the first successor in the
        region.
        """
        bit = 1 << v
        mine = self.own[s] & bit
        node = self.memo[self.root]
        out, arriving, stay, move = [], True, -1, None
        while True:
            sigma, won, pieces, phases = node
            if s == sigma:
                if not won & bit:
                    break
                stay = won
                if not phases:
                    break
                k = len(phases)
                i = q[0] if q and q[0] < k else 0
                q = q[1:]
                e = next((j % k for j in range(i, i + k) if phases[j % k][0] & bit), None)
                if e is None:
                    break
                if arriving:
                    out.append(e)
                    arriving = e == i
                if not arriving:
                    if not mine:
                        break
                    q = ()
                _, inside, strategy, key = phases[e]
            else:
                piece = next((piece for piece in pieces if piece[0] & bit), None)
                if piece is None:
                    break
                _, inside, strategy, key = piece
            if not inside & bit:
                if mine:
                    move = strategy[v]
                break
            node = self.memo[key]
        if mine and move is None:
            m = self.arena.view.masks()[0][v] & stay
            move = (m & -m).bit_length() - 1
        while out and not out[-1]:
            out.pop()
        return tuple(out), move

    def machine(self, s: int) -> StrategyMachine:
        """Side ``s``'s machine, flattened from its fresh memory over the arena's vertices and minimised.

        It is built on first use.  Its bytes depend only on its behaviour.
        """
        machine = self.machines[s]
        if machine is None:
            vs = self.arena.view.vertices
            moves = {}

            def arrivals(q: tuple) -> list:
                steps = [self._step(s, q, v) for v in range(len(vs))]
                moves[q] = tuple(vs[w] for _, w in steps if w is not None)
                return [t for t, _ in steps]

            states, succ = explore([()], arrivals, math.inf, "machine")
            number = {q: k for k, q in enumerate(states)}
            machine = self.machines[s] = minimize_table(
                self.sides[s],
                vs,
                tuple(v for i, v in enumerate(vs) if self.own[s] >> i & 1),
                [[number[t] for t in succ[q]] for q in states],
                [moves[q] for q in states],
            )
        return machine

    def keeps_memory(self, s: int) -> bool:
        """Whether some memo entry where side ``s`` is σ has two phases or more.

        ``_step`` writes a phase number for ``s`` only at such an entry, and
        every other number is 0 and dropped, so without one the machine of
        ``s`` has the one memory ``()`` and 0 bits.
        """
        return any(sigma == s and len(phases) > 1 for sigma, _, _, phases in self.memo.values())

    def memory_bits(self) -> int:
        """Memory bits of the larger of the game's two machines, built only for a side that keeps memory."""
        return max(self.machine(s).memory_bits if self.keeps_memory(s) else 0 for s in (0, 1))

    def solve(self) -> SolveResult:
        return SolveResult(
            win0=self.win0,
            win1=frozenset(self.arena.vertices) - self.win0,
            strategy0=self.machine(0),
            strategy1=self.machine(1),
            memory_bits_used=self.memory_bits(),
        )


def solve_muller(game: WinLoseGame, max_product_states: int = DEFAULT_PRODUCT_BOUND) -> SolveResult:
    """Solve a Muller game by the memoised Zielonka recursion of its family.

    Strategies come back as finite-memory machines that win from every
    vertex of their region in every memory state, minimised and
    canonically numbered.
    """
    if not isinstance(game.objective, Muller):
        raise InvalidInputError("solve_muller requires a Muller objective")
    family = frozenset(frozenset(s) for s in game.objective.family)
    return MullerSearch(game.arena, max_product_states).game(family, game.sides()).solve()


def solve(game: WinLoseGame, max_product_states: int = DEFAULT_PRODUCT_BOUND) -> SolveResult | MemorylessResult:
    """Dispatch on the objective kind."""
    obj = game.objective
    if isinstance(obj, Parity):
        return solve_parity(game)
    if isinstance(obj, Muller):
        return solve_muller(game, max_product_states)
    if isinstance(obj, Reachability):
        return solve_reachability(game)
    if isinstance(obj, Safety):
        return solve_safety(game)
    raise InvalidInputError(f"unknown objective {obj!r}")


def machine_count(arena: Arena, owned: tuple, bits: int) -> int:
    states = 2 ** bits
    count = 1
    if bits > 0:
        count *= states ** (len(arena.vertices) * states)
    for v in owned:
        count *= len(arena.successors(v)) ** states
    return count


def enumerate_machines(arena: Arena, player, bits: int):
    """Yield every machine of the player with at most ``bits`` memory bits."""
    owned = arena.owned_by(player)
    states = tuple(range(2 ** bits))
    vs = arena.sorted_vertices()
    update_keys = [(v, q) for v in vs for q in states] if bits > 0 else []
    choice_keys = [(v, q) for v in owned for q in states]
    choice_opts = [arena.successors(v) for (v, _) in choice_keys]
    update_opts = [states for _ in update_keys]
    for upd in iproduct(*update_opts) if update_keys else [()]:
        update = {k: t for k, t in zip(update_keys, upd) if t != k[1]}
        for ch in iproduct(*choice_opts) if choice_keys else [()]:
            choice = {k: w for k, w in zip(choice_keys, ch)}
            yield StrategyMachine(player, bits, update, choice, 0)


def _play_outcome(arena: Arena, m0: StrategyMachine, m1: StrategyMachine, start, side_of):
    """Visited set and cycle set of the deterministic two-machine play."""
    v = start
    q0, q1 = m0.init, m1.init
    seen = {}
    trail = []
    while (v, q0, q1) not in seen:
        seen[(v, q0, q1)] = len(trail)
        trail.append(v)
        m = m0 if side_of(v) == 0 else m1
        q = q0 if side_of(v) == 0 else q1
        w = m.move(v, q)
        q0 = m0.next_state(w, q0)
        q1 = m1.next_state(w, q1)
        v = w
    loop = seen[(v, q0, q1)]
    return frozenset(trail), frozenset(trail[loop:])


def _wins0(objective, visited: frozenset, cycle: frozenset) -> bool:
    if isinstance(objective, Reachability):
        return bool(objective.targets & visited)
    if isinstance(objective, Safety):
        return visited <= objective.safe
    if isinstance(objective, Parity):
        return min(objective.priority[v] for v in cycle) % 2 == 0
    if isinstance(objective, Muller):
        return cycle in objective.family
    raise InvalidInputError(f"unknown objective {objective!r}")


def brute_force_solve(game: WinLoseGame, bits: int, cap: int = DEFAULT_BRUTE_CAP) -> BruteForceResult:
    """Certify regions by enumerating all machines up to ``bits`` memory.

    A side wins a vertex iff one of its machines beats every opposing
    machine in the deterministic play started there.  The verdict is only
    meaningful against opponents within the same bound, so vertices without
    a uniform winner are reported as not determined rather than split.
    """
    arena = game.arena
    p0, p1 = game.sides()
    owned0, owned1 = arena.owned_by(p0), arena.owned_by(p1)
    c0 = machine_count(arena, owned0, bits)
    c1 = machine_count(arena, owned1, bits)
    if c0 * c1 > cap:
        raise CapExceededError(f"{c0} x {c1} machine pairs exceed cap {cap}")
    side_of = game.side_of
    machines0 = list(enumerate_machines(arena, p0, bits)) if owned0 else [fallback_machine(arena, p0, {})]
    machines1 = list(enumerate_machines(arena, p1, bits)) if owned1 else [fallback_machine(arena, p1, {})]
    family = game.objective
    cache: dict = {}

    def wins(i0: int, i1: int, v) -> bool:
        key = (i0, i1, v)
        if key not in cache:
            visited, cycle = _play_outcome(arena, machines0[i0], machines1[i1], v, side_of)
            cache[key] = _wins0(family, visited, cycle)
        return cache[key]

    win0, win1, undet = set(), set(), set()
    for v in arena.sorted_vertices():
        if any(all(wins(i0, i1, v) for i1 in range(len(machines1))) for i0 in range(len(machines0))):
            win0.add(v)
        elif any(all(not wins(i0, i1, v) for i0 in range(len(machines0))) for i1 in range(len(machines1))):
            win1.add(v)
        else:
            undet.add(v)
    return BruteForceResult(frozenset(win0), frozenset(win1), frozenset(undet))
