"""Two-player win/lose games on arenas and their solvers.

Provides the reachability attractor, a recursive parity solver (min-parity:
the protagonist wins iff the least priority seen infinitely often is even)
that solves one strongly connected component at a time, a Muller solver
through a Zielonka-tree reduction to parity, and an exhaustive
machine-enumeration oracle that never asserts determinacy beyond the
memory bound it was given.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct
from typing import Iterable, Mapping

from .arena import (
    DEFAULT_PRODUCT_BOUND,
    Arena,
    ArenaIndex,
    StrategyMachine,
    explore,
    fallback_machine,
    looping_components,
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


def _drive(view: ArenaIndex, side, prio, sub, merge: bool):
    """Regions and strategies of the parity subgame on ``sub``, over indices.

    ``sub`` lists the subgame's vertices in index order, and ``prio[v]`` is
    the priority of vertex ``v``.  With ``merge``, consecutive priorities of
    one parity share a level.  The levels of the decomposition wait on an
    explicit stack for the subgames they yield, so its depth is bounded by
    memory alone.
    """
    levels: list = []
    rank = {}
    for p in sorted({prio[v] for v in sub}):
        if not (merge and levels and (p - levels[-1]) % 2 == 0):
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


def _solve_view(view: ArenaIndex, side, prio):
    """Parity regions and strategies of the whole graph in one decomposition, over indices."""
    return _drive(view, side, prio, range(len(prio)), False)


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
        w0, w1, s0, s1 = _drive(view, side, prio, sub, True)
        alone = len(sub) == len(left)
        for i, won, strategy in ((0, w0, s0), (1, w1, s1)):
            if not alone:
                won, attracted = _attractor(view, left, side, i, won)
                left -= won
                strategy.update(attracted)
            regions[i].update(won)
            strategies[i].update(strategy)
    return (*regions, *strategies)


def _to_vertices(view: ArenaIndex, strategy: Mapping) -> dict:
    vs = view.vertices
    return {vs[v]: vs[w] for v, w in strategy.items()}


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
    region = frozenset(view.vertices[v] for v in attr)
    return region, memoryless_machine(side, _to_vertices(view, strategy))


def solve_parity(game: WinLoseGame) -> SolveResult:
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
    p0, p1 = game.sides()
    view = arena.view
    W0, W1, s0, s1 = _solve_by_components(view, _sides(game), [prio[v] for v in view.vertices])
    return SolveResult(
        win0=frozenset(view.vertices[v] for v in W0),
        win1=frozenset(view.vertices[v] for v in W1),
        strategy0=fallback_machine(arena, p0, _to_vertices(view, s0)),
        strategy1=fallback_machine(arena, p1, _to_vertices(view, s1)),
        memory_bits_used=0,
    )


def _forced_visit(game: WinLoseGame, reacher: int, target: Iterable) -> SolveResult:
    """Side ``reacher`` forces a visit to ``target``; the other side avoids it.

    The avoiding side keeps to the first successor outside the attractor.
    """
    arena = game.arena
    players = game.sides()
    view = arena.view
    side = _sides(game)
    everything = range(len(view.vertices))
    attr, force = _attractor(
        view, set(everything), side, reacher, [view.index[t] for t in target if t in view.index]
    )
    avoid = {
        v: next(w for w in view.succ[v] if w not in attr)
        for v in everything
        if side[v] != reacher and v not in attr
    }
    win = frozenset(view.vertices[v] for v in attr)
    lose = frozenset(arena.vertices) - win
    strategies = [_to_vertices(view, force), _to_vertices(view, avoid)]
    if reacher == 1:
        win, lose = lose, win
        strategies.reverse()
    return SolveResult(
        win0=win,
        win1=lose,
        strategy0=fallback_machine(arena, players[0], strategies[0]),
        strategy1=fallback_machine(arena, players[1], strategies[1]),
        memory_bits_used=0,
    )


def solve_reachability(game: WinLoseGame) -> SolveResult:
    return _forced_visit(game, 0, game.objective.targets)


def solve_safety(game: WinLoseGame) -> SolveResult:
    return _forced_visit(game, 1, set(game.arena.vertices) - set(game.objective.safe))


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
    """What every Muller game over one arena shares, whatever its family.

    Holds the arena's looping components and its vertex indices ordered by
    their decimal names; recurrence tests and component splits come from
    the arena's index, which keeps them for every layer.  ``product``
    builds one ``TreeProduct`` per distinct family of recurrence sets and
    hands it out again.  A tree search is refused past ``bound`` sets and a
    product past ``bound`` states.
    """

    def __init__(self, arena: Arena, max_product_states: int):
        view = arena.view
        n = len(view.vertices)
        self.arena = arena
        self.bound = max_product_states
        self.components = tuple(looping_components((1 << n) - 1, *view.masks()))
        self.by_name = sorted(range(n), key=str)
        self.products: dict = {}  # masks of a family's recurrence sets -> TreeProduct

    def product(self, family: frozenset) -> TreeProduct:
        """The tree product of ``family``, shared with every family of the same recurrence sets.

        Sets of ``family`` that are not recurrence sets of the arena, or
        that name an unknown vertex, are skipped.
        """
        good = frozenset(filter(None, map(self.arena.view.recurrence_mask, family)))
        product = self.products.get(good)
        if product is None:
            product = self.products[good] = TreeProduct(self, good)
        return product


class _SetSearch:
    """Children of one family's Zielonka-tree nodes, with every set met counted.

    Sets are index masks over one arena.  Below a node outside the family
    the children are the family's maximal recurrence sets inside it.  Below
    a node in the family they are the maximal recurrence sets outside it:
    each such set misses some member ``v`` of the node, so it lies in a
    looping component of the node minus ``v``, and the descent expands
    only the components that are in the family.  Counting every set found
    and every tree node against the bound refuses a tree while it grows;
    the splits come from the arena's index, and the first time the family
    meets one it counts each of its components.
    """

    def __init__(self, search: MullerSearch, good: frozenset):
        self.search = search
        self.good = good
        self.count = 0
        self.met: set = set()  # masks whose split this family has counted
        self.kids: dict = {}

    def tick(self, sets: int) -> None:
        self.count += sets
        if self.count > self.search.bound:
            raise TooLargeError(f"Zielonka tree exceeds {self.search.bound} sets")

    def children(self, node: int) -> list:
        """Maximal recurrence sets strictly inside ``node`` on the other side of the family, by mask."""
        kids = self.kids.get(node)
        if kids is None:
            if node in self.good:
                found, seen, stack = set(), {node}, [node]
                while stack:
                    for c in self._split(stack.pop()):
                        if c in seen:
                            continue
                        seen.add(c)
                        if c in self.good:
                            stack.append(c)
                        else:
                            found.add(c)
            else:
                found = set()
                for m in self.good:
                    if m & node == m and m != node:
                        self.tick(1)
                        found.add(m)
            kids = self.kids[node] = sorted(c for c in found if not any(c & d == c and c != d for d in found))
        return kids

    def _split(self, x: int) -> tuple:
        parts = self.search.arena.view.splits(x)
        if x not in self.met:
            self.met.add(x)
            self.tick(len(parts))
        return parts


class ZielonkaTree:
    """The Zielonka tree of a Muller family over one component's recurrence sets.

    The root is the looping component ``root``; the children of a node are
    the maximal recurrence sets strictly inside it whose membership in the
    family differs from the node's, ordered by mask.  A node is named by
    its path of child positions from the root, and leaves are numbered
    left to right, so leaf 0 is the leftmost.  A node at depth ``d`` has
    priority ``d`` when the root is in the family and ``d + 1`` otherwise,
    which is even exactly for the nodes in the family.
    """

    def __init__(self, root: int, search: _SetSearch):
        self.offset = 0 if root in search.good else 1
        self.nodes: dict = {}  # path -> (mask, number of children)
        self.leaves: list = []  # leaf paths, left to right
        stack = [((), root)]
        while stack:
            path, mask = stack.pop()
            search.tick(1)
            kids = search.children(mask)
            self.nodes[path] = (mask, len(kids))
            if not kids:
                self.leaves.append(path)
            stack.extend((path + (i,), kids[i]) for i in reversed(range(len(kids))))
        self.number = {path: i for i, path in enumerate(self.leaves)}
        self.steps: dict = {}

    def step(self, leaf: int, w: int) -> tuple:
        """Leaf and priority after reading the vertex of index ``w`` at ``leaf``.

        The read climbs from the leaf to the deepest node holding ``w``; its
        priority is that node's, and the new leaf is the leftmost one below
        the node's next child, taken cyclically (the leaf itself when the
        node is the leaf).
        """
        hit = self.steps.get((leaf, w))
        if hit is None:
            path = self.leaves[leaf]
            d = len(path)
            while not self.nodes[path[:d]][0] >> w & 1:
                d -= 1
            if d < len(path):
                path = path[:d] + ((path[d] + 1) % self.nodes[path[:d]][1],)
                while self.nodes[path][1]:
                    path += (0,)
            hit = self.steps[(leaf, w)] = (self.number[path], d + self.offset)
        return hit


class TreeProduct:
    """The parity product of an arena with the Zielonka trees of one Muller family.

    Every looping component of the arena has its own tree.  The move node
    ``move[v][l]`` pairs the vertex of index ``v`` with a leaf ``l`` of its
    component's tree (leaf 0 for vertices on no cycle), and every such pair
    is in the product.  A move to ``w`` in the same component passes
    through the transition node of ``(l, w)``, which carries the priority
    of reading ``w`` at ``l`` and leads to the move node of the new leaf.
    A move into another component enters that component's leftmost leaf.
    Move nodes carry a priority above every transition.  The product's
    index ``view`` labels node ``k`` with the vertex it stands at or moves
    to, ``view.owner[k]``.

    Nodes are numbered move nodes first, each kind ordered by the decimal
    names of its two numbers, ``(v, l)`` and ``(l, w)``.  The parity solver
    breaks ties by node number, so this order fixes the machines it
    returns.  The bound of ``search``, whose arena the product is built
    over, limits the search for the trees and the product's size.  The
    family comes as ``good``, the masks of its recurrence sets.

    Each split into sides is solved once, positionally; its machines are
    pulled back when first asked for.
    """

    def __init__(self, search: MullerSearch, good: frozenset):
        arena = search.arena
        sets = _SetSearch(search, good)
        n = len(arena.vertices)
        tree: list = [None] * n
        for comp in search.components:
            t = ZielonkaTree(comp, sets)
            for i in range(n):
                if comp >> i & 1:
                    tree[i] = t
        width = [len(t.leaves) if t is not None else 1 for t in tree]
        cyclic = [w for w in search.by_name if tree[w] is not None]
        if sum(width) + sum(width[w] for w in cyclic) > search.bound:
            raise TooLargeError(f"tree product exceeds {search.bound} states")
        self.arena = arena
        self.solved: dict = {}  # sides -> (win0, s0, s1) of the positional solve
        self.machines: dict = {}  # (sides, side) -> StrategyMachine
        leaves_by_name = {wd: sorted(range(wd), key=str) for wd in set(width)}
        label: list = []
        move: list = [None] * n
        for v in search.by_name:
            row = move[v] = [0] * width[v]
            for leaf in leaves_by_name[width[v]]:
                row[leaf] = len(label)
                label.append(v)
        self.moves = len(label)
        into: list = [None] * n  # into[w][l]: the transition node of (l, w)
        for w in cyclic:
            into[w] = [0] * width[w]
        for leaf in leaves_by_name[max(width)]:
            for w in cyclic:
                if leaf < width[w]:
                    into[w][leaf] = len(label)
                    label.append(w)
        succ: list = [None] * len(label)
        self.prio = [n + 1] * len(label)
        for v, ws in enumerate(arena.view.succ):
            t = tree[v]
            for leaf, k in enumerate(move[v]):
                succ[k] = tuple(into[w][leaf] if t is not None and tree[w] is t else move[w][0] for w in ws)
        for w in cyclic:
            for leaf, k in enumerate(into[w]):
                nxt, self.prio[k] = tree[w].step(leaf, w)
                succ[k] = (move[w][nxt],)
        self.view = ArenaIndex(range(len(label)), range(len(label)), succ, label)
        self.move = move
        # memory q is a leaf of the current vertex's tree; arriving at a
        # vertex reads it there, and a leaf number past the tree's width,
        # which no play produces, stands for leaf 0
        self.at = [[q if q < wd else 0 for wd in width] for q in range(max(width))]
        self.nxt = [
            [t.step(row[i], i)[0] if t is not None else 0 for i, t in enumerate(tree)] for row in self.at
        ]

    def parity_game(self, p0) -> tuple:
        """Side and priority of every node when ``p0`` plays for the family."""
        owners, label = self.arena.view.owner, self.view.owner
        side = [0 if owners[v] == p0 else 1 for v in label[: self.moves]]
        side += [1] * (len(label) - self.moves)
        return side, self.prio

    def regions(self, sides: tuple) -> tuple:
        """``(win0, s0, s1)`` of the family's game with side 0 played by ``sides[0]``.

        Side 0 owns the vertices of player ``sides[0]``, side 1 all others.
        ``win0`` holds the arena vertices side 0 wins from with a fresh
        memory; ``s0`` and ``s1`` are the positional product strategies.
        Each split is solved once.
        """
        hit = self.solved.get(sides)
        if hit is None:
            W0, _, s0, s1 = _solve_view(self.view, *self.parity_game(sides[0]))
            vs = self.arena.view.vertices
            win0 = frozenset(v for i, v in enumerate(vs) if self.move[i][0] in W0)
            hit = self.solved[sides] = (win0, s0, s1)
        return hit

    def strategy(self, sides: tuple, i: int) -> StrategyMachine:
        """The leaf-memory machine of side ``i``, pulled back on first use.

        It is minimised and canonically numbered.
        """
        machine = self.machines.get((sides, i))
        if machine is None:
            p0 = sides[0]
            owned = [v for v, o in enumerate(self.arena.view.owner) if (o == p0) == (i == 0)]
            machine = self.machines[(sides, i)] = self._machine(sides[i], self.regions(sides)[1 + i], owned)
        return machine

    def memory_bits(self, sides: tuple) -> int:
        """Memory bits of the larger of the split's two machines.

        Each machine has at most one state per row of the memory table
        ``at``, one per leaf of the widest tree, so ``bits_for(len(at))``
        bounds it before either is pulled back.
        """
        return max(self.strategy(sides, 0).memory_bits, self.strategy(sides, 1).memory_bits)

    def solve(self, sides: tuple) -> SolveResult:
        """Solve the family's game with side 0 played by ``sides[0]``.

        Strategies come back as leaf-memory machines, minimised and
        canonically numbered.
        """
        win0 = self.regions(sides)[0]
        return SolveResult(
            win0=win0,
            win1=frozenset(self.arena.vertices) - win0,
            strategy0=self.strategy(sides, 0),
            strategy1=self.strategy(sides, 1),
            memory_bits_used=self.memory_bits(sides),
        )

    def _machine(self, player, strategy: Mapping, owned: list) -> StrategyMachine:
        """Pull a positional product strategy back to a leaf-memory machine.

        At an owned vertex in memory ``q`` the machine moves where the
        strategy leaves the move node of that vertex and leaf, and to the
        first successor where the strategy is silent.
        """
        vs = self.arena.view.vertices
        succ = self.arena.view.succ
        move, label = self.move, self.view.owner
        choice = []
        for row in self.at:
            moves = []
            for i in owned:
                d = strategy.get(move[i][row[i]])
                moves.append(vs[label[d] if d is not None else succ[i][0]])
            choice.append(tuple(moves))
        return minimize_table(player, vs, tuple(vs[i] for i in owned), self.nxt, choice)


def solve_muller(game: WinLoseGame, max_product_states: int = DEFAULT_PRODUCT_BOUND) -> SolveResult:
    """Solve a Muller game through the Zielonka-tree product of its family.

    Each move is routed through a transition node carrying the priority of
    the tree node it climbs to, so the parity solver sees a plain
    vertex-priority game.  Strategies come back as leaf-memory machines,
    minimised and canonically numbered.
    """
    if not isinstance(game.objective, Muller):
        raise InvalidInputError("solve_muller requires a Muller objective")
    family = frozenset(frozenset(s) for s in game.objective.family)
    return MullerSearch(game.arena, max_product_states).product(family).solve(game.sides())


def solve(game: WinLoseGame, max_product_states: int = DEFAULT_PRODUCT_BOUND) -> SolveResult:
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
