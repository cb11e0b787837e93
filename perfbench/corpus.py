"""Seeded input generators for the benchmark workloads.

The generators live here rather than in ``graphgames.gen`` so that a change
to the library cannot change the inputs.  Every function takes a
``random.Random`` and returns plain JSON-shaped documents in the formats the
CLI reads; nothing here imports the library.
"""

from __future__ import annotations

import random

PARITY_PLAYERS = ("P0", "P1")


def vertex_ids(n: int) -> list:
    return [f"v{i}" for i in range(n)]


def arena_doc(rng: random.Random, n: int, players, degree: tuple) -> dict:
    """Random arena on ``v0 .. v{n-1}`` with out-degrees drawn from ``degree``."""
    vs = vertex_ids(n)
    edges = set()
    for v in vs:
        for w in rng.sample(vs, rng.randint(*degree)):
            edges.add((v, w))
    return {
        "players": list(players),
        "vertices": [{"id": v, "owner": rng.choice(players)} for v in vs],
        "edges": sorted([u, w] for (u, w) in edges),
        "start": vs[0],
    }


def parity_doc(rng: random.Random, n: int) -> dict:
    """Sparse two-player parity game with priorities drawn from 0..n.

    Out-degree 1-2 keeps the document small, so the solve and not the
    parsing dominates; many distinct priorities make the recursion deep.
    """
    arena = arena_doc(rng, n, PARITY_PLAYERS, (1, 2))
    return {
        "arena": arena,
        "objective": {"parity": {vd["id"]: rng.randint(0, n) for vd in arena["vertices"]}},
        "protagonist": PARITY_PLAYERS[0],
    }


def successor_masks(arena: dict) -> tuple:
    ids = [vd["id"] for vd in arena["vertices"]]
    index = {v: i for i, v in enumerate(ids)}
    adj = [0] * len(ids)
    for u, w in arena["edges"]:
        adj[index[u]] |= 1 << index[w]
    return ids, adj


def _strongly_connected_closed(mask: int, adj: list) -> bool:
    members = [i for i in range(len(adj)) if mask >> i & 1]
    if any(not adj[i] & mask for i in members):
        return False
    seen = 1 << members[0]
    stack = [members[0]]
    while stack:
        new = adj[stack.pop()] & mask & ~seen
        seen |= new
        stack.extend(j for j in members if new >> j & 1)
    if seen != mask:
        return False
    back = 1 << members[0]
    grown = True
    while grown:
        grown = False
        for i in members:
            if not back >> i & 1 and adj[i] & back:
                back |= 1 << i
                grown = True
    return back == mask


def recurrence_sets(arena: dict) -> list:
    """Every vertex set a play can stay in forever while visiting all of it.

    The same family ``graphgames`` requires an outcome map to cover; it is
    recomputed here from the edge list, sorted by vertex-index mask.
    """
    ids, adj = successor_masks(arena)
    out = []
    for mask in range(1, 1 << len(ids)):
        if _strongly_connected_closed(mask, adj):
            out.append(sorted(ids[i] for i in range(len(ids)) if mask >> i & 1))
    return out


def linear_groups(rng: random.Random, outcomes) -> list:
    chain = list(outcomes)
    rng.shuffle(chain)
    return [[o] for o in chain]


def weak_groups(rng: random.Random, outcomes) -> list:
    """Random strict weak order as rank groups, worst first."""
    chain = list(outcomes)
    rng.shuffle(chain)
    groups = [[chain[0]]]
    for o in chain[1:]:
        if rng.random() < 0.3:
            groups[-1].append(o)
        else:
            groups.append([o])
    return groups


def ranks(groups) -> dict:
    return {o: r for r, g in enumerate(groups) for o in g}


def has_blocking_pattern(prefs: dict) -> bool:
    """z < y < x for one player and x < z < y for another (linear orders)."""
    rk = {p: ranks(g) for p, g in prefs.items()}
    outcomes = sorted(next(iter(rk.values())))
    for a in rk:
        for b in rk:
            if a == b:
                continue
            ra, rb = rk[a], rk[b]
            for x in outcomes:
                for y in outcomes:
                    for z in outcomes:
                        if ra[z] < ra[y] < ra[x] and rb[x] < rb[z] < rb[y]:
                            return True
    return False


def graph_game_doc(rng: random.Random, n: int, players, n_outcomes: int, prefs: str) -> dict:
    """Graph game on an out-degree-2 arena with a total outcome map.

    ``prefs`` is ``"weak"`` (independent strict weak orders), ``"inverse"``
    (two players with mutually inverse orders) or ``"pattern_free"`` (linear
    orders without the Pareto-blocking pattern).
    """
    arena = arena_doc(rng, n, players, (2, 2))
    outcomes = [f"o{i}" for i in range(n_outcomes)]
    if prefs == "weak":
        pref_doc = {p: weak_groups(rng, outcomes) for p in players}
    elif prefs == "inverse":
        a, b = players
        groups = weak_groups(rng, outcomes)
        pref_doc = {a: groups, b: [list(g) for g in reversed(groups)]}
    elif prefs == "pattern_free":
        while True:
            pref_doc = {p: linear_groups(rng, outcomes) for p in players}
            if not has_blocking_pattern(pref_doc):
                break
    else:
        raise ValueError(f"unknown preference kind {prefs!r}")
    outcome_map = [[s, rng.choice(outcomes)] for s in recurrence_sets(arena)]
    return {"arena": arena, "preferences": pref_doc, "outcomes": {"map": outcome_map}}


def random_profile_doc(rng: random.Random, arena: dict, states: tuple) -> dict:
    """One random machine per player with a state count drawn from ``states``."""
    ids = [vd["id"] for vd in arena["vertices"]]
    owner = {vd["id"]: vd["owner"] for vd in arena["vertices"]}
    succ = {v: [] for v in ids}
    for u, w in arena["edges"]:
        succ[u].append(w)
    machines = {}
    for p in arena["players"]:
        k = rng.randint(*states)
        update = []
        for v in ids:
            for q in range(k):
                nq = rng.randrange(k)
                if nq != q:
                    update.append([v, q, nq])
        choice = [[v, q, rng.choice(succ[v])] for v in ids if owner[v] == p for q in range(k)]
        machines[p] = {
            "player": p,
            "memory_bits": (k - 1).bit_length(),
            "init": 0,
            "update": update,
            "choice": choice,
        }
    return {"machines": machines}
