"""JSON document formats and DOT export.

All identifiers are strings on the wire.  Emission is canonical: sorted
keys, two-space indent, machine states numbered by construction; identical
inputs therefore serialize byte-identically.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _escape
from operator import itemgetter
from typing import Mapping

from .arena import (
    DEFAULT_PRODUCT_BOUND,
    Arena,
    EnergySpec,
    Lasso,
    StrategyMachine,
    StrategyProfile,
    closed_strongly_connected_sets,
    energy_product,
    identifier,
    integer,
    skey,
    validate_arena,
)
from .equilibria import DeviationWitness, SynthesisReport
from .errors import InvalidInputError
from .extensive import Decision, Leaf, TreeGame
from .guarantees import GraphGame, GuaranteeTable, require_covered
from .orders import PreferenceProfile, order_from_groups
from .winlose import MemorylessResult, Muller, Parity, Reachability, Safety, SolveResult, WinLoseGame


def dumps(obj) -> str:
    """The bytes of ``json.dumps(obj, indent=2, sort_keys=True)`` and a
    newline.  What commands write (str, int, bool, None, lists, tuples and
    str-keyed dicts) skips that encoder, whose indenting runs in pure Python;
    anything else, or an object nested past this emitter's recursion, goes
    to it whole."""
    try:
        return _encode(obj, "\n") + "\n"
    except (RecursionError, TypeError):
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _encode(obj, newline: str) -> str:
    """``obj`` encoded with every nested line starting ``newline`` and two more spaces."""
    if isinstance(obj, str):
        return _escape(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        if type(obj[0]) is list:
            # a list of rows, as machine tables are: each non-empty plain-list
            # item is written here, a level further in
            row = inner + "  "
            comma = "," + row
            items = [
                "[" + row + comma.join([
                    _escape(y) if type(y) is str else int.__repr__(y) if type(y) is int else _encode(y, row)
                    for y in x
                ]) + inner + "]"
                if type(x) is list and x
                else _encode(x, inner)
                for x in obj
            ]
        else:
            items = [
                _escape(x) if type(x) is str else int.__repr__(x) if type(x) is int else _encode(x, inner) for x in obj
            ]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join(
            [_escape(k) + ": " + _encode(v, inner) for k, v in sorted(obj.items())]
        ) + newline + "}"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _object(doc, what: str) -> Mapping:
    if not isinstance(doc, Mapping):
        raise InvalidInputError(f"{what} must be a JSON object")
    return doc


def arena_to_json(arena: Arena) -> dict:
    return {
        "players": [str(p) for p in arena.players],
        "vertices": [
            {"id": str(v), "owner": str(arena.owner[v])} for v in arena.sorted_vertices()
        ],
        "edges": sorted([[str(u), str(w)] for (u, w) in arena.edges]),
        "start": str(arena.start),
    }


def energy_from_json(doc: Mapping, arena: Arena) -> EnergySpec:
    """The energy block of an arena document; a refusal names the field, the player and the shape expected."""
    doc = _object(doc, "energy block")
    weights = {}
    for p, vw in _energy_field(doc, "weights", "each player to an object of vertex weights").items():
        if not isinstance(vw, Mapping):
            raise InvalidInputError(f"energy weights for {p!r} must map vertices to integers")
        weights[p] = {v: integer(x, "energy weight") for v, x in vw.items()}
    caps = {}
    for p, pair in _energy_field(doc, "caps", "each player to a [lo, hi] pair").items():
        if not (isinstance(pair, list) and len(pair) == 2):
            raise InvalidInputError(f"energy caps for {p!r} must be a [lo, hi] pair of integers")
        caps[p] = (integer(pair[0], "energy cap"), integer(pair[1], "energy cap"))
    priorities = {
        v: integer(i, "energy priority") for v, i in _energy_field(doc, "priorities", "vertices to integers").items()
    }
    spec = EnergySpec(weights, caps, priorities)
    spec.validate(arena)
    return spec


def _energy_field(doc: Mapping, field: str, shape: str) -> Mapping:
    """The object under ``field`` of the energy block, refused unless it maps ``shape``."""
    if field not in doc:
        raise InvalidInputError(f"energy block lacks '{field}'")
    body = doc[field]
    if not isinstance(body, Mapping):
        raise InvalidInputError(f"energy {field} must map {shape}")
    return body


def objective_from_json(doc: Mapping):
    if not isinstance(doc, Mapping) or len(doc) != 1:
        raise InvalidInputError("objective must be one of parity/muller/reach/safe")
    kind, body = next(iter(doc.items()))
    if kind == "parity":
        if not isinstance(body, Mapping):
            raise InvalidInputError("parity objective must map vertices to priorities")
        if not set(map(type, body.values())) <= {int}:
            for i in body.values():
                integer(i, "parity priority")  # words the refusal
        return Parity(dict(body))
    if kind == "muller":
        if not isinstance(body, list):
            raise InvalidInputError("muller objective must be a list of lists of vertices")
        return Muller(frozenset(_vertex_set(s, "muller objective set") for s in body))
    if kind == "reach":
        return Reachability(_vertex_set(body, "reach objective"))
    if kind == "safe":
        return Safety(_vertex_set(body, "safe objective"))
    raise InvalidInputError(f"unknown objective kind {kind!r}")


def _vertex_set(body, what: str) -> frozenset:
    """The vertices the list ``body`` names, refused unless it is a list of identifiers."""
    if not isinstance(body, list):
        raise InvalidInputError(f"{what} must be a list of vertices")
    return frozenset(identifier(v, "objective vertex") for v in body)


def _unfold_energy(doc: Mapping, arena: Arena, max_product_states: int) -> tuple:
    """Unfold the document's energy budgets into the arena.

    Returns the product arena, each ``(vertex, budgets, minima)`` triple
    named ``v|b=...|m=...``, and the map from each name to its base vertex.
    """
    spec = energy_from_json(doc["arena"]["energy"], arena)
    product = energy_product(arena, spec, max_product_states)
    mapping = {
        pv: f"{pv[0]}|b={','.join(map(str, pv[1]))}|m={','.join(map(str, pv[2]))}"
        for pv in product.vertices
    }
    if len(set(mapping.values())) != len(mapping):
        raise InvalidInputError("product vertex names collide")
    named = Arena(
        tuple(product.players),
        tuple(mapping[pv] for pv in product.vertices),
        frozenset((mapping[u], mapping[w]) for (u, w) in product.edges),
        {mapping[pv]: product.owner[pv] for pv in product.vertices},
        mapping[product.start],
    )
    return named, {name: pv[0] for pv, name in mapping.items()}


def _lift_objective(objective, base: Mapping, arena: Arena, max_product_states: int):
    vs = arena.sorted_vertices()
    if isinstance(objective, Parity):
        return Parity({v: objective.priority[base[v]] for v in vs})
    if isinstance(objective, Reachability):
        return Reachability(frozenset(v for v in vs if base[v] in objective.targets))
    if isinstance(objective, Safety):
        return Safety(frozenset(v for v in vs if base[v] in objective.safe))
    if isinstance(objective, Muller):
        # only recurrence sets decide a Muller game, so the lift needs no others
        sets = closed_strongly_connected_sets(arena, None, max_product_states)
        return Muller(frozenset(s for s in sets if frozenset(base[v] for v in s) in objective.family))
    raise InvalidInputError(f"unknown objective {objective!r}")


def _require_in_arena(arena: Arena, named: set, what: str) -> None:
    """Refuse the least vertex of ``named``, in ``skey`` order, that the arena lacks."""
    index = arena.view.index
    unknown = sorted([v for v in named if v not in index], key=skey)
    if unknown:
        raise InvalidInputError(f"{what} vertex {unknown[0]!r} not in arena")


def winlose_from_json(doc: Mapping, max_product_states: int = DEFAULT_PRODUCT_BOUND) -> WinLoseGame:
    doc = _object(doc, "game document")
    arena = validate_arena(doc.get("arena", {}))
    if len(arena.players) != 2:
        raise InvalidInputError("win/lose game needs exactly 2 players")
    objective = objective_from_json(doc.get("objective", {}))
    protagonist = doc.get("protagonist", arena.players[0])
    if protagonist not in arena.players:
        raise InvalidInputError(f"protagonist {protagonist!r} is not a player")
    if isinstance(objective, Parity):
        named = set(objective.priority)
    elif isinstance(objective, Muller):
        named = set().union(*objective.family)
    else:
        named = set(objective.targets if isinstance(objective, Reachability) else objective.safe)
    _require_in_arena(arena, named, "objective")
    if "energy" in doc.get("arena", {}):
        if isinstance(objective, Parity):
            objective.require_total(arena)
        arena, base = _unfold_energy(doc, arena, max_product_states)
        objective = _lift_objective(objective, base, arena, max_product_states)
    return WinLoseGame(arena, objective, protagonist)


def preferences_from_json(doc: Mapping) -> PreferenceProfile:
    if not isinstance(doc, Mapping) or not doc:
        raise InvalidInputError("preferences must map players to rank groups")
    orders = {}
    outcomes = None
    for p, groups in doc.items():
        if not isinstance(groups, list) or not all(isinstance(g, list) for g in groups):
            raise InvalidInputError(f"rank groups of {p!r} must be a list of lists of outcomes")
        order = order_from_groups([[identifier(o, "outcome") for o in g] for g in groups])
        if outcomes is None:
            outcomes = tuple(sorted(order.outcomes, key=skey))
        orders[p] = order
    return PreferenceProfile(outcomes, orders)


def preferences_to_json(prefs: PreferenceProfile) -> dict:
    out = {}
    for p in prefs.players():
        order = prefs.order_of(p)
        out[str(p)] = [sorted(map(str, cls)) for cls in order.classes()]
    return out


def graph_game_from_json(doc: Mapping, max_product_states: int = DEFAULT_PRODUCT_BOUND) -> GraphGame:
    doc = _object(doc, "game document")
    arena = validate_arena(doc.get("arena", {}))
    prefs = preferences_from_json(doc.get("preferences", {}))
    raw_map = _object(doc.get("outcomes", {}), "outcomes").get("map")
    if raw_map is None:
        raise InvalidInputError("missing outcomes.map")
    if not isinstance(raw_map, list):
        raise InvalidInputError("outcomes.map must be a list of [[vertices], outcome] entries")
    outcome_map = {}
    clashes = []  # sets given a second, different outcome, as sorted names
    for entry in raw_map:
        if not (isinstance(entry, (list, tuple)) and len(entry) == 2 and isinstance(entry[0], list)):
            raise InvalidInputError(f"outcome map entry {entry!r} must be [[vertices], outcome]")
        try:
            vertices = frozenset(entry[0])
        except TypeError:  # an unhashable vertex, which the refusal names
            vertices = frozenset(identifier(v, "vertex") for v in entry[0])
        outcome = identifier(entry[1], "outcome")
        if outcome_map.setdefault(vertices, outcome) != outcome:
            clashes.append(sorted(map(str, vertices)))
    if clashes:
        raise InvalidInputError(f"outcome map gives {min(clashes)} two outcomes")
    _require_in_arena(arena, set().union(*outcome_map), "outcome map")
    if "energy" in doc.get("arena", {}):
        # unfold budgets first; outcomes then apply through the projection
        # back to the original vertices, which recurrence sets respect.  The
        # lifted map names every recurrence set of the product, so it is
        # total without a second scan.
        arena, base = _unfold_energy(doc, arena, max_product_states)
        sets = closed_strongly_connected_sets(arena, None, max_product_states)
        projected = {s: frozenset(base[v] for v in s) for s in sets}
        require_covered(projected.values(), outcome_map, "projected recurrence set")
        return GraphGame(arena, {s: outcome_map[p] for s, p in projected.items()}, prefs)
    game = GraphGame(arena, outcome_map, prefs)
    game.validate_total(max_product_states)
    return game


def graph_game_to_json(game: GraphGame) -> dict:
    return {
        "arena": arena_to_json(game.arena),
        "preferences": preferences_to_json(game.prefs),
        "outcomes": {
            "map": sorted(
                [[sorted(map(str, s)), str(o)] for s, o in game.outcome_map.items()]
            )
        },
    }


def machine_to_json(machine: StrategyMachine) -> dict:
    return {
        "player": str(machine.player),
        "memory_bits": machine.memory_bits,
        "init": machine.init,
        "update": sorted([[str(v), q, nq] for (v, q), nq in machine.update.items()], key=itemgetter(0, 1)),
        "choice": sorted([[str(v), q, str(w)] for (v, q), w in machine.choice.items()], key=itemgetter(0, 1)),
    }


def machine_from_json(doc: Mapping, player=None) -> StrategyMachine:
    if not isinstance(doc, Mapping):
        what = "machine document" if player is None else f"machine for {player!r}"
        raise InvalidInputError(f"{what} must be a JSON object")
    player = player if player is not None else doc.get("player")
    if "memory_bits" not in doc:
        raise InvalidInputError(f"machine for {player!r} lacks memory_bits")
    bits = integer(doc["memory_bits"], "memory_bits")
    try:
        update = {
            (v, integer(q, "machine state")): integer(nq, "machine state") for v, q, nq in doc.get("update", [])
        }
        choice = {
            (v, integer(q, "machine state")): identifier(w, "machine move") for v, q, w in doc.get("choice", [])
        }
    except (TypeError, ValueError):  # an entry that is no triple, or an unhashable vertex
        _refuse_entries(doc, player)
        raise
    init = integer(doc.get("init", 0), "machine state")
    machine = StrategyMachine(player, bits, update, choice, init)
    if bits < 0:
        raise InvalidInputError(f"machine for {machine.player!r} has negative memory_bits {bits}")
    for q in machine.states():
        if q < 0 or q.bit_length() > bits:
            raise InvalidInputError(
                f"machine for {machine.player!r} uses state {q}, outside 0 <= state < 2**{bits}"
            )
    return machine


def _refuse_entries(doc: Mapping, player) -> None:
    """Refuse the first update or choice entry of the machine document that is no triple naming a vertex."""
    for field, shape in (("update", "[vertex, state, state]"), ("choice", "[vertex, state, vertex]")):
        entries = doc.get(field, [])
        if not (isinstance(entries, list) and all(isinstance(e, list) and len(e) == 3 for e in entries)):
            raise InvalidInputError(f"machine for {player!r} {field} must be a list of {shape} triples")
        for v, _, _ in entries:
            identifier(v, "machine vertex")


def profile_from_json(doc: Mapping) -> StrategyProfile:
    machines = _object(doc, "profile document").get("machines")
    if not isinstance(machines, Mapping):
        raise InvalidInputError("profile document needs a 'machines' object")
    return StrategyProfile({p: machine_from_json(m, p) for p, m in machines.items()})


def profile_to_json(profile: StrategyProfile) -> dict:
    return {
        "machines": {str(p): machine_to_json(profile.machines[p]) for p in profile.players()}
    }


def lasso_to_json(lasso: Lasso) -> dict:
    return {"stem": [str(v) for v in lasso.stem], "cycle": [str(v) for v in lasso.cycle]}


def solve_result_to_json(result: SolveResult) -> dict:
    return {
        "win0": sorted(map(str, result.win0)),
        "win1": sorted(map(str, result.win1)),
        "strategy0": machine_to_json(result.strategy0),
        "strategy1": machine_to_json(result.strategy1),
        "memory_bits_used": result.memory_bits_used,
    }


def memoryless_result_to_json(result: MemorylessResult) -> str:
    """The text ``dumps(solve_result_to_json(result))`` gives, written straight from the result's index.

    Each vertex name is escaped once.  Rows and regions follow the names'
    ``str`` order, which is index order when every vertex is a string; the
    sort is stable, so vertices that print alike keep their index order, as
    ``machine_to_json``'s rows do.
    """
    names = result.arena.view.vertices
    if set(map(type, names)) <= {str}:
        order = range(len(names))
    else:
        names = list(map(str, names))
        order = sorted(range(len(names)), key=names.__getitem__)
    quoted = list(map(_escape, names))
    parts = ['"memory_bits_used": 0']
    for s in (0, 1):
        rows = [f"[\n        {quoted[v]},\n        0,\n        {quoted[w]}\n      ]" for v, w in result.moves(s, order)]
        choice = _list_text(rows, "\n    ")
        player = _escape(str(result.players[s]))
        parts.append(
            f'"strategy{s}": {{\n    "choice": {choice},\n    "init": 0,\n    "memory_bits": 0,'
            f'\n    "player": {player},\n    "update": []\n  }}'
        )
    region0 = result.region0
    parts.append('"win0": ' + _list_text([quoted[v] for v in order if v in region0], "\n  "))
    parts.append('"win1": ' + _list_text([quoted[v] for v in order if v not in region0], "\n  "))
    return "{\n  " + ",\n  ".join(parts) + "\n}\n"


def _list_text(items: list, newline: str) -> str:
    """The encoded ``items`` as ``dumps`` writes a list whose lines start ``newline``."""
    if not items:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def report_to_json(report: SynthesisReport) -> dict:
    return {
        "machines": {
            str(p): machine_to_json(report.profile.machines[p])
            for p in report.profile.players()
        },
        "main_lasso": lasso_to_json(report.main_lasso),
        "outcome": str(report.induced_outcome),
        "memory_bits": {str(p): b for p, b in report.memory_bits.items()},
        "punishments": sorted(
            [[str(p), str(v), str(o)] for (p, v), o in report.punishments.items()]
        ),
        "memory_accounting": {
            "solver_bits": report.solver_bits,
            "piece_count": report.piece_count,
            "piece_bits": report.piece_bits,
            "bound": report.memory_bound,
        },
    }


def witness_to_json(witness: DeviationWitness) -> dict:
    return {
        "player": str(witness.player),
        "vertex": str(witness.vertex),
        "improved_outcome": str(witness.improved_outcome),
        "machine": machine_to_json(witness.machine),
    }


def table_to_json(table: GuaranteeTable) -> dict:
    return {
        str(p): {str(v): str(row.representative(v)) for v in sorted(row.class_rank, key=skey)}
        for p, row in sorted(table.rows.items(), key=lambda kv: skey(kv[0]))
    }


# the most digits a payoff string may spell out, exponent expanded: the
# difference of two payoffs, which ``discretize`` writes, then stays inside
# the interpreter's limit of 4,300 digits on writing an integer
PAYOFF_DIGITS = 2_000
# the most decision levels a tree document may nest; every tree walker
# recurses once or twice per level, within the interpreter's 1,000 frames
TREE_DEPTH = 300


def _payoff(x) -> Fraction:
    """A payoff given as a finite number or a fraction string such as ``"3/5"``."""
    if isinstance(x, float) and not math.isfinite(x):
        raise InvalidInputError(f"payoff {x!r} must be finite")
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        raise InvalidInputError(f"payoff {x!r} must be a number or a fraction string")
    if isinstance(x, str):
        # ``Fraction`` would work out the whole power of ten an exponent names
        mantissa, _, exponent = x.lower().partition("e")
        try:
            digits = sum(map(str.isdigit, mantissa)) + abs(int(exponent or 0))
        except ValueError:  # no exponent ``Fraction`` reads, or one of more digits than ``int`` reads
            digits = len(x)
        if digits > PAYOFF_DIGITS:
            shown = x if len(x) <= 32 else x[:32] + "..."
            raise InvalidInputError(f"payoff {shown!r} spells out more than {PAYOFF_DIGITS} digits, its exponent expanded")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise InvalidInputError(f"payoff {x!r} has a zero denominator") from None
    except ValueError:
        raise InvalidInputError(f"payoff {x!r} must be a number or a fraction string") from None


def tree_from_json(doc: Mapping) -> TreeGame:
    """A tree whose leaves are all outcomes, or all payoffs for every player."""
    players = set()
    leaves = []

    def parse(node, depth: int):
        node = _object(node, "tree node")
        if "outcome" in node:
            leaves.append(Leaf(outcome=identifier(node["outcome"], "outcome")))
            return leaves[-1]
        if "payoffs" in node:
            payoffs = {p: _payoff(x) for p, x in _object(node["payoffs"], "payoffs").items()}
            players.update(payoffs)
            leaves.append(Leaf(payoffs=payoffs))
            return leaves[-1]
        if "owner" in node and "children" in node:
            if not isinstance(node["children"], list):
                raise InvalidInputError(f"children of {node['owner']!r} must be a list of tree nodes")
            owner = identifier(node["owner"], "owner")
            players.add(owner)
            if depth == TREE_DEPTH:
                raise InvalidInputError(f"tree nests deeper than {TREE_DEPTH} decision levels")
            return Decision(owner, tuple(parse(c, depth + 1) for c in node["children"]))
        raise InvalidInputError(f"bad tree node {node!r}")

    root = parse(_object(doc, "tree document").get("tree", doc), 0)
    prefs = None
    if "preferences" in doc:
        profile = preferences_from_json(doc["preferences"])
        players.update(profile.players())
        prefs = dict(profile.orders)
    payoff_leaves = [leaf.payoffs for leaf in leaves if leaf.payoffs is not None]
    if payoff_leaves and len(payoff_leaves) < len(leaves):
        raise InvalidInputError("tree mixes outcome leaves with payoff leaves")
    for payoffs in payoff_leaves:
        if not players <= payoffs.keys():
            raise InvalidInputError(f"payoff leaf lacks players {sorted(map(str, players - payoffs.keys()))}")
    return TreeGame(root, tuple(sorted(players, key=skey)), prefs=prefs)


def tree_to_json(game: TreeGame) -> dict:
    def unparse(node):
        if isinstance(node, Leaf):
            if node.outcome is not None:
                return {"outcome": str(node.outcome)}
            return {"payoffs": {str(p): str(x) for p, x in node.payoffs.items()}}
        return {"owner": str(node.owner), "children": [unparse(c) for c in node.children]}

    return {"tree": unparse(game.root)}


def _dot(name) -> str:
    """``name`` as it may stand inside a quoted DOT ID or label: ``\\`` and ``"`` escaped."""
    return str(name).replace("\\", "\\\\").replace('"', '\\"')


def arena_to_dot(arena: Arena, name: str = "arena") -> str:
    lines = [f"digraph {name} {{"]
    for v in arena.sorted_vertices():
        shape = "doublecircle" if v == arena.start else "circle"
        lines.append(f'  "{_dot(v)}" [label="{_dot(v)}|{_dot(arena.owner[v])}", shape={shape}];')
    for (u, w) in sorted(arena.edges, key=lambda e: (skey(e[0]), skey(e[1]))):
        lines.append(f'  "{_dot(u)}" -> "{_dot(w)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def machine_to_dot(machine: StrategyMachine, name: str = "machine") -> str:
    marks: dict = {}  # state -> its choices, in vertex order
    for (v, q), w in sorted(machine.choice.items(), key=lambda kv: (skey(kv[0][0]), kv[0][1])):
        marks.setdefault(q, []).append(f"\\n{_dot(v)}->{_dot(w)}")
    lines = [f"digraph {name} {{"]
    for q in machine.states():
        label = f"q{q}" + "".join(marks.get(q, ()))
        shape = "doublecircle" if q == machine.init else "circle"
        lines.append(f'  "q{q}" [label="{label}", shape={shape}];')
    for (v, q), nq in sorted(machine.update.items(), key=lambda kv: (kv[0][1], skey(kv[0][0]))):
        lines.append(f'  "q{q}" -> "q{nq}" [label="{_dot(v)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
