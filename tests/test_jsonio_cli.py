import argparse
import builtins
import contextlib
import functools
import hashlib
import io
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphgames import acceptance, cli, jsonio
from graphgames import arena as arena_module
from graphgames.arena import StrategyMachine, make_arena, validate_arena
from graphgames.cli import build_parser, main
from graphgames.extensive import Leaf
from graphgames.equilibria import synthesize_ne
from graphgames.gen import random_graph_game, random_parity_game
from graphgames.winlose import MemorylessResult, solve

from oracles import machine_to_dot_by_rescans, solve_result_by_names


GAME_DOC = {
    "arena": {
        "players": ["A", "B"],
        "vertices": [{"id": "u", "owner": "A"}, {"id": "w", "owner": "B"}],
        "edges": [["u", "u"], ["u", "w"], ["w", "w"], ["w", "u"]],
        "start": "u",
    },
    "preferences": {"A": [["o1"], ["o2"]], "B": [["o2"], ["o1"]]},
    "outcomes": {"map": [[["u"], "o1"], [["w"], "o2"], [["u", "w"], "o1"]]},
}

PARITY_DOC = {
    "arena": {
        "players": ["P0", "P1"],
        "vertices": [{"id": "v0", "owner": "P0"}, {"id": "v1", "owner": "P1"}],
        "edges": [["v0", "v0"], ["v0", "v1"], ["v1", "v0"], ["v1", "v1"]],
        "start": "v0",
    },
    "objective": {"parity": {"v0": 0, "v1": 1}},
}


def self_loop_ring(n, outcome_map=None):
    """Graph game on ``n`` self-looping vertices in a ring, owned by A and B in turn.

    Its recurrence sets are the singletons and the whole ring; by default
    the map gives odd singletons o1, even ones o2, and the ring o1.
    """
    vs = [f"v{i}" for i in range(n)]
    if outcome_map is None:
        outcome_map = [[[v], "o1" if i % 2 else "o2"] for i, v in enumerate(vs)] + [[vs, "o1"]]
    return {
        "arena": {
            "players": ["A", "B"],
            "vertices": [{"id": v, "owner": "AB"[i % 2]} for i, v in enumerate(vs)],
            "edges": [[v, v] for v in vs] + [[v, vs[(i + 1) % n]] for i, v in enumerate(vs)],
            "start": "v0",
        },
        "preferences": {"A": [["o1"], ["o2"]], "B": [["o2"], ["o1"]]},
        "outcomes": {"map": outcome_map},
    }


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# --- document round trips ---------------------------------------------------


def test_arena_round_trip():
    arena = validate_arena(GAME_DOC["arena"])
    assert validate_arena(jsonio.arena_to_json(arena)).edges == arena.edges


def test_graph_game_round_trip():
    game = jsonio.graph_game_from_json(GAME_DOC)
    doc = jsonio.graph_game_to_json(game)
    again = jsonio.graph_game_from_json(doc)
    assert again.outcome_map == game.outcome_map
    assert again.prefs.order_of("A").ranks == game.prefs.order_of("A").ranks


def test_profile_round_trip():
    from graphgames.equilibria import synthesize_ne

    game = jsonio.graph_game_from_json(GAME_DOC)
    report = synthesize_ne(game)
    doc = jsonio.profile_to_json(report.profile)
    profile = jsonio.profile_from_json(doc)
    from graphgames.equilibria import verify_ne

    assert verify_ne(game, profile) is None


def test_tree_round_trip():
    doc = {
        "tree": {
            "owner": "a",
            "children": [
                {"payoffs": {"a": "1/3", "b": "1/2"}},
                {"payoffs": {"a": "2/3", "b": "0"}},
            ],
        }
    }
    game = jsonio.tree_from_json(doc)
    leaf = game.root.children[0]
    assert isinstance(leaf, Leaf) and leaf.payoffs["a"] == Fraction(1, 3)
    assert jsonio.tree_from_json(jsonio.tree_to_json(game)).players == game.players


ENERGY_ARENA = {
    "players": ["P0", "P1"],
    "vertices": [{"id": "u", "owner": "P0"}, {"id": "w", "owner": "P1"}],
    "edges": [["u", "u"], ["u", "w"], ["w", "u"], ["w", "w"]],
    "start": "u",
    "energy": {
        "weights": {"P0": {"u": 1, "w": -1}, "P1": {}},
        "caps": {"P0": [-1, 1], "P1": [0, 0]},
        "priorities": {"u": 0, "w": 1},
    },
}


def test_energy_block_expands_winlose_games():
    doc = {"arena": ENERGY_ARENA, "objective": {"parity": {"u": 0, "w": 1}}}
    game = jsonio.winlose_from_json(doc)
    assert len(game.arena.vertices) > 2
    assert all("|b=" in v for v in game.arena.vertices)
    from graphgames.winlose import solve

    res = solve(game)
    assert res.win0 | res.win1 == frozenset(game.arena.vertices)


# the energy product of ENERGY_ARENA: P0's budget and its minimum per state
U_STATES = frozenset({"u|b=0,0|m=-1,0", "u|b=1,0|m=-1,0", "u|b=1,0|m=0,0"})
W_STATES = frozenset({"w|b=-1,0|m=-1,0", "w|b=0,0|m=-1,0", "w|b=0,0|m=0,0"})


@pytest.mark.parametrize(
    "objective, protagonist, win0",
    [
        ({"reach": ["w"]}, "P0", U_STATES | W_STATES),  # P0 moves from u to w
        ({"reach": ["w"]}, "P1", W_STATES),  # P0 stays at u
        ({"safe": ["u"]}, "P0", U_STATES),  # P0 stays at u; every w state is unsafe
    ],
    ids=["reach-P0", "reach-P1", "safe-P0"],
)
def test_energy_block_lifts_reach_and_safe_objectives(objective, protagonist, win0):
    doc = {"arena": ENERGY_ARENA, "objective": objective, "protagonist": protagonist}
    game = jsonio.winlose_from_json(doc)
    lifted = game.objective.targets if "reach" in objective else game.objective.safe
    assert lifted == (W_STATES if "reach" in objective else U_STATES)
    from graphgames.winlose import solve

    result = solve(game)
    assert (result.win0, result.win1) == (win0, (U_STATES | W_STATES) - win0)


def test_energy_block_expands_muller_objectives():
    doc = {"arena": ENERGY_ARENA, "objective": {"muller": [["u", "w"]]}}
    game = jsonio.winlose_from_json(doc)
    # lifted family members project exactly onto {u, w}
    assert game.objective.family
    for s in game.objective.family:
        assert {v.split("|")[0] for v in s} == {"u", "w"}


def test_energy_muller_lift_past_sixteen_product_vertices():
    # the lift ranges over the product's recurrence sets, so a product past
    # 2^16 subsets still lifts; {u} and {u, w} are the sets of even least priority
    arena = dict(
        ENERGY_ARENA,
        energy={
            "weights": {"P0": {"u": 1, "w": -1}, "P1": {"u": -1, "w": 1}},
            "caps": {"P0": [-3, 3], "P1": [-3, 3]},
            "priorities": {"u": 0, "w": 1},
        },
    )
    from graphgames.winlose import solve

    muller = jsonio.winlose_from_json({"arena": arena, "objective": {"muller": [["u"], ["u", "w"]]}})
    parity = jsonio.winlose_from_json({"arena": arena, "objective": {"parity": {"u": 0, "w": 1}}})
    assert len(muller.arena.vertices) > 16
    assert muller.arena.vertices == parity.arena.vertices
    assert solve(muller).win0 == solve(parity).win0


def test_energy_block_expands_graph_games():
    doc = {
        "arena": ENERGY_ARENA,
        "preferences": {"P0": [["lo"], ["hi"]], "P1": [["hi"], ["lo"]]},
        "outcomes": {"map": [[["u"], "hi"], [["w"], "lo"], [["u", "w"], "lo"]]},
    }
    game = jsonio.graph_game_from_json(doc)
    from graphgames.equilibria import synthesize_ne, verify_ne

    report = synthesize_ne(game)
    assert verify_ne(game, report.profile) is None


def test_energy_graph_game_scans_recurrence_sets_once(monkeypatch):
    import graphgames.guarantees as guarantees

    doc = {
        "arena": ENERGY_ARENA,
        "preferences": {"P0": [["lo"], ["hi"]], "P1": [["hi"], ["lo"]]},
        "outcomes": {"map": [[["u"], "hi"], [["w"], "lo"], [["u", "w"], "lo"]]},
    }
    scans = []
    enumerate_sets = jsonio.closed_strongly_connected_sets

    def counting(*args, **kwargs):
        scans.append(args[0])
        return enumerate_sets(*args, **kwargs)

    monkeypatch.setattr(jsonio, "closed_strongly_connected_sets", counting)
    monkeypatch.setattr(guarantees, "closed_strongly_connected_sets", counting)
    game = jsonio.graph_game_from_json(doc)
    assert len(scans) == 1
    monkeypatch.undo()
    # the lifted map is exactly the projected outcome of every recurrence set
    sets = jsonio.closed_strongly_connected_sets(game.arena)
    projected = {s: frozenset(v.split("|")[0] for v in s) for s in sets}
    outcome = {frozenset({"u"}): "hi", frozenset({"w"}): "lo", frozenset({"u", "w"}): "lo"}
    assert game.outcome_map == {s: outcome[p] for s, p in projected.items()}
    game.validate_total()


# --- CLI ------------------------------------------------------------------------


def test_cli_solve_parity(tmp_path, capsys):
    path = write(tmp_path, "parity.json", PARITY_DOC)
    assert main(["solve", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["win0"] == ["v0"] and out["win1"] == ["v1"]


def test_cli_solve_rejects_dead_end(tmp_path, capsys):
    doc = json.loads(json.dumps(PARITY_DOC))
    doc["arena"]["edges"] = [["v0", "v1"], ["v1", "v0"], ["v1", "v1"]]
    doc["arena"]["vertices"].append({"id": "sink", "owner": "P0"})
    path = write(tmp_path, "bad.json", doc)
    assert main(["solve", path]) == 2
    out = json.loads(capsys.readouterr().out)
    assert any(e["code"] == "DeadEndVertex" for e in out["errors"])


def with_changes(doc, path, value):
    """Deep copy of ``doc`` with the entry at key ``path`` replaced."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def without(doc, path):
    """Deep copy of ``doc`` with the entry at key ``path`` removed."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    del node[path[-1]]
    return doc


# players P and Q, so the string "PQ" would spell both of them
PQ_DOC = with_changes(
    with_changes(with_changes(PARITY_DOC, ["arena", "players"], ["P", "Q"]),
                 ["arena", "vertices", 0, "owner"], "P"),
    ["arena", "vertices", 1, "owner"], "Q",
)

ENERGY_PARITY_DOC = {"arena": ENERGY_ARENA, "objective": {"parity": {"u": 0, "w": 1}}}

# one-character outcomes, so a string of rank groups spells outcome names
SHORT_OUTCOMES_DOC = {
    "arena": GAME_DOC["arena"],
    "preferences": {"A": [["o"], ["x"]], "B": [["x"], ["o"]]},
    "outcomes": {"map": [[["u"], "o"], [["w"], "x"], [["u", "w"], "o"]]},
}


@pytest.mark.parametrize(
    "command, doc",
    [
        ("solve", []),
        ("guarantee", []),
        ("guarantee", with_changes(GAME_DOC, ["outcomes", "map"], 5)),
        ("guarantee", with_changes(GAME_DOC, ["arena", "vertices", 0, "id"], ["u"])),
        ("solve", with_changes(PARITY_DOC, ["objective", "parity", "v0"], "x")),
        ("guarantee", with_changes(SHORT_OUTCOMES_DOC, ["preferences", "A"], "ox")),
        ("solve", with_changes(PQ_DOC, ["arena", "players"], "PQ")),
        ("solve", with_changes(PARITY_DOC, ["objective", "parity", "v0"], 1.5)),
        ("solve", with_changes(PARITY_DOC, ["objective", "parity", "v0"], "1")),
        ("solve", with_changes(PARITY_DOC, ["objective", "parity", "v0"], True)),
        ("solve", with_changes(ENERGY_PARITY_DOC, ["arena", "energy", "caps", "P0"], [-1, 1.5])),
        ("solve", with_changes(ENERGY_PARITY_DOC, ["arena", "energy", "priorities", "u"], "0")),
    ],
    ids=["list-document-solve", "list-document", "map-not-list", "list-vertex-id",
         "priority-not-int", "string-rank-groups", "players-string", "priority-float",
         "priority-string", "priority-bool", "energy-cap-float", "energy-priority-string"],
)
def test_cli_rejects_malformed_documents(tmp_path, capsys, command, doc):
    path = write(tmp_path, "bad.json", doc)
    assert main([command, path]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["errors"]
    assert captured.err == ""


def test_cli_names_the_player_energy_caps_omit(tmp_path, capsys):
    doc = with_changes(ENERGY_PARITY_DOC, ["arena", "energy", "caps"], {"P0": [-1, 1]})
    assert main(["solve", write(tmp_path, "caps.json", doc)]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["errors"] == [
        {"code": "InvalidInputError", "detail": "energy caps omit player 'P1'"}
    ]
    assert captured.err == ""


def test_cli_names_the_vertex_an_energy_parity_objective_misses(tmp_path, capsys):
    doc = with_changes(ENERGY_PARITY_DOC, ["objective", "parity"], {"u": 0})
    assert main(["solve", write(tmp_path, "priorities.json", doc)]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["errors"] == [
        {"code": "InvalidInputError", "detail": "vertex 'w' has no priority"}
    ]
    assert captured.err == ""


@pytest.mark.parametrize(
    "doc, unknown",
    [
        (with_changes(PARITY_DOC, ["objective"], {"reach": ["vv"]}), "vv"),
        (with_changes(PARITY_DOC, ["objective"], {"safe": ["v0", "x", "vv"]}), "vv"),
        (with_changes(PARITY_DOC, ["objective"], {"muller": [["v1"], ["v0", "vv"]]}), "vv"),
        (with_changes(PARITY_DOC, ["objective"], {"parity": {"v0": 0, "v1": 1, "vv": 2}}), "vv"),
        # a product vertex's name is still unknown: objectives name base vertices
        (with_changes(ENERGY_PARITY_DOC, ["objective", "parity", "u|b=1|m=1"], 2), "u|b=1|m=1"),
    ],
    ids=["reach", "safe", "muller", "parity", "energy-parity"],
)
def test_cli_names_the_least_unknown_vertex_an_objective_names(tmp_path, capsys, doc, unknown):
    assert main(["solve", write(tmp_path, "objective.json", doc)]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["errors"] == [
        {"code": "InvalidInputError", "detail": f"objective vertex {unknown!r} not in arena"}
    ]
    assert captured.err == ""


PAYOFF_TREE = {
    "tree": {
        "owner": "a",
        "children": [{"payoffs": {"a": "3/5", "b": "3/10"}}, {"payoffs": {"a": "1/5", "b": "1"}}],
    }
}


def payoff_chain(depth):
    """A payoff tree ``depth`` decision levels deep, where a and b take
    turns to stop or to go on."""
    node = {"payoffs": {"a": "1/2", "b": "1/3"}}
    for i in range(depth):
        node = {"owner": "ab"[i % 2], "children": [node, {"payoffs": {"a": "1/4", "b": "1/5"}}]}
    return {"tree": node}


# memoryless: A stays at u, B stays at w
STAY_PROFILE = {
    "machines": {
        "A": {"memory_bits": 0, "choice": [["u", 0, "u"]]},
        "B": {"memory_bits": 0, "choice": [["w", 0, "w"]]},
    }
}


@pytest.mark.parametrize("command", ["guarantee", "verify"])
def test_cli_names_the_least_unknown_vertex_an_outcome_map_names(tmp_path, capsys, command):
    outcome_map = GAME_DOC["outcomes"]["map"] + [[["zz"], "o2"], [["u", "zzz"], "o1"], [["zzzz"], "o1"]]
    game_path = write(tmp_path, "game.json", with_changes(GAME_DOC, ["outcomes", "map"], outcome_map))
    profile_path = write(tmp_path, "profile.json", STAY_PROFILE)
    assert main([command, game_path] + ([profile_path] if command == "verify" else [])) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["errors"] == [
        {"code": "InvalidInputError", "detail": "outcome map vertex 'zz' not in arena"}
    ]
    assert captured.err == ""


@pytest.mark.parametrize("command", ["guarantee", "verify"])
def test_cli_names_the_least_set_an_outcome_map_gives_two_outcomes(tmp_path, capsys, command):
    profile_path = write(tmp_path, "profile.json", STAY_PROFILE)
    extra = [] if command == "guarantee" else [profile_path]
    code = main([command, write(tmp_path, "game.json", GAME_DOC), *extra])
    plain = capsys.readouterr().out
    # entries that repeat a set's own outcome change nothing
    repeated = GAME_DOC["outcomes"]["map"] + [[["w"], "o2"], [["w", "u"], "o1"]]
    game_path = write(tmp_path, "game.json", with_changes(GAME_DOC, ["outcomes", "map"], repeated))
    assert main([command, game_path, *extra]) == code
    assert capsys.readouterr().out == plain
    # {u, w} clashes first in document order, but {u} sorts first
    clashing = repeated + [[["w", "u"], "o2"], [["u"], "o2"]]
    game_path = write(tmp_path, "game.json", with_changes(GAME_DOC, ["outcomes", "map"], clashing))
    assert main([command, game_path, *extra]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["errors"] == [
        {"code": "InvalidInputError", "detail": "outcome map gives ['u'] two outcomes"}
    ]
    assert captured.err == ""


@pytest.mark.parametrize(
    "command, doc, profile, errors",
    [
        ("guarantee", with_changes(GAME_DOC, ["arena", "vertices"], GAME_DOC["arena"]["vertices"] * 2), None,
         [("DuplicateVertex", "vertex 'u' declared twice"), ("DuplicateVertex", "vertex 'w' declared twice")]),
        ("guarantee", with_changes(GAME_DOC, ["arena", "players"], ["A", "B", "A"]), None,
         [("DuplicatePlayer", "player 'A' declared twice")]),
        ("solve", with_changes(PARITY_DOC, ["objective"], {"reach": ["v0"], "safe": ["v1"]}), None,
         [("InvalidInputError", "objective must be one of parity/muller/reach/safe")]),
        ("solve", with_changes(PARITY_DOC, ["objective"], {"buchi": ["v0"]}), None,
         [("InvalidInputError", "unknown objective kind 'buchi'")]),
        ("solve", with_changes(PARITY_DOC, ["objective"], {"reach": 5}), None,
         [("InvalidInputError", "reach objective must be a list of vertices")]),
        ("solve", with_changes(PARITY_DOC, ["objective"], {"safe": {"v0": 1}}), None,
         [("InvalidInputError", "safe objective must be a list of vertices")]),
        ("solve", with_changes(PARITY_DOC, ["objective"], {"muller": 5}), None,
         [("InvalidInputError", "muller objective must be a list of lists of vertices")]),
        ("solve", with_changes(PARITY_DOC, ["objective"], {"muller": [["v0"], "v1"]}), None,
         [("InvalidInputError", "muller objective set must be a list of vertices")]),
        ("solve", with_changes(PARITY_DOC, ["objective"], {"reach": [["v0"]]}), None,
         [("InvalidInputError", "objective vertex ['v0'] must be a string or a number")]),
        ("solve", with_changes(PARITY_DOC, ["objective"], {"parity": [0, 1]}), None,
         [("InvalidInputError", "parity objective must map vertices to priorities")]),
        ("solve", with_changes(PARITY_DOC, ["objective", "parity", "v1"], 1.0), None,
         [("InvalidInputError", "parity priority 1.0 must be an integer")]),
        ("solve", with_changes(PARITY_DOC, ["arena", "players"], ["P0", "P1", "P2"]), None,
         [("InvalidInputError", "win/lose game needs exactly 2 players")]),
        ("solve", with_changes(PARITY_DOC, ["protagonist"], "P2"), None,
         [("InvalidInputError", "protagonist 'P2' is not a player")]),
        ("solve", with_changes(ENERGY_PARITY_DOC, ["arena", "energy", "caps", "P0"], [1, 2]), None,
         [("InvalidInputError", "caps for 'P0' must satisfy lo <= 0 <= hi, got (1, 2)")]),
        ("solve", with_changes(ENERGY_PARITY_DOC, ["arena", "energy", "priorities"], {"u": 0}), None,
         [("InvalidInputError", "vertex 'w' has no priority")]),
        ("solve", with_changes(ENERGY_PARITY_DOC, ["arena", "energy"], [1]), None,
         [("InvalidInputError", "energy block must be a JSON object")]),
        ("solve", with_changes(ENERGY_PARITY_DOC, ["arena", "energy", "weights"], 5), None,
         [("InvalidInputError", "energy weights must map each player to an object of vertex weights")]),
        ("solve", with_changes(ENERGY_PARITY_DOC, ["arena", "energy", "weights", "P0"], [1, -1]), None,
         [("InvalidInputError", "energy weights for 'P0' must map vertices to integers")]),
        ("solve", with_changes(ENERGY_PARITY_DOC, ["arena", "energy", "caps"], [[-1, 1], [0, 0]]), None,
         [("InvalidInputError", "energy caps must map each player to a [lo, hi] pair")]),
        ("solve", with_changes(ENERGY_PARITY_DOC, ["arena", "energy", "caps", "P0"], 3), None,
         [("InvalidInputError", "energy caps for 'P0' must be a [lo, hi] pair of integers")]),
        ("solve", with_changes(ENERGY_PARITY_DOC, ["arena", "energy", "caps", "P1"], [-1, 0, 1]), None,
         [("InvalidInputError", "energy caps for 'P1' must be a [lo, hi] pair of integers")]),
        ("solve", without(ENERGY_PARITY_DOC, ["arena", "energy", "caps"]), None,
         [("InvalidInputError", "energy block lacks 'caps'")]),
        ("solve", with_changes(ENERGY_PARITY_DOC, ["arena", "energy", "priorities"], [0, 1]), None,
         [("InvalidInputError", "energy priorities must map vertices to integers")]),
        ("verify", GAME_DOC, with_changes(STAY_PROFILE, ["machines", "A"], [0]),
         [("InvalidInputError", "machine for 'A' must be a JSON object")]),
        ("verify", GAME_DOC, with_changes(STAY_PROFILE, ["machines", "A", "update"], 5),
         [("InvalidInputError", "machine for 'A' update must be a list of [vertex, state, state] triples")]),
        ("verify", GAME_DOC, with_changes(STAY_PROFILE, ["machines", "B", "choice"], [["u", 0]]),
         [("InvalidInputError", "machine for 'B' choice must be a list of [vertex, state, vertex] triples")]),
        ("verify", GAME_DOC, {"machine": STAY_PROFILE["machines"]},
         [("InvalidInputError", "profile document needs a 'machines' object")]),
        ("discretize", with_changes(PAYOFF_TREE, ["tree", "children", 0, "payoffs", "a"], "x"), None,
         [("InvalidInputError", "payoff 'x' must be a number or a fraction string")]),
        ("discretize", with_changes(PAYOFF_TREE, ["tree", "children", 0, "payoffs", "a"], "1/0"), None,
         [("InvalidInputError", "payoff '1/0' has a zero denominator")]),
        ("discretize", with_changes(PAYOFF_TREE, ["tree", "children", 0, "payoffs", "a"], math.nan), None,
         [("InvalidInputError", "payoff nan must be finite")]),
        ("discretize", with_changes(PAYOFF_TREE, ["tree", "children", 0, "payoffs", "a"], "1e20000"), None,
         [("InvalidInputError", "payoff '1e20000' spells out more than 2000 digits, its exponent expanded")]),
        ("discretize", with_changes(PAYOFF_TREE, ["tree", "children", 0, "payoffs", "a"], "0." + "0" * 1999 + "1"),
         None, [("InvalidInputError",
                 "payoff '0.000000000000000000000000000000...' spells out more than 2000 digits, its exponent expanded")]),
        ("discretize", payoff_chain(jsonio.TREE_DEPTH + 1), None,
         [("InvalidInputError", "tree nests deeper than 300 decision levels")]),
    ],
    ids=["duplicate-vertex", "duplicate-player", "objective-two-kinds", "objective-unknown-kind",
         "objective-bad-body", "objective-safe-body", "objective-muller-body", "objective-muller-set",
         "objective-unhashable-vertex", "objective-parity-body", "objective-parity-float",
         "winlose-three-players", "winlose-unknown-protagonist", "energy-caps-above-zero",
         "energy-priority-missing", "energy-not-an-object", "energy-weights-int", "energy-weights-player-list",
         "energy-caps-list", "energy-caps-player-int", "energy-caps-triple", "energy-caps-missing",
         "energy-priorities-list", "machine-not-an-object", "machine-update-not-triples",
         "machine-choice-not-triples", "profile-no-machines", "payoff-not-a-fraction", "payoff-zero-denominator",
         "payoff-nan", "payoff-huge-exponent", "payoff-too-many-digits", "tree-too-deep"],
)
def test_cli_names_what_a_malformed_document_gets_wrong(tmp_path, capsys, command, doc, profile, errors):
    argv = [command, write(tmp_path, "doc.json", doc)]
    if profile is not None:
        argv.append(write(tmp_path, "profile.json", profile))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["errors"] == [{"code": c, "detail": d} for c, d in errors]
    assert captured.err == ""


@pytest.mark.parametrize("command", ["solve", "guarantee", "verify"])
@pytest.mark.parametrize(
    "path, value, detail",
    [
        (["vertices", 0, "owner"], [], "owner [] must be a string or a number"),
        (["vertices", 1, "id"], ["v1"], "vertex id ['v1'] must be a string or a number"),
        (["edges", 0, 1], ["v1"], "edge end ['v1'] must be a string or a number"),
    ],
    ids=["owner", "vertex-id", "edge-end"],
)
def test_cli_names_an_unhashable_arena_part(tmp_path, capsys, command, path, value, detail):
    # the loader words these itself, however late the arena's index hashes its parts
    doc = PARITY_DOC if command == "solve" else GAME_DOC
    argv = [command, write(tmp_path, "doc.json", with_changes(doc, ["arena", *path], value))]
    if command == "verify":
        argv.append(write(tmp_path, "profile.json", STAY_PROFILE))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["errors"] == [{"code": "InvalidInputError", "detail": detail}]
    assert captured.err == ""


@pytest.mark.parametrize(
    "path, value",
    [
        (["A", "memory_bits"], "0"),
        (["A", "memory_bits"], 0.0),
        (["A", "choice"], [["u", 0.0, "u"]]),
        (["B", "update"], [["u", 0, 0.0]]),
        (["B", "init"], "0"),
    ],
    ids=["bits-string", "bits-float", "choice-state-float", "update-state-float", "init-string"],
)
def test_cli_rejects_non_integer_machine_fields(tmp_path, capsys, path, value):
    game_path = write(tmp_path, "game.json", GAME_DOC)
    profile_path = write(tmp_path, "profile.json", with_changes(STAY_PROFILE, ["machines", *path], value))
    assert main(["verify", game_path, profile_path]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["errors"]
    assert captured.err == ""


@pytest.mark.parametrize("subgames", [[], ["--subgames"]], ids=["verify", "verify-subgames"])
@pytest.mark.parametrize(
    "path, value, named",
    [
        (["A", "memory_bits"], -3, "-3"),
        (["A", "choice"], [["u", 0, "u"], ["u", 5, "u"]], "state 5"),
        (["B", "init"], 2, "state 2"),
        (["B", "update"], [["u", 0, -1]], "state -1"),
    ],
    ids=["negative-bits", "choice-state-too-large", "init-too-large", "update-state-negative"],
)
def test_cli_refuses_machine_states_outside_memory_bits(tmp_path, capsys, path, value, named, subgames):
    # states lie in 0 <= q < 2**memory_bits; STAY_PROFILE has no memory
    # for A and one bit for B here
    profile = with_changes(STAY_PROFILE, ["machines", "B", "memory_bits"], 1)
    profile_path = write(tmp_path, "profile.json", with_changes(profile, ["machines", *path], value))
    game_path = write(tmp_path, "game.json", GAME_DOC)
    assert main(["verify", game_path, profile_path, *subgames]) == 2
    captured = capsys.readouterr()
    [error] = json.loads(captured.out)["errors"]
    assert error["code"] == "InvalidInputError"
    assert f"machine for '{path[0]}'" in error["detail"] and named in error["detail"]
    assert captured.err == ""


# no edge from w back to u, so B moving there from w leaves the arena's edges
ONE_WAY_DOC = with_changes(GAME_DOC, ["arena", "edges"], [["u", "u"], ["u", "w"], ["w", "w"]])


@pytest.mark.parametrize("subgames", [[], ["--subgames"]], ids=["verify", "verify-subgames"])
@pytest.mark.parametrize(
    "doc, move",
    [(GAME_DOC, "zzz"), (ONE_WAY_DOC, "u")],
    ids=["unknown-vertex", "non-successor"],
)
def test_cli_verify_rejects_machine_moves_off_the_edges(tmp_path, capsys, doc, move, subgames):
    # B's move at w is off the induced play (A stays at u), so only the
    # profile check can see it
    game_path = write(tmp_path, "game.json", doc)
    profile = with_changes(STAY_PROFILE, ["machines", "B", "choice"], [["w", 0, move]])
    profile_path = write(tmp_path, "profile.json", profile)
    assert main(["verify", game_path, profile_path, *subgames]) == 2
    captured = capsys.readouterr()
    assert [e["code"] for e in json.loads(captured.out)["errors"]] == ["InvalidInputError"]
    assert captured.err == ""


@pytest.mark.parametrize(
    "path, value",
    [
        (["tree", "children", 0, "payoffs", "a"], "abc"),
        (["tree", "children", 0, "payoffs", "a"], [1]),
        (["tree", "children", 0, "payoffs", "a"], None),
        (["tree", "children", 0, "payoffs", "a"], True),
        (["tree", "children", 0, "payoffs", "a"], "1/0"),
        (["tree", "children", 0, "payoffs"], ["a", "1"]),
        (["tree", "children", 1], "leaf"),
        (["tree", "children", 1], 5),
        (["tree", "children"], {"payoffs": {"a": "1"}}),
        (["tree", "children", 0, "payoffs"], {"b": "1/2"}),
        (["tree", "children", 1], {"outcome": "x"}),
    ],
    ids=["payoff-text", "payoff-list", "payoff-null", "payoff-bool", "payoff-zero-denominator",
         "payoffs-list", "node-string", "node-number", "children-object", "payoff-missing-player",
         "outcome-and-payoff-leaves"],
)
def test_cli_discretize_rejects_malformed_trees(tmp_path, capsys, path, value):
    tree_path = write(tmp_path, "tree.json", with_changes(PAYOFF_TREE, path, value))
    assert main(["discretize", tree_path]) == 2
    captured = capsys.readouterr()
    assert [e["code"] for e in json.loads(captured.out)["errors"]] == ["InvalidInputError"]
    assert captured.err == ""


def test_cli_discretize_refuses_a_huge_exponent_at_once(tmp_path, capsys):
    # Fraction would work out all billion digits of the power
    import time

    tree_path = write(tmp_path, "tree.json", with_changes(PAYOFF_TREE, ["tree", "children", 1, "payoffs", "b"], "1e999999999"))
    began = time.perf_counter()
    assert main(["discretize", tree_path]) == 2
    assert time.perf_counter() - began < 1.0
    [error] = json.loads(capsys.readouterr().out)["errors"]
    assert error == {
        "code": "InvalidInputError",
        "detail": "payoff '1e999999999' spells out more than 2000 digits, its exponent expanded",
    }


@pytest.mark.parametrize("depth", [250, jsonio.TREE_DEPTH])
def test_cli_discretize_answers_on_deep_trees(tmp_path, capsys, depth):
    # the output nests past the recursive emitter's frames; its bytes are
    # still those of indented json
    assert main(["discretize", write(tmp_path, "tree.json", payoff_chain(depth))]) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    assert json.loads(out)["holds"] is True


def test_dumps_writes_deep_documents_as_indented_json():
    for depth in (100, 700):
        assert_emits_as_indented_json(functools.reduce(lambda x, i: [x] if i % 2 else {"k": x}, range(depth), 0))


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["guarantee"], GAME_DOC),
        (["ne"], GAME_DOC),
        (["spe"], GAME_DOC),
        (["pareto-ne"], GAME_DOC),
        (["verify", "profile"], GAME_DOC),
        (["verify", "profile", "--subgames"], GAME_DOC),
        (["solve"], ENERGY_PARITY_DOC),
    ],
    ids=["guarantee", "ne", "spe", "pareto-ne", "verify", "verify-subgames", "solve-energy"],
)
def test_cli_max_product_states_bounds_every_product(tmp_path, capsys, argv, doc):
    game_path = write(tmp_path, "game.json", doc)
    profile_path = write(tmp_path, "profile.json", STAY_PROFILE)
    argv = [argv[0], game_path] + [profile_path if a == "profile" else a for a in argv[1:]]
    assert main(argv + ["--max-product-states", "1"]) == 2
    errors = json.loads(capsys.readouterr().out)["errors"]
    assert [e["code"] for e in errors] == ["TooLargeError"]


@pytest.mark.parametrize("bound", ["0", "-5"])
@pytest.mark.parametrize(
    "argv",
    [["solve", "game.json"], ["guarantee", "game.json"], ["verify", "game.json", "profile.json"]],
    ids=["solve", "guarantee", "verify"],
)
def test_cli_refuses_a_bound_below_one(capsys, argv, bound):
    # refused by argparse before any file is opened
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--max-product-states", bound])
    assert exc.value.code == 2
    assert "--max-product-states" in capsys.readouterr().err


SYNTHESIS_FLAGS = {"--out", "--emit-dot", "--max-product-states"}


@pytest.mark.parametrize(
    "command, positionals, flags, unread",
    [
        ("solve", ["game"], {"--out", "--emit-dot", "--max-product-states"}, ["--seed", "1"]),
        ("guarantee", ["game"], SYNTHESIS_FLAGS, ["--seed", "1"]),
        ("ne", ["game"], SYNTHESIS_FLAGS, ["--seed", "1"]),
        ("spe", ["game"], SYNTHESIS_FLAGS, ["--subgames"]),
        ("pareto-ne", ["game"], SYNTHESIS_FLAGS, ["--k", "2"]),
        ("verify", ["game", "profile"], {"--out", "--subgames", "--max-product-states"},
         ["--emit-dot"]),
        ("discretize", ["game"], {"--out", "--k"}, ["--max-product-states", "5"]),
        ("gallery", [], {"--out", "--depth"}, ["--max-product-states", "3"]),
        ("acceptance", [], {"--out", "--seed"}, ["--emit-dot"]),
    ],
    ids=["solve", "guarantee", "ne", "spe", "pareto-ne", "verify", "discretize", "gallery", "acceptance"],
)
def test_cli_commands_register_only_the_options_they_read(capsys, command, positionals, flags, unread):
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    actions = subparsers.choices[command]._actions
    registered = {s for a in actions for s in a.option_strings} - {"-h", "--help"}
    assert registered == flags
    assert [a.dest for a in actions if not a.option_strings] == positionals
    # an unread flag is refused by argparse before any file is opened
    with pytest.raises(SystemExit) as exc:
        main([command, *(f"{p}.json" for p in positionals), *unread])
    assert exc.value.code == 2


def test_cli_builds_its_parser_once(tmp_path, capsys, monkeypatch):
    game_path = write(tmp_path, "game.json", GAME_DOC)
    profile_path = write(tmp_path, "profile.json", STAY_PROFILE)
    parity_path = write(tmp_path, "parity.json", PARITY_DOC)
    assert main(["solve", parity_path]) == 0
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for argv in (
        ["solve", parity_path],
        ["guarantee", game_path],
        ["verify", game_path, profile_path],
        ["verify", game_path, profile_path, "--subgames"],
    ):
        assert main(argv) in (0, 1)
    assert built == []


def parse_outcome(parse, argv):
    """``(namespace or None, exit code or None, stdout, stderr)`` of ``parse(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    namespace = code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = parse(argv)
        except SystemExit as exc:
            code = exc.code
    return namespace, code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["--help"],
        ["frobnicate", "game.json"],
        ["GUARANTEE", "game.json"],
        ["guarantee"],
        ["verify", "game.json"],
        ["spe", "--out", "o.json"],
        ["guarantee", "game.json", "--bogus"],
        ["solve", "game.json", "-x"],
        ["guarantee", "--", "game.json"],
        ["guarantee", "game.json", "--", "--out"],
        ["--", "guarantee", "game.json"],
        ["guarantee", "game.json", "--ou", "o.json"],
        ["verify", "game.json", "profile.json", "--sub"],
        ["guarantee", "game.json", "--out=o.json"],
        ["guarantee", "game.json", "--max-product-states=7", "--out", "o.json"],
        ["pareto-ne", "game.json", "--out"],
        ["guarantee", "game.json", "--max-product-states", "ten"],
        ["solve", "game.json", "--emit-dot", "--max-product-states", "0"],
        ["discretize", "tree.json", "--k", "2.5"],
        ["guarantee", "game.json", "extra.json"],
        ["guarantee", "game.json", "--seed", "1"],
        ["--out", "o.json", "guarantee", "game.json"],
        ["guarantee", "-h"],
        ["verify", "--help"],
        ["guarantee", "-"],
        ["ne", "game.json", "--emit-dot", "--emit-dot"],
        ["verify", "game.json", "profile.json", "--subgames", "--out", "o.json"],
        ["discretize", "tree.json", "--k", "3"],
        ["gallery", "--depth", "5"],
        ["acceptance"],
        ["acceptance", "--seed", "-3"],
    ],
)
def test_cli_command_parser_reads_argv_as_the_full_parser_does(argv):
    # the command's own parser answers where it can; namespace, exit code
    # and every printed text must be the full parser's
    assert parse_outcome(cli.parse_args, argv) == parse_outcome(build_parser().parse_args, argv)


def test_cli_options_do_not_leak_between_calls(tmp_path, capsys):
    game_path = write(tmp_path, "game.json", SINGLE_PLAYER_DOC)
    profile_path = write(tmp_path, "lazy.json", LAZY_PROFILE)
    subgames, plain = tmp_path / "subgames.json", tmp_path / "plain.json"
    assert main(["verify", game_path, profile_path, "--subgames", "--out", str(subgames)]) == 1
    assert "at_vertex" in json.loads(subgames.read_text())
    assert main(["verify", game_path, profile_path, "--out", str(plain)]) == 1
    assert "at_vertex" not in json.loads(plain.read_text())

    game_path = write(tmp_path, "game.json", GAME_DOC)
    assert main(["guarantee", game_path, "--max-product-states", "1"]) == 2
    assert main(["guarantee", game_path]) == 0

    parity_path = write(tmp_path, "parity.json", PARITY_DOC)
    assert main(["solve", parity_path, "--out", str(tmp_path / "dot.json"), "--emit-dot"]) == 0
    dots = set(tmp_path.glob("*.dot"))
    assert dots
    assert main(["solve", parity_path, "--out", str(tmp_path / "nodot.json")]) == 0
    assert set(tmp_path.glob("*.dot")) == dots


def test_cli_acceptance_failure_exits_two(tmp_path, capsys, monkeypatch):
    # exit 1 means only "profitable deviation found"
    failed = acceptance.CriterionResult(1, "a criterion", False, "it failed")
    seeds = []
    monkeypatch.setattr(acceptance, "run_all", lambda seed: seeds.append(seed) or [failed])
    out = tmp_path / "acceptance.json"
    assert main(["acceptance", "--out", str(out)]) == 2
    assert json.loads(out.read_text())["criterion_1"]["passed"] is False
    assert main(["acceptance", "--seed", "7"]) == 2
    assert seeds == [acceptance.DEFAULT_SEED, 7]


def test_cli_import_leaves_the_acceptance_suite_unloaded():
    # only the acceptance command loads the suite and its generators
    import os
    import subprocess
    import sys
    from pathlib import Path

    import graphgames

    source = str(Path(graphgames.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")])))
    code = "import json, sys, graphgames.cli; print(json.dumps(sorted(sys.modules)))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    loaded = json.loads(run.stdout)
    assert "graphgames.cli" in loaded
    assert "graphgames.acceptance" not in loaded and "graphgames.gen" not in loaded


def test_cli_renders_dot_only_when_asked(tmp_path, capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("DOT rendered without --emit-dot")

    monkeypatch.setattr(jsonio, "arena_to_dot", refuse)
    monkeypatch.setattr(jsonio, "machine_to_dot", refuse)
    path = write(tmp_path, "parity.json", PARITY_DOC)
    assert main(["solve", path, "--out", str(tmp_path / "result.json")]) == 0
    assert not list(tmp_path.glob("*.dot"))


def test_cli_emit_dot(tmp_path, capsys):
    path = write(tmp_path, "parity.json", PARITY_DOC)
    out_path = tmp_path / "result.json"
    assert main(["solve", path, "--out", str(out_path), "--emit-dot"]) == 0
    dots = list(tmp_path.glob("*.dot"))
    assert dots and any("arena" in d.name for d in dots)
    assert "digraph" in dots[0].read_text()


def random_dot_machine(rng):
    """A machine of up to 60 sparse states over mixed vertex ids, with missing entries and any initial state."""
    vertices = rng.sample([*range(8), *(f"v{i}" for i in range(8))], rng.randint(1, 8))
    states = rng.sample(range(1000), rng.randint(1, 60))
    update, choice = {}, {}
    for q in states:
        for v in vertices:
            if rng.random() < 0.7:
                update[(v, q)] = rng.choice(states)
            if rng.random() < 0.5:
                choice[(v, q)] = rng.choice(vertices)
    return StrategyMachine("A", 10, update, choice, rng.choice(states))


def test_machine_dot_matches_the_rescanning_formula(monkeypatch):
    # the same bytes as the formula that re-sorts every choice entry once
    # per state, on 300 seeded machines and on synthesised ones; each
    # entry's sort key is worked out once, so the time grows with the
    # machine's size, not its square
    rng = random.Random(1717)
    machines = [random_dot_machine(rng) for _ in range(300)]
    for seed in range(12):
        game = random_graph_game(random.Random(seed), 6, ["A", "B", "C"], ["o1", "o2", "o3", "o4"])
        machines += synthesize_ne(game).profile.machines.values()
    assert max(len(m.states()) for m in machines) >= 50
    for i, machine in enumerate(machines):
        name = f"machine_{i}"
        assert jsonio.machine_to_dot(machine, name) == machine_to_dot_by_rescans(machine, name), i
    keys, skey = [], jsonio.skey
    monkeypatch.setattr(jsonio, "skey", lambda x: keys.append(x) or skey(x))
    big = max(machines, key=lambda m: len(m.states()))
    jsonio.machine_to_dot(big)
    assert len(keys) == len(big.choice) + len(big.update)


def test_cli_ne_then_verify_round_trip(tmp_path, capsys):
    game_path = write(tmp_path, "game.json", GAME_DOC)
    report_path = tmp_path / "report.json"
    assert main(["ne", game_path, "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    profile_path = write(tmp_path, "profile.json", {"machines": report["machines"]})
    assert main(["verify", game_path, str(profile_path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["deviation"] is None


# one player, who prefers o2 but stays at u
SINGLE_PLAYER_DOC = {
    "arena": {
        "players": ["A"],
        "vertices": [{"id": "u", "owner": "A"}, {"id": "w", "owner": "A"}],
        "edges": [["u", "u"], ["u", "w"], ["w", "w"]],
        "start": "u",
    },
    "preferences": {"A": [["o1"], ["o2"]]},
    "outcomes": {"map": [[["u"], "o1"], [["w"], "o2"]]},
}
LAZY_PROFILE = {
    "machines": {
        "A": {
            "memory_bits": 0,
            "init": 0,
            "update": [],
            "choice": [["u", 0, "u"], ["w", 0, "w"]],
        }
    }
}


def test_cli_verify_reports_deviation(tmp_path, capsys):
    game_path = write(tmp_path, "game.json", SINGLE_PLAYER_DOC)
    profile_path = write(tmp_path, "lazy.json", LAZY_PROFILE)
    assert main(["verify", game_path, str(profile_path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["player"] == "A" and out["improved_outcome"] == "o2"


def test_cli_verify_rejects_mismatched_players(tmp_path, capsys):
    game_path = write(tmp_path, "game.json", GAME_DOC)
    profile_path = write(
        tmp_path,
        "profile.json",
        {"machines": {"A": {"memory_bits": 0, "init": 0, "update": [], "choice": []}}},
    )
    assert main(["verify", game_path, str(profile_path)]) == 2


def test_cli_spe_rejects_aligned_preferences(tmp_path, capsys):
    doc = json.loads(json.dumps(GAME_DOC))
    doc["preferences"]["B"] = doc["preferences"]["A"]
    path = write(tmp_path, "aligned.json", doc)
    assert main(["spe", path]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["errors"][0]["code"] == "NotAntagonisticError"


def test_cli_pareto_ne_pattern_exit(tmp_path, capsys):
    doc = json.loads(json.dumps(GAME_DOC))
    doc["preferences"] = {
        "A": [["z"], ["y"], ["x"]],
        "B": [["x"], ["z"], ["y"]],
    }
    doc["outcomes"] = {"map": [[["u"], "x"], [["w"], "y"], [["u", "w"], "z"]]}
    path = write(tmp_path, "pattern.json", doc)
    assert main(["pareto-ne", path]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["witness"] == ["A", "B", "x", "y", "z"]


def test_cli_discretize(tmp_path, capsys):
    doc = {
        "tree": {
            "owner": "a",
            "children": [
                {"payoffs": {"a": "3/5", "b": "3/10"}},
                {"payoffs": {"a": "1/5", "b": "1"}},
            ],
        }
    }
    path = write(tmp_path, "tree.json", doc)
    assert main(["discretize", path, "--k", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["holds"] is True and out["k"] == 2


def test_cli_gallery_values(tmp_path, capsys):
    assert main(["gallery", "--depth", "10"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["stopping_values"]["10"] == "9/10"
    assert all(entry["root"] == "y" for entry in out["escape"].values())
    assert all(entry["deepest_b_exits"] for entry in out["escape"].values())
    assert out["three_leaf_ne_outcomes"] == ["z"]
    assert out["six_outcome"]["ne_outcomes"] == ["gamma", "z"]
    assert out["six_outcome"]["weakly_pareto_optimal"] == {"gamma": False, "z": False}


def test_cli_gallery_refuses_a_depth_below_three(tmp_path, capsys):
    assert main(["gallery", "--depth", "2"]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["errors"] == [
        {"code": "BadDepth", "detail": "gallery depth must be >= 3, got 2"}
    ]
    assert captured.err == ""


@pytest.mark.parametrize("depth", [jsonio.TREE_DEPTH + 1, 1000])
def test_cli_gallery_refuses_a_depth_past_the_tree_walkers_at_once(capsys, monkeypatch, depth):
    # the refusal comes before any truncation tree is built
    built = []
    monkeypatch.setattr(cli, "gallery", built.append)
    assert main(["gallery", "--depth", str(depth)]) == 2
    assert built == []
    captured = capsys.readouterr()
    assert json.loads(captured.out)["errors"] == [
        {"code": "BadDepth", "detail": f"gallery depth must be <= 300, got {depth}"}
    ]
    assert captured.err == ""


def test_cli_gallery_answers_at_the_deepest_depth(capsys):
    assert main(["gallery", "--depth", str(jsonio.TREE_DEPTH)]) == 0
    assert json.loads(capsys.readouterr().out)["stopping_values"]["300"] == "299/300"


def test_cli_every_emitted_profile_reverifies(tmp_path, capsys):
    game_path = write(tmp_path, "game.json", GAME_DOC)
    # pareto-ne report
    report_path = tmp_path / "pareto.json"
    assert main(["pareto-ne", game_path, "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    profile_path = write(tmp_path, "pp.json", {"machines": report["machines"]})
    assert main(["verify", game_path, str(profile_path)]) == 0
    # antagonistic spe profile, including the subgame check
    spe_path = tmp_path / "spe.json"
    assert main(["spe", game_path, "--out", str(spe_path)]) == 0
    assert main(["verify", game_path, str(spe_path), "--subgames"]) == 0


def test_cli_outputs_are_deterministic(tmp_path):
    game_path = write(tmp_path, "game.json", GAME_DOC)
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["ne", game_path, "--out", str(first)]) == 0
    assert main(["ne", game_path, "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_cli_deterministic_across_processes(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import graphgames

    # the child imports the same sources as this process
    source = str(Path(graphgames.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    # refusals list every violation, and name a missing recurrence set, in a fixed order
    dangling = json.loads(json.dumps(GAME_DOC))
    dangling["arena"]["edges"] += [["u", "x"], ["y", "w"], ["z", "z"]]
    ring = self_loop_ring(6, [[[f"v{i}" for i in range(6)], "o1"]])
    cases = [("ne", GAME_DOC, 0), ("guarantee", dangling, 2), ("guarantee", ring, 2)]
    for i, (command, doc, code) in enumerate(cases):
        game_path = write(tmp_path, f"game{i}.json", doc)
        outputs = []
        for hash_seed in ("1", "271828"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
            run = subprocess.run(
                [sys.executable, "-m", "graphgames.cli", command, game_path], capture_output=True, env=env
            )
            assert run.returncode == code
            outputs.append(run.stdout)
        assert outputs[0] == outputs[1]


def test_cli_guarantee_on_a_sixty_vertex_ring(tmp_path, capsys):
    # 61 recurrence sets found by descent, where a subset scan would test 2^60
    import time

    path = write(tmp_path, "ring.json", self_loop_ring(60))
    began = time.perf_counter()
    assert main(["guarantee", path]) == 0
    assert time.perf_counter() - began < 2.0
    out = json.loads(capsys.readouterr().out)
    assert len(out["A"]) == 60


def test_cli_verify_subgames_bytes_on_a_synthesized_ten_vertex_profile(tmp_path, capsys):
    # the peels of its deviation products step over most states, which lie
    # on no cycle; the witness bytes are pinned
    game = random_graph_game(random.Random(10001), 10, ["A", "B", "C"], ["o1", "o2", "o3", "o4"])
    game_path = write(tmp_path, "game.json", jsonio.graph_game_to_json(game))
    profile_path = write(tmp_path, "profile.json", jsonio.profile_to_json(synthesize_ne(game).profile))
    assert main(["verify", game_path, profile_path, "--subgames"]) == 1
    out = capsys.readouterr().out
    assert json.loads(out)["at_vertex"] == "v7"
    assert hashlib.sha256(out.encode()).hexdigest() == "da4f867436355b737e2dffaecc0317fdc3cb5e8cb3a2fa3403a6d58a5e27ceae"


def test_cli_guarantee_table(tmp_path, capsys):
    game_path = write(tmp_path, "game.json", GAME_DOC)
    assert main(["guarantee", game_path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"A", "B"}
    assert set(out["A"]) == {"u", "w"}


# --- fuzzing: no document makes the CLI fail without a structured refusal ---

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(["u", "w", "A", "B", "o1", "1/2", "zzz", ""]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
# for discretize: payoff strings past the digits a payoff may spell out,
# and payoff trees as deep as a tree may be and one level deeper
HUGE_PAYOFFS = st.sampled_from(["1e999999999", "1e20000", "-1e-5000", "9" * 5000])
DEEP_TREES = st.sampled_from([payoff_chain(250)["tree"], payoff_chain(jsonio.TREE_DEPTH + 1)["tree"]])


def json_paths(doc, prefix=()):
    """Every key path into a JSON document, the root included."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from json_paths(child, prefix + (key,))


@st.composite
def mutated(draw, doc, values=JSON_VALUES):
    """``doc`` with one subtree replaced by one of ``values``."""
    path = draw(st.sampled_from(list(json_paths(doc))))
    value = draw(values)
    return with_changes(doc, list(path), value) if path else value


FUZZ_COMMANDS = [
    ("solve", ["solve"], PARITY_DOC),
    ("solve reach", ["solve"], with_changes(PARITY_DOC, ["objective"], {"reach": ["v1"]})),
    ("solve muller", ["solve"], with_changes(PARITY_DOC, ["objective"], {"muller": [["v0"], ["v0", "v1"]]})),
    ("solve energy", ["solve"], ENERGY_PARITY_DOC),
    ("guarantee", ["guarantee"], GAME_DOC),
    ("ne", ["ne"], GAME_DOC),
    ("spe", ["spe"], GAME_DOC),
    ("pareto-ne", ["pareto-ne"], GAME_DOC),
    ("verify", ["verify"], GAME_DOC),
    ("verify --subgames", ["verify", "--subgames"], GAME_DOC),
    ("discretize", ["discretize"], PAYOFF_TREE),
]

# phrases of CPython's own exception messages, which a refusal should not pass on
CPYTHON_WORDING = ("Invalid literal", "object is not", "cannot unpack", "has no attribute", "indices must be", "unhashable")


@pytest.mark.parametrize("argv, doc", [c[1:] for c in FUZZ_COMMANDS], ids=[c[0] for c in FUZZ_COMMANDS])
def test_cli_fuzzed_documents_exit_cleanly(tmp_path, argv, doc):
    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(game=mutated(doc, JSON_VALUES | HUGE_PAYOFFS | DEEP_TREES if argv[0] == "discretize" else JSON_VALUES),
           profile=mutated(STAY_PROFILE))
    def run(game, profile):
        files = [write(tmp_path, "game.json", game)]
        if argv[0] == "verify":
            files.append(write(tmp_path, "profile.json", profile))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([argv[0], *files, *argv[1:]])
        assert code in ({0, 2, 3} | ({1} if argv[0] == "verify" else set()))
        assert err.getvalue() == ""
        payload = json.loads(out.getvalue())
        for error in payload.get("errors", []) if code in (2, 3) else ():
            # a refusal is the program's own, worded for the document
            assert not isinstance(getattr(builtins, error["code"], None), type), error
            assert not any(phrase in error["detail"] for phrase in CPYTHON_WORDING), error

    run()


# --- canonical emission and file encodings ----------------------------------


class Text(str):
    pass


class Count(int):
    def __repr__(self):
        return "Count()"


class Real(float):
    def __repr__(self):
        return "Real()"


class Items(list):
    pass


class Table(dict):
    pass


EMIT_STRINGS = st.text(
    st.characters(codec=None, categories=None) | st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "é", "\U0001f600"]),
    max_size=6,
)
EMIT_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.integers(-(2**130), 2**130)
    | st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324])
    | EMIT_STRINGS | st.builds(Text, EMIT_STRINGS) | st.builds(Count, st.integers())
    | st.builds(Real, st.floats())
)
# keys of one type sort; mixed keys, some of which do not, must raise where json raises
EMIT_KEYS = (
    st.text(max_size=3) | st.integers(-3, 3) | st.floats() | st.booleans() | st.none()
    | st.builds(Text, st.text(max_size=3)) | st.integers(-3, 3).map(Count)
)


def _emit_rows(inner):
    """Lists whose first item is a plain list, as machine tables are: rows
    empty or not, of strings and integers or of anything, then items of any
    kind, list subclasses among them."""
    row = st.lists(inner | EMIT_STRINGS | st.integers(), max_size=3)
    rows = st.builds(
        lambda head, tail: [head, *tail],
        st.lists(EMIT_STRINGS | st.integers(), max_size=3) | row,
        st.lists(row | row.map(Items) | row.map(tuple) | inner, max_size=3),
    )
    return rows | rows.map(Items) | rows.map(tuple)


def _emit_containers(inner):
    return (
        _emit_rows(inner)
        | st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple) | st.lists(inner, max_size=4).map(Items)
        | st.dictionaries(st.text(max_size=3), inner, max_size=4)
        | st.dictionaries(st.integers(-3, 3) | st.booleans() | st.floats(), inner, max_size=4)
        | st.dictionaries(EMIT_KEYS, inner, max_size=3)
        | st.dictionaries(st.text(max_size=3), inner, max_size=4).map(Table)
    )


EMIT_DOCS = st.recursive(EMIT_SCALARS, _emit_containers, max_leaves=24)
UNENCODABLE = st.sampled_from([object(), {1, 2}, b"u", Fraction(1, 2), (1, 2)])


def assert_emits_as_indented_json(obj):
    """``jsonio.dumps`` writes the standard library's canonical text, and raises TypeError where it does."""
    try:
        want = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    except TypeError:
        with pytest.raises(TypeError):
            jsonio.dumps(obj)
    else:
        assert jsonio.dumps(obj) == want


@settings(max_examples=600, deadline=None, database=None)
@given(doc=EMIT_DOCS)
def test_dumps_writes_the_bytes_of_indented_json(doc):
    assert_emits_as_indented_json(doc)


@settings(max_examples=200, deadline=None, database=None)
@given(doc=st.recursive(EMIT_SCALARS | UNENCODABLE, _emit_containers, max_leaves=12),
       key=st.sampled_from([(1,), b"k", frozenset(), "k"]))
def test_dumps_raises_type_error_where_json_does(doc, key):
    for obj in (doc, {key: doc}, [doc, {key: 0}]):
        assert_emits_as_indented_json(obj)


def test_every_command_writes_its_output_without_the_json_encoder(tmp_path, capsys, monkeypatch):
    # no output holds a float, a non-string key or anything else the
    # emitter hands to json.dumps, so every command's answer, verdict and
    # refusal is written by the emitter itself
    handed = []

    class NoEncoder:
        @staticmethod
        def dumps(obj, **kwargs):
            handed.append(obj)
            raise AssertionError("an output was handed to json.dumps")

    monkeypatch.setattr(jsonio, "json", NoEncoder)
    game = write(tmp_path, "game.json", GAME_DOC)
    lazy = write(tmp_path, "lazy.json", LAZY_PROFILE)
    single = write(tmp_path, "single.json", SINGLE_PLAYER_DOC)
    spe = str(tmp_path / "spe.json")
    pattern = with_changes(GAME_DOC, ["preferences"], {"A": [["z"], ["y"], ["x"]], "B": [["x"], ["z"], ["y"]]})
    pattern = with_changes(pattern, ["outcomes"], {"map": [[["u"], "x"], [["w"], "y"], [["u", "w"], "z"]]})
    objectives = {"parity": {"v0": 0, "v1": 1}, "muller": [["v0"], ["v0", "v1"]], "reach": ["v1"], "safe": ["v0"]}
    runs = [
        *((["solve", write(tmp_path, f"{k}.json", with_changes(PARITY_DOC, ["objective"], {k: o}))], 0)
          for k, o in objectives.items()),
        (["guarantee", game], 0),
        (["ne", game], 0),
        (["spe", game, "--out", spe], 0),
        (["pareto-ne", game], 0),
        (["verify", single, lazy], 1),
        (["verify", single, lazy, "--subgames"], 1),
        (["verify", game, spe], 0),
        (["verify", game, spe, "--subgames"], 0),
        (["gallery", "--depth", "10"], 0),
        (["discretize", write(tmp_path, "tree.json", payoff_chain(3)), "--k", "3"], 0),
        (["solve", write(tmp_path, "dead.json", with_changes(PARITY_DOC, ["arena", "edges"], [["v0", "v1"]]))], 2),
        (["pareto-ne", write(tmp_path, "pattern.json", pattern)], 3),
    ]
    for argv, code in runs:
        assert main(argv) == code, argv
        assert handed == [], argv
    out = capsys.readouterr().out
    assert '"deviation": null' in out and '"errors"' in out and '"witness"' in out


def test_parity_solve_leaves_the_successor_table_unbuilt():
    for seed in range(50):
        game = random_parity_game(random.Random(seed), 12, 12)
        doc = {"arena": jsonio.arena_to_json(game.arena), "objective": {"parity": game.objective.priority}}
        parsed = jsonio.winlose_from_json(doc)
        jsonio.dumps(jsonio.solve_result_to_json(solve(parsed)))
        assert "_succ" not in vars(parsed.arena), seed


@pytest.mark.parametrize(
    "field, value, detail",
    [
        ("vertices", 5, "arena vertices must be a list"),
        ("vertices", {"x": {"id": "x", "owner": "P0"}}, "arena vertices must be a list"),
        ("edges", "uu", "arena edges must be a list"),
        ("edges", {"v0": "v1"}, "arena edges must be a list"),
    ],
    ids=["vertices-int", "vertices-object", "edges-string", "edges-object"],
)
def test_cli_names_an_arena_field_that_is_not_a_list(tmp_path, capsys, field, value, detail):
    path = write(tmp_path, "doc.json", with_changes(PARITY_DOC, ["arena", field], value))
    assert main(["solve", path]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["errors"] == [{"code": "InvalidInputError", "detail": detail}]
    assert captured.err == ""


def _run_in_c_locale(tmp_path, argv):
    """Run the CLI in a child whose locale encoding is ASCII, with this process's sources."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import graphgames

    source = str(Path(graphgames.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONPATH=path)
    env.pop("PYTHONIOENCODING", None)
    return subprocess.run(
        [sys.executable, "-m", "graphgames.cli", *argv], capture_output=True, env=env, cwd=tmp_path
    )


def test_cli_reads_and_writes_utf8_whatever_the_locale(tmp_path, capsys):
    doc = with_changes(PARITY_DOC, ["arena", "vertices", 0, "id"], "é")
    doc["arena"]["edges"] = [["é", "é"], ["é", "v1"], ["v1", "é"], ["v1", "v1"]]
    doc["arena"]["start"] = "é"
    doc["objective"] = {"parity": {"é": 0, "v1": 1}}
    path = tmp_path / "doc.json"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    assert main(["solve", str(path)]) == 0
    expected = capsys.readouterr().out.encode("ascii")
    run = _run_in_c_locale(tmp_path, ["solve", str(path), "--out", "c.json", "--emit-dot"])
    assert (run.returncode, run.stdout, run.stderr) == (0, b"", b"")
    assert (tmp_path / "c.json").read_bytes() == expected
    assert '"é" [label="é|P0"' in (tmp_path / "c.arena.dot").read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "text, detail",
    [
        # positions are those of the text with its line ends read as "\n"
        ('{\r\n  "arena": ,\r\n}', "Expecting value: line 2 column 12 (char 13)"),
        ('{\r  "arena": ,\r}', "Expecting value: line 2 column 12 (char 13)"),
        ("[" * 100_000 + "]" * 100_000, "document nests too deeply to read"),
        ('{"arena": ' + "1" * 5000 + "}", "document has a number with too many digits to read"),
    ],
    ids=["crlf-syntax-error", "cr-syntax-error", "too-deep", "too-many-digits"],
)
def test_cli_names_what_makes_a_document_unreadable(tmp_path, capsys, text, detail):
    path = tmp_path / "doc.json"
    path.write_bytes(text.encode("utf-8"))
    assert main(["solve", str(path)]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.out)["errors"] == [{"code": "BadDocument", "detail": detail}]
    assert captured.err == ""


def test_cli_refuses_undecodable_bytes_as_a_bad_document(tmp_path):
    path = tmp_path / "doc.json"
    path.write_bytes(b'{"arena": "\xe9"}')
    run = _run_in_c_locale(tmp_path, ["solve", str(path)])
    assert run.returncode == 2
    errors = json.loads(run.stdout)["errors"]
    assert [e["code"] for e in errors] == ["BadDocument"]
    assert "can't decode byte 0xe9" in errors[0]["detail"]


# --- memoryless solve text ----------------------------------------------------

# vertex names of each kind: integers whose string order is not their
# numeric order, integers next to strings that print alike, and strings
# holding a quote, a backslash, a newline or non-ASCII text
SOLVE_IDS = {
    "str": [f"v{i}" for i in range(8)],
    "int": [10, 9, 2, 100, 1, 21, -3, 0],
    "mixed": [1, "1", 10, "10", 2, "2", -1, "-1"],
    "odd": ['x"y', "z\\n", "a\nb", "é", "中", "\U0001f600", "q\\\"", " "],
}
SOLVE_PLAYERS = [["A", "B"], [0, 1], [1, "1"], ['p"q', "é"]]


def random_solve_doc(rng):
    """A win/lose document of 1-7 vertices with a parity, reach or safe
    objective, either protagonist and now and then an energy block, whose
    product names ids that print alike would make collide; in one document
    of five a single player owns every vertex."""
    ids = rng.choice(sorted(SOLVE_IDS))
    vs = rng.sample(SOLVE_IDS[ids], rng.randint(1, 7))
    players = rng.choice(SOLVE_PLAYERS)
    only = rng.choice(players) if rng.random() < 0.2 else None
    arena = {
        "players": players,
        "vertices": [{"id": v, "owner": only if only is not None else rng.choice(players)} for v in vs],
        "edges": [[v, w] for v in vs for w in rng.sample(vs, rng.randint(1, min(3, len(vs))))],
        "start": rng.choice(vs),
    }
    kind = rng.choice(["parity", "reach", "safe"])
    if kind == "parity":
        objective = {v: rng.randint(0, 4) for v in vs}
    else:
        objective = rng.sample(vs, rng.randint(0, len(vs)))
    if ids != "mixed" and rng.random() < 0.3:
        arena["energy"] = {
            "weights": {p: {v: rng.randint(-1, 1) for v in vs} for p in players},
            "caps": {p: [rng.randint(-2, 0), rng.randint(0, 2)] for p in players},
            "priorities": {v: rng.randint(0, 3) for v in vs},
        }
    return {"arena": arena, "objective": {kind: objective}, "protagonist": rng.choice(players)}


def machine_fields(machine):
    return machine.player, machine.memory_bits, machine.update, machine.choice, machine.init


def test_memoryless_text_and_attributes_match_the_eager_result():
    # 1,500 seeded documents: the text written from the index is the text
    # of the eager result's payload, and the attributes built on read are
    # the eager result's
    rng = random.Random("memoryless text")
    seen = set()
    for i in range(1500):
        doc = random_solve_doc(rng)
        result = solve(jsonio.winlose_from_json(doc))
        eager = solve_result_by_names(result)
        want = json.dumps(jsonio.solve_result_to_json(eager), indent=2, sort_keys=True) + "\n"
        assert jsonio.memoryless_result_to_json(result) == want, i
        assert (result.win0, result.win1, result.memory_bits_used) == (eager.win0, eager.win1, 0), i
        assert machine_fields(result.strategy0) == machine_fields(eager.strategy0), i
        assert machine_fields(result.strategy1) == machine_fields(eager.strategy1), i
        seen.add(next(iter(doc["objective"])))
        seen.update({"energy"} & doc["arena"].keys())
        seen.update(name for name, region in (("no win0", result.win0), ("no win1", result.win1)) if not region)
        if not all(result.arena.owned_by(p) for p in result.players):
            seen.add("idle player")
    assert seen == {"parity", "reach", "safe", "energy", "no win0", "no win1", "idle player"}


@pytest.mark.parametrize(
    "objective", [{"parity": {"v0": 0, "v1": 1}}, {"reach": ["v1"]}, {"safe": ["v0"]}], ids=["parity", "reach", "safe"]
)
def test_memoryless_solve_builds_no_payload_region_or_machine(tmp_path, capsys, monkeypatch, objective):
    doc = with_changes(PARITY_DOC, ["objective"], objective)
    want = jsonio.dumps(jsonio.solve_result_to_json(solve(jsonio.winlose_from_json(doc))))

    def refuse(*args, **kwargs):
        raise AssertionError("called")

    for name in ("dumps", "machine_to_json", "solve_result_to_json"):
        monkeypatch.setattr(jsonio, name, refuse)
    monkeypatch.setattr(arena_module, "StrategyMachine", refuse)
    for name in ("win0", "win1", "strategy0", "strategy1"):
        monkeypatch.setattr(MemorylessResult, name, property(refuse))
    assert main(["solve", write(tmp_path, "doc.json", doc)]) == 0
    assert capsys.readouterr().out == want


def test_dot_escapes_quotes_and_backslashes_in_names():
    # x"y and z\n (a backslash, then n), owned by a and b"q: each name is
    # written inside its quotes with \ and " escaped, and the \n between a
    # machine label's choices stays a line break
    arena = make_arena(["a", 'b"q'], ['x"y', "z\\n"], [('x"y', "z\\n"), ("z\\n", 'x"y'), ("z\\n", "z\\n")],
                       {'x"y': "a", "z\\n": 'b"q'}, 'x"y')
    assert jsonio.arena_to_dot(arena) == (
        "digraph arena {\n"
        '  "x\\"y" [label="x\\"y|a", shape=doublecircle];\n'
        '  "z\\\\n" [label="z\\\\n|b\\"q", shape=circle];\n'
        '  "x\\"y" -> "z\\\\n";\n'
        '  "z\\\\n" -> "x\\"y";\n'
        '  "z\\\\n" -> "z\\\\n";\n'
        "}\n"
    )
    machine = StrategyMachine('b"q', 1, {('x"y', 0): 1}, {("z\\n", 0): 'x"y', ("z\\n", 1): "z\\n"})
    assert jsonio.machine_to_dot(machine) == (
        "digraph machine {\n"
        '  "q0" [label="q0\\nz\\\\n->x\\"y", shape=doublecircle];\n'
        '  "q1" [label="q1\\nz\\\\n->z\\\\n", shape=circle];\n'
        '  "q0" -> "q1" [label="x\\"y"];\n'
        "}\n"
    )
