"""Command-line interface.

Exit codes: 0 success, 1 a verification found a profitable deviation,
2 invalid input or any other failure (reported as a structured error
payload, or for ``acceptance`` in its verdicts), 3 the Pareto-blocking
preference pattern is present.
Documents are read and written as UTF-8, whatever the locale.  Outputs
are canonical JSON so identical inputs give byte-identical files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import jsonio
from .arena import DEFAULT_PRODUCT_BOUND
from .equilibria import (
    antagonistic_pair,
    muller_pareto_ne,
    synthesize_antagonistic_spe,
    synthesize_ne,
    verify_ne,
    verify_spe,
)
from .errors import InvalidArenaError, PatternPresentError
from .extensive import epsilon_grid_game, gallery
from .guarantees import guarantee_table
from .orders import require_linear_pattern_free
from .winlose import MemorylessResult, solve as solve_winlose


def _read_json(path: str):
    """The JSON document at ``path``, read as UTF-8 whatever the locale.

    The bytes are decoded in one go.  A text-mode read would also turn
    CR LF and lone CR line ends into LF, which changes no parse but moves
    the positions a syntax error names, so a refusal is worded on that text.
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            return json.loads(text.replace("\r\n", "\n").replace("\r", "\n"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InvalidArenaError([("BadDocument", str(exc))]) from exc
    except RecursionError:
        raise InvalidArenaError([("BadDocument", "document nests too deeply to read")]) from None
    except ValueError:  # an integer literal past the interpreter's limit on decimal digits
        raise InvalidArenaError([("BadDocument", "document has a number with too many digits to read")]) from None


def _write_file(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, whatever the locale, in one binary write."""
    with open(path, "wb") as fh:
        fh.write(text.encode("utf-8"))


def _write(payload: dict, args) -> None:
    _write_text(jsonio.dumps(payload), args)


def _write_text(text: str, args) -> None:
    if args.out:
        _write_file(args.out, text)
    else:
        sys.stdout.write(text)


def _write_dot(name: str, render, subject, args) -> None:
    """Write ``render(subject)`` as a DOT file; rendered only under ``--emit-dot``."""
    if not args.emit_dot:
        return
    base = Path(args.out).with_suffix("") if args.out else Path(name)
    _write_file(f"{base}.{name}.dot", render(subject))


def _error_payload(exc: Exception) -> dict:
    if isinstance(exc, InvalidArenaError):
        return {"errors": [{"code": c, "detail": d} for c, d in exc.errors]}
    return {"errors": [{"code": type(exc).__name__, "detail": str(exc)}]}


def _graph_game(args):
    return jsonio.graph_game_from_json(_read_json(args.game), args.max_product_states)


def cmd_solve(args) -> int:
    game = jsonio.winlose_from_json(_read_json(args.game), args.max_product_states)
    result = solve_winlose(game, max_product_states=args.max_product_states)
    if isinstance(result, MemorylessResult):
        _write_text(jsonio.memoryless_result_to_json(result), args)
    else:
        _write(jsonio.solve_result_to_json(result), args)
    _write_dot("arena", jsonio.arena_to_dot, game.arena, args)
    if args.emit_dot:  # a memoryless result builds its machines only here
        _write_dot("strategy0", jsonio.machine_to_dot, result.strategy0, args)
        _write_dot("strategy1", jsonio.machine_to_dot, result.strategy1, args)
    return 0


def cmd_guarantee(args) -> int:
    game = _graph_game(args)
    table = guarantee_table(game, args.max_product_states)
    _write(jsonio.table_to_json(table), args)
    _write_dot("arena", jsonio.arena_to_dot, game.arena, args)
    return 0


def _emit_report(report, args) -> None:
    _write(jsonio.report_to_json(report), args)
    for p in report.profile.players():
        _write_dot(f"machine_{p}", jsonio.machine_to_dot, report.profile.machines[p], args)


def cmd_ne(args) -> int:
    game = _graph_game(args)
    _emit_report(synthesize_ne(game, guarantee_table(game, args.max_product_states)), args)
    return 0


def cmd_spe(args) -> int:
    game = _graph_game(args)
    antagonistic_pair(game)  # refuse unfit preferences before the table is built
    profile = synthesize_antagonistic_spe(game, guarantee_table(game, args.max_product_states))
    _write(jsonio.profile_to_json(profile), args)
    for p in profile.players():
        _write_dot(f"machine_{p}", jsonio.machine_to_dot, profile.machines[p], args)
    return 0


def cmd_pareto_ne(args) -> int:
    game = _graph_game(args)
    require_linear_pattern_free(game.prefs)  # before the table is built
    _emit_report(muller_pareto_ne(game, guarantee_table(game, args.max_product_states)), args)
    return 0


def cmd_verify(args) -> int:
    game = _graph_game(args)
    profile = jsonio.profile_from_json(_read_json(args.profile))
    if args.subgames:
        vertex, witness = verify_spe(game, profile, args.max_product_states) or (None, None)
    else:
        witness = verify_ne(game, profile, max_product_states=args.max_product_states)
    if witness is None:
        _write({"deviation": None}, args)
        return 0
    payload = jsonio.witness_to_json(witness)
    if args.subgames:
        payload["at_vertex"] = str(vertex)
    _write(payload, args)
    return 1


def cmd_discretize(args) -> int:
    tree = jsonio.tree_from_json(_read_json(args.game))
    index_game, result, cert = epsilon_grid_game(tree, args.k)
    _write(
        {
            "index_game": jsonio.tree_to_json(index_game),
            "profile": {".".join(map(str, path)): i for path, i in sorted(cert.choices.items())},
            "k": cert.k,
            "holds": cert.holds,
            "max_gain": {str(p): str(g) for p, g in cert.max_gain.items()},
            "statement": cert.statement(),
        },
        args,
    )
    return 0


def cmd_gallery(args) -> int:
    if args.depth < 3:
        raise InvalidArenaError([("BadDepth", f"gallery depth must be >= 3, got {args.depth}")])
    if args.depth > jsonio.TREE_DEPTH:  # deeper truncation trees outgrow the recursive tree walkers
        raise InvalidArenaError([("BadDepth", f"gallery depth must be <= {jsonio.TREE_DEPTH}, got {args.depth}")])
    _write(gallery(args.depth), args)
    return 0


def cmd_acceptance(args) -> int:
    from . import acceptance  # here, so no other command loads the suite and its generators

    results = acceptance.run_all(seed=acceptance.DEFAULT_SEED if args.seed is None else args.seed)
    if args.out:
        payload = {
            f"criterion_{r.number}": {"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results
        }
        _write_file(args.out, jsonio.dumps(payload))
    return 0 if all(r.passed for r in results) else 2


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


# Every argument a command may take; each command lists the ones it reads.
ARGUMENTS = {
    "game": dict(help="input JSON document"),
    "profile": dict(help="profile JSON document"),
    "--out": dict(help="write the result JSON here instead of stdout"),
    "--emit-dot": dict(action="store_true", help="also write DOT graphs"),
    "--max-product-states": dict(
        type=positive_int, default=DEFAULT_PRODUCT_BOUND,
        help="bound on every product and on recurrence sets",
    ),
    "--subgames": dict(action="store_true", help="check every reachable configuration"),
    "--k": dict(type=int, default=2, help="grid resolution"),
    "--depth": dict(type=int, default=10, help="deepest truncation reported"),
    "--seed": dict(type=int, help="seed of the random instances"),
}
_SYNTHESIS = ("game", "--out", "--emit-dot", "--max-product-states")

# (name, handler, help, arguments the handler reads)
COMMANDS = (
    ("solve", cmd_solve, "solve a two-player win/lose game",
     ("game", "--out", "--emit-dot", "--max-product-states")),
    ("guarantee", cmd_guarantee, "best guarantee of every player at every vertex", _SYNTHESIS),
    ("ne", cmd_ne, "synthesize a Nash equilibrium", _SYNTHESIS),
    ("spe", cmd_spe, "synthesize an antagonistic subgame-perfect profile", _SYNTHESIS),
    ("pareto-ne", cmd_pareto_ne, "synthesize a Pareto-optimal Nash equilibrium", _SYNTHESIS),
    ("verify", cmd_verify, "check a profile for profitable deviations",
     ("game", "profile", "--out", "--subgames", "--max-product-states")),
    ("discretize", cmd_discretize, "grid-discretize a payoff tree", ("game", "--out", "--k")),
    ("gallery", cmd_gallery, "counterexample gallery report", ("--out", "--depth")),
    ("acceptance", cmd_acceptance, "run the acceptance criteria", ("--out", "--seed")),
)


@functools.cache
def _parsers() -> tuple:
    """The command-line parser and its commands' own parsers by name, built once."""
    parser = argparse.ArgumentParser(
        prog="graphgames",
        description="Solve, synthesize and verify multi-player games on finite graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text, arguments in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for arg in arguments:
            p.add_argument(arg, **ARGUMENTS[arg])
        p.set_defaults(fn=fn)
    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused by later ones."""
    return _parsers()[0]


def parse_args(argv=None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, by the named command's own parser where it can.

    When ``argv`` starts with a command's name, that command's parser
    reads the rest alone, as the full parser would hand it on.  Anything
    else, and anything it leaves over, goes through the full parser, so
    every usage, help and error text is argparse's own.
    """
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not rest:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        return args.fn(args)
    except PatternPresentError as exc:
        payload = _error_payload(exc)
        payload["witness"] = [str(x) for x in exc.witness]
        sys.stdout.write(jsonio.dumps(payload))
        return 3
    except Exception as exc:  # a failure no check names is still a refusal, not a traceback
        sys.stdout.write(jsonio.dumps(_error_payload(exc)))
        return 2


if __name__ == "__main__":
    sys.exit(main())
