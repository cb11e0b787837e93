"""The three workloads: seeded corpora of CLI operations with their checks.

A workload turns a seed into a list of ``Op``: the argv of one CLI command
run from input documents to its ``--out`` file, plus a check of that file
against an answer that does not come from the command's own code path.
``build`` writes the documents and, for ``verify``, synthesises the profiles
to check, which is why it runs inside the timed set-up.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import corpus

# Input sizes per workload.  "full" is what the benchmark measures; "smoke"
# is the smallest corpus that still runs every command of the workload.
SIZES = {
    "parity": {
        "full": {"n": (100, 150, 200), "per_n": 330},
        "smoke": {"n": (30,), "per_n": 2},
    },
    "synth": {
        # (command, vertices, players, outcomes, preference kind); the slot
        # list repeats ``rounds`` times with fresh games
        "full": {"rounds": 30},
        "smoke": {"rounds": 1, "n": (4,)},
    },
    "verify": {
        # source: (vertex counts, profiles per count)
        "full": {"spe": ((5,), 40), "ne": ((5,), 40), "random": ((5, 6), 200)},
        "smoke": {"spe": ((4,), 1), "ne": ((4,), 1), "random": ((5,), 1)},
    },
}

SYNTH_SLOTS = [
    ("guarantee", 5, 3, 4, "weak"),
    ("guarantee", 5, 2, 3, "weak"),
    ("ne", 5, 3, 4, "weak"),
    ("ne", 5, 3, 3, "weak"),
    ("ne", 5, 2, 4, "weak"),
    ("spe", 5, 2, 4, "inverse"),
    ("spe", 5, 2, 3, "inverse"),
    ("pareto-ne", 5, 3, 4, "pattern_free"),
    ("pareto-ne", 5, 2, 4, "pattern_free"),
    ("pareto-ne", 5, 3, 3, "pattern_free"),
]

@dataclass
class Op:
    label: str
    argv: list
    out: Path
    ok_codes: tuple
    check: Callable  # (exit code, parsed payload) -> problem or None


class Writer:
    """Writes documents under the work directory and hashes what it wrote.

    ``tick`` is called before every document, so that the caller can sample
    the host's speed all through the set-up.
    """

    def __init__(self, root: Path, tick: Callable):
        self.root = root
        self.hash = hashlib.sha256()
        self.tick = tick

    def put(self, name: str, doc: dict) -> str:
        self.tick()
        text = json.dumps(doc, sort_keys=True)
        path = self.root / name
        path.write_text(text)
        self.hash.update(text.encode())
        return str(path)


def load(path: str) -> dict:
    """Documents are re-read for checking, so the corpus is not held in memory."""
    return json.loads(Path(path).read_text())


def _parity_ops(rng, size, w: Writer, lib) -> list:
    ops = []
    for i in range(size["per_n"]):
        for n in size["n"]:
            doc = corpus.parity_doc(rng, n)
            label = f"solve-n{n}-{i}"
            game = w.put(f"{label}.json", doc)
            out = w.root / f"{label}.out.json"
            ops.append(Op(label, ["solve", game, "--out", str(out)], out, (0,),
                          lambda rc, payload, game=game: checks.check_parity(load(game), payload)))
    return ops


def _synth_ops(rng, size, w: Writer, lib) -> list:
    ops = []
    for r in range(size["rounds"]):
        for s, (command, n, players, outcomes, prefs) in enumerate(SYNTH_SLOTS):
            n = size.get("n", (n,))[0]
            doc = corpus.graph_game_doc(rng, n, ["A", "B", "C"][:players], outcomes, prefs)
            label = f"{command}-n{n}-p{players}-o{outcomes}-{r}.{s}"
            game = w.put(f"{label}.json", doc)
            out = w.root / f"{label}.out.json"
            if command == "guarantee":
                check = lambda rc, payload, game=game: checks.check_guarantee(load(game), payload)
            else:
                check = lambda rc, payload, game=game: checks.check_equilibrium(
                    load(game), payload, lib.verify_ne, lib.graph_game_from_json, lib.profile_from_json
                )
            ops.append(Op(label, [command, game, "--out", str(out)], out, (0,), check))
    return ops


def _verify_pair(w: Writer, label: str, doc: dict, profile: dict, expect_stable: tuple) -> list:
    """``verify`` and ``verify --subgames`` on one profile.

    ``expect_stable`` says, per mode, whether "no deviation" is the only
    correct verdict.  A plain witness implies a subgame witness.
    """
    game = w.put(f"{label}.json", doc)
    prof = w.put(f"{label}.profile.json", profile)
    plain_found = []

    def check(mode):
        def run(rc, payload):
            found = rc == 1
            if mode == "plain":
                plain_found.append(found)
            elif plain_found and plain_found[-1] and not found:
                return "verify found a deviation that verify --subgames missed"
            if not found:
                return None
            if expect_stable[mode == "subgames"]:
                return "deviation reported for a profile that has none"
            return checks.check_witness(load(game), load(prof), payload)
        return run

    ops = []
    for mode, extra in (("plain", []), ("subgames", ["--subgames"])):
        out = w.root / f"{label}.{mode}.out.json"
        ops.append(Op(f"verify-{mode}-{label}", ["verify", game, prof, "--out", str(out)] + extra,
                      out, (0, 1), check(mode)))
    return ops


def _verify_ops(rng, size, w: Writer, lib) -> list:
    ops = []
    for i in range(max(count for _, count in size.values())):
        for n in size["spe"][0] if i < size["spe"][1] else ():
            doc = corpus.graph_game_doc(rng, n, ["A", "B"], rng.randint(3, 4), "inverse")
            profile = lib.profile_to_json(lib.synthesize_antagonistic_spe(lib.graph_game_from_json(doc)))
            ops += _verify_pair(w, f"spe-n{n}-{i}", doc, profile, (True, True))
        for n in size["ne"][0] if i < size["ne"][1] else ():
            doc = corpus.graph_game_doc(rng, n, ["A", "B", "C"], rng.randint(3, 4), "weak")
            report = lib.synthesize_ne(lib.graph_game_from_json(doc))
            profile = lib.profile_to_json(report.profile)
            ops += _verify_pair(w, f"ne-n{n}-{i}", doc, profile, (True, False))
        for n in size["random"][0] if i < size["random"][1] else ():
            players = ["A", "B", "C"][: rng.randint(2, 3)]
            doc = corpus.graph_game_doc(rng, n, players, rng.randint(3, 4), "weak")
            profile = corpus.random_profile_doc(rng, doc["arena"], (2, 3))
            ops += _verify_pair(w, f"random-n{n}-{i}", doc, profile, (False, False))
    return ops


OPERATIONS = {"parity": _parity_ops, "synth": _synth_ops, "verify": _verify_ops}
WORKLOADS = tuple(OPERATIONS)


def build(workload: str, seed: int, scale: str, root: Path, lib, tick: Callable) -> tuple:
    """Generate, write and return ``(ops, sha256 of the documents)``.

    ``lib`` is the namespace of library functions the set-up and checks may
    call; the benchmark passes the originals so that tracing never sees them.
    ``tick`` is called before every document is written.
    """
    root.mkdir(parents=True, exist_ok=True)
    writer = Writer(root, tick)
    rng = random.Random(f"{workload}:{seed}")
    ops = OPERATIONS[workload](rng, SIZES[workload][scale], writer, lib)
    return ops, writer.hash.hexdigest()
