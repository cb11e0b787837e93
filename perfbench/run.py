"""Seeded benchmark of the graphgames command line, run in process.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload parity --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Each operation is one ``graphgames.cli.main(argv)`` call from input
documents to its canonical ``--out`` file.  The corpus of a workload is
generated from ``--seed`` and run round after round, one command at a
time, until ``--seconds`` have gone by and every operation ran once.  Every
output is then checked (see ``checks.py``), and the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.
Timings are scaled to a nominal host speed measured beside every command
(see ``reference.py``).
The benchmark changes no machine setting: no cache drops, CPU pinning or
cgroups.  See README.md in this directory for the workloads and metrics.
"""

import time

PROCESS_START = time.perf_counter()

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path

import reference
import spans
import workloads

HASH_SEED = "0"
SETUP_REPEATS = 3
SETUP_REFS = 10  # reference samples on each side of one set-up
# untimed commands before the timed phase: the first commands of a process
# grow its heap and specialise the interpreter's code, which later ones reuse
WARMUP_S = 2.0
TAIL_BEYOND = 10
PERCENTILES = (99.9, 99.0, 90.0, 50.0)
WORK_DIR = ".perfbench_work"
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"),
                        help="one workload, or all of them, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at minimal size, traced and untraced")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return args


def load_library(root: Path):
    """Import the checkout's ``graphgames`` afresh and keep its original functions."""
    src = root / "src"
    if not (src / "graphgames" / "__init__.py").is_file():
        sys.exit(f"perfbench: no graphgames sources under {src}; run from the repository root")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m.split(".")[0] == "graphgames"]:
        del sys.modules[name]
    from graphgames import cli, equilibria, jsonio

    return types.SimpleNamespace(
        cli=cli,
        graph_game_from_json=jsonio.graph_game_from_json,
        profile_from_json=jsonio.profile_from_json,
        profile_to_json=jsonio.profile_to_json,
        synthesize_antagonistic_spe=equilibria.synthesize_antagonistic_spe,
        synthesize_ne=equilibria.synthesize_ne,
        verify_ne=equilibria.verify_ne,
    )


def run_op(cli, op, probe):
    """One timed command: ``(seconds, exit code or error text, output bytes,
    index of the latest reference sample in probe)``."""
    op.out.unlink(missing_ok=True)
    # every command starts with empty young generations, as in a fresh process,
    # so its collector work does not depend on the commands before it
    gc.collect()
    ref = probe.tick()
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured):
            code = cli.main(op.argv)
    except (Exception, SystemExit) as exc:  # a raising command is a failed operation
        code = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    data = op.out.read_bytes() if op.out.exists() else captured.getvalue().encode()
    return elapsed, code, data, ref


class Phase:
    """Runs over the corpus in order, round after round, closed loop, one
    command at a time.

    ``run`` goes on until ``seconds`` have gone by and every operation has
    run once; the last round may stop part way.  ``step`` runs one command.
    """

    def __init__(self, cli, ops, tracer=None):
        self.timeline = []     # (op index, seconds, reference sample index) in run order
        self.probe = reference.Probe()
        self.first = []        # (exit code, sha256 of bytes, error text) per op, first run
        self.unstable = set()  # ops whose bytes changed between runs
        self.wall = 0.0
        self._cli, self._ops, self._tracer = cli, ops, tracer

    def step(self):
        i = len(self.timeline) % len(self._ops)
        op = self._ops[i]
        if self._tracer is not None:
            self._tracer.active = True
        try:
            elapsed, code, data, ref = run_op(self._cli, op, self.probe)
        finally:
            if self._tracer is not None:
                self._tracer.active = False
        sha = hashlib.sha256(data).hexdigest()
        if len(self.timeline) < len(self._ops):
            error = "" if code in op.ok_codes else " ".join(data.decode(errors="replace").split())
            self.first.append((code, sha, error[:200]))
        elif self.first[i][1] != sha:
            self.unstable.add(i)
        self.timeline.append((i, elapsed, ref))

    def run(self, seconds):
        start = time.perf_counter()
        while time.perf_counter() - start < seconds or len(self.timeline) < len(self._ops):
            self.step()
        self.wall = time.perf_counter() - start
        return self

    def rounds(self):
        return len(self.timeline) / len(self._ops)

    def scaled(self):
        """``(per-op lists of scaled seconds, sum of raw seconds, median host
        speed as nominal over measured reference time)``."""
        factors = reference.scales(self.probe.refs)
        per_op = [[] for _ in self._ops]
        for i, elapsed, ref in self.timeline:
            per_op[i].append(elapsed * factors[ref])
        raw = sum(elapsed for _, elapsed, _ in self.timeline)
        return per_op, raw, statistics.median(factors)

    def digest(self, ops):
        h = hashlib.sha256()
        for op, (code, sha, _) in zip(ops, self.first):
            h.update(f"{op.label}\t{code}\t{sha}\n".encode())
        return h.hexdigest()


def check_outputs(ops, phase):
    """``(failed op indices, wrong-answer problems)``.

    Every run of an op wrote the same bytes unless it is in ``phase.unstable``,
    so the ``--out`` file left by its last run stands for all of them.
    """
    failed, wrong = {}, []
    for i, (op, (code, _, error)) in enumerate(zip(ops, phase.first)):
        problem = None
        if i in phase.unstable:
            problem = "output bytes differ between runs"
            wrong.append(f"{op.label}: {problem}")
        elif code not in op.ok_codes:
            problem = f"exit {code}: {error}"
        else:
            try:
                problem = op.check(code, json.loads(op.out.read_bytes()))
            except Exception as exc:  # a check that cannot read the output rejects it
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem is not None:
                wrong.append(f"{op.label}: {problem}")
        if problem is not None:
            failed[i] = problem
    return failed, wrong


def tail(values):
    """``(value, percentile)``: the highest of ``PERCENTILES`` that still has
    at least ``TAIL_BEYOND`` operations above it (nearest-rank)."""
    ordered = sorted(values)
    for pct in PERCENTILES:
        rank = math.ceil(pct / 100 * len(ordered))
        if len(ordered) - rank >= TAIL_BEYOND:
            return ordered[rank - 1], pct
    return ordered[-1], 100.0


def measure(workload, seed, seconds, trace, scale, root, started):
    """Run one workload; return ``(result JSON object, report lines)``.

    Set-up (importing the library and building the corpus) is repeated
    ``SETUP_REPEATS`` times; ``setup_s`` is the time from ``started`` to the
    first set-up plus the median set-up, each scaled by the reference
    samples taken on both sides of its set-up and between its documents.
    """
    work = root / WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    try:
        before = time.perf_counter() - started
        builds, factors = [], []
        hashes = set()
        for _ in range(SETUP_REPEATS):
            probe = reference.Probe()
            probe.refs += reference.samples(SETUP_REFS)
            start = time.perf_counter()
            lib = load_library(root)
            ops, written = workloads.build(workload, seed, scale, work, lib, probe.tick)
            elapsed = time.perf_counter() - start
            probe.refs += reference.samples(SETUP_REFS)
            factor = reference.NOMINAL_S / statistics.median(probe.refs)
            builds.append(elapsed * factor)
            factors.append(factor)
            hashes.add(written)
        if len(hashes) != 1:
            raise RuntimeError("corpus generation is not deterministic")
        # the library and the corpus stay alive all run: keep them out of
        # the collections the commands trigger
        gc.collect()
        gc.freeze()
        setup_s = before * factors[0] + statistics.median(builds)

        lines = [f"workload {workload}  seed {seed}  operations per round {len(ops)}  "
                 f"hash seed {os.environ.get('PYTHONHASHSEED')}"]
        warm, end = reference.Probe(), time.perf_counter() + WARMUP_S
        for op in ops:
            if time.perf_counter() >= end:
                break
            run_op(lib.cli, op, warm)
        if trace:
            # each command runs untraced and traced back to back, so that both
            # runs see the same host speed; which goes first alternates, as
            # the second run of a command finds its input in the caches
            tracer = spans.Tracer()
            plain, traced = Phase(lib.cli, ops), Phase(lib.cli, ops, tracer)

            def traced_step():
                tracer.install()
                try:
                    traced.step()
                finally:
                    tracer.uninstall()

            start = time.perf_counter()
            while time.perf_counter() - start < seconds / 2 or len(plain.timeline) < len(ops):
                steps = (plain.step, traced_step)
                for step in steps if len(plain.timeline) % 2 == 0 else steps[::-1]:
                    step()
            plain.wall = time.perf_counter() - start
            phase = plain
        else:
            phase = Phase(lib.cli, ops).run(seconds=seconds)
        failed, wrong = check_outputs(ops, phase)
        digest = phase.digest(ops)
        if trace and traced.digest(ops) != digest:
            wrong.append("outputs differ with tracing on")
        # every later run of an operation must write the bytes of its first,
        # so the counts are of the corpus and do not depend on the run length
        attempted = len(ops)
    finally:
        gc.unfreeze()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            (root / WORK_DIR).rmdir()

    lines.append(f"rounds {phase.rounds():.2f}  timed phase {phase.wall:.3f} s  digest sha256:{digest}")
    for i, problem in sorted(failed.items()):
        lines.append(f"failed {ops[i].label}: {problem}")
    lines.append(f"failed_ops_frac {len(failed) / attempted:.6f} ratio  "
                 f"({len(failed)} of {attempted} operations)")
    if trace:
        # the same commands with and without tracing, in scaled seconds so
        # that a change of host speed between the two is not read as overhead
        plain_s, traced_s = (sum(map(sum, p.scaled()[0])) for p in (plain, traced))
        overhead = traced_s - plain_s
        values = tracer.metrics(overhead, overhead / plain_s)
        units = dict(spans.METRICS)
        absent = tracer.absent()
        lines.append(f"tracing overhead {overhead:.3f} s on {plain_s:.3f} s untraced (scaled)")
        lines.append("absent, reported as 0: " + (", ".join(absent) or "none"))
    else:
        scaled, raw, speed = phase.scaled()
        # each operation counts once, at the median of its runs, whatever
        # part of the last round the time allowed
        per_op = [statistics.median(lat) for lat in scaled]
        tail_s, tail_pct = tail(per_op)
        values = {
            "setup_s": setup_s,
            "ops_per_s": len(per_op) / sum(per_op),
            "op_p50_ms": 1000 * statistics.median(per_op),
            "op_tail_ms": 1000 * tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        beyond = len(per_op) - math.ceil(tail_pct / 100 * len(per_op))
        lines.append(f"op_tail_ms is p{tail_pct:g} over {len(per_op)} operations "
                     f"(each the median of its runs), {beyond} above it")
        lines.append(f"host speed {speed:.3f} of nominal (median), unscaled ops_per_s "
                     f"{len(phase.timeline) / raw:.6g} 1/s, unscaled setup "
                     f"{before + statistics.median(b / f for b, f in zip(builds, factors)):.6g} s")
    for name, value in values.items():
        lines.append(f"{name} {value:.6g} {units[name]}")
    for problem in wrong:
        lines.append(f"WRONG {problem}")
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    return result, lines


def smoke(root):
    """Every workload at minimal size: all metric names, same digest traced or not."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    ok = True
    for workload in workloads.WORKLOADS:
        digests = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result, lines = measure(workload, 1, 0.0, trace, "smoke", root, time.perf_counter())
            print("\n".join(lines))
            names = {m["name"] for m in spec[key]}
            missing = names - set(result["metrics"])
            extra = set(result["metrics"]) - names
            digests[trace] = next(l for l in lines if "digest" in l).split("digest ")[1]
            if missing or extra or not result["correct"]:
                ok = False
                print(f"SMOKE FAIL {workload} trace {trace}: missing {sorted(missing)} "
                      f"extra {sorted(extra)} correct {result['correct']}")
        if digests[0] != digests[1]:
            ok = False
            print(f"SMOKE FAIL {workload}: digest differs with tracing on")
    print("smoke ok" if ok else "smoke FAILED")
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # fixed string hashing so two runs iterate sets in the same order
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    root = Path.cwd()
    if args.smoke:
        return smoke(root)
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for workload in workloads.WORKLOADS
        ]
        return max(codes)
    result, lines = measure(args.workload, args.seed, args.seconds, args.trace, "full", root,
                            PROCESS_START)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
