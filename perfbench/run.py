"""End-to-end benchmark of gordian's user-facing commands.

Run from the repository root, one workload per process:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 40 --trace 0
    for w in paper search invariants; do python3 perfbench/run.py --workload $w; done

Workloads (each runs in this one fresh, single-threaded process):

- ``paper``: ``gordian verify-paper``, the headline claim path.  It has no
  inputs, so the seed is unused.  Its ops are the five transcript
  sections (steps 1 to 4 and the certificate).
- ``search``: ``gordian search`` on the README base braid, search seed 7,
  10 trials, 2 crossing changes, default scramble length.  Its ops are
  the trials.  The search seed is pinned: a trial's cost depends on the
  size its candidate simplifies to, and one trial in eight costs 10 to
  40 s where the median trial costs 1 s, so a 10-trial search re-seeded
  per run would vary several-fold from seed to seed.
- ``invariants``: ``gordian invariants`` once per input: the five bundled
  non-trivial knots, ``7_1#~7_1`` (20 crossings), T(2,19) as a 2-strand
  braid, and one random 5-strand 18-letter knot braid made from the seed.
  Every input has at most 22 crossings, so the command never simplifies.
  BENCHMARK.json leaves this workload out: with set-up, a steady run of
  each of three workloads does not fit the time the whole benchmark may
  take.  Run it by hand to see the bracket alone, on narrow and wide
  diagrams.

A run first sets up (imports gordian and builds the default table), then
repeats whole passes of the workload until the next pass would end after
``--seconds``; it always makes at least one.  Every pass is checked
against ``reference.json``, recorded from this benchmark's parent commit,
and against identities that hold for every knot's invariants.

``--trace 0`` prints the end-to-end metrics: set-up time (median of this
process and two more fresh interpreters), the median pass time, ops per
second, and peak resident memory after set-up and one pass.  Each op's
time is printed too, but is not a metric: a single op of about a second
varies by a fifth from run to run on a shared machine.  ``--trace 1`` runs one untraced and
one traced pass and prints per-layer metrics from spans recorded around
the package's functions (see ``tracer.py``).

The last line of output is one JSON object: correct, attempted, failed,
metrics.  Skipped search trials count as failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = ("paper", "search", "invariants")

BASE_BRAID = "BRAID:[1,-4,2,3,3,3,2,3,2,2,4,-3,-3,-3,-3,-1,-3,-2,-3,-3]"
SEARCH_SEED = 7
SEARCH_TRIALS = 10
SEARCH_ARGV = [
    "search", "--base", BASE_BRAID, "--seed", str(SEARCH_SEED),
    "--trials", str(SEARCH_TRIALS), "--k", "2",
]
NAMED_INPUTS = ("7_1", "10_139", "K14a18636", "K15n81556", "K12n412", "7_1#~7_1")
TORUS_INPUT = "BRAID:[" + ",".join(["1"] * 19) + "]"
WIDE_STRANDS = 5
WIDE_LETTERS = 18
PAPER_CLOSING = [
    "certificate: PASS, total crossing changes = 5",
    "bound: u(7_1 # mirror 7_1) <= 5",
]

SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import gordian\n"
    "gordian.default_table()\n"
    "print(time.perf_counter() - t)\n"
)
FRESH_SETUPS = 2  # plus this process's own set-up

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# metric -> (phase, layer, statistic of tracer.Tracer.layer_stats)
PER_LAYER = {
    name: tuple(entry["source"])
    for name, entry in json.loads((HERE / "layers.json").read_text())["per_layer"].items()
    if entry["source"] is not None
}
TRACE_METRICS = ("trace.job_s", "trace.untraced_job_s", "trace.overhead_s", "trace.unwrapped")


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _is_knot_closure(letters: list[int], strands: int) -> bool:
    perm = list(range(strands))
    for x in letters:
        i = abs(x) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen, j = 0, 0
    while True:
        j = perm[j]
        seen += 1
        if j == 0:
            return seen == strands


def wide_braid(seed: int) -> str:
    """A random knot braid on WIDE_STRANDS strands, made from ``seed`` alone."""
    rng = random.Random(seed)
    while True:
        letters = [
            rng.choice((1, -1)) * rng.randint(1, WIDE_STRANDS - 1)
            for _ in range(WIDE_LETTERS)
        ]
        if _is_knot_closure(letters, WIDE_STRANDS):
            return "BRAID:[" + ",".join(str(x) for x in letters) + "]"


def invariant_inputs(seed: int) -> list[tuple[str, list[str]]]:
    """(label, command line) for each input of the invariants workload."""
    out = [(name, ["invariants", "--name", name]) for name in NAMED_INPUTS]
    out.append(("T(2,19)", ["invariants", "--braid", TORUS_INPUT]))
    out.append(("wide", ["invariants", "--braid", wide_braid(seed)]))
    return out


# ---------------------------------------------------------------------------
# running the program
# ---------------------------------------------------------------------------


class _LineClock:
    """A stdout replacement that stamps each completed line with its time."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.times: list[float] = []
        self._partial = ""

    def write(self, text: str) -> int:
        self._partial += text
        while "\n" in self._partial:
            line, self._partial = self._partial.split("\n", 1)
            self.lines.append(line)
            self.times.append(time.perf_counter())
        return len(text)

    def flush(self) -> None:
        pass

    def close(self) -> None:
        if self._partial:
            self.write("\n")


@dataclass
class Call:
    rc: int | str
    start: float
    end: float
    lines: list[str]
    times: list[float]
    stderr: str


def run_cli(argv: list[str]) -> Call:
    """``gordian.cli.main(argv)`` in this process, output captured."""
    from gordian import cli

    out, err = _LineClock(), _LineClock()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc: int | str = cli.main(argv)
    except Exception:  # a crash is a failed op, reported, not fatal to the run
        rc = "exception"
        err.write(traceback.format_exc())
    end = time.perf_counter()
    out.close()
    err.close()
    return Call(rc, start, end, out.lines, out.times, "\n".join(err.lines))


@dataclass
class Op:
    label: str
    seconds: float
    ok: bool


@dataclass
class Pass:
    wall: float = 0.0
    ops: list[Op] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)


def _sections(call: Call, prefix: str) -> list[tuple[str, float, list[str]]]:
    """Split a call's output at lines starting with ``prefix``; time each part
    from its header line to the next."""
    marks = [i for i, line in enumerate(call.lines) if line.startswith(prefix)]
    out = []
    for k, i in enumerate(marks):
        j = marks[k + 1] if k + 1 < len(marks) else None
        end = call.times[j] if j is not None else call.end
        out.append((call.lines[i], end - call.times[i], call.lines[i:j]))
    return out


def paper_pass(ref: dict, seed: int) -> Pass:
    p = Pass()
    call = run_cli(["verify-paper"])
    p.wall = call.end - call.start
    for header, seconds, lines in _sections(call, "== "):
        p.ops.append(Op(header, seconds, not any("FAIL" in s for s in lines)))
    if call.rc != 0:
        p.problems.append(f"verify-paper exit code {call.rc}: {call.stderr}")
    if call.lines[-2:] != PAPER_CLOSING:
        p.problems.append(f"verify-paper closing lines: {call.lines[-2:]}")
    if len(p.ops) != 5:
        p.problems.append(f"verify-paper printed {len(p.ops)} sections, not 5")
    return p


def search_pass(ref: dict, seed: int) -> Pass:
    p = Pass()
    call = run_cli(SEARCH_ARGV)
    p.wall = call.end - call.start
    expected = ref["search"][:-1]
    prev = call.start
    for i, (line, stamp) in enumerate(zip(call.lines, call.times)):
        if line.startswith("hits: "):
            break
        trouble = checks.search_line(line, expected[i] if i < len(expected) else None)
        p.problems.extend(f"trial {i}: {t}" for t in trouble)
        ok = not trouble and " skip(" not in line
        p.ops.append(Op(f"trial {i}", stamp - prev, ok))
        prev = stamp
    if call.rc != 0:
        p.problems.append(f"search exit code {call.rc}: {call.stderr}")
    last = call.lines[-1] if call.lines else ""
    if len(p.ops) != SEARCH_TRIALS or not last.endswith(f" of {SEARCH_TRIALS} trials"):
        p.problems.append(f"search printed {len(p.ops)} trial lines")
    return p


def invariants_pass(ref: dict, seed: int) -> Pass:
    p = Pass()
    start = time.perf_counter()
    for label, argv in invariant_inputs(seed):
        call = run_cli(argv)
        if label == "wide":
            expected = ref["wide"].get(str(seed))  # else identity checks only
        else:
            expected = ref["invariants"][label]
        trouble = checks.invariants_block(call.lines, expected)
        if call.rc != 0:
            trouble.append(f"exit code {call.rc}: {call.stderr}")
        p.problems.extend(f"{label}: {t}" for t in trouble)
        p.ops.append(Op(label, call.end - call.start, not trouble))
    p.wall = time.perf_counter() - start
    return p


PASSES = {"paper": paper_pass, "search": search_pass, "invariants": invariants_pass}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def fresh_setup_seconds(root: Path) -> float:
    """Import plus table build in a new interpreter, timed inside it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        cwd=root, env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def machine(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "gordian").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "networkx": importlib.metadata.version("networkx"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "GORDIAN_BACKEND": os.environ.get("GORDIAN_BACKEND"),
        "source_sha256": digest.hexdigest()[:16],
    }


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def report(text: str) -> None:
    print(text, flush=True)


def end_to_end(workload, seed, seconds, root, ref) -> tuple[dict, list[Pass]]:
    t = time.perf_counter()
    import gordian

    gordian.default_table()
    setups = [time.perf_counter() - t]
    setups += [fresh_setup_seconds(root) for _ in range(FRESH_SETUPS)]
    report(f"setup samples (s): {', '.join(f'{s:.3f}' for s in setups)}")

    passes: list[Pass] = []
    begin = time.perf_counter()
    while True:
        passes.append(PASSES[workload](ref, seed))
        if len(passes) == 1:
            # Later passes only add allocator growth, and their number
            # depends on the machine's speed.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elapsed = time.perf_counter() - begin
        if elapsed + passes[-1].wall > seconds:
            break
    ops = [op for p in passes for op in p.ops]
    values = {
        "setup_s": statistics.median(setups),
        "job_s": statistics.median(p.wall for p in passes),
        "ops_per_s": len(ops) / sum(p.wall for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }
    return {k: (v, END_TO_END[k]) for k, v in values.items()}, passes


def per_layer(workload, seed, ref) -> tuple[dict, list[Pass]]:
    import gordian
    import gordian.cli  # noqa: F401  (binds traced functions; wrap those too)

    tracer = Tracer()
    tracer.phase = "setup"
    tracer.install()
    unwrapped = tracer.unwrapped()
    gordian.default_table()
    tracer.uninstall()

    untraced = PASSES[workload](ref, seed)
    tracer.phase = "job"
    tracer.install()
    traced = PASSES[workload](ref, seed)
    tracer.uninstall()

    stats = {"job": tracer.layer_stats("job"), "setup": tracer.layer_stats("setup")}
    metrics = {}
    for name, (phase, layer, stat) in PER_LAYER.items():
        value = stats[phase].get(layer, {}).get(stat, 0)
        metrics[name] = (value, "s" if stat in ("s", "self_s") else "count")
    metrics["trace.job_s"] = (traced.wall, "s")
    metrics["trace.untraced_job_s"] = (untraced.wall, "s")
    metrics["trace.overhead_s"] = (traced.wall - untraced.wall, "s")
    metrics["trace.unwrapped"] = (len(unwrapped), "count")
    for binding in unwrapped:
        report(f"unwrapped binding: {binding}")
    if unwrapped:
        traced.problems.append(f"{len(unwrapped)} gordian bindings left unwrapped")
    for layer, st in sorted(stats["job"].items(), key=lambda kv: -kv[1]["self_s"]):
        report(
            f"layer {layer:12s} calls {int(st['calls']):6d}  self {st['self_s']:8.3f} s"
            f"  ({100 * st['self_s'] / traced.wall:5.1f} % of the traced job)"
        )
    return metrics, [untraced, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "gordian" / "__init__.py").is_file():
        print(f"error: no gordian sources under {root / 'src'}; "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    ref = load_reference()
    report("machine: " + json.dumps(machine(root), sort_keys=True))
    if args.trace:
        metrics, passes = per_layer(args.workload, args.seed, ref)
    else:
        metrics, passes = end_to_end(args.workload, args.seed, args.seconds, root, ref)
    for i, p in enumerate(passes):
        report(f"pass {i}: {p.wall:.3f} s; " + "; ".join(
            f"{op.label} {op.seconds:.3f}" + ("" if op.ok else " FAILED") for op in p.ops
        ))
        for problem in p.problems:
            report(f"pass {i} problem: {problem}")
    for name, (value, unit) in metrics.items():
        report(f"{name}: {value:.6g} {unit}")
    correct = not any(p.problems for p in passes)
    ops = [op for p in passes for op in p.ops]
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(not op.ok for op in ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
