"""Record the reference outputs that ``run.py`` compares against.

Run from the repository root, on the commit the references should pin:

    python3 perfbench/record.py --wide-seeds 100

It writes ``perfbench/reference.json``: the ``invariants`` block of every
fixed input, of the random wide braid for seeds 0 .. N-1, and the search
log.  Each recorded output must already pass the identity checks.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--wide-seeds", type=int, default=100)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path.cwd() / "src"))

    ref: dict = {"invariants": {}, "wide": {}}
    for label, argv_ in run.invariant_inputs(0):
        if label != "wide":
            ref["invariants"][label] = run.run_cli(argv_).lines
    for seed in range(args.wide_seeds):
        ref["wide"][str(seed)] = run.run_cli(run.invariant_inputs(seed)[-1][1]).lines
    ref["search"] = run.run_cli(run.SEARCH_ARGV).lines

    # Recorded outputs must pass the same gates, minus the comparison.
    problems = []
    for block in list(ref["invariants"].values()) + list(ref["wide"].values()):
        problems += run.checks.invariants_block(block, None)
    for line in ref["search"][:-1]:
        problems += run.checks.search_line(line, None)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
