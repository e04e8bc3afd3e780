"""Command-line interface.

Exit codes: 0 all checks passed, 1 a verification or resource check
failed, 2 bad usage or unparseable input, 141 (128 + SIGPIPE, as a shell
reports a command stopped by a closed pipe) the reader closed standard
output before the command finished.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

from .braid import braid_closure, parse_braid, render_braid, vogel_braid
from .certify import (
    check_certificate,
    paper_certificate,
    paper_summands,
    parse_presentation,
    realize,
)
from .codes import parse_dt, pd_to_dt, realize_dt, render_dt
from .diagram import PDDiagram, pd_to_text
from .errors import InputError, InternalError, ResourceError, UnrealizableError
from .identify import KnotTableEntry, default_table, identify, load_table
from .invariants import fingerprint, knot_invariants, murasugi_bound
from .moves import connected_sum, mirror, simplify_global
from .search import SearchConfig, replay_line, run_pipeline


# ---------------------------------------------------------------------------
# input resolution
# ---------------------------------------------------------------------------


def _table_names(table: list[KnotTableEntry]) -> str:
    return ", ".join(e.name for e in table)


def _knot_by_name(token: str, table: list[KnotTableEntry]) -> PDDiagram:
    token = token.strip()
    mirrored = False
    while token.startswith("~"):
        mirrored = not mirrored
        token = token[1:].strip()
    entry = next((e for e in table if e.name == token), None)
    if entry is None:
        raise InputError(
            f"unknown knot name {token!r} (table has: {_table_names(table)})"
        )
    d = realize_dt(entry.dt)
    return mirror(d) if mirrored else d


def _knot_by_expr(expr: str, table: list[KnotTableEntry]) -> PDDiagram:
    """Resolve ``name``, ``~name`` (mirror), and ``a#b`` (connected sum)."""
    parts = expr.split("#")
    d = _knot_by_name(parts[0], table)
    for part in parts[1:]:
        d = connected_sum(d, _knot_by_name(part, table))
    return d


def _resolve_input(args, table: list[KnotTableEntry]) -> PDDiagram:
    given = [x for x in (args.dt, args.braid, args.name) if x is not None]
    if len(given) != 1:
        raise InputError("give exactly one of --dt, --braid, --name")
    if args.dt is not None:
        return realize_dt(parse_dt(args.dt))
    if args.braid is not None:
        return braid_closure(parse_braid(args.braid))
    return _knot_by_expr(args.name, table)


def _resolve_base(expr: str, table: list[KnotTableEntry]) -> PDDiagram:
    presentation = parse_presentation(expr)
    if presentation is None:
        return _knot_by_expr(expr, table)
    return realize(presentation)


def _load_table(args) -> list[KnotTableEntry]:
    if getattr(args, "table", None):
        return load_table(args.table)
    return default_table()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_convert(args) -> int:
    table = _load_table(args)
    d = _resolve_input(args, table)
    if args.to == "pd":
        text = pd_to_text(d)
        if text:
            print(text)
    elif args.to == "dt":
        print(render_dt(pd_to_dt(d)))
    else:
        print("BRAID:" + render_braid(vogel_braid(d)))
    return 0


def cmd_invariants(args) -> int:
    table = _load_table(args)
    fp = knot_invariants(_resolve_input(args, table))
    print(f"alexander: {fp.alexander.render()}")
    print(f"jones: {fp.jones.render()}")
    print(f"signature: {fp.signature:+d}")
    print(f"determinant: {fp.determinant}")
    print(f"murasugi bound: u >= {murasugi_bound(fp.signature)}")
    return 0


def cmd_simplify(args) -> int:
    table = _load_table(args)
    d = _resolve_input(args, table)
    s = simplify_global(d, budget=args.budget, seed=args.seed)
    print(f"crossings: {d.n} -> {s.n}")
    text = pd_to_text(s)
    if text:
        print(text)
    return 0


def cmd_identify(args) -> int:
    table = _load_table(args)
    d = _resolve_input(args, table)
    fp = fingerprint(d)
    print(f"fingerprint: {fp.render()}")
    matches = identify(fp, table)
    if not matches:
        print("no table match")
    for name, chirality in matches:
        print(f"match: {name} ({chirality}) [fingerprint evidence]")
    return 0


def _read_config_file(path: str) -> dict[str, str]:
    """Flat ``key=value`` lines; blank lines and # comments are skipped."""
    options: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config file: {exc}") from None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputError(f"config line {lineno} is not key=value: {line!r}")
        key, _, value = line.partition("=")
        options[key.strip()] = value.strip()
    return options


def _merge_search_config(args) -> SearchConfig:
    """Command-line flags win over the config file; ``SearchConfig`` holds
    every default.  The config keys are its field names, and so are the
    flags' destinations."""
    opts = _read_config_file(args.config) if args.config else {}
    keys = [f.name for f in fields(SearchConfig)]
    unknown = set(opts) - set(keys)
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    given = {}
    for key in keys:
        value = getattr(args, key)
        if value is None and key in opts:
            value = opts[key]
            if key != "targets":
                try:
                    value = int(value)
                except ValueError:
                    raise InputError(f"config {key}={value!r} is not an integer") from None
        if value is not None:
            given[key] = value
        elif key == "seed":
            raise InputError("search needs an explicit seed (--seed or seed= in config)")
    if "targets" in given:
        names = (t.strip() for t in given["targets"].split(","))
        given["targets"] = tuple(t for t in names if t)
    return SearchConfig(**given)


# Search options by flag: a replayed line carries its own settings.
_SEARCH_FLAGS = {
    "--seed": "seed",
    "--trials": "trials",
    "--k": "k_changes",
    "--n-backtrack": "n_backtrack",
    "--targets": "targets",
    "--config": "config",
}


def cmd_search(args) -> int:
    table = _load_table(args)
    base = _resolve_base(args.base, table)
    if args.replay is not None:
        given = [f for f, dest in _SEARCH_FLAGS.items() if getattr(args, dest) is not None]
        if given:
            raise InputError(
                f"--replay takes its settings from the line; drop {', '.join(given)}"
            )
        ok, rebuilt = replay_line(args.replay, base, table)
        print(rebuilt)
        print("replay: " + ("PASS" if ok else "FAIL"))
        return 0 if ok else 1
    cfg = _merge_search_config(args)
    names = {e.name for e in table} | {"base"}
    for target in cfg.targets:
        if target not in names:
            raise InputError(
                f"unknown target {target!r} (table has: {_table_names(table)}; "
                "base also counts)"
            )
    hits = run_pipeline(base, cfg, table, log=print)
    print(f"hits: {len(hits)} of {cfg.trials} trials")
    return 0


# ---------------------------------------------------------------------------
# the bundled verification sequence
# ---------------------------------------------------------------------------


def cmd_verify_paper(args) -> int:
    table = _load_table(args)
    print("== summands ==")
    summands_ok, lines = paper_summands(table)
    for line in lines:
        print(line)
    report = check_certificate(paper_certificate(), table, log=print)
    print(report.summary())
    if summands_ok and report.passed and report.bound == 5:
        print("bound: u(7_1 # mirror 7_1) <= 5")
        return 0
    print("bound not established")
    return 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dt", help="DT code, e.g. 'DT:[4, 6, 2]'")
    p.add_argument("--braid", help="braid word, e.g. 'BRAID:[1, 1, 1]'")
    p.add_argument(
        "--name",
        help="table knot expression; ~ mirrors, # composes (e.g. '7_1#~7_1')",
    )
    p.add_argument("--table", help="path to a knot table file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gordian",
        description="exact knot-diagram computations and unknotting bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="re-express a knot in another format")
    _add_input_args(p)
    p.add_argument("--to", choices=("pd", "dt", "braid"), required=True)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("invariants", help="print the exact invariants")
    _add_input_args(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("simplify", help="shrink a diagram by Reidemeister moves")
    _add_input_args(p)
    p.add_argument("--budget", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_simplify)

    p = sub.add_parser("identify", help="match a knot against the table")
    _add_input_args(p)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser(
        "verify-paper",
        help="re-verify the bundled unknotting chain for 7_1 # mirror 7_1",
    )
    p.add_argument("--table", help="path to a knot table file")
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("search", help="randomized crossing-change search")
    p.add_argument("--base", required=True, help="name expression, DT:..., or BRAID:...")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument(
        "--k", type=int, dest="k_changes", metavar="K", help="crossing changes per trial"
    )
    p.add_argument("--n-backtrack", type=int)
    p.add_argument(
        "--targets", help="comma-separated table names (or base) that count as hits"
    )
    p.add_argument("--config", help="flat key=value file with search settings")
    p.add_argument("--table", help="path to a knot table file")
    p.add_argument("--replay", help="re-verify one search log line")
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        # Flush here, so a closed pipe fails inside this try and not in
        # the interpreter's own flush at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Python's documented recipe: point stdout at the null device, so
        # nothing is left to fail when the interpreter flushes it at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE; see the module docstring
    except (InputError, UnrealizableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
