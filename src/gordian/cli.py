"""Command-line interface.

Exit codes: 0 all checks passed, 1 a verification or resource check
failed, 2 bad usage or unparseable input.
"""

from __future__ import annotations

import argparse
import sys

from .braid import braid_closure, flip_letters, parse_braid, render_braid, vogel_braid
from .certify import BASE_BRAID, check_certificate, paper_certificate
from .codes import flip_entries, parse_dt, pd_to_dt, realize_dt, render_dt
from .diagram import PDDiagram, pd_to_text
from .errors import InputError, ResourceError, UnrealizableError
from .identify import (
    KnotTableEntry,
    default_table,
    identify,
    load_table,
    same_knot_evidence,
)
from .invariants import (
    alexander,
    determinant,
    fingerprint,
    jones,
    murasugi_bound,
    signature,
    wirtinger,
)
from .moves import connected_sum, deconnect_sum, mirror, simplify_global
from .search import SearchConfig, replay_line, run_pipeline


# ---------------------------------------------------------------------------
# input resolution
# ---------------------------------------------------------------------------


def _knot_by_name(token: str, table: list[KnotTableEntry]) -> PDDiagram:
    token = token.strip()
    mirrored = False
    while token.startswith("~"):
        mirrored = not mirrored
        token = token[1:].strip()
    entry = next((e for e in table if e.name == token), None)
    if entry is None:
        known = ", ".join(e.name for e in table)
        raise InputError(f"unknown knot name {token!r} (table has: {known})")
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
    if expr.startswith("DT:"):
        return realize_dt(parse_dt(expr))
    if expr.startswith("BRAID:"):
        return braid_closure(parse_braid(expr))
    return _knot_by_expr(expr, table)


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
    d = _resolve_input(args, table)
    print(f"alexander: {alexander(d).render()}")
    print(f"jones: {jones(d).render()}")
    sig = signature(d)
    print(f"signature: {sig:+d}")
    print(f"determinant: {determinant(d)}")
    print(f"murasugi bound: u >= {murasugi_bound(sig)}")
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
    fp = fingerprint(d, budget=args.budget)
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
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise InputError(f"config line {lineno} is not key=value: {line!r}")
            key, _, value = line.partition("=")
            options[key.strip()] = value.strip()
    allowed = {
        "seed",
        "trials",
        "k_changes",
        "n_backtrack",
        "max_crossings_for_id",
        "targets",
    }
    unknown = set(options) - allowed
    if unknown:
        raise InputError(f"unknown config keys: {sorted(unknown)}")
    return options


def _merge_search_config(args) -> SearchConfig:
    """Command-line flags win over the config file, which wins over defaults."""
    opts = _read_config_file(args.config) if args.config else {}

    def pick(cli_value, key: str, default, cast=int):
        if cli_value is not None:
            return cli_value
        if key in opts:
            return cast(opts[key])
        return default

    seed = pick(args.seed, "seed", None)
    if seed is None:
        raise InputError("search needs an explicit seed (--seed or seed= in config)")
    targets_text = pick(args.targets, "targets", "", str)
    return SearchConfig(
        seed=seed,
        trials=pick(args.trials, "trials", 1),
        k_changes=pick(args.k, "k_changes", 1),
        n_backtrack=pick(args.n_backtrack, "n_backtrack", 30),
        max_crossings_for_id=pick(args.max_id, "max_crossings_for_id", 16),
        targets=tuple(t for t in targets_text.split(",") if t),
    )


def cmd_search(args) -> int:
    table = _load_table(args)
    base = _resolve_base(args.base, table)
    if args.replay is not None:
        ok, rebuilt = replay_line(args.replay, base, table)
        print(rebuilt)
        print("replay: " + ("PASS" if ok else "FAIL"))
        return 0 if ok else 1
    cfg = _merge_search_config(args)
    hits = run_pipeline(base, cfg, table, log=print)
    print(f"hits: {len(hits)} of {cfg.trials} trials")
    return 0


# ---------------------------------------------------------------------------
# the bundled verification sequence
# ---------------------------------------------------------------------------

_KA = "DT:[4, -16, 24, 26, 18, 20, 28, 22, -2, 10, 12, 30, 6, 8, 14]"
_KC = "DT:[4, 12, -24, 14, 18, 2, 20, 26, 8, 10, -28, -30, 16, -6, -22]"


def _bare(code) -> str:
    return "[" + ", ".join(str(e) for e in code.entries) + "]"


def _claim(fp, expected: str, table, label: str, lines: list[str]) -> bool:
    matches = identify(fp, table)
    for name, chirality in matches:
        if name == expected:
            lines.append(f"{label}: {name} ({chirality}) [fingerprint evidence]")
            return True
    found = ", ".join(f"{n} ({c})" for n, c in matches) or "no table match"
    lines.append(f"{label}: FAIL, expected {expected} but found {found}")
    return False


def _equal_check(fa, fb, label: str, lines: list[str]) -> bool:
    ev = same_knot_evidence(fa, fb)
    lines.append(f"check: {label}: {ev.verdict} (fingerprint evidence)")
    if not ev.passed:
        for name, left, right in ev.comparisons:
            if left != right:
                lines.append(f"  mismatched {name}: {left} != {right}")
    return ev.passed


def _step_1(table) -> tuple[bool, list[str]]:
    lines = ["First braid word (for L) is", render_braid(BASE_BRAID)]
    d = braid_closure(BASE_BRAID)
    s = simplify_global(d, seed=0)
    lines.append(f"closure of L has {d.n} crossings; simplified to {s.n}")
    parts = sorted(deconnect_sum(s), key=lambda p: p.n)
    lines.append(
        "summands of the closure, by crossing count: "
        f"{[p.n for p in parts]}"
    )
    ok = [p.n for p in parts] == [7, 7]
    if not ok:
        lines.append("check: expected two 7-crossing summands: FAIL")
        return False, lines
    fps = []
    for i, p in enumerate(parts, start=1):
        fp = fingerprint(p)
        fps.append(fp)
        ok &= _claim(fp, "7_1", table, f"summand {i}", lines)
        wp = wirtinger(p)
        lines.append(
            f"knot group of summand {i}: {len(wp.generators)} generators, "
            f"{len(wp.relators)} relators, abelianized rank "
            f"{wp.abelianized_rank()}"
        )
    ev = same_knot_evidence(fps[0], fps[1])
    mirror_pair = fps[0] == fps[1].mirrored() and fps[0] != fps[1]
    lines.append(
        "check: the summands are mirror partners: "
        + ("PASS" if mirror_pair else f"FAIL ({ev.verdict})")
    )
    ok &= mirror_pair
    return ok, lines


def _step_2(table) -> tuple[bool, list[str]]:
    la = flip_letters(BASE_BRAID, (0, 1))
    lines = ["Second braid word (for LA) is", render_braid(la)]
    fp_la = fingerprint(braid_closure(la))
    ok = _claim(fp_la, "K14a18636", table, "LA", lines)
    ka = parse_dt(_KA)
    lines += ["DT code for KA is", _bare(ka)]
    fp_ka = fingerprint(realize_dt(ka))
    ok &= _equal_check(fp_la, fp_ka, "closure of LA matches KA", lines)
    kb = flip_entries(ka, {0})
    lines += ["DT code for KB (KA with crossing 0 changed) is", _bare(kb)]
    ok &= _claim(fingerprint(realize_dt(kb)), "K15n81556", table, "KB", lines)
    return ok, lines


def _step_3(table) -> tuple[bool, list[str]]:
    kb = flip_entries(parse_dt(_KA), {0})
    kc = parse_dt(_KC)
    lines = ["DT code for KC is", _bare(kc)]
    fp_kc = fingerprint(realize_dt(kc))
    ok = _claim(fp_kc, "K15n81556", table, "KC", lines)
    ok &= _equal_check(
        fingerprint(realize_dt(kb)), fp_kc, "KB matches KC", lines
    )
    kd = flip_entries(kc, {6})
    lines += ["DT code for KD (KC with crossing 6 changed) is", _bare(kd)]
    ok &= _claim(fingerprint(realize_dt(kd)), "K12n412", table, "KD", lines)
    return ok, lines


def _step_4(table) -> tuple[bool, list[str]]:
    kd = flip_entries(parse_dt(_KC), {6})
    ke = flip_entries(kd, {13})
    lines = ["DT code for KE (KD with crossing 13 changed) is", _bare(ke)]
    d = realize_dt(ke)
    s = simplify_global(d, seed=0)
    lines.append(f"KE simplifies from {d.n} crossings to {s.n}")
    ok = s.n == 0
    if not ok:
        lines.append("check: KE reduces to the 0-crossing diagram: FAIL")
        return False, lines
    wp = wirtinger(s)
    gens = ", ".join(wp.generators)
    lines.append(
        f"knot group of KE: generators {gens}; relators: "
        + (f"{len(wp.relators)}" if wp.relators else "(none)")
    )
    ok &= _claim(fingerprint(d), "unknot", table, "KE", lines)
    return ok, lines


_STEPS = {1: _step_1, 2: _step_2, 3: _step_3, 4: _step_4}


def cmd_verify_paper(args) -> int:
    table = _load_table(args)
    if args.step is not None:
        ok, lines = _STEPS[args.step](table)
        for line in lines:
            print(line)
        print(f"step {args.step}: " + ("PASS" if ok else "FAIL"))
        return 0 if ok else 1
    all_ok = True
    for n in (1, 2, 3, 4):
        print(f"== step {n} ==")
        ok, lines = _STEPS[n](table)
        for line in lines:
            print(line)
        all_ok &= ok
    print("== certificate ==")
    report = check_certificate(paper_certificate(), table)
    print(report.render())
    all_ok &= report.passed and report.bound == 5
    if all_ok:
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
    p.add_argument("--budget", type=int, default=2000)
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser(
        "verify-paper",
        help="re-verify the bundled unknotting chain for 7_1 # mirror 7_1",
    )
    p.add_argument("--table", help="path to a knot table file")
    p.add_argument("--step", type=int, choices=(1, 2, 3, 4))
    p.set_defaults(func=cmd_verify_paper)

    p = sub.add_parser("search", help="randomized crossing-change search")
    p.add_argument("--base", required=True, help="name expression, DT:..., or BRAID:...")
    p.add_argument("--seed", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--k", type=int, help="crossing changes per trial")
    p.add_argument("--n-backtrack", type=int)
    p.add_argument("--max-id", type=int)
    p.add_argument("--targets", help="comma-separated table names that count as hits")
    p.add_argument("--config", help="flat key=value file with search settings")
    p.add_argument("--table", help="path to a knot table file")
    p.add_argument("--replay", help="re-verify one search log line")
    p.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, UnrealizableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
