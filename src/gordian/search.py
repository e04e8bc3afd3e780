"""Randomized search for knots one or more crossing changes away from a base.

Each trial scrambles the base diagram with random Reidemeister moves, turns
the scramble into a braid, flips ``k_changes`` random braid letters, and
fingerprints the result.  Everything is driven by per-trial seeds derived
from the configured seed, so a run is reproducible letter for letter and
any hit can be replayed from its log line alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .braid import BraidWord, parse_braid, render_braid, vogel_braid
from .certify import realize
from .diagram import PDDiagram, parse_int_list
from .errors import InputError, ResourceError
from .identify import KnotTableEntry, default_table, identify
from .invariants import Fingerprint, fingerprint
from .moves import backtrack_randomize


@dataclass(frozen=True)
class SearchConfig:
    seed: int
    trials: int = 1
    k_changes: int = 1
    n_backtrack: int = 30
    targets: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in ("trials", "k_changes", "n_backtrack"):
            value = getattr(self, name)
            if value < 0:
                raise InputError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class SearchHit:
    trial: int
    seed: int
    braid: BraidWord  # the braid before any letters were flipped
    flips: tuple[int, ...]
    result: str
    fingerprint: Fingerprint


def _trial_seed(seed: int, trial: int) -> int:
    return (seed * 1_000_003 + trial) % 2**31


def _compact(text: str) -> str:
    return text.replace(" ", "")


def _result_token(
    matches: list[tuple[str, str]], fp: Fingerprint, base_fp: Fingerprint
) -> str:
    if matches:
        return ";".join(
            name if chirality == "as-listed" else f"{name}(mirror)"
            for name, chirality in matches
        )
    if fp == base_fp:
        return "base"
    return "?"


def _hit_line(
    trial: int, seed: int, braid: BraidWord, flips, result: str, fp_text: str
) -> str:
    flip_text = "[" + ",".join(str(i) for i in flips) + "]"
    return (
        f"{trial} {seed} {_compact(render_braid(braid))} "
        f"{flip_text} {result} {fp_text}"
    )


def evaluate_candidate(
    braid: BraidWord,
    flips,
    base_fp: Fingerprint,
    table: list[KnotTableEntry],
) -> tuple[str, Fingerprint]:
    """Flip the given letters, close the braid, and name the outcome.

    The outcome depends on the braid and the flips alone: the fingerprint
    walk takes no seed, so a log line replays without its trial's seed.
    """
    fp = fingerprint(realize(braid, flips))
    return _result_token(identify(fp, table), fp, base_fp), fp


def _is_hit(result: str, cfg: SearchConfig) -> bool:
    """A hit is a result the table identifies, or ``base``.

    With targets, only a result that names one of them is a hit.
    """
    if cfg.targets:
        names = {token.split("(")[0] for token in result.split(";")}
        return bool(names & set(cfg.targets))
    return result != "?"


def run_pipeline(
    base: PDDiagram,
    cfg: SearchConfig,
    table: list[KnotTableEntry] | None = None,
    log=None,
) -> list[SearchHit]:
    """Run all trials; emit one log line per trial via ``log``; return hits.

    A trial that hits a resource limit (Vogel braiding past s^2 pushes on
    s Seifert circles, a braid with too few letters to flip, or a bracket
    frontier past ``MAX_FRONTIER_STATES``) is skipped, not fatal: the log
    line carries the error type and the search moves on.
    """
    if table is None:
        table = default_table()
    base_fp = fingerprint(base)
    hits: list[SearchHit] = []
    for trial in range(cfg.trials):
        tseed = _trial_seed(cfg.seed, trial)
        rng = random.Random(tseed)
        try:
            scramble = backtrack_randomize(base, cfg.n_backtrack, seed=tseed)
            braid = vogel_braid(scramble)
            if cfg.k_changes > len(braid):
                raise ResourceError(
                    f"braid has only {len(braid)} letters, "
                    f"cannot flip {cfg.k_changes}"
                )
            flips = tuple(sorted(rng.sample(range(len(braid)), cfg.k_changes)))
            result, fp = evaluate_candidate(braid, flips, base_fp, table)
        except ResourceError as exc:
            if log is not None:
                log(f"{trial} {tseed} - - skip({type(exc).__name__}) -")
            continue
        if log is not None:
            log(_hit_line(trial, tseed, braid, flips, result, fp.render()))
        if _is_hit(result, cfg):
            hits.append(SearchHit(trial, tseed, braid, flips, result, fp))
    return hits


def replay_line(
    line: str,
    base: PDDiagram,
    table: list[KnotTableEntry] | None = None,
) -> tuple[bool, str]:
    """Recompute a log line from its braid and flips.

    This is the one replay path.  The trial and seed fields are carried
    over as written: they chose the braid and the flips, which the line
    already states.  Returns (verdict, recomputed line); the verdict is
    True only when the recomputation reproduces the line byte for byte.
    A malformed line, one whose flips do not strictly increase as
    ``search`` writes them, or a ``skip(...)`` line, which records no braid,
    raises ``InputError``.
    """
    if table is None:
        table = default_table()
    fields = line.split()
    if len(fields) != 6:
        raise InputError(f"a hit line has 6 fields, got {len(fields)}")
    trial_text, seed_text, braid_text, flip_text, result_text, _ = fields
    if result_text.startswith("skip("):
        raise InputError("a skipped trial records no braid to replay")
    try:
        trial, seed = int(trial_text), int(seed_text)
    except ValueError as exc:
        raise InputError(f"bad trial or seed in {line!r}") from exc
    braid = parse_braid(braid_text)
    flips = parse_int_list(flip_text, "flip indices")
    if any(a >= b for a, b in zip(flips, flips[1:])):
        raise InputError(f"flip indices must strictly increase, got {flip_text!r}")
    result, fp = evaluate_candidate(braid, flips, fingerprint(base), table)
    rebuilt = _hit_line(trial, seed, braid, flips, result, fp.render())
    return rebuilt == line.strip(), rebuilt
