"""Acceptance gate: the eight headline checks, one test and verdict line each.

Run with ``pytest -v``: the PASSED/FAILED status of each
``test_criterion_*`` entry is the per-criterion verdict line; each test
also prints an explicit ``criterion N PASS/FAIL`` line (visible with -s,
-rA, or on failure).
"""

import random
import time

import pytest

from gordian import certify
from gordian.braid import BraidWord, braid_closure, vogel_braid
from gordian.certify import (
    BASE_BRAID,
    adjacency_certificate_10_139,
    check_certificate,
    composed_torus_bound,
    paper_certificate,
    torus_cascade_certificate,
)
from gordian.cli import main
from gordian.codes import flip_entries, parse_dt, pd_to_dt, realize_dt
from gordian.errors import InputError
from gordian.identify import BUNDLED_CODES, default_table
from gordian.invariants import (
    alexander,
    determinant,
    fingerprint,
    jones,
    murasugi_bound,
    seifert_matrix,
    signature,
)
from gordian.laurent import LaurentPoly
from gordian.moves import (
    apply_move,
    connected_sum,
    deconnect_sum,
    find_moves,
    mirror,
    sample_increasing_move,
    simplify_global,
)
from gordian.search import SearchConfig, evaluate_candidate, run_pipeline
from tests.conftest import int_det, random_knot_diagram, two_edge_cut_split


class _verdict:
    """Prints one criterion PASS/FAIL line no matter how the block exits."""

    def __init__(self, n: int, text: str):
        self.n, self.text = n, text

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.n} {status}: {self.text}", flush=True)
        return False


@pytest.fixture(scope="module")
def table():
    return default_table()


def test_criterion_1_end_to_end_replay_establishes_bound_5(capsys):
    with _verdict(1, "verify-paper passes end-to-end with bound 5"):
        start = time.monotonic()
        code = main(["verify-paper"])
        elapsed = time.monotonic() - start
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip().endswith("bound: u(7_1 # mirror 7_1) <= 5")
        assert "certificate: PASS, total crossing changes = 5" in out
        assert elapsed < 300, f"took {elapsed:.1f}s"


def test_criterion_2_summand_recovery(table):
    with _verdict(2, "base closure splits into two 7-crossing mirror 7_1s"):
        d = braid_closure(BASE_BRAID)
        s = simplify_global(d, seed=0)
        parts = deconnect_sum(s)
        assert len(parts) == 2
        assert all(p.n <= 7 for p in parts)
        alex = [alexander(p) for p in parts]
        assert alex[0] == alex[1]
        sigs = [signature(p) for p in parts]
        assert sorted(sigs) == [-6, 6]
        assert [determinant(p) for p in parts] == [7, 7]
        # independent determinant oracle: Seifert matrix of standard T(2,7)
        v = seifert_matrix(BraidWord.from_letters((1,) * 7, 2))
        sym = [
            [v[i][j] + v[j][i] for j in range(len(v))] for i in range(len(v))
        ]
        assert abs(int_det(sym)) == 7


def test_criterion_3_identification_chain(table):
    with _verdict(3, "braid->KA, KB=KC, KC@6=KD code, KE unknots"):
        flipped = braid_closure(
            BraidWord.from_letters(
                [-x if i in (0, 1) else x for i, x in enumerate(BASE_BRAID.letters)]
            )
        )
        ka = parse_dt(dict(BUNDLED_CODES)["K14a18636"])
        fp_flipped = fingerprint(flipped)
        fp_ka = fingerprint(realize_dt(ka))
        assert fp_flipped == fp_ka or fp_flipped == fp_ka.mirrored()
        kb = flip_entries(ka, {0})
        kc = parse_dt("DT:[4, 12, -24, 14, 18, 2, 20, 26, 8, 10, -28, -30, 16, -6, -22]")
        assert fingerprint(realize_dt(kb)) == fingerprint(realize_dt(kc))
        kd_expected = parse_dt(dict(BUNDLED_CODES)["K12n412"])
        kd = flip_entries(kc, {6})
        assert kd == kd_expected
        ke = flip_entries(kd, {13})
        d_ke = realize_dt(ke)
        assert jones(d_ke) == LaurentPoly.one()
        assert simplify_global(d_ke, seed=0).n == 0


def test_criterion_4_murasugi_and_torus_arithmetic(table):
    with _verdict(4, "u(7_1) = 3: murasugi_bound(T(2,7)) = 3 and a 3-change certificate"):
        t27 = BraidWord.from_letters((1,) * 7, 2)
        assert murasugi_bound(t27) == 3
        (entry,) = [e for e in table if e.name == "7_1"]
        assert murasugi_bound(entry.fingerprint.signature) == 3
        report = check_certificate(certify._unknotting_certificate_7_1(), table)
        assert report.passed and report.bound == 3


def test_criterion_5_cascade_and_composed_certificates(table):
    with _verdict(5, "10_139 adjacency, torus cascades, composed bounds"):
        report = check_certificate(adjacency_certificate_10_139(), table)
        assert report.passed and report.bound == 1
        for k in (4, 5):
            report = check_certificate(torus_cascade_certificate(k), table)
            assert report.passed and report.bound == k - 3
        for k in (3, 4, 5):
            for l in (3, 4, 5):
                assert composed_torus_bound(k, l, table) == k + l - 1


def test_criterion_6_property_suites():
    with _verdict(6, "R-moves x200, mirrors x50, sums x30, DT x100, Vogel x50"):
        rng = random.Random(1234)

        # R-move fingerprint invariance on 200 diagrams of <= 12 crossings.
        for _ in range(200):
            d = random_knot_diagram(rng, max_crossings=12)
            fp = fingerprint(d)
            for _ in range(3):
                grouped = find_moves(d)
                kinds = [k for k, ms in grouped.items() if ms]
                if kinds and rng.random() < 0.6:
                    move = rng.choice(grouped[rng.choice(kinds)])
                else:
                    move = sample_increasing_move(d, rng)
                if move is None:
                    break
                nxt = apply_move(d, move)
                if nxt.n > 16:
                    continue
                d = nxt
                assert fingerprint(d) == fp

        # Mirror laws on 50 diagrams.
        for _ in range(50):
            d = random_knot_diagram(rng, max_crossings=10)
            m = mirror(d)
            assert signature(m) == -signature(d)
            assert jones(m) == jones(d).reverse()
            assert alexander(m) == alexander(d)

        # Connected-sum multiplicativity/additivity on 30 pairs.
        for _ in range(30):
            a = random_knot_diagram(rng, max_crossings=7)
            b = random_knot_diagram(rng, max_crossings=7)
            s = connected_sum(a, b)
            assert alexander(s) == alexander(a) * alexander(b)
            assert jones(s) == jones(a) * jones(b)
            assert signature(s) == signature(a) + signature(b)

        # DT round-trip up to mirror on 100 diagrams <= 12 crossings, or a
        # refusal where two or more summands have 3 or more crossings each.
        done = 0
        while done < 100:
            d = random_knot_diagram(rng, max_crossings=12)
            if sum(part.n >= 3 for part in two_edge_cut_split(d)) >= 2:
                done += 1
                with pytest.raises(InputError):
                    pd_to_dt(d)
                continue
            code = pd_to_dt(d)
            if code.n == 0:
                continue
            done += 1
            fd = fingerprint(d)
            fr = fingerprint(realize_dt(code))
            assert fd == fr or fd == fr.mirrored()

        # Vogel round-trip fingerprint preservation on 50 diagrams.
        for _ in range(50):
            d = random_knot_diagram(rng, max_crossings=10)
            assert fingerprint(braid_closure(vogel_braid(d))) == fingerprint(d)


def test_criterion_7_search_determinism(table):
    with _verdict(7, "byte-identical logs, k=0 self-identifies, replayed hit"):
        base = braid_closure(BASE_BRAID)
        cfg = SearchConfig(seed=11, trials=5, k_changes=0)
        log_a: list = []
        log_b: list = []
        hits_a = run_pipeline(base, cfg, table, log=log_a.append)
        hits_b = run_pipeline(base, cfg, table, log=log_b.append)
        assert log_a == log_b and log_a
        assert hits_a == hits_b
        assert len(hits_a) == cfg.trials  # 100% of k=0 trials self-identify
        assert all(h.result == "base" for h in hits_a)
        result, _fp = evaluate_candidate(
            BASE_BRAID, (0, 1), fingerprint(base), table
        )
        assert result == "K14a18636"


def test_criterion_8_performance():
    with _verdict(8, "Jones of the 20-crossing base diagram in < 60 s"):
        d = braid_closure(BASE_BRAID)
        assert d.n == 20
        start = time.monotonic()
        value = jones(d)
        elapsed = time.monotonic() - start
        assert value == jones(simplify_global(d, seed=0))
        assert elapsed < 60, f"took {elapsed:.1f}s"
        # The companion budget (full suite < 15 minutes) is read off the
        # pytest summary of the same run that executed this test.
        print(f"jones on 20 crossings took {elapsed:.2f}s", flush=True)
