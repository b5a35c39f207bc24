"""Acceptance gate: nine numbered criteria over the fixed default corpus.

Each criterion maps to one test (5 and 7 split into a strict part and a
logged part). A terminal summary hook prints one PASS/FAIL line per
criterion at the end of the run. The strict checks 5a and 7a assert the
exact statements that hold on every graph (the k=1 gap between thm2iii
and acdp5; regularity of every exact == cor2 instance) and pin the
corpus rows where the narrower regular-only claims fail, so drift in
either set fails a test. README.md discusses both.
"""

import hashlib
import math
import time
from fractions import Fraction

import pytest

from kforcing.bounds import thm2iii_value
from kforcing.cli import main
from kforcing.corpus import default_corpus, circulant_corpus
from kforcing.exact import exact_f_k, worker_count
from kforcing.forcing import closure, closure_mask
from kforcing.generators import FamilySpec, generate
from kforcing.graph import build_graph
from kforcing.rng import SplitMix64
from kforcing.verify import report_csv, report_json, run_corpus

from oracles import async_closure


@pytest.fixture(scope="session")
def default_run():
    start = time.perf_counter()
    report = run_corpus(default_corpus())
    return report, time.perf_counter() - start


@pytest.fixture(scope="session")
def circulant_report():
    return run_corpus(circulant_corpus())


# sha256 of (report_csv, report_json) for the two built-in corpora.  The
# reports are deterministic, so any change here is a change in some answer
# or in the report format.
REPORT_SHA256 = {
    "default": (
        "a43a0c9d407e967bf38f1a8f7b811691067fa1b564bce0c13c55f10f72dc8c3d",
        "33ae3099c64ff4bed041e584dd11b026c33a7243faaf9fd9fe7cc82bbcf69c8d",
    ),
    "circulant": (
        "2e9c195e11b1497619cafd0d73388219bd7da4ad63eb1e1d3b5726a5c2a8fe03",
        "75592a93bb0d0dd01fe0216a2235d452ed09d7da1f6b77b3d82042be7244a80b",
    ),
}


def test_report_bytes_pinned(default_run, circulant_report):
    for name, report in (("default", default_run[0]), ("circulant", circulant_report)):
        digests = tuple(
            hashlib.sha256(render(report).encode()).hexdigest()
            for render in (report_csv, report_json)
        )
        assert digests == REPORT_SHA256[name], name


def test_criterion_1_single_vertex_suffices_when_Delta_le_k(default_run):
    report, _ = default_run
    rows = [r for r in report.rows if r.Delta <= r.k]
    assert rows, "corpus must exercise the Delta <= k case"
    for row in rows:
        assert row.exact == 1, row.graph_id
        assert row.greedy_size == 1, row.graph_id
    covered = {(r.family, r.k) for r in rows}
    assert any(fam == "cycle" and k >= 2 for fam, k in covered)
    assert any(fam == "path" and k >= 2 for fam, k in covered)
    # cubic graphs at k=3
    assert any(r.Delta == 3 and r.k == 3 for r in rows)


def test_criterion_2_theorem2_i_ii_values(default_run):
    report, _ = default_run
    case_i = [r for r in report.rows if r.delta < r.Delta == r.k + 1]
    case_ii = [r for r in report.rows if r.delta == r.Delta == r.k + 1]
    assert case_i and case_ii
    for row in case_i:
        assert row.exact == 1 and row.greedy_size == 1, row.graph_id
    for row in case_ii:
        assert row.exact == 2 and row.greedy_size == 2, row.graph_id
    assert any(r.family == "cycle" and r.k == 1 for r in case_ii)
    assert any(r.Delta == 3 and r.k == 2 for r in case_ii)  # cubic at k=2


def test_criterion_3_sandwich_on_default_corpus(default_run):
    report, elapsed = default_run
    rows = [r for r in report.rows if r.Delta >= r.k + 2]
    assert rows
    violations = []
    for row in rows:
        bound = row.values["thm2iii"]
        assert bound is not None, row.graph_id
        lo = row.exact if row.exact is not None else row.exact_lower
        if not (lo <= row.greedy_size <= math.floor(bound)):
            violations.append((row.graph_id, row.k, lo, row.greedy_size, bound))
    assert not violations, violations
    families = {r.family for r in report.rows}
    assert families == {
        "path", "cycle", "complete", "complete_bipartite", "circulant",
        "hypercube", "petersen", "random_regular", "gnp_connected",
    }
    assert sum(1 for e in default_corpus().entries if e.spec.family == "random_regular") == 20
    assert sum(1 for e in default_corpus().entries if e.spec.family == "gnp_connected") == 20
    assert elapsed < 600, f"corpus run took {elapsed:.1f}s"


def test_criterion_4_spot_values(default_run):
    report, _ = default_run
    pet_row = next(r for r in report.rows if r.graph_id == "petersen" and r.k == 1)
    assert pet_row.exact == 5
    for n in range(5, 9):
        g = generate(FamilySpec("complete", (n,)))
        for k in range(1, n):
            assert exact_f_k(g, k).f_k == n - k, (n, k)
    pet = generate(FamilySpec("petersen", ()))
    assert thm2iii_value(pet, 1) == Fraction(12, 2) == Fraction(6)


# The k=1 rows where thm2iii and acdp5 differ: exactly the corpus's
# irregular graphs with Delta >= 3.
K1_IDENTITY_GAPS = frozenset({
    "complete_bipartite_1_4", "complete_bipartite_2_3", "complete_bipartite_2_5",
    "complete_bipartite_3_4", "complete_bipartite_6_7",
    "gnp_connected_8_0.3_s201", "gnp_connected_8_0.4_s202", "gnp_connected_8_0.5_s203",
    "gnp_connected_9_0.3_s204", "gnp_connected_9_0.4_s205", "gnp_connected_9_0.5_s206",
    "gnp_connected_10_0.3_s207", "gnp_connected_10_0.4_s208", "gnp_connected_10_0.5_s209",
    "gnp_connected_11_0.3_s210", "gnp_connected_11_0.4_s211", "gnp_connected_11_0.5_s212",
    "gnp_connected_12_0.3_s213", "gnp_connected_12_0.4_s214", "gnp_connected_12_0.5_s215",
    "gnp_connected_13_0.3_s216", "gnp_connected_13_0.4_s217",
    "gnp_connected_14_0.3_s218", "gnp_connected_14_0.4_s219", "gnp_connected_14_0.5_s220",
})


def test_criterion_5a_k1_identity_strict(default_run):
    """Strict form: at k=1, acdp5 - thm2iii == (Delta - delta) / (Delta - 1).

    Both rationals have denominator Delta - 1 at k=1 and the thm2iii max
    resolves to its second branch (a tie when delta = 1), so the two
    bounds coincide exactly on regular graphs and differ by this gap
    otherwise (K_{2,3}: thm2iii = 3, acdp5 = 7/2). The gap is asserted as
    an exact Fraction on every row where both apply, and the rows where
    it is nonzero are pinned to the corpus's 25 irregular ones.
    """
    report, _ = default_run
    checked, unequal = 0, set()
    for row in report.rows:
        if row.k != 1:
            continue
        thm, acdp5 = row.values["thm2iii"], row.values["acdp5"]
        if thm is None or acdp5 is None:
            continue
        checked += 1
        gap = Fraction(row.Delta - row.delta, row.Delta - 1)
        assert acdp5 - thm == gap, (row.graph_id, str(thm), str(acdp5))
        if thm != acdp5:
            unequal.add(row.graph_id)
    assert checked == 64
    assert unequal == K1_IDENTITY_GAPS
    assert report.summary["k1_identity"] == {"checked": 64, "equal": 39}


def test_criterion_5b_dominance_at_k_2_3(default_run):
    report, _ = default_run
    checked = 0
    for row in report.rows:
        if row.k not in (2, 3):
            continue
        thm = row.values["thm2iii"]
        if thm is None:
            continue
        for other in ("acdp4", "acdp5"):
            val = row.values[other]
            if val is not None:
                assert thm <= val, (row.graph_id, row.k, other)
                checked += 1
    assert checked > 0


def test_criterion_6_circulant_cor3(circulant_report):
    assert len(circulant_report.rows) == 15
    for row in circulant_report.rows:
        assert row.k == 1
        cor3 = row.values["cor3"]
        assert cor3 is not None, row.graph_id
        assert row.exact is not None and row.exact <= math.floor(cor3), row.graph_id
    assert circulant_report.summary["flagged_rows"] == 0


# exact == cor2 entries whose graph is regular of a degree other than
# k+2: complete graphs, cor2(K_n, k) = n - k = F_k(K_n), and K_{n,n},
# cor2(K_{n,n}, k) = 2(n - k) = F_k(K_{n,n}).
COR2_EQUALITY_NOT_K_PLUS_2 = frozenset({
    ("complete_5", 1),
    ("complete_6", 1), ("complete_6", 2),
    ("complete_7", 1), ("complete_7", 2), ("complete_7", 3),
    ("complete_8", 1), ("complete_8", 2), ("complete_8", 3),
    ("complete_bipartite_4_4", 1),
    ("complete_bipartite_5_5", 1), ("complete_bipartite_5_5", 2),
})


def test_criterion_7a_cor2_equality_regularity_strict(default_run):
    """Strict form: every exact == cor2 instance is a regular graph.

    This follows from exact <= floor(thm2iii) <= thm2iii <= cor2 with
    thm2iii == cor2 exactly on regular graphs. (k+2)-regularity is not
    forced: K_6 at k=1 has F_1 = 5 = cor2 with degree 5. The instances
    that are regular of another degree are pinned to the corpus's 12
    complete and complete bipartite ones.
    """
    report, _ = default_run
    irregular, not_k_plus_2 = [], set()
    for entry in report.equality_log:
        if entry["bound"] == "cor2" and entry["side"] == "exact":
            if not entry["regular"]:
                irregular.append((entry["graph_id"], entry["k"]))
            elif not entry["degree_is_k_plus_2"]:
                not_k_plus_2.add((entry["graph_id"], entry["k"]))
    assert not irregular, f"exact==cor2 on irregular graphs: {irregular}"
    assert not_k_plus_2 == COR2_EQUALITY_NOT_K_PLUS_2


def test_criterion_7b_k5_at_k2_in_equality_log(default_run):
    report, _ = default_run
    hits = [
        e
        for e in report.equality_log
        if e["graph_id"] == "complete_5"
        and e["k"] == 2
        and e["bound"] == "cor2"
        and e["side"] == "exact"
    ]
    assert hits
    assert hits[0]["regular"] is True and hits[0]["degree_is_k_plus_2"] is True


def test_criterion_8_engine_properties_randomized():
    rng = SplitMix64(20260822)
    for trial in range(1000):
        n = 1 + rng.below(12)
        p = 0.15 + 0.6 * rng.random()
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
        ]
        g = build_graph(n, edges)
        s = [v for v in range(n) if rng.random() < 0.35]
        s_mask = sum(1 << v for v in s)
        k = 1 + rng.below(3)
        base = closure_mask(g, s_mask, k)
        # monotone in s
        grown = closure_mask(g, s_mask | 1 << rng.below(n), k)
        assert base & ~grown == 0, (trial, "s-monotonicity")
        # monotone in k
        assert base & ~closure_mask(g, s_mask, k + 1) == 0, (trial, "k-monotonicity")
        # idempotence
        fixed = [v for v in range(n) if base >> v & 1]
        assert closure_mask(g, base, k) == base, (trial, "idempotence")
        # asynchronous single-force order independence
        shuffled_seed = rng.next_u64()
        assert async_closure(g, s, k, shuffled_seed) == set(fixed), (trial, "async")


def test_criterion_9_verify_csv_byte_determinism(tmp_path):
    outputs = []
    for name, workers in (("a", 1), ("b", 1), ("c", worker_count())):
        out = tmp_path / f"{name}.csv"
        code = main(["verify", "--csv", str(out), "--workers", str(workers)])
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1], "two identical runs differ"
    assert outputs[0] == outputs[2], "worker count changed the bytes"
