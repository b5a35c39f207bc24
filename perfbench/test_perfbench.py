"""Tests of the benchmark itself: smoke runs and checks that catch bad answers.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import kforcing  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import PINNED_SEED, WORKLOADS  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
REFERENCE = json.loads(run.REFERENCE.read_text())


def smoke(workload, seed=0, trace=False, reference=REFERENCE):
    lines: list[str] = []
    result = run.run(workload, seed, 0, trace, reference, smoke=True, lines=lines)
    return result, lines


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    for w in BENCH["workloads"]:
        assert WORKLOADS[w["name"]].why == w["why"]
    assert REFERENCE["pinned_seed"] == PINNED_SEED


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_traced(workload):
    result, lines = smoke(workload, trace=True)
    assert result["correct"], lines
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    for name, value in result["metrics"].items():
        assert value["unit"] == next(m["unit"] for m in BENCH["per_layer"] if m["name"] == name)


def test_smoke_end_to_end_metrics():
    result, lines = smoke("exact_ladder", seed=5)
    assert result["correct"], lines
    assert result["attempted"] == 8
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in BENCH["end_to_end"])
    assert all(v["value"] > 0 for v in metrics.values())


def test_corrupted_pinned_value_is_a_failed_op():
    reference = copy.deepcopy(REFERENCE)
    reference["exact_ladder"]["gnp16/k1"]["f_k"] += 1
    result, lines = smoke("exact_ladder", reference=reference)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (8, 1)
    assert any(line.startswith("FAILED gnp16/k1: F_k=8, pinned 9") for line in lines)


def test_corrupted_digest_is_a_failed_op():
    reference = copy.deepcopy(REFERENCE)
    reference["verify_default"]["csv_sha256"] = "0" * 64
    result, lines = smoke("verify_default", reference=reference)
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert any("csv sha256" in line for line in lines)


def test_fresh_seed_skips_label_dependent_pins():
    reference = copy.deepcopy(REFERENCE)
    for entry in reference["sparse_large"].values():
        if "pinned_set_size" in entry:
            entry["pinned_set_size"] = 1
    fresh, lines = smoke("sparse_large", seed=3, reference=reference)
    assert fresh["correct"], lines
    pinned, _ = smoke("sparse_large", seed=0, reference=reference)
    assert pinned["failed"] == 4


def test_missing_traced_name_fails_loudly(monkeypatch):
    monkeypatch.delattr(kforcing.greedy, "closure")
    with pytest.raises(LookupError, match="kforcing.greedy.closure"):
        with spans.Tracer().installed():
            pass
    assert kforcing.bounds.is_k_connected is kforcing.graph.is_k_connected


def test_oracle_agrees_with_closure():
    g = kforcing.generate(kforcing.FamilySpec("gnp_connected", (12, 0.3), 5))
    for k in (1, 2, 3):
        for start in ({0}, {0, 1}, {3, 7, 9}, set(range(6))):
            want = kforcing.closure(g, start, k).final.colored
            assert checks.force_closure(g.adjacency, start, k) == set(want)


def test_relabelled_inputs_are_isomorphic_copies():
    base = {name: g for name, g, _, _ in WORKLOADS["exact_ladder"].setup(0)}
    for name, g, _, _ in WORKLOADS["exact_ladder"].setup(7):
        assert sorted(map(len, g.adjacency)) == sorted(map(len, base[name].adjacency))
        assert g.m == base[name].m
