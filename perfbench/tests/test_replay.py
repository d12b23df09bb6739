"""Seed replay and contract tests for the benchmark.

    python3 -m pytest -q perfbench/tests

Equal seeds must replay the same agent byte counts and the same
transfer_wire_ratio; another seed must change every payload but no size.
"""

import hashlib
import json

import pytest

from perfbench.harness import BULK_ROUND, MIB_S_KINDS, ROOT, WORKLOADS, make_inputs, measure
from perfbench.run import GATED, layer_unit
from perfbench.tracing import Tracer

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _once(workload, seed, max_ops, tracer=None):
    r = measure(workload, seed, seconds=600, tracer=tracer, setup_repeats=1,
                setup_budget_s=0, max_ops=max_ops)
    assert r["failed"] == 0, r["errors"]
    assert all(r["invariants"].values()), r["invariants"]
    return r


@pytest.mark.parametrize("workload,max_ops", [("bulk_bytes", 1), ("meta_churn", 12)])
def test_same_seed_replays_agent_bytes(workload, max_ops):
    one = _once(workload, 5, max_ops)
    two = _once(workload, 5, max_ops)
    assert one["attempted"] == two["attempted"] > 0
    assert one["op_digest"] == two["op_digest"]
    assert one["transfer_wire_ratio"] == two["transfer_wire_ratio"]


def test_bulk_round_measures_every_op_kind():
    r = _once("bulk_bytes", 5, 1)
    assert r["ops_by_kind"] == {k: 1 for k in BULK_ROUND}
    # chunks travel as base64 inside JSON, about 4/3 of the file bytes
    assert 1.0 < r["transfer_wire_ratio"] < 1.5
    assert r["agent_big_ops"] == len(BULK_ROUND)
    assert all(r[f"{k}_mib_s"] > 0 for k in MIB_S_KINDS)


def test_other_seed_changes_payloads_not_sizes():
    for workload in WORKLOADS:
        a, b = make_inputs(workload, 5), make_inputs(workload, 6)
        for part in ("files", "http"):
            flat_a = {(k, p): v for k, d in a[part].items()
                      for p, v in (d.items() if isinstance(d, dict) else [("", d)])}
            flat_b = {(k, p): v for k, d in b[part].items()
                      for p, v in (d.items() if isinstance(d, dict) else [("", d)])}
            assert flat_a.keys() == flat_b.keys()
            for key, data in flat_a.items():
                assert len(data) == len(flat_b[key])
                assert hashlib.sha256(data).digest() != hashlib.sha256(flat_b[key]).digest()


def test_traced_round_reports_every_per_layer_metric():
    r = _once("bulk_bytes", 7, 1, tracer=Tracer())
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: layer_unit(k) for k in r["layers"]} == declared
    # every FOI step of the round was seen, and the remainder is a small share
    for step in ("get", "put", "download", "push", "op_compress", "op_encrypt", "op_convert"):
        assert r["layers"][f"worker.step_{step}_ms"] > 0
    assert r["layers"]["op.unattributed_ms"] < 0.1 * r["op_p50_ms"]


def test_benchmark_json_names_the_gated_metrics():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == GATED
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
