"""Scenario runner: boots the whole system locally and counts every byte.

The harness stands up storage, a coordinator, workers, and agents inside one
process, then drives a scripted workload.  Byte accounting happens at the
channel layer: every client channel any component opens goes through a
ledger, and every listener reports its cumulative totals, so the report can
reconcile sent against received exactly (loopback is lossless).

Given equal seeds, two runs produce identical byte counts: all identifiers
on the wire are either drawn from seeded generators or have fixed encoded
length, payloads derive from the seed, and compression output is pinned
byte-stable.  Wall-clock fields are reported separately and excluded from
that guarantee.
"""

from __future__ import annotations

import functools
import hashlib
import http.server
import json
import os
import random
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field

from . import ppm
from .agent import AgentConfig, AgentSession, read_ticket
from .coordinator import Coordinator, CoordinatorConfig
from .errors import SkyrelayError
from .scheduler import plan_batch
from .storage import LocalDirBackend
from .wire import open_channel
from .worker import Worker, WorkerConfig

AGENT_BYTE_BUDGET = 64 * 1024  # per cloud op, file payloads excluded by design

CLOUD_OPS = ("download", "compress", "encrypt", "convert")
TRANSFER_OPS = ("transfer_private", "transfer_shared")


@dataclass
class ScenarioSpec:
    """Everything a run needs; equal specs with equal seeds replay exactly."""

    seed: int = 0
    shared_workers: int = 1
    workload: list[dict] = field(default_factory=list)
    billing_period_s: float = 3600.0
    safety_margin_s: float = 60.0
    rotation_interval_s: int = 180
    schedule_tasks: list[dict] = field(default_factory=list)
    keep_dirs: bool = False

    @classmethod
    def from_json(cls, doc: dict) -> ScenarioSpec:
        known = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in doc.items() if k in known})

    def to_wire(self) -> dict:
        return {
            "seed": self.seed,
            "shared_workers": self.shared_workers,
            "workload": self.workload,
            "billing_period_s": self.billing_period_s,
            "safety_margin_s": self.safety_margin_s,
            "rotation_interval_s": self.rotation_interval_s,
            "schedule_tasks": self.schedule_tasks,
        }


@dataclass
class MetricsReport:
    scenario: dict
    principals: dict[str, dict]
    ops: list[dict]
    op_tables: dict[str, dict]
    scheduler: dict
    events: list[str]
    assertions: list[dict]
    reconciliation: dict

    def passed(self) -> bool:
        return all(a["pass"] for a in self.assertions)

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "principals": self.principals,
            "ops": self.ops,
            "op_tables": self.op_tables,
            "scheduler": self.scheduler,
            "events": self.events,
            "assertions": self.assertions,
            "reconciliation": self.reconciliation,
            "passed": self.passed(),
        }

    def table_text(self) -> str:
        lines = [
            f"{'op':<18}{'n':>4}{'ok':>4}{'mean ms':>10}{'agent B':>12}{'worker B':>14}",
            "-" * 62,
        ]
        for op, row in sorted(self.op_tables.items()):
            lines.append(
                f"{op:<18}{row['count']:>4}{row['ok']:>4}"
                f"{row['mean_wall_ms']:>10.1f}{row['max_agent_bytes']:>12}"
                f"{row['max_worker_bytes']:>14}")
        total = self.reconciliation
        lines.append("-" * 62)
        lines.append(f"wire total: sent={total['total_sent']} "
                     f"received={total['total_received']} delta={total['delta']}")
        for a in self.assertions:
            lines.append(f"[{'PASS' if a['pass'] else 'FAIL'}] {a['name']}")
        return "\n".join(lines)


class ChannelLedger:
    """Tracks every client channel opened by any principal."""

    def __init__(self):
        self._rows: list[tuple[str, str, object]] = []
        self._lock = threading.Lock()

    def factory(self, principal: str):
        def open_tracked(addr: str, purpose: str):
            ch = open_channel(addr)
            with self._lock:
                self._rows.append((principal, purpose, ch))
            return ch
        return open_tracked

    def client_totals(self, principal: str) -> tuple[int, int]:
        with self._lock:
            rows = [r for r in self._rows if r[0] == principal]
        return (sum(c.bytes_sent for _, _, c in rows),
                sum(c.bytes_received for _, _, c in rows))

    def principals(self) -> list[str]:
        with self._lock:
            return sorted({p for p, _, _ in self._rows})


def _payload(rng: random.Random, n: int) -> bytes:
    # block-repeated so the compress op has something to gain
    block = rng.randbytes(max(1, n // 16))
    data = (block * 17)[:n]
    return data


def _ppm_payload(rng: random.Random, n: int) -> bytes:
    # a roughly n-byte image: 3 bytes per pixel plus a small header
    side = max(4, int(((n / 3) ** 0.5)))
    return ppm.write_ppm(side, side, rng.randbytes(side * side * 3))


class _QuietHandler(http.server.SimpleHTTPRequestHandler):
    def log_message(self, *args):
        pass


class _Stack:
    """One booted system: storage, coordinator, shared workers, two agents,
    and a loopback http server over root for download items."""

    def __init__(self, spec: ScenarioSpec):
        self.spec = spec
        self.rng = random.Random(spec.seed)
        self.ledger = ChannelLedger()
        self.root = tempfile.mkdtemp(prefix="skyrelay-bench-")
        self.http = http.server.ThreadingHTTPServer(
            ("127.0.0.1", 0), functools.partial(_QuietHandler, directory=self.root))
        threading.Thread(target=self.http.serve_forever, kwargs={"poll_interval": 0.05},
                         daemon=True).start()
        self.backend = LocalDirBackend(os.path.join(self.root, "store"))
        self.tok_a = self.backend.create_account("alice", quota_bytes=1 << 34)
        self.tok_b = self.backend.create_account("bob", quota_bytes=1 << 34)
        self.coordinator = Coordinator(CoordinatorConfig(
            interval_s=spec.rotation_interval_s,
            rng=random.Random(spec.seed + 1),
            channel_factory=self.ledger.factory("coordinator"),
        ))
        self.coordinator.start()
        self.workers: list[Worker] = []
        for i in range(spec.shared_workers):
            w = Worker(WorkerConfig(
                coordinator_addr=self.coordinator.addr,
                backend=self.backend,
                shared=True,
                billing_period_s=spec.billing_period_s,
                safety_margin_s=spec.safety_margin_s,
                channel_factory=self.ledger.factory(f"worker:shared{i}"),
            ))
            w.start()
            self.workers.append(w)
        self.private_workers: dict[str, Worker] = {}
        self.alice = self._agent("alice", self.tok_a, seed=spec.seed + 10)
        self.bob = self._agent("bob", self.tok_b, seed=spec.seed + 11)
        self.events: list[str] = []

    def _agent(self, user: str, token: str, seed: int) -> AgentSession:
        return AgentSession(AgentConfig(
            account_id=user,
            token=token,
            backend=self.backend,
            mode="shared",
            coordinator_addr=self.coordinator.addr,
            coordinator_pub=self.coordinator.public_key,
            private_launcher=lambda u=user: self._launch_private(u),
            download_dir=os.path.join(self.root, f"dl-{user}"),
            seed=seed,
            channel_factory=self.ledger.factory(f"agent:{user}"),
        ))

    def _launch_private(self, user: str, startup_delay_s: float = 0.0):
        w = Worker(WorkerConfig(
            coordinator_addr=self.coordinator.addr,
            backend=self.backend,
            shared=False,
            billing_period_s=self.spec.billing_period_s,
            safety_margin_s=self.spec.safety_margin_s,
            startup_delay_s=startup_delay_s,
            channel_factory=self.ledger.factory(f"worker:private:{user}"),
        ))
        w.start()
        self.private_workers[user] = w
        cert = w.certificate.to_wire() if w.certificate else None
        return w.addr, cert

    def close(self):
        for w in self.private_workers.values():
            w.stop()
        for w in self.workers:
            w.stop()
        self.coordinator.stop()
        self.http.shutdown()
        self.http.server_close()
        if not self.spec.keep_dirs:
            shutil.rmtree(self.root, ignore_errors=True)

    def principal_totals(self) -> dict[str, dict]:
        named = {}
        listeners = {"coordinator": self.coordinator.wire_totals()}
        for i, w in enumerate(self.workers):
            listeners[f"worker:shared{i}"] = w.wire_totals()
        for user, w in self.private_workers.items():
            listeners[f"worker:private:{user}"] = w.wire_totals()
        for name in set(self.ledger.principals()) | set(listeners):
            cs, cr = self.ledger.client_totals(name)
            ls, lr = listeners.get(name, (0, 0))
            named[name] = {"bytes_sent": cs + ls, "bytes_received": cr + lr}
        return named


def run_scenario(spec: ScenarioSpec) -> MetricsReport:
    stack = _Stack(spec)
    payload_rng = random.Random(spec.seed + 2)
    ops: list[dict] = []
    transfer_hashes_ok = True
    try:
        sess_a = stack.backend.authenticate(stack.tok_a)
        for i, item in enumerate(spec.workload):
            ops.append(_run_item(stack, payload_rng, i, item, sess_a))
        for o in ops:
            if o["op"] in TRANSFER_OPS and o["ok"] and not o.get("hash_ok", True):
                transfer_hashes_ok = False

        sched_stats = {"tasks": 0, "instances_used": 0, "feasible": True}
        if spec.schedule_tasks:
            try:
                assignment = plan_batch(spec.schedule_tasks,
                                        stack.coordinator.instances("active"), time.time())
                sched_stats = {"tasks": len(spec.schedule_tasks),
                               "instances_used": assignment.used_count,
                               "feasible": True}
            except SkyrelayError as e:
                sched_stats = {"tasks": len(spec.schedule_tasks),
                               "instances_used": 0, "feasible": False,
                               "error": e.code}

        # settle: terminal frames are all in (requests are synchronous), but
        # give shutdown notices from short billing periods a beat to land
        if spec.billing_period_s <= 30:
            target = spec.billing_period_s - spec.safety_margin_s + 2.0
            for w in stack.workers:
                while not w.terminated.is_set():
                    if w.started_at is None or time.monotonic() - w.started_at > target:
                        break
                    time.sleep(0.05)
        stack.coordinator.instances()  # settles retirements no request has read yet
        for line in stack.coordinator.log:
            if "shut down" in line:
                stack.events.append("shutdown_notice")
            if "retired" in line:
                stack.events.append("instance_retired")
    finally:
        principals = None
        try:
            # read totals after every component has gone quiet
            for w in stack.workers + list(stack.private_workers.values()):
                w.stop()
            stack.coordinator.stop()
            time.sleep(0.05)
            principals = stack.principal_totals()
        finally:
            stack.close()

    total_sent = sum(p["bytes_sent"] for p in principals.values())
    total_received = sum(p["bytes_received"] for p in principals.values())
    reconciliation = {
        "total_sent": total_sent,
        "total_received": total_received,
        "delta": total_sent - total_received,
    }

    op_tables = _aggregate(ops)
    assertions = [
        {"name": "bytes_reconcile", "pass": total_sent == total_received},
        {"name": "agent_bytes_bounded",
         "pass": all(o["bytes_agent"] < AGENT_BYTE_BUDGET
                     for o in ops
                     if o["op"] in CLOUD_OPS and o["ok"]
                     and o["size_bytes"] >= 1024 * 1024)},
        {"name": "transfer_integrity", "pass": transfer_hashes_ok},
    ]
    return MetricsReport(
        scenario=spec.to_wire(),
        principals=principals,
        ops=ops,
        op_tables=op_tables,
        scheduler=sched_stats,
        events=sorted(set(stack.events)),
        assertions=assertions,
        reconciliation=reconciliation,
    )


def _run_item(stack: _Stack, rng: random.Random, i: int, item: dict,
              sess_a) -> dict:
    op = item["op"]
    size = int(item.get("size_bytes", 1024 * 1024))
    record = {"op": op, "size_bytes": size, "bytes_agent": 0, "bytes_worker": 0,
              "wall_ms": 0, "heartbeats": 0, "ok": False, "error": None}
    try:
        if op == "download":
            data = _payload(rng, size)
            with open(os.path.join(stack.root, f"src_{i}.bin"), "wb") as f:
                f.write(data)
            host, port = stack.http.server_address[:2]
            args = {"url": f"http://{host}:{port}/src_{i}.bin", "dest": f"/bench/dl_{i}.bin"}
            if "throttle_bps" in item:
                args["throttle_bps"] = item["throttle_bps"]
            result = stack.alice.cmd_cloud_op("download", args)
        elif op in ("compress", "encrypt"):
            data = _payload(rng, size)
            stack.backend.put_object(sess_a, f"/bench/in_{i}.bin", data)
            stack.alice.sync()
            result = stack.alice.cmd_cloud_op(op, {"path": f"/bench/in_{i}.bin"})
        elif op == "convert":
            data = _ppm_payload(rng, size)
            stack.backend.put_object(sess_a, f"/bench/in_{i}.ppm", data)
            stack.alice.sync()
            result = stack.alice.cmd_cloud_op(
                "convert", {"path": f"/bench/in_{i}.ppm",
                            "max_resolution": int(item.get("max_resolution", 128))})
        elif op in TRANSFER_OPS:
            data = _payload(rng, size)
            src_path = f"/bench/tx_{i}.bin"
            stack.backend.put_object(sess_a, src_path, data)
            stack.alice.sync()
            ticket_path = os.path.join(stack.root, f"ticket_{i}.bin")
            stack.alice.cmd_send("bob", src_path, ticket_path,
                                 protocol="private" if op == "transfer_private" else "shared")
            result = stack.bob.cmd_recv(read_ticket(ticket_path))
            dst = result["outputs"][0]["path"]
            sess_b = stack.backend.authenticate(stack.tok_b)
            got = stack.backend.get_object(sess_b, dst)
            record["hash_ok"] = (hashlib.sha256(got).digest()
                                 == hashlib.sha256(data).digest())
        else:
            raise ValueError(f"unknown workload op {op!r}")
        record["ok"] = True
        record["bytes_worker"] = int(result.get("work_bytes", 0))
    except SkyrelayError as e:
        record["error"] = e.code
        stack.events.append(f"op_error:{e.code}")
    # agent-side numbers come from the acting agents' last records
    for agent in (stack.alice, stack.bob):
        for m in agent.metrics:
            if m.get("_consumed"):
                continue
            m["_consumed"] = True
            record["bytes_agent"] += m["bytes_sent"] + m["bytes_received"]
            record["wall_ms"] += m["wall_ms"]
            record["heartbeats"] += m["heartbeats"]
    return record


def _aggregate(ops: list[dict]) -> dict[str, dict]:
    tables: dict[str, dict] = {}
    for name in sorted({o["op"] for o in ops}):
        rows = [o for o in ops if o["op"] == name]
        oks = [o for o in rows if o["ok"]]
        tables[name] = {
            "count": len(rows),
            "ok": len(oks),
            "mean_wall_ms": statistics.fmean(o["wall_ms"] for o in rows) if rows else 0.0,
            "max_agent_bytes": max((o["bytes_agent"] for o in rows), default=0),
            "max_worker_bytes": max((o["bytes_worker"] for o in rows), default=0),
        }
    return tables


def compare_modes(size_bytes: int = 256 * 1024, trials: int = 5,
                  private_startup_delay_s: float = 15.0,
                  seed: int = 0) -> dict:
    """First-op latency, private (cold start) vs shared (warm pool).

    Private trials run concurrently: each boots its own instance whose start
    blocks through the configured delay, exactly the cost a user pays when
    no instance of their own is running yet.
    """
    spec = ScenarioSpec(seed=seed, shared_workers=1)
    stack = _Stack(spec)
    rng = random.Random(seed + 3)
    sess_a = stack.backend.authenticate(stack.tok_a)
    try:
        paths = []
        for i in range(trials):
            p = f"/cmp/in_{i}.bin"
            stack.backend.put_object(sess_a, p, _payload(rng, size_bytes))
            paths.append(p)
        stack.alice.sync()

        shared_ms = []
        for i in range(trials):
            t0 = time.monotonic()
            stack.alice.cmd_cloud_op("compress", {"path": paths[i]}, mode="shared")
            shared_ms.append((time.monotonic() - t0) * 1000.0)

        private_ms = [0.0] * trials
        failures: list[Exception] = []

        def one_private(i: int):
            agent = stack._agent("alice", stack.tok_a, seed=seed + 100 + i)
            agent.cfg.private_launcher = (
                lambda: stack._launch_private(f"alice{i}", private_startup_delay_s))
            t0 = time.monotonic()
            try:
                agent.cmd_cloud_op("compress", {"path": paths[i]}, mode="private")
                private_ms[i] = (time.monotonic() - t0) * 1000.0
            except Exception as e:  # noqa: BLE001 - collected and re-raised
                failures.append(e)

        threads = [threading.Thread(target=one_private, args=(i,)) for i in range(trials)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if failures:
            raise failures[0]
    finally:
        stack.close()

    return {
        "trials": trials,
        "private_startup_delay_s": private_startup_delay_s,
        "shared_ms": shared_ms,
        "private_ms": private_ms,
        "mean_shared_ms": statistics.fmean(shared_ms),
        "mean_private_ms": statistics.fmean(private_ms),
        "variance_shared_ms2": statistics.pvariance(shared_ms),
        "variance_private_ms2": statistics.pvariance(private_ms),
        "delta_ms": statistics.fmean(private_ms) - statistics.fmean(shared_ms),
        "deltas_ms": [p - s for p, s in zip(private_ms, shared_ms)],
    }


def write_report(report: MetricsReport, json_path: str, text_path: str | None = None):
    with open(json_path, "w", encoding="utf-8") as f:
        json.dump(report.to_json(), f, indent=2)
    if text_path:
        with open(text_path, "w", encoding="utf-8") as f:
            f.write(report.table_text() + "\n")
