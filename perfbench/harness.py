"""Boots a skyrelay stack through public API and drives the workloads.

The stack is one Coordinator, two shared Workers, one private Worker each
for alice and bob (used by transfer_private), and an AgentSession for each
of them.  Storage is deployed the way the CLI deploys it: every agent and
every worker opens its own LocalDirBackend on the one store root, so index
reloads between separate writers are part of what is measured.  Everything
runs in this process; the load comes from at most two client threads, each
in a closed loop (the next op starts when the previous one returns).

Inputs come from the seed alone.  Every op's output is checked, and a run
also checks invariants over the whole run; see `measure`.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import random
import shutil
import statistics
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer
from pathlib import Path
from time import perf_counter

from skyrelay import ppm
from skyrelay.agent import AgentConfig, AgentSession, read_ticket
from skyrelay.coordinator import Coordinator, CoordinatorConfig
from skyrelay.storage import LocalDirBackend
from skyrelay.wire import open_channel
from skyrelay.worker import Worker, WorkerConfig, decrypt_file_blob

from .tracing import Tracer, TracedBackend, layer_report

ROOT = Path(__file__).resolve().parents[1]
WORK_DIR = ROOT / ".perfbench_tmp"

MiB = 1 << 20
SETUP_REPEATS = 3
SETUP_BUDGET_S = 2.0
MAX_SETUP_REPEATS = 25
AGENT_BYTE_BUDGET = 64 * 1024  # per cloud op on payloads of 1 MiB or more
USERS = ("alice", "bob")
FILLER_ACCOUNTS = 254  # with alice and bob, 256 accounts in the store

# meta_churn draws ops from a shuffled deck holding the mix in these
# proportions, so every run's mix is exact and op_p50_ms, which sits where
# folder ops and cloud ops overlap, does not move with the seed's luck
CHURN_DECK = ("compress",) * 6 + ("encrypt",) * 4 + ("mkdir",) * 4 + ("rename",) * 3 \
    + ("delete",) * 3
# a transfer is two user commands, send by alice and recv by bob; its
# MiB/s takes the two together
BULK_ROUND = ("download", "compress", "encrypt", "convert",
              "send_private", "recv_private", "send_shared", "recv_shared")
TRANSFERS = {"transfer_private": ("send_private", "recv_private"),
             "transfer_shared": ("send_shared", "recv_shared")}
MIB_S_KINDS = ("download", "compress", "encrypt", "convert", *TRANSFERS)
CLOUD_KINDS = frozenset(BULK_ROUND)
BULK_BYTES = 16 * MiB
BULK_PPM_BYTES = 4 * MiB
MAX_RESOLUTION = 128

WORKLOADS = ("meta_churn", "meta_read", "bulk_bytes")


# -- inputs --

def block_payload(rng: random.Random, n: int) -> bytes:
    """n bytes of one random block of n/16 bytes, repeated; the 4 KiB inputs
    compress, since their period fits in gzip's 32 KiB window."""
    block = rng.randbytes(max(1, n // 16))
    return (block * 17)[:n]


def ppm_payload(rng: random.Random, n: int) -> bytes:
    side = int((n / 3) ** 0.5)
    return ppm.write_ppm(side, side, rng.randbytes(side * side * 3))


def make_inputs(workload: str, seed: int) -> dict:
    """Everything the store and the loopback server hold, from the seed."""
    rng = random.Random(f"{workload}:{seed}")
    files: dict[str, dict[str, bytes]] = {}
    http: dict[str, bytes] = {}
    if workload == "bulk_bytes":
        files["alice"] = {
            "/bulk/in.bin": block_payload(rng, BULK_BYTES),
            "/bulk/img.ppm": ppm_payload(rng, BULK_PPM_BYTES),
            "/warm.bin": block_payload(rng, 64 * 1024),
        }
        files["bob"] = {"/warm.bin": block_payload(rng, 64 * 1024)}
        http["/src.bin"] = block_payload(rng, BULK_BYTES)
        fillers = 0
    else:
        for user in USERS:
            f = {f"/f{i % 20:02d}/x{i:03d}.bin": rng.randbytes(64) for i in range(500)}
            f.update({f"/in/in{j:02d}.bin": block_payload(rng, 4096) for j in range(32)})
            files[user] = f
        fillers = FILLER_ACCOUNTS
    return {"files": files, "http": http, "fillers": fillers}


# -- the stack --

class _Handler(BaseHTTPRequestHandler):
    def do_GET(self):
        data = self.server.payloads.get(self.path)
        if data is None:
            self.send_error(404)
            return
        self.send_response(200)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


class Ledger:
    """Every client channel any component opens, with its open time."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.rows: list[tuple[str, str, float, object]] = []
        self._lock = threading.Lock()

    def factory(self, principal: str):
        def open_tracked(addr: str, purpose: str):
            t = perf_counter()
            if self.tracer is not None:
                ch = self.tracer.open_client(principal, addr, purpose)
            else:
                ch = open_channel(addr)
            with self._lock:
                self.rows.append((principal, purpose, t, ch))
            return ch
        return open_tracked

    def bytes_in(self, t0: float, t1: float, principals=None, purpose=None) -> int:
        with self._lock:
            rows = list(self.rows)
        return sum(ch.bytes_sent + ch.bytes_received for p, pur, t, ch in rows
                   if t0 <= t <= t1
                   and (principals is None or p in principals)
                   and (purpose is None or pur == purpose))


class Stack:
    """One booted system in a fresh directory under WORK_DIR."""

    def __init__(self, inputs: dict, seed: int, tracer: Tracer | None = None):
        WORK_DIR.mkdir(exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
        self.store = os.path.join(self.tmp, "store")
        self.tracer = tracer
        self.ledger = Ledger(tracer)
        self.tokens: dict[str, str] = {}
        self.fillers: list[str] = []
        self.workers: dict[str, Worker] = {}
        self.agents: dict[str, AgentSession] = {}
        self.coordinator: Coordinator | None = None
        self.http: HTTPServer | None = None
        self._http_thread: threading.Thread | None = None
        try:
            self._boot(inputs, seed)
        except BaseException:
            self.stop()
            self.remove()
            raise

    def backend(self):
        """A fresh backend on the store root, as each CLI process opens one."""
        if self.tracer is not None:
            return TracedBackend(self.tracer, self.store)
        return LocalDirBackend(self.store)

    def _boot(self, inputs: dict, seed: int):
        # the checker reads outputs back; it is never traced
        self.checker = LocalDirBackend(self.store)
        for user, files in inputs["files"].items():
            self.tokens[user] = self.checker.create_account(user, quota_bytes=1 << 34)
            session = self.checker.authenticate(self.tokens[user])
            for path, data in files.items():
                self.checker.put_object(session, path, data)
        for i in range(inputs["fillers"]):
            name = f"u{i:03d}"
            self.tokens[name] = self.checker.create_account(name)
            self.fillers.append(name)
        if self.tracer is not None:
            self.tracer.token_account.update({t: a for a, t in self.tokens.items()})
        if inputs["http"]:
            self.http = HTTPServer(("127.0.0.1", 0), _Handler)
            self.http.payloads = inputs["http"]
            self._http_thread = threading.Thread(
                target=self.http.serve_forever, kwargs={"poll_interval": 0.05})
            self._http_thread.start()
        tap = self.tracer.server_tap if self.tracer is not None else None
        self.coordinator = Coordinator(CoordinatorConfig(
            rng=random.Random(seed + 1),
            channel_factory=self.ledger.factory("coordinator"),
            tap_factory=tap,
        ))
        self.coordinator.start()
        for i in range(2):
            self._worker(f"shared{i}", shared=True)
        deadline = time.monotonic() + 10.0
        while len(self.coordinator.instances(status="active")) < 2:
            if time.monotonic() > deadline:
                raise RuntimeError("shared pool never went active")
            time.sleep(0.005)
        for i, user in enumerate(USERS):
            pw = self._worker(f"private-{user}", shared=False)
            a = AgentSession(AgentConfig(
                account_id=user,
                token=self.tokens[user],
                backend=self.backend(),
                mode="shared",
                coordinator_addr=self.coordinator.addr,
                coordinator_pub=self.coordinator.public_key,
                private_instance=pw.addr,
                private_certificate=pw.certificate.to_wire(),
                download_dir=os.path.join(self.tmp, f"dl-{user}"),
                seed=seed + 10 + i,
                channel_factory=self.ledger.factory(f"agent:{user}"),
            ))
            if self.tracer is not None:
                self.tracer.trace_agent(a)
            self.agents[user] = a

    def _worker(self, name: str, shared: bool) -> Worker:
        w = Worker(WorkerConfig(
            coordinator_addr=self.coordinator.addr,
            backend=self.backend(),
            shared=shared,
            scratch_dir=os.path.join(self.tmp, f"w-{name}"),
            channel_factory=self.ledger.factory(f"worker:{name}"),
            tap_factory=self.tracer.server_tap if self.tracer is not None else None,
        ))
        self.workers[name] = w
        w.start()
        if self.tracer is not None:
            self.tracer.trace_worker(w)
        return w

    def leftovers(self) -> tuple[int, int]:
        """(job workspaces, exposure files) left in the workers' scratch dirs."""
        jobs = exposed = 0
        for w in self.workers.values():
            jobs += len(os.listdir(os.path.join(w.cfg.scratch_dir, "jobs")))
            exposed += len(os.listdir(os.path.join(w.cfg.scratch_dir, "exposed")))
        return jobs, exposed

    def stop(self):
        for w in self.workers.values():
            w.stop()
        if self.coordinator is not None:
            self.coordinator.stop()
        if self.http is not None:
            self.http.shutdown()
            self.http.server_close()
            self._http_thread.join(timeout=10)
            self.http = None

    def wire_totals(self, settle_s: float = 3.0) -> tuple[int, int]:
        """(sent, received) over every client channel and listener.

        Call after stop(): listeners fold a connection's counts into their
        totals only once its thread has seen the close, so poll briefly.
        """
        deadline = time.monotonic() + settle_s
        while True:
            sent = recv = 0
            for _, _, _, ch in self.ledger.rows:
                sent += ch.bytes_sent
                recv += ch.bytes_received
            for svc in [self.coordinator, *self.workers.values()]:
                s, r = svc.wire_totals()
                sent += s
                recv += r
            if sent == recv or time.monotonic() > deadline:
                return sent, recv
            time.sleep(0.02)

    def remove(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


# -- clients: each picks its next op, runs it, and checks its output --

class ChurnClient:
    """meta_churn: one account's mix of small cloud ops and folder ops."""

    def __init__(self, stack: Stack, user: str, seed: int, inputs: dict):
        self.stack = stack
        self.user = user
        self.agent = stack.agents[user]
        self.inputs = inputs["files"][user]
        self.rng = random.Random(f"churn:{seed}:{user}")
        self.folders: list[str] = []
        self.made = 0
        self.deck: list[str] = []

    def warm_up(self):
        self.agent.cmd_cloud_op("compress", {"path": "/in/in31.bin"})

    def accounts(self, kind: str) -> tuple[str, ...]:
        return (self.user,)

    def _new_folder(self) -> str:
        self.made += 1
        return f"/work/d{self.made}"

    def next_op(self):
        a = self.agent
        if not self.deck:
            self.deck = list(CHURN_DECK)
            self.rng.shuffle(self.deck)
        kind = self.deck.pop()
        if kind in ("rename", "delete") and not self.folders:
            kind = "mkdir"
        if kind in ("compress", "encrypt"):
            path = f"/in/in{self.rng.randrange(32):02d}.bin"
            return kind, path, lambda: a.cmd_cloud_op(kind, {"path": path})
        if kind == "mkdir":
            path = self._new_folder()
            self.folders.append(path)
            return kind, path, lambda: a.cmd_basic("create", {"path": path, "kind": "folder"})
        src = self.folders.pop(self.rng.randrange(len(self.folders)))
        if kind == "delete":
            return kind, src, lambda: a.cmd_basic("delete", {"path": src})
        dst = self._new_folder()
        self.folders.append(dst)
        return kind, (src, dst), lambda: a.cmd_basic("rename", {"src": src, "dst": dst})

    def record(self, rec: dict, target, result):
        """Folder ops are checked against the agent's shadow at once; cloud
        op outputs are read back after the timed phase."""
        entries = self.agent.shadow.entries
        kind = rec["op"]
        if kind == "mkdir":
            rec["check"] = target in entries and entries[target].kind == "folder"
        elif kind == "rename":
            rec["check"] = target[0] not in entries and target[1] in entries
        elif kind == "delete":
            rec["check"] = target not in entries
        else:
            rec["input_bytes"] = len(self.inputs[target])
            key = None
            if kind == "encrypt":
                with open(result["saved"][0], encoding="utf-8") as f:
                    key = bytes.fromhex(json.load(f)["key"])
            rec["pending"] = (result["outputs"][0]["path"], target, key)

    def verify(self, recs: list[dict]) -> dict:
        checker = self.stack.checker
        session = checker.authenticate(self.stack.tokens[self.user])
        for rec in recs:
            if "pending" not in rec:
                continue
            out, src, key = rec.pop("pending")
            try:
                blob = checker.get_object(session, out)
                got = gzip.decompress(blob) if key is None else decrypt_file_blob(blob, key)
                rec["check"] = got == self.inputs[src]
            except Exception as e:  # noqa: BLE001 - a failed check is counted
                _fail_check(rec, e)
        fresh = checker.sync_shadow(session)
        mine = {p: m.to_wire() for p, m in self.agent.shadow.entries.items()}
        theirs = {p: m.to_wire() for p, m in fresh.entries.items()}
        return {f"shadow_matches_store:{self.user}": mine == theirs}


class ReadClient:
    """meta_read: what every CLI agent command does before it acts."""

    def __init__(self, stack: Stack, index: int, seed: int):
        self.stack = stack
        self.rng = random.Random(f"read:{seed}:{index}")
        self.n = 0

    def read(self, user: str) -> int:
        s = self.stack
        session = AgentSession(AgentConfig(
            account_id=user,
            token=s.tokens[user],
            backend=s.backend(),
            mode="shared",
            coordinator_addr=s.coordinator.addr,
            coordinator_pub=s.coordinator.public_key,
            download_dir=os.path.join(s.tmp, f"dl-{user}"),
        ))
        return len(session.ls("/"))

    def warm_up(self):
        for user in USERS:
            self.read(user)

    def accounts(self, kind: str) -> tuple[str, ...]:
        return ()

    def next_op(self):
        # every other op reads a loaded account, the rest a filler account
        pool = USERS if self.n % 2 == 0 else self.stack.fillers
        self.n += 1
        user = self.rng.choice(pool)
        return "ls", user, lambda: self.read(user)

    def record(self, rec: dict, user, count):
        rec["pending"] = (user, count)

    def verify(self, recs: list[dict]) -> dict:
        checker = self.stack.checker
        expected: dict[str, int] = {}
        for rec in recs:
            if "pending" not in rec:
                continue
            user, count = rec.pop("pending")
            if user not in expected:
                session = checker.authenticate(self.stack.tokens[user])
                expected[user] = len(checker.list_meta(session, "/"))
            rec["check"] = count == expected[user]
        return {}


class BulkClient:
    """bulk_bytes: rounds of large cloud ops and both transfer protocols.

    Each output is checked right after its op, then removed so every round
    starts from the same store; that work is outside the timed phase.
    """

    def __init__(self, stack: Stack, inputs: dict):
        self.stack = stack
        self.alice = stack.agents["alice"]
        self.bob = stack.agents["bob"]
        self.src = inputs["files"]["alice"]["/bulk/in.bin"]
        self.ppm_bytes = len(inputs["files"]["alice"]["/bulk/img.ppm"])
        self.http_src = inputs["http"]["/src.bin"]
        self.ticket = os.path.join(stack.tmp, "ticket.bin")
        self.n = 0

    def warm_up(self):
        for a in (self.alice, self.bob):
            a.cmd_cloud_op("compress", {"path": "/warm.bin"})

    def accounts(self, kind: str) -> tuple[str, ...]:
        return ("bob",) if kind.startswith("recv") else ("alice",)

    def at_round_start(self) -> bool:
        return self.n % len(BULK_ROUND) == 0

    def next_op(self):
        kind = BULK_ROUND[self.n % len(BULK_ROUND)]
        self.n += 1
        a, b = self.alice, self.bob
        if kind == "download":
            url = f"http://127.0.0.1:{self.stack.http.server_port}/src.bin"
            fn = lambda: a.cmd_cloud_op("download", {"url": url, "dest": "/bulk/dl.bin"})
        elif kind == "convert":
            fn = lambda: a.cmd_cloud_op(
                "convert", {"path": "/bulk/img.ppm", "max_resolution": MAX_RESOLUTION})
        elif kind == "send_private":
            fn = lambda: a.cmd_send("bob", "/bulk/in.bin", self.ticket)
        elif kind == "recv_private":
            fn = lambda: b.cmd_recv(read_ticket(self.ticket))
        elif kind == "send_shared":
            fn = lambda: a.cmd_send_shared("bob", "/bulk/in.bin", self.ticket)
        elif kind == "recv_shared":
            fn = lambda: b.cmd_recv_shared(read_ticket(self.ticket))
        else:
            fn = lambda: a.cmd_cloud_op(kind, {"path": "/bulk/in.bin"})
        return kind, None, fn

    def record(self, rec: dict, _target, result):
        kind = rec["op"]
        checker = self.stack.checker
        rec["input_bytes"] = self.ppm_bytes if kind == "convert" else BULK_BYTES
        if kind == "convert":
            saved = result["saved"][0]
            with open(saved, "rb") as f:
                w, h, _ = ppm.parse_ppm(f.read())
            os.remove(saved)
            rec["check"] = max(w, h) <= MAX_RESOLUTION
            return
        if kind.startswith("send"):
            rec["check"] = (result.protocol == kind[len("send_"):]
                            and result.size_bytes == BULK_BYTES)
            return
        if kind.startswith("recv"):
            os.remove(self.ticket)
        owner = self.bob if kind.startswith("recv") else self.alice
        session = checker.authenticate(self.stack.tokens[owner.cfg.account_id])
        out = result["outputs"][0]["path"]
        blob = checker.get_object(session, out)
        if kind == "compress":
            rec["check"] = gzip.decompress(blob) == self.src
        elif kind == "encrypt":
            with open(result["saved"][0], encoding="utf-8") as f:
                key = bytes.fromhex(json.load(f)["key"])
            os.remove(result["saved"][0])
            rec["check"] = decrypt_file_blob(blob, key) == self.src
        else:
            want = self.http_src if kind == "download" else self.src
            rec["check"] = hashlib.sha256(blob).digest() == hashlib.sha256(want).digest()
        checker.basic_op(session, "delete", {"path": out})
        owner.sync()

    def verify(self, recs: list[dict]) -> dict:
        return {}


# -- timed phase --

def _fail_check(rec: dict, e: Exception):
    rec["check"] = False
    rec["error"] = f"check: {type(e).__name__}: {e}"


def _timed(client, rec: dict, target, fn, tracer: Tracer | None):
    """Run one op with its latency taken; its output is checked after."""
    rec["accounts"] = client.accounts(rec["op"])
    if tracer is not None:
        tracer.begin_op(rec["id"], rec["accounts"])
    t0 = perf_counter()
    try:
        result = fn()
        rec["ok"] = True
    except Exception as e:  # noqa: BLE001 - a failed op is counted, not fatal
        result = None
        rec["ok"] = False
        rec["error"] = f"{type(e).__name__}: {e}"
    rec["start"], rec["end"] = t0, perf_counter()
    if tracer is not None:
        tracer.end_op(rec["id"])
        tracer.add("op", t0, rec["end"], rec["id"])
    if rec["ok"]:
        try:
            client.record(rec, target, result)
        except Exception as e:  # noqa: BLE001 - a failed check is counted
            _fail_check(rec, e)


def run_threads(clients, seconds: float, tracer, max_ops=None) -> tuple[list, float]:
    """Each client in its own thread, closed loop, until the time is up."""
    recs: list[dict] = []
    ids = iter(range(1 << 30))
    lock = threading.Lock()
    start = perf_counter()
    deadline = start + seconds
    errors: list[BaseException] = []

    def drive(client):
        try:
            done = 0
            while perf_counter() < deadline and (max_ops is None or done < max_ops):
                kind, target, fn = client.next_op()
                with lock:
                    rec = {"id": next(ids), "seq": done, "op": kind, "client": client}
                _timed(client, rec, target, fn, tracer)
                with lock:
                    recs.append(rec)
                done += 1
        except BaseException as e:  # noqa: BLE001 - re-raised on the main thread
            errors.append(e)

    threads = [threading.Thread(target=drive, args=(c,)) for c in clients]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    end = max((r["end"] for r in recs), default=perf_counter())
    return recs, end - start


def run_rounds(client: BulkClient, seconds: float, tracer, max_rounds=None):
    """Whole rounds until the summed op time reaches the run length.

    With one client thread the timed phase is the sum of op latencies, so
    checking and cleaning up between ops is left out of it.
    """
    recs: list[dict] = []
    busy = 0.0
    rounds = 0
    while True:
        if client.at_round_start():
            if busy >= seconds or (max_rounds is not None and rounds >= max_rounds):
                break
            rounds += 1
        kind, target, fn = client.next_op()
        rec = {"id": len(recs), "seq": len(recs), "op": kind, "client": client}
        _timed(client, rec, target, fn, tracer)
        busy += rec["end"] - rec["start"]
        recs.append(rec)
    return recs, busy


# -- one measurement --

def _boot_and_warm(workload: str, inputs: dict, seed: int, tracer):
    stack = Stack(inputs, seed, tracer)
    try:
        if workload == "meta_churn":
            clients = [ChurnClient(stack, u, seed, inputs) for u in USERS]
        elif workload == "meta_read":
            clients = [ReadClient(stack, i, seed) for i in range(2)]
        else:
            clients = [BulkClient(stack, inputs)]
        for c in clients:
            c.warm_up()
    except BaseException:
        stack.stop()
        stack.remove()
        raise
    return stack, clients


def tail_latency(lat_ms: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with 10 samples beyond it."""
    xs = sorted(lat_ms)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


def measure(workload: str, seed: int, seconds: float, tracer: Tracer | None = None,
            setup_repeats: int = SETUP_REPEATS, setup_budget_s: float = SETUP_BUDGET_S,
            max_ops: int | None = None) -> dict:
    """Set up (several times, keeping the last stack), run, check, report.

    Set-up runs at least setup_repeats times and until the repeats have
    taken setup_budget_s, so a fast set-up still gets a steady median.
    max_ops caps ops per client thread (rounds, for bulk_bytes); the run
    stops at that cap or at the time limit, whichever comes first.  The
    tests use it to replay a fixed op sequence.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    inputs = make_inputs(workload, seed)
    setup_s = []
    stack = None
    if tracer is not None:
        tracer.install()
    try:
        while True:
            t0 = perf_counter()
            stack, clients = _boot_and_warm(workload, inputs, seed, tracer)
            setup_s.append(perf_counter() - t0)
            if len(setup_s) >= setup_repeats and (
                    sum(setup_s) >= setup_budget_s or len(setup_s) >= MAX_SETUP_REPEATS):
                break
            stack.stop()
            stack.remove()
            stack = None
        if tracer is not None:
            tracer.recording = True
        if workload == "bulk_bytes":
            recs, phase_s = run_rounds(clients[0], seconds, tracer, max_ops)
        else:
            recs, phase_s = run_threads(clients, seconds, tracer, max_ops)
        if tracer is not None:
            tracer.recording = False
        invariants = {}
        for c in clients:
            invariants.update(c.verify([r for r in recs if r["client"] is c]))
        jobs_left, exposures_live = stack.leftovers()
        stack.stop()
        sent, received = stack.wire_totals()
        result = _summarize(workload, recs, phase_s, stack.ledger)
    finally:
        if tracer is not None:
            tracer.recording = False
            tracer.uninstall()
        if stack is not None:
            stack.stop()
            stack.remove()
    invariants["bytes_reconcile"] = sent == received
    big = [r for r in recs if r["op"] in CLOUD_KINDS and r["ok"]
           and r.get("input_bytes", 0) >= MiB]
    invariants["agent_bytes_bounded"] = all(r["agent_bytes"] < AGENT_BYTE_BUDGET for r in big)
    result.update({
        "workload": workload,
        "seed": seed,
        "setup_s": statistics.median(setup_s),
        "setup_runs_s": setup_s,
        "invariants": invariants,
        "wire_sent": sent,
        "wire_received": received,
        "agent_big_ops": len(big),
        "worker.job_dirs_left": jobs_left,
        "worker.exposures_live": exposures_live,
    })
    if tracer is not None:
        layers, table = layer_report(tracer, recs)
        layers["worker.job_dirs_left"] = jobs_left
        layers["worker.exposures_live"] = exposures_live
        result["layers"] = layers
        result["layer_table"] = table
    return result


def _summarize(workload: str, recs: list[dict], phase_s: float, ledger: Ledger) -> dict:
    for r in recs:
        r.pop("client")
        principals = {"agent:" + a for a in r["accounts"]}
        r["agent_bytes"] = (ledger.bytes_in(r["start"], r["end"], principals)
                            if r["op"] in CLOUD_KINDS else 0)
    done = [r for r in recs if r["ok"]]
    failed = [r for r in recs if not r["ok"] or not r.get("check", False)]
    lat_ms = [(r["end"] - r["start"]) * 1000.0 for r in done]
    tail, pct, n = tail_latency(lat_ms) if lat_ms else (float("nan"), 0.0, 0)
    out = {
        "attempted": len(recs),
        "failed": len(failed),
        "errors": sorted({r.get("error", "check failed") for r in failed}),
        "phase_s": phase_s,
        "ops_per_s": len(done) / phase_s if phase_s > 0 else 0.0,
        # the upper median is an observed latency; on bulk_bytes, whose op
        # types fall in a fast and a slow cluster, the mean of the two
        # middle values would sit in the gap between them
        "op_p50_ms": statistics.median_high(lat_ms) if lat_ms else float("nan"),
        "op_tail_ms": tail,
        "op_tail_pct": pct,
        "op_samples": n,
        "failed_op_ratio": len(failed) / len(recs) if recs else 0.0,
        "ops_by_kind": {k: sum(1 for r in recs if r["op"] == k)
                        for k in sorted({r["op"] for r in recs})},
        "p50_ms_by_kind": {k: statistics.median((r["end"] - r["start"]) * 1000.0
                                                for r in done if r["op"] == k)
                           for k in sorted({r["op"] for r in done})},
        # per client, in op order: what must replay exactly for a given seed
        "op_digest": sorted((r["accounts"], r["seq"], r["op"], r.get("input_bytes", 0),
                             r["agent_bytes"]) for r in recs),
    }
    cloud = [r for r in done if r["op"] in CLOUD_KINDS]
    out["agent_kib_per_cloud_op"] = (
        sum(r["agent_bytes"] for r in cloud) / len(cloud) / 1024.0 if cloud else None)
    tp = [r for r in done if r["op"] == "recv_private"]
    fetched = sum(ledger.bytes_in(r["start"], r["end"], purpose="intermediate-fetch")
                  for r in tp)
    out["transfer_wire_ratio"] = (
        fetched / sum(r["input_bytes"] for r in tp) if tp else None)
    for name in MIB_S_KINDS:
        parts = TRANSFERS.get(name, (name,))
        # one row per op, or per send and recv pair, in op order
        rows = zip(*([r for r in recs if r["op"] == k] for k in parts))
        times = [sum(r["end"] - r["start"] for r in row) for row in rows
                 if all(r["ok"] for r in row)]
        out[f"{name}_mib_s"] = None
        if times and workload == "bulk_bytes":
            size = next(r["input_bytes"] for r in done if r["op"] == parts[0])
            out[f"{name}_mib_s"] = size / MiB / statistics.median(times)
    return out
