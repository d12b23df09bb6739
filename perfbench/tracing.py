"""Span recorder for the traced run.

Spans are taken only from this package, around seams the program exposes:
the storage backend the benchmark injects, the channel factory and the frame
taps of `open_channel` and `Listener`, module-level functions that the
program looks up through its module globals, and public `Worker` methods.
Nothing inside `src/` is edited.

Each span has a name, a start, an end, the thread it ran on and the op it
belongs to.  An op is one timed user operation driven from a client thread.
Spans from other threads are attributed to an op by a key the call carries:
the storage account (one client thread drives each account), the credential
nonce (sealed by the agent, opened by the worker), or the client's socket
address as the server sees it.  A thread keyed once stays bound to that op
until the op ends.  Parents are assigned after the run (see `_parent`), and
the op itself is the root, so the root's self time is the op's unattributed
remainder.

Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import json
import threading
from collections import Counter, defaultdict
from time import perf_counter

from skyrelay import agent as sky_agent
from skyrelay import ppm as sky_ppm
from skyrelay import wire as sky_wire
from skyrelay import worker as sky_worker
from skyrelay.storage import LocalDirBackend, StorageBackend

# (module, attribute, span name): functions the program calls through its
# module globals, so replacing the attribute puts a span around every call
FUNCTION_SEAMS = (
    (sky_wire, "encode_message", "wire.encode"),
    (sky_wire, "decode_message", "wire.decode"),
    (sky_agent, "compile_op_to_fois", "core.compile"),
    (sky_worker, "validate_foi_sequence", "core.validate"),
    (sky_ppm, "downscale_to_fit", "ppm.downscale"),
)

# request spans per channel purpose; the rest are control traffic
REQUEST_SPANS = {
    "grant": "coordinator.grant_rtt",
    "verify": "coordinator.verify_rtt",
    "job": "agent.job_rtt",
    "pull": "wire.fetch_chunk",
    "intermediate-fetch": "wire.fetch_chunk",
}

# the per-layer metrics, in report order; span names carry no unit suffix
TIME_METRICS = (
    "storage.authenticate", "storage.put_object", "storage.get_object",
    "storage.basic_op", "storage.sync_shadow", "storage.open",
    "agent.sync", "agent.pull",
    "coordinator.grant_rtt", "coordinator.verify_rtt",
    "wire.encode", "wire.decode", "wire.connect", "wire.fetch_chunk",
    "worker.start_wait", "worker.step_get", "worker.step_put",
    "worker.step_download", "worker.step_op_compress", "worker.step_op_encrypt",
    "worker.step_op_convert", "worker.step_push", "worker.expose",
    "worker.read_exposed",
    "keying.seal", "keying.open", "core.compile", "core.validate",
    "ppm.downscale",
)
COUNT_METRICS = ("storage.calls", "agent.channels", "agent.heartbeats", "wire.frames")


class Span:
    __slots__ = ("name", "start", "end", "op", "thread", "self_s")

    def __init__(self, name, start, end, op, thread):
        self.name = name
        self.start = start
        self.end = end
        self.op = op
        self.thread = thread
        self.self_s = 0.0


class Tracer:
    """Collects spans and counts while `recording` is set."""

    def __init__(self):
        self.recording = False
        self.spans: list[Span] = []
        self.counts: Counter = Counter()  # (op, name) -> n
        self.grant_pids: Counter = Counter()
        self.token_account: dict[str, str] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._active: dict[int, tuple[str, ...]] = {}
        self._account_op: dict[str, int] = {}
        self._nonce_op: dict[bytes, int] = {}
        self._peer_op: dict[str, int] = {}
        self._thread_op: dict[int, int] = {}
        self._client_threads: set[int] = set()
        self._saved: list[tuple[object, str, object]] = []

    # -- op scope, entered on the client thread that drives the op --

    def begin_op(self, op: int, accounts: tuple[str, ...]):
        with self._lock:
            self._active[op] = accounts
            for a in accounts:
                self._account_op[a] = op
            self._client_threads.add(threading.get_ident())
        self._local.op = op

    def end_op(self, op: int):
        self._local.op = None
        with self._lock:
            accounts = self._active.pop(op)
            for a in accounts:
                if self._account_op.get(a) == op:
                    del self._account_op[a]
            for table in (self._nonce_op, self._peer_op, self._thread_op):
                for k in [k for k, v in table.items() if v == op]:
                    del table[k]

    def resolve(self, account: str | None = None, nonce: bytes | None = None,
                peer: str | None = None) -> int | None:
        """The op the calling thread is working for, or None (background)."""
        op = getattr(self._local, "op", None)
        if op is not None:
            return op
        ident = threading.get_ident()
        if account is not None:
            op = self._account_op.get(account)
        elif nonce is not None:
            op = self._nonce_op.get(nonce)
        elif peer is not None:
            op = self._peer_op.get(peer)
        if op is not None:
            self._thread_op[ident] = op
            return op
        op = self._thread_op.get(ident)
        if op is None and len(self._active) == 1:
            op = next(iter(self._active))
        return op

    # -- recording --

    def add(self, name: str, start: float, end: float, op: int | None):
        self.spans.append(Span(name, start, end, op, threading.get_ident()))

    def count(self, name: str, op: int | None):
        if self.recording:
            self.counts[(op, name)] += 1

    def wrap(self, name: str, fn, key=None):
        """fn with a span around each call; key(args) gives the attribution."""
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            op = self.resolve(**key(*args)) if key else self.resolve()
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, t0, perf_counter(), op)
        return traced

    def install(self):
        """Put spans around the module-level seams; undo with uninstall()."""
        for mod, attr, name in FUNCTION_SEAMS:
            self._patch(mod, attr, self.wrap(name, getattr(mod, attr)))
        seal = sky_agent.encrypt_credentials

        def traced_seal(*args, **kwargs):
            if not self.recording:
                return seal(*args, **kwargs)
            op = self.resolve()
            t0 = perf_counter()
            ct = seal(*args, **kwargs)
            self.add("keying.seal", t0, perf_counter(), op)
            if op is not None:
                self._nonce_op[ct.nonce] = op
            return ct
        self._patch(sky_agent, "encrypt_credentials", traced_seal)
        self._patch(sky_worker, "decrypt_credentials", self.wrap(
            "keying.open", sky_worker.decrypt_credentials,
            key=lambda state, ct: {"nonce": ct.nonce}))

    def _patch(self, mod, attr, value):
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self):
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def trace_worker(self, w):
        """Spans around the public exposure methods of one worker."""
        w.expose_intermediate = self.wrap("worker.expose", w.expose_intermediate)
        w.read_exposed = self.wrap("worker.read_exposed", w.read_exposed)

    def trace_agent(self, a):
        a.sync = self.wrap("agent.sync", a.sync)

    # -- channels --

    def open_client(self, principal: str, addr: str, purpose: str):
        """open_channel with a connect span, a frame tap and request spans."""
        op = self.resolve() if self.recording else None
        is_agent = principal.startswith("agent:")
        tap = _ClientTap(self, purpose, is_agent)
        t0 = perf_counter()
        ch = sky_wire.open_channel(addr, tap=tap)
        t1 = perf_counter()
        if not self.recording:
            return ch
        tap.op = op
        self.add("wire.connect", t0, t1, op)
        if is_agent:
            self.count("agent.channels", op)
        host, port = ch.sock.getsockname()[:2]
        if op is not None:
            self._peer_op[sky_wire.format_addr(host, port)] = op
        name = REQUEST_SPANS.get(purpose, "rpc." + purpose)
        ch.request = self.wrap(name, ch.request)
        if purpose == "pull":
            close = ch.close

            def traced_close():
                close()
                self.add("agent.pull", t0, perf_counter(), op)
            ch.close = traced_close
        return ch

    def server_tap(self, peer: str):
        def tap(direction: str, frame: bytes):
            if not self.recording:
                return
            op = self.resolve(peer=peer)
            if direction == "sent":
                self.count("wire.frames", op)
        return tap

    # -- results --

    def assign_self_times(self) -> dict[int, list[Span]]:
        """Group spans by op and set each span's self time."""
        by_op: dict[int, list[Span]] = defaultdict(list)
        for s in self.spans:
            by_op[s.op].append(s)
        for op, spans in by_op.items():
            if op is None:
                for s in spans:
                    s.self_s = s.end - s.start
                continue
            children: dict[int, list[Span]] = defaultdict(list)
            root = next(s for s in spans if s.name == "op")
            for s in spans:
                if s is not root:
                    children[id(self._parent(s, spans, root))].append(s)
            for s in spans:
                s.self_s = (s.end - s.start) - _covered(s, children.get(id(s), ()))
        return by_op

    def _parent(self, s: Span, spans: list[Span], root: Span) -> Span:
        """The shortest span enclosing s on its own thread; failing that, for
        a span from a server or job thread, the shortest span holding its
        midpoint that is on the client thread or strictly longer than s.

        Step spans are cut from frame arrival times on the client, a little
        after the worker started the step, so a worker-side span need not
        lie wholly inside its step.
        """
        dur = s.end - s.start
        same = [p for p in spans if p is not s and p.thread == s.thread
                and p.start <= s.start and s.end <= p.end]
        if same:
            return min(same, key=lambda p: p.end - p.start)
        if s.thread in self._client_threads:
            return root
        mid = (s.start + s.end) / 2
        cross = [p for p in spans if p is not s and p.start <= mid <= p.end
                 and (p.thread in self._client_threads or p.end - p.start > dur)]
        return min(cross, key=lambda p: p.end - p.start, default=root)


class _ClientTap:
    """Frame tap of one client channel.

    Counts frames and, on the agent's job channels, turns the step field of
    HEARTBEAT events into step spans: step i runs from its first beat to the
    next step's first beat, or to the terminal reply.
    """

    def __init__(self, tracer: Tracer, purpose: str, is_agent: bool):
        self.tracer = tracer
        self.purpose = purpose
        self.is_agent = is_agent
        self.op: int | None = None
        self.submitted = 0.0
        self.fois: list[dict] = []
        self.steps: dict[int, float] = {}

    def __call__(self, direction: str, frame: bytes):
        tr = self.tracer
        if not tr.recording:
            return
        now = perf_counter()
        if direction == "sent":
            tr.count("wire.frames", self.op)
        if self.purpose not in ("job", "grant"):
            return
        doc = json.loads(frame[4:])
        kind = doc["kind"]
        if kind == "INSTANCE_GRANT":
            tr.grant_pids[doc["body"]["pid"]] += 1
        elif kind == "SUBMIT_OP":
            self.submitted = now
            self.fois = doc["body"]["fois"]
        elif kind == "HEARTBEAT":
            if self.is_agent:
                tr.count("agent.heartbeats", self.op)
            self.steps.setdefault(doc["body"]["step"], now)
        elif kind in ("RESULT", "ERROR") and self.purpose == "job":
            starts = sorted(self.steps.items())
            if starts:
                tr.add("worker.start_wait", self.submitted, starts[0][1], self.op)
            for i, (step, t) in enumerate(starts):
                end = starts[i + 1][1] if i + 1 < len(starts) else now
                foi = self.fois[step]
                verb = foi["verb"] if foi["verb"] != "op" else "op_" + foi["op_kind"]
                tr.add("worker.step_" + verb, t, end, self.op)


def _covered(span: Span, children) -> float:
    """Length of span's interval covered by the union of its children."""
    total = 0.0
    cur_start = cur_end = None
    for c in sorted(children, key=lambda c: c.start):
        a, b = max(c.start, span.start), min(c.end, span.end)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class TracedBackend(StorageBackend):
    """A LocalDirBackend with a span around the open and every storage call."""

    def __init__(self, tracer: Tracer, root: str):
        self.tracer = tracer
        op = tracer.resolve() if tracer.recording else None
        t0 = perf_counter()
        self.inner = LocalDirBackend(root)
        if tracer.recording:
            tracer.add("storage.open", t0, perf_counter(), op)

    def _call(self, method: str, account: str | None, *args):
        tr = self.tracer
        fn = getattr(self.inner, method)
        if not tr.recording:
            return fn(*args)
        op = tr.resolve(account=account)
        tr.count("storage.calls", op)
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            tr.add("storage." + method, t0, perf_counter(), op)

    def authenticate(self, token):
        return self._call("authenticate", self.tracer.token_account.get(token), token)

    def basic_op(self, session, action, args):
        return self._call("basic_op", session.account_id, session, action, args)

    def get_object(self, session, path):
        return self._call("get_object", session.account_id, session, path)

    def put_object(self, session, path, data):
        return self._call("put_object", session.account_id, session, path, data)

    def list_meta(self, session, path="/", recursive=False):
        return self._call("list_meta", session.account_id, session, path, recursive)

    def sync_shadow(self, session):
        return self._call("sync_shadow", session.account_id, session)


def layer_report(tracer: Tracer, ops: list[dict]) -> tuple[dict, str]:
    """Per-layer metrics (per op) and the per-op-type table text.

    ops are the timed ops, each with "id", "op" (type) and "ok".
    """
    by_op = tracer.assign_self_times()
    n = max(1, len(ops))
    totals: Counter = Counter()
    selfs: Counter = Counter()
    calls: Counter = Counter()
    for op_id, spans in by_op.items():
        if op_id is None:
            continue
        for s in spans:
            totals[s.name] += s.end - s.start
            selfs[s.name] += s.self_s
            calls[s.name] += 1
    metrics = {}
    for name in TIME_METRICS:
        metrics[name + "_ms"] = totals[name] * 1000.0 / n
    counted = Counter()
    for (op_id, name), k in tracer.counts.items():
        if op_id is not None:
            counted[name] += k
    for name in COUNT_METRICS:
        metrics[name + "_per_op"] = counted[name] / n
    grants = sum(tracer.grant_pids.values())
    metrics["coordinator.top_instance_grant_share"] = (
        max(tracer.grant_pids.values()) / grants if grants else 0.0)
    metrics["op.unattributed_ms"] = selfs["op"] * 1000.0 / n

    lines = []
    types = sorted({o["op"] for o in ops})
    for t in types:
        ids = [o["id"] for o in ops if o["op"] == t]
        k = len(ids)
        rows: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for op_id in ids:
            for s in by_op.get(op_id, ()):
                r = rows[s.name]
                r[0] += 1
                r[1] += s.end - s.start
                r[2] += s.self_s
        wall = rows.pop("op", [0, 0.0, 0.0])
        lines.append(f"[{t}] n={k} wall={wall[1] * 1000 / k:.2f} ms/op "
                     f"unattributed={wall[2] * 1000 / k:.2f} ms/op")
        lines.append(f"  {'span':<26}{'calls/op':>9}{'total ms/op':>13}{'self ms/op':>12}")
        for name, (c, tot, slf) in sorted(rows.items(), key=lambda kv: -kv[1][1]):
            lines.append(f"  {name:<26}{c / k:>9.2f}{tot * 1000 / k:>13.3f}"
                         f"{slf * 1000 / k:>12.3f}")
    bg = Counter()
    for s in by_op.get(None, ()):
        bg[s.name] += s.end - s.start
    if bg:
        lines.append("[background, in no op] "
                     + ", ".join(f"{k}={v * 1000:.1f} ms" for k, v in bg.most_common()))
    return metrics, "\n".join(lines)


def write_spans(tracer: Tracer, path: str):
    with open(path, "w", encoding="utf-8") as f:
        for s in tracer.spans:
            f.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                "op": s.op, "thread": s.thread,
                                "self": s.self_s}) + "\n")
