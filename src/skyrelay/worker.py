"""Worker service: executes FOI sequences against the storage backend.

A worker binds a listener, optionally registers with a coordinator (whose
reply hands it a process id, a certificate, the epoch-key chain and the
ping interval), then accepts jobs.  The chain's root is random, not the
paper's H(pid || t0): pid and t0 are in the certificate every grantee
holds.  A job whose get fetches an object of at most
storage.INLINE_MAX_BYTES keeps each step's bytes in memory; any other step
writes jobs/<job_id>.<step> in the scratch directory, and the job removes
its step files when it ends.  Whether a job may run is decided whole at
intake, before it is registered, and its steps trust what intake admitted.
Decrypted storage credentials exist only inside the running job.

Workers shut themselves down shortly before the next billing boundary so an
instance shared for the remainder of a paid period never incurs another
charge.  One clock thread keeps time: it sleeps until the earliest of the
next key rotation, the next exposure sweep, the next ping to the
coordinator and that billing deadline.  A job also walks the chain to the
current time before it opens sealed credentials, so it never depends on how
late the clock thread woke.

A job's heartbeat events go on the channel that submitted it.  The job
thread beats at each step and per HEARTBEAT_QUANTUM_BYTES of work; the
connection thread, idle until the job's terminal frame because a channel
carries one request at a time, adds a backstop beat after
HEARTBEAT_BACKSTOP_S of silence, also while the job waits for a slot.

Produced files that must reach the requesting agent (or a transfer peer)
are not sent on the job channel; they are placed in a token-guarded
exposure area and fetched in bounded chunks, which keeps every frame under
the wire cap and keeps control traffic small.  An exposure has one reader:
it is retired once that reader reaches its end, and swept at its expiry
otherwise.  An encrypt op's file key is the exception: it goes back in the
job's RESULT under "keys", and is never written to this instance's disk.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import hmac
import io
import os
import platform
import re
import secrets
import shutil
import struct
import tempfile
import threading
import time
import urllib.request
import zlib
from concurrent.futures import CancelledError, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import ppm
from .core import (
    FOI,
    IO_CHUNK_BYTES,
    CredentialSet,
    sequence_from_wire,
    sequence_to_wire,
    validate_foi_sequence,
)
from .errors import (
    AlreadyExists,
    AuthError,
    ConfigError,
    CredentialAuthFailure,
    DecodeError,
    Gone,
    NotFound,
    PermissionDenied,
    ShutdownError,
    SkyrelayError,
    error_body,
)
from .keying import EpochKeyState, CredentialCiphertext, decrypt_credentials, job_binding
from .storage import StorageBackend
from .wire import Certificate, Channel, Listener, Message, ServerConn, default_opener

HEARTBEAT_QUANTUM_BYTES = 16 * 1024 * 1024
HEARTBEAT_BACKSTOP_S = 2.0
FETCH_CHUNK_BYTES = 4 * 1024 * 1024
EXPOSE_TTL_S = 900.0
EXPOSE_SWEEP_S = 30.0
DEFAULT_BILLING_PERIOD_S = 3600.0
DEFAULT_SAFETY_MARGIN_S = 60.0
LOG_MAX_LINES = 10_000
# gzip member header: deflate, no flags, mtime 0, XFL 2 (level 9), OS 255,
# as gzip.GzipFile(mtime=0) writes it
GZIP_HEADER = b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x02\xff"
DEFLATE_WINDOW = 32 * 1024
# a full block is stored unless a level-1 deflate of these slices shrinks
SAMPLE_SLICES = 4
SAMPLE_SLICE_BYTES = 4 * 1024
# the CPUs this process may run on, not the host's
CPU_COUNT = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
             else os.cpu_count() or 1)
GZIP_THREADS = CPU_COUNT
# the encrypt op's output: a format byte and a 7-byte nonce prefix, then
# IO_CHUNK_BYTES segments of plaintext, each sealed with a GCM tag
STREAM_CIPHER = "aes-256-gcm-stream"
STREAM_FORMAT = 1
STREAM_HEADER_BYTES = 8
GCM_TAG_BYTES = 16

# A job id names the job's step files, jobs/<job_id>.<step>, so it must stay
# one segment, and it has no dot, so no two jobs' names can meet.
JOB_ID_RE = re.compile(r"[A-Za-z0-9_-]{1,64}")


def make_exposure_uri(addr: str, job_id: str, file_id: str) -> str:
    return f"skyrelay://{addr}/{job_id}/{file_id}"


def parse_exposure_uri(uri: str) -> tuple[str, str, str]:
    if not uri.startswith("skyrelay://"):
        raise ValueError(f"not an exposure URI: {uri!r}")
    rest = uri[len("skyrelay://"):]
    parts = rest.split("/")
    if len(parts) != 3 or not all(parts):
        raise ValueError(f"malformed exposure URI: {uri!r}")
    return parts[0], parts[1], parts[2]


def fetch_reader(ch: Channel, uri: str, guest_token: str,
                 timeout: float) -> Callable[[int], tuple[bytes, bool]]:
    """read(offset) -> (data, eof) over a fetch channel to the exposing worker."""
    def read(offset: int) -> tuple[bytes, bool]:
        reply = ch.request("SUBMIT_OP", {"fetch": {
            "uri": uri,
            "guest_token": guest_token,
            "offset": offset,
            "max_bytes": FETCH_CHUNK_BYTES,
        }}, timeout=timeout)
        if reply.data is None:
            raise DecodeError("fetch reply is not a data frame")
        return reply.data, reply.body["eof"]
    return read


def pull_exposure(read: Callable[[int], tuple[bytes, bool]], path: str,
                  on_chunk: Callable[[int], None] | None = None):
    """Copy an exposed file into path, one bounded chunk per read(offset).

    The bytes land in path + ".part", renamed to path only at eof, so a
    failed pull leaves nothing that looks like a finished file.
    """
    part = path + ".part"
    offset = 0
    try:
        with open(part, "wb") as f:
            while True:
                data, eof = read(offset)
                if len(data) > FETCH_CHUNK_BYTES or not (data or eof):
                    raise DecodeError(f"read at offset {offset} returned {len(data)} bytes "
                                      f"(eof={eof}); want 1 to {FETCH_CHUNK_BYTES}")
                f.write(data)
                offset += len(data)
                if on_chunk is not None:
                    on_chunk(len(data))
                if eof:
                    break
        os.replace(part, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(part)  # left only when the pull failed


@dataclass
class WorkerConfig:
    listen_addr: str = "127.0.0.1:0"
    coordinator_addr: str | None = None
    backend: StorageBackend | None = None
    scratch_dir: str | None = None
    billing_period_s: float = DEFAULT_BILLING_PERIOD_S
    safety_margin_s: float = DEFAULT_SAFETY_MARGIN_S
    max_jobs: int = 4
    shared: bool = True
    share_duration_s: float = 3600.0
    capacity: int = 100
    startup_delay_s: float = 0.0
    # bench hooks: client channel factory (addr, purpose) and server-side taps
    channel_factory: Callable[[str, str], Channel] | None = None
    tap_factory: Callable[[str], Callable[[str, bytes], None] | None] | None = None


class _Exposed:
    __slots__ = ("path", "guest_token", "expires_at", "size_bytes")

    def __init__(self, path, guest_token, expires_at, size_bytes):
        self.path = path
        self.guest_token = guest_token
        self.expires_at = expires_at
        self.size_bytes = size_bytes


class _Job:
    """One FOI sequence run as a pipeline: each get, download or op leaves
    its output in `data` or in `file`, and op, put and push read the latest.

    A get of an object of at most storage.INLINE_MAX_BYTES, and each op
    after it, keep bytes in `data`, so such a job holds about twice that at
    most; any other output is the step file `<prefix><step>`.
    """

    def __init__(self, job_id: str, fois: list[FOI], conn: ServerConn, seq: int):
        self.job_id = job_id
        self.fois = fois
        self.conn = conn
        self.seq = seq
        self.step: int | None = None  # the running step; None until the first
        self.work_bytes = 0
        self.prefix: str | None = None  # jobs/<job_id>. in the scratch directory
        self.file: str | None = None
        self.data: bytes | None = None
        self.outputs: list[dict] = []
        self.pushed: list[dict] = []
        self.keys: list[dict] = []
        self.abort = threading.Event()
        self.finished = threading.Event()  # set once _run_job has cleaned up
        self.last_beat = time.monotonic()

    def step_path(self) -> str:
        return f"{self.prefix}{self.step}"


class Worker:
    """One instance of the service program."""

    def __init__(self, cfg: WorkerConfig):
        self.cfg = cfg
        self.addr: str | None = None
        self.pid: bytes | None = None
        self.certificate: Certificate | None = None
        self.coordinator_pub: bytes | None = None
        self.key_state: EpochKeyState | None = None
        self.share_until: int = 0
        self.ping_interval_s: float | None = None  # set by registration
        self._log_lines: collections.deque[str] = collections.deque(maxlen=LOG_MAX_LINES)
        self.started_at: float | None = None
        self.terminated = threading.Event()

        self._listener: Listener | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._gzip_pool: ThreadPoolExecutor | None = None
        self._jobs: dict[str, _Job] = {}
        self._exposed: dict[tuple[str, str], _Exposed] = {}
        self._open = cfg.channel_factory or default_opener
        self._key_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._log_lock = threading.Lock()
        self._stopping = False
        self._scratch_owned = cfg.scratch_dir is None
        self._scratch = cfg.scratch_dir or tempfile.mkdtemp(prefix="skyrelay-w-")
        os.makedirs(os.path.join(self._scratch, "jobs"), exist_ok=True)
        os.makedirs(os.path.join(self._scratch, "exposed"), exist_ok=True)

    # -- lifecycle --

    def start(self) -> str:
        """Boot the service; returns the listen address once ready."""
        if self.cfg.safety_margin_s >= self.cfg.billing_period_s:
            raise ConfigError("safety margin must be smaller than the billing period")
        if self.cfg.startup_delay_s > 0:
            time.sleep(self.cfg.startup_delay_s)  # stands in for instance boot
        self._listener = Listener(self.cfg.listen_addr, self._handle,
                                  tap_factory=self.cfg.tap_factory)
        self.addr = self._listener.addr
        self.share_until = int(time.time() + self.cfg.share_duration_s)
        self._executor = ThreadPoolExecutor(
            max_workers=self.cfg.max_jobs, thread_name_prefix="skyrelay-job")
        # zlib releases the GIL, so compress jobs deflate their blocks here
        self._gzip_pool = ThreadPoolExecutor(
            max_workers=GZIP_THREADS, thread_name_prefix="skyrelay-gzip")
        if self.cfg.coordinator_addr:
            try:
                self._register()
            except Exception:
                self._listener.close()
                raise
        self._start_service()
        return self.addr

    def _register(self):
        ch = self._open(self.cfg.coordinator_addr, "register")
        try:
            reply = ch.request("REGISTER_INSTANCE", {
                "addr": self.addr,
                "os_info": platform.system().lower(),
                "hardware_info": f"{CPU_COUNT} vcpu",
                "share_until": self.share_until,
                "shared": self.cfg.shared,
                "capacity": self.cfg.capacity,
            })
        finally:
            ch.close()
        body = reply.body
        pid = bytes.fromhex(body["pid"])
        with self._key_lock:
            self.pid = pid
            self.coordinator_pub = bytes.fromhex(body["coordinator_pub"])
            self.certificate = Certificate.from_wire(body["certificate"])
            # epoch 0 at t0; the clock thread walks it up to now
            self.key_state = EpochKeyState(
                pid=pid,
                t0=int(body["t0"]),
                offset_s=int(body["offset_s"]),
                interval_s=int(body["interval_s"]),
                epoch=0,
                key_current=bytes.fromhex(body["k_root"]),
                key_previous=None,
            )
        self.ping_interval_s = float(body["ping_interval_s"])
        self._log(f"registered pid={pid.hex()} at {self.cfg.coordinator_addr}")

    def _start_service(self):
        self.started_at = time.monotonic()
        deadline = min(
            self.share_until,
            time.time() + self.cfg.billing_period_s,
        ) - self.cfg.safety_margin_s
        threading.Thread(target=self._clock_loop, args=(deadline,),
                         name="skyrelay-clock", daemon=True).start()
        self._log(f"service ready at {self.addr}")

    def stop(self):
        """Tear down without the billing-deadline protocol (tests, CLI exit)."""
        self._shut_down("stopped", notify=False)
        if self._scratch_owned:
            shutil.rmtree(self._scratch, ignore_errors=True)

    def _shut_down(self, reason: str, notify: bool):
        """Stop serving; with notify, send SHUTDOWN_NOTICE (a retired
        instance skips it: its coordinator has already dropped it)."""
        if self.terminated.is_set():
            return
        self._stopping = True
        self._log(f"{reason}, shutting down")
        self._abort_jobs()
        self._shutdown_pools()
        if notify and self.cfg.coordinator_addr and self.pid is not None:
            try:
                ch = self._open(self.cfg.coordinator_addr, "shutdown")
                try:
                    ch.request("SHUTDOWN_NOTICE",
                               {"pid": self.pid.hex(), "addr": self.addr},
                               timeout=5.0)
                finally:
                    ch.close()
            except SkyrelayError as e:
                self._log(f"shutdown notice failed: {e}")
        if self._listener:
            self._listener.close()
        self.terminated.set()

    def _shutdown_pools(self):
        if self._executor:
            self._executor.shutdown(wait=False)
        if self._gzip_pool:
            # a block deflates in well under a second; queued blocks are dropped
            self._gzip_pool.shutdown(wait=True, cancel_futures=True)

    def _abort_jobs(self):
        with self._state_lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            job.abort.set()
        deadline = time.monotonic() + 1.0
        for job in jobs:
            job.finished.wait(deadline - time.monotonic())

    # -- background loops --

    def _clock_loop(self, deadline: float):
        """Rotate the key chain, expire exposures, ping the coordinator and
        shut down at the billing deadline, sleeping until the earliest.

        Its only blocking calls are the HEARTBEAT ping and the
        SHUTDOWN_NOTICE, coordinator requests bounded by the connect timeout
        plus a 5 s reply timeout.  It never writes to a job's channel, whose
        reader may stop reading and stall the billing deadline.
        """
        next_sweep = time.time() + EXPOSE_SWEEP_S
        next_ping = (time.time() + self.ping_interval_s
                     if self.ping_interval_s is not None else float("inf"))
        liveness: Channel | None = None  # kept across pings
        try:
            while True:
                now = time.time()
                if now >= deadline:
                    self._shut_down("billing deadline reached", notify=True)
                    return
                if now >= next_sweep:
                    next_sweep = now + EXPOSE_SWEEP_S
                    with self._state_lock:
                        for k in [k for k, e in self._exposed.items() if now >= e.expires_at]:
                            with contextlib.suppress(OSError):
                                os.remove(self._exposed.pop(k).path)
                if now >= next_ping:
                    next_ping = now + self.ping_interval_s
                    try:
                        if liveness is None:
                            liveness = self._open(self.cfg.coordinator_addr, "liveness")
                        reply = liveness.request("HEARTBEAT", {"pid": self.pid.hex()},
                                                 timeout=5.0)
                    except SkyrelayError:
                        if liveness is not None:
                            liveness.close()
                        liveness = None  # reopened at the next ping
                    else:
                        if reply.body.get("status") == "retired":
                            self._shut_down("retired by the coordinator", notify=False)
                            return
                wake = min(deadline, next_sweep, next_ping)
                with self._key_lock:
                    if self.key_state is not None:
                        self._advance_keys(now)
                        wake = min(wake, self.key_state.next_rotation_at())
                if self.terminated.wait(wake - time.time()):
                    return
        finally:
            if liveness is not None:
                liveness.close()

    def _advance_keys(self, now: float):
        """Walk the chain through now; caller holds _key_lock."""
        if self.key_state.advance(now):
            self._log(f"rotated to epoch {self.key_state.epoch}")

    @property
    def log(self) -> list[str]:
        """The latest LOG_MAX_LINES log lines, oldest first."""
        with self._log_lock:
            return list(self._log_lines)

    def _log(self, line: str):
        with self._log_lock:
            self._log_lines.append(f"{time.time():.3f} {line}")

    def wire_totals(self) -> tuple[int, int]:
        """(sent, received) on this worker's listener, cumulative."""
        if self._listener is None:
            return (0, 0)
        return self._listener.total_bytes()

    # -- message handling --

    def _handle(self, conn: ServerConn, msg: Message):
        if msg.kind == "SUBMIT_OP":
            if "fetch" in msg.body:
                self._handle_fetch(conn, msg)
            else:
                self._handle_submit(conn, msg)
        else:
            raise DecodeError(f"worker does not accept {msg.kind}")

    # -- exposure --

    def expose_intermediate(self, src: str | bytes, job_id: str, name: str) -> dict:
        """Expose a step's output: its file, by link, or its bytes."""
        file_id = secrets.token_hex(16)
        guest_token = secrets.token_hex(16)
        dst = os.path.join(self._scratch, "exposed", f"{job_id}.{file_id}")
        if isinstance(src, bytes):
            with open(dst, "xb") as f:
                f.write(src)
        else:
            # the job never rewrites a step's file, and its step files are on
            # the same scratch volume, so a link outlives them without a copy
            os.link(src, dst)
        size = os.path.getsize(dst)
        expires_at = time.time() + EXPOSE_TTL_S
        with self._state_lock:
            self._exposed[(job_id, file_id)] = _Exposed(dst, guest_token, expires_at, size)
        self._log(f"exposed {name} as {file_id} (job {job_id}, {size} bytes)")
        return {
            "file_id": file_id,
            "name": name,
            "size_bytes": size,
            "uri": make_exposure_uri(self.addr, job_id, file_id),
            "guest_token": guest_token,
            "expires_at": int(expires_at),
        }

    def _exposure(self, job_id: str, file_id: str, guest_token: str) -> _Exposed:
        """The live exposure the guest token opens, or the reason it opens none."""
        with self._state_lock:
            entry = self._exposed.get((job_id, file_id))
        if entry is None:
            raise NotFound(f"no exposed file {file_id} for job {job_id}")
        if time.time() >= entry.expires_at:
            raise Gone(f"exposure {file_id} expired")
        if not hmac.compare_digest(entry.guest_token, guest_token or ""):
            raise PermissionDenied("bad guest token")
        return entry

    def read_exposed(self, job_id: str, file_id: str, guest_token: str,
                     offset: int, max_bytes: int) -> tuple[bytes, bool, int]:
        entry = self._exposure(job_id, file_id, guest_token)
        max_bytes = max(0, min(max_bytes, FETCH_CHUNK_BYTES))
        with open(entry.path, "rb") as f:
            f.seek(offset)
            data = f.read(max_bytes)
        eof = offset + len(data) >= entry.size_bytes
        if eof:
            self._retire(job_id, file_id)
        return data, eof, entry.size_bytes

    def _retire(self, job_id: str, file_id: str):
        """Drop an exposure once its one reader has reached its end; the
        TTL sweep stays as the backstop for readers that never do."""
        with self._state_lock:
            entry = self._exposed.pop((job_id, file_id), None)
        if entry is not None:
            with contextlib.suppress(OSError):
                os.remove(entry.path)

    def _handle_fetch(self, conn: ServerConn, msg: Message):
        spec = msg.body["fetch"]
        if not isinstance(spec, dict) or not isinstance(spec.get("uri"), str):
            raise DecodeError(f"fetch must be an object with a string uri, got {spec!r}")
        offset = spec.get("offset", 0)
        max_bytes = spec.get("max_bytes", FETCH_CHUNK_BYTES)
        if not all(type(v) is int and v >= 0 for v in (offset, max_bytes)):
            raise DecodeError(f"fetch offset and max_bytes must be non-negative "
                              f"integers, got {offset!r} and {max_bytes!r}")
        try:
            addr, job_id, file_id = parse_exposure_uri(spec["uri"])
        except ValueError as e:
            raise DecodeError(str(e)) from None
        if addr != self.addr:
            raise NotFound(f"uri names {addr}, this instance is {self.addr}")
        try:
            data, eof, total = self.read_exposed(
                job_id, file_id, spec.get("guest_token", ""), offset, max_bytes)
        except SkyrelayError as e:
            self._log(f"fetch denied for {file_id}: {e.code}")
            raise
        conn.send_result(msg.seq, {"eof": eof, "size_total": total}, data=data)

    # -- job intake --

    def _handle_submit(self, conn: ServerConn, msg: Message):
        if self._stopping:
            raise ShutdownError("instance is shutting down")
        body = msg.body
        try:
            fois = sequence_from_wire(body["fois"])
        except (KeyError, TypeError) as e:
            raise DecodeError(f"bad fois: {e}") from None
        violations = validate_foi_sequence(fois)
        if violations:
            raise DecodeError("invalid FOI sequence: " + "; ".join(violations))
        job_id = body.get("job_id") or secrets.token_hex(6)
        if not isinstance(job_id, str) or not JOB_ID_RE.fullmatch(job_id):
            raise DecodeError(f"bad job_id {job_id!r}")
        # the whole admission rule, before the job is registered: a refusal leaves nothing
        ct = creds = None
        try:
            if "credentials_ct" in body:
                ct = CredentialCiphertext.from_wire(body["credentials_ct"])
            elif "credentials" in body:
                creds = CredentialSet.from_wire(body["credentials"])
        except (KeyError, TypeError, ValueError) as e:
            raise DecodeError(f"bad credentials: {e!r}") from None
        if ct is None and self.cfg.shared and self.cfg.coordinator_addr:
            raise PermissionDenied("a pool instance runs only jobs with sealed credentials")
        if ct is not None and self.key_state is None:
            raise CredentialAuthFailure("instance holds no key chain")
        if ct is None and creds is None and any(f.verb in ("get", "put") for f in fois):
            raise AuthError("get and put require storage credentials")
        with self._state_lock:
            if job_id in self._jobs:
                raise AlreadyExists(f"job {job_id} exists")
            job = _Job(job_id, fois, conn, msg.seq)
            self._jobs[job_id] = job
        if ct is not None:
            self._log(
                f"job {job_id}: {[f.verb for f in fois]} with sealed credentials "
                f"r={body['credentials_ct']['r']} nonce={body['credentials_ct']['nonce']} "
                f"epoch_hint={ct.epoch_hint}")
        else:
            self._log(f"job {job_id}: {[f.verb for f in fois]} "
                      + ("with owner credentials" if creds is not None
                         else "without credentials"))
        self._executor.submit(self._run_job, job, ct, creds)
        # Liveness guarantee: a beat at least every HEARTBEAT_BACKSTOP_S until
        # the job ends, queued or running.  Progress beats normally come much
        # faster, so this stays silent on any healthy run.
        while not job.finished.wait(job.last_beat + HEARTBEAT_BACKSTOP_S - time.monotonic()):
            if time.monotonic() - job.last_beat >= HEARTBEAT_BACKSTOP_S:
                self._beat(job)

    # -- job execution --

    def _beat(self, job: _Job):
        job.last_beat = time.monotonic()
        try:
            # a beat before the first step reports step 0
            job.conn.send_event("HEARTBEAT", job.seq, {
                "job_id": job.job_id, "step": job.step or 0, "work_bytes": job.work_bytes})
        except SkyrelayError:
            pass  # agent went away; job continues, terminal send will fail too

    def _add_work(self, job: _Job, n: int):
        if job.abort.is_set():
            raise ShutdownError("job aborted by instance shutdown")
        before = job.work_bytes
        job.work_bytes += n
        if job.work_bytes // HEARTBEAT_QUANTUM_BYTES > before // HEARTBEAT_QUANTUM_BYTES:
            self._beat(job)

    def _run_job(self, job: _Job, ct: CredentialCiphertext | None,
                 creds: CredentialSet | None):
        job.prefix = os.path.join(self._scratch, "jobs", job.job_id + ".")
        try:
            sc = creds
            if ct is not None:
                with self._key_lock:
                    self._advance_keys(time.time())
                    sc = decrypt_credentials(self.key_state, ct, aad=job_binding(
                        self.pid, job.job_id, sequence_to_wire(job.fois)))
            if sc is not None:
                if self.cfg.backend is None:
                    raise NotFound("worker has no storage backend configured")
                if self.cfg.backend.authenticate(sc.token) != sc:
                    raise AuthError("token does not belong to the named account")
            for i, foi in enumerate(job.fois):
                job.step = i
                self._beat(job)
                self._execute_foi(job, foi, sc)
                self._log(f"job {job.job_id}: step {i} ({foi.verb}) done")
            job.conn.send_result(job.seq, {
                "job_id": job.job_id,
                "outputs": job.outputs,
                "pushed": job.pushed,
                "keys": job.keys,
                "work_bytes": job.work_bytes,
            })
            self._log(f"job {job.job_id}: done, work_bytes={job.work_bytes}")
        except Exception as e:  # noqa: BLE001 - report, never hang the agent
            body = error_body(e)
            if job.step is not None:  # a failure before step 0 names no step
                body["step"] = job.step
            self._send_job_error(job, body)
        finally:
            for step in range(0 if job.step is None else job.step + 1):
                with contextlib.suppress(FileNotFoundError):
                    os.remove(f"{job.prefix}{step}")
            with self._state_lock:
                self._jobs.pop(job.job_id, None)
            job.finished.set()

    def _send_job_error(self, job: _Job, body: dict):
        where = f"at step {body['step']}" if "step" in body else "before step 0"
        self._log(f"job {job.job_id}: failed {where}: {body['code']} {body['message']}")
        try:
            job.conn.send_error(job.seq, body)
        except SkyrelayError:
            pass

    def _execute_foi(self, job: _Job, foi: FOI, sc: CredentialSet | None):
        if foi.verb == "download":
            self._foi_download(job, foi)
        elif foi.verb == "get":
            self._foi_get(job, foi, sc)
        elif foi.verb == "put":
            self._foi_put(job, foi, sc)
        elif foi.verb == "op":
            self._foi_op(job, foi)
        else:  # push
            job.pushed.append(self.expose_intermediate(
                job.file if job.data is None else job.data, job.job_id, foi.target))

    # -- verb implementations --

    def _foi_get(self, job: _Job, foi: FOI, sc: CredentialSet):
        path = job.step_path()
        data = self.cfg.backend.get_object_or_file(sc, foi.target, path)
        if data is None:
            job.file, job.data = path, None
            self._add_work(job, os.path.getsize(path))
        else:
            job.file, job.data = None, data
            self._add_work(job, len(data))

    def _foi_put(self, job: _Job, foi: FOI, sc: CredentialSet):
        if job.data is not None:
            meta = self.cfg.backend.put_object(sc, foi.target, job.data)
        else:
            # a job never writes a step's file again, so the store may keep it by link
            meta = self.cfg.backend.put_object_from(sc, foi.target, job.file)
        self._add_work(job, meta.size_bytes)
        job.outputs.append(meta.to_wire())

    def _foi_download(self, job: _Job, foi: FOI):
        url = foi.target
        throttle_bps = foi.op_params.get("throttle_bps")
        path = job.step_path()
        if url.startswith("skyrelay://"):
            self._fetch_exposed_to(job, url, foi.op_params.get("guest_token", ""), path)
        else:  # http:// or https://: intake admits no other scheme
            req = urllib.request.Request(url, headers={"User-Agent": "skyrelay-worker"})
            with urllib.request.urlopen(req, timeout=30) as fin, open(path, "wb") as fout:
                self._pump(job, fin, fout, throttle_bps)
        job.file, job.data = path, None

    def _pump(self, job: _Job, fin, fout, throttle_bps=None):
        while True:
            chunk = fin.read(IO_CHUNK_BYTES)
            if not chunk:
                return
            fout.write(chunk)
            self._add_work(job, len(chunk))
            if throttle_bps:
                self._throttled_wait(job, len(chunk) / throttle_bps)

    def _throttled_wait(self, job: _Job, seconds: float):
        # sleep in slices so an instance shutdown aborts promptly
        end = time.monotonic() + seconds
        while True:
            if job.abort.is_set():
                raise ShutdownError("job aborted by instance shutdown")
            left = end - time.monotonic()
            if left <= 0:
                return
            time.sleep(min(left, 0.05))

    def _fetch_exposed_to(self, job: _Job, uri: str, guest_token: str, path: str):
        addr, exp_job, file_id = parse_exposure_uri(uri)
        if addr == self.addr:
            # transfer through one shared instance: the exposure is a local
            # file that nothing writes again, so the step takes a link to it
            entry = self._exposure(exp_job, file_id, guest_token)
            os.link(entry.path, path)
            self._retire(exp_job, file_id)
            self._add_work(job, entry.size_bytes)
            return
        ch = self._open(addr, "intermediate-fetch")
        try:
            pull_exposure(fetch_reader(ch, uri, guest_token, timeout=30.0), path,
                          lambda n: self._add_work(job, n))
        finally:
            ch.close()

    def _foi_op(self, job: _Job, foi: FOI):
        if job.data is not None:
            fout = io.BytesIO()
            self._transform(job, foi, io.BytesIO(job.data), fout)
            job.data = fout.getvalue()
            self._add_work(job, len(job.data))
            return
        out_path = job.step_path()
        with open(job.file, "rb") as fin, open(out_path, "wb") as fout:
            self._transform(job, foi, fin, fout)
        job.file = out_path
        self._add_work(job, os.path.getsize(out_path))

    def _transform(self, job: _Job, foi: FOI, fin, fout):
        """Run the op's transform from the file object fin to fout."""
        on_chunk = functools.partial(self._add_work, job)
        if foi.op_kind == "compress":
            try:
                gzip_blocks(fin, fout, self._gzip_pool, 2 * GZIP_THREADS, on_chunk)
            except (RuntimeError, CancelledError):
                # the pool refuses or cancels work once the instance stops
                if not self._stopping:
                    raise
                raise ShutdownError("job aborted by instance shutdown") from None
        elif foi.op_kind == "encrypt":
            file_key = secrets.token_bytes(32)
            encrypt_stream(fin, fout, file_key, on_chunk)
            # the file key goes back to the requester in the RESULT, never
            # into storage next to the ciphertext nor onto this instance's disk
            job.keys.append({"name": foi.target.rsplit("/", 1)[-1] + ".key",
                             "cipher": STREAM_CIPHER, "key": file_key.hex()})
        else:  # convert
            ppm.downscale_to_fit(fin, fout, foi.op_params.get("max_resolution", 128), on_chunk)


def gzip_blocks(fin, fout, pool: ThreadPoolExecutor, max_inflight: int,
                on_block: Callable[[int], None]):
    """Write fin to fout as one gzip member, deflating its blocks in parallel.

    Each IO_CHUNK_BYTES block is deflated (or stored) on its own, primed
    with the previous block's last 32 KiB, and ends on a sync flush (the
    last on finish), so the blocks concatenate into one deflate stream and
    the output depends only on the input.  All but the last block go to pool,
    at most max_inflight at a time; on_block(n) runs once per input block
    of n bytes.
    """
    fout.write(GZIP_HEADER)
    crc = size = 0
    pending = collections.deque()
    block, zdict = fin.read(IO_CHUNK_BYTES), b""
    try:
        while True:
            crc = zlib.crc32(block, crc)
            size += len(block)
            on_block(len(block))
            nxt = fin.read(IO_CHUNK_BYTES) if block else b""
            if not nxt:
                break
            pending.append(pool.submit(_deflate_block, block, zdict, False))
            block, zdict = nxt, block[-DEFLATE_WINDOW:]
            if len(pending) >= max_inflight:
                fout.write(pending.popleft().result())
        # the caller deflates the last block itself, so a one-block input
        # never waits for a pool thread
        tail = _deflate_block(block, zdict, True)
        while pending:
            fout.write(pending.popleft().result())
    finally:
        for fut in pending:
            fut.cancel()
    fout.write(tail)
    fout.write(struct.pack("<II", crc, size & 0xFFFFFFFF))


def _incompressible(block: bytes) -> bool:
    """True if a level-1 deflate of four slices of block saves under 2 %."""
    step = len(block) // SAMPLE_SLICES
    sample = b"".join(block[i * step:i * step + SAMPLE_SLICE_BYTES]
                      for i in range(SAMPLE_SLICES))
    return len(zlib.compress(sample, 1)) >= 0.98 * len(sample)


def _deflate_block(data: bytes, zdict: bytes, last: bool) -> bytes:
    # a full block that deflate cannot shrink is stored (level 0, RFC 1951
    # 3.2.4); the choice reads the block alone, so it is the same on any
    # thread count, and shorter blocks keep level 9 and their bytes
    level = 0 if len(data) == IO_CHUNK_BYTES and _incompressible(data) else 9
    c = zlib.compressobj(level, zlib.DEFLATED, -zlib.MAX_WBITS, 8,
                         zlib.Z_DEFAULT_STRATEGY, zdict)
    return c.compress(data) + c.flush(zlib.Z_FINISH if last else zlib.Z_SYNC_FLUSH)


def _segment_nonce(header: bytes, i: int, last: bool) -> bytes:
    return header[1:] + struct.pack(">I?", i, last)


def encrypt_stream(fin, fout, key: bytes, on_chunk: Callable[[int], None]):
    """Write fin to fout sealed in the encrypt op's segmented format.

    A STREAM construction (Hoang, Reyhanitabar, Rogaway and Vizar, 2015):
    an 8-byte header (STREAM_FORMAT and a random 7-byte nonce prefix), then
    segment i, the i-th IO_CHUNK_BYTES of fin sealed by AES-GCM under nonce
    prefix || be32(i) || last-flag with the header as associated data.  One
    chunk of lookahead tells which segment is last; an empty input is one
    empty last segment.  Segments are sealed serially: a 1 MiB call stays in
    cache, and a thread handoff costs more than it saves.  on_chunk(n) runs
    once per input chunk of n bytes.
    """
    aead = AESGCM(key)
    header = bytes([STREAM_FORMAT]) + secrets.token_bytes(STREAM_HEADER_BYTES - 1)
    fout.write(header)
    chunk, i = fin.read(IO_CHUNK_BYTES), 0
    while True:
        on_chunk(len(chunk))
        nxt = fin.read(IO_CHUNK_BYTES) if chunk else b""
        fout.write(aead.encrypt(_segment_nonce(header, i, not nxt), chunk, header))
        if not nxt:
            return
        chunk, i = nxt, i + 1


def decrypt_file_blob(blob: bytes, key: bytes) -> bytes:
    """Inverse of the encrypt op, for holders of the key its RESULT returned.

    Raises ValueError for a blob not in the format, and InvalidTag for one
    cut, reordered, altered or sealed under another key.
    """
    if len(blob) < STREAM_HEADER_BYTES + GCM_TAG_BYTES or blob[0] != STREAM_FORMAT:
        raise ValueError(f"not an {STREAM_CIPHER} blob")
    aead = AESGCM(key)
    header = blob[:STREAM_HEADER_BYTES]
    body = memoryview(blob)[STREAM_HEADER_BYTES:]
    sealed = IO_CHUNK_BYTES + GCM_TAG_BYTES
    n = -(-len(body) // sealed)
    return b"".join(
        aead.decrypt(_segment_nonce(header, i, i == n - 1),
                     body[i * sealed:(i + 1) * sealed], header)
        for i in range(n))
