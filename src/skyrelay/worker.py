"""Worker service: executes FOI sequences against the storage backend.

A worker binds a listener, optionally registers with a coordinator (which
hands it a process id, a certificate, and the epoch-key chain), then accepts
jobs.  Each job runs in its own workspace, sends heartbeat events while it
works, and is wiped afterward; decrypted storage credentials exist only
inside the running job.

Workers shut themselves down shortly before the next billing boundary so an
instance shared for the remainder of a paid period never incurs another
charge.  Produced files that must reach the requesting agent (or a transfer
peer) are not sent on the job channel; they are placed in a token-guarded
exposure area and fetched in bounded chunks, which keeps every frame under
the wire cap and keeps control traffic small.
"""

from __future__ import annotations

import base64
import gzip
import hmac
import json
import os
import secrets
import shutil
import tempfile
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import ppm
from .core import FOI, CredentialSet, derived_name, sequence_from_wire, validate_foi_sequence
from .errors import (
    AuthError,
    ConfigError,
    CredentialAuthFailure,
    Gone,
    NotFound,
    PermissionDenied,
    RegistrationError,
    ShutdownError,
    SkyrelayError,
    StartError,
    TransformError,
)
from .keying import EpochKeyState, CredentialCiphertext, decrypt_credentials, initial_server_key
from .storage import LocalDirBackend, StorageBackend
from .wire import Certificate, Channel, Listener, Message, ServerConn, open_channel

HEARTBEAT_QUANTUM_BYTES = 16 * 1024 * 1024
HEARTBEAT_BACKSTOP_S = 2.0
FETCH_CHUNK_BYTES = 4 * 1024 * 1024
IO_CHUNK_BYTES = 1024 * 1024
DEFAULT_EXPOSE_TTL_S = 900.0
DEFAULT_BILLING_PERIOD_S = 3600.0
DEFAULT_SAFETY_MARGIN_S = 60.0
DEFAULT_PING_INTERVAL_S = 30.0


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
        return base64.b64decode(reply.body["data_b64"]), reply.body["eof"]
    return read


def pull_exposure(read: Callable[[int], tuple[bytes, bool]], path: str,
                  on_chunk: Callable[[int], None] | None = None):
    """Copy an exposed file into path, one bounded chunk per read(offset)."""
    offset = 0
    with open(path, "wb") as f:
        while True:
            data, eof = read(offset)
            f.write(data)
            offset += len(data)
            if on_chunk is not None:
                on_chunk(len(data))
            if eof:
                return


@dataclass
class WorkerConfig:
    listen_addr: str = "127.0.0.1:0"
    coordinator_addr: str | None = None
    store_root: str | None = None
    backend: StorageBackend | None = None
    scratch_dir: str | None = None
    billing_period_s: float = DEFAULT_BILLING_PERIOD_S
    safety_margin_s: float = DEFAULT_SAFETY_MARGIN_S
    max_jobs: int = 4
    shared: bool = True
    share_duration_s: float = 3600.0
    capacity: int = 100
    os_info: str = "linux"
    hardware_info: str = "1 vcpu"
    expose_ttl_s: float = DEFAULT_EXPOSE_TTL_S
    ping_interval_s: float = DEFAULT_PING_INTERVAL_S
    startup_delay_s: float = 0.0
    register_timeout_s: float = 10.0
    # bench hooks: client channel factory (addr, purpose) and server-side taps
    channel_factory: Callable[[str, str], Channel] | None = None
    tap_factory: Callable[[str], Callable[[str, bytes], None] | None] | None = None


class _Exposed:
    __slots__ = ("path", "guest_token", "expires_at", "name", "size_bytes")

    def __init__(self, path, guest_token, expires_at, name, size_bytes):
        self.path = path
        self.guest_token = guest_token
        self.expires_at = expires_at
        self.name = name
        self.size_bytes = size_bytes


class _Job:
    def __init__(self, job_id: str, fois: list[FOI], conn: ServerConn, seq: int):
        self.job_id = job_id
        self.fois = fois
        self.conn = conn
        self.seq = seq
        self.step = 0
        self.work_bytes = 0
        self.status = "running"
        self.workspace: str | None = None
        self.artifacts: dict[str, str] = {}
        self.last_artifact: str | None = None
        self.outputs: list[dict] = []
        self.pushed: list[dict] = []
        self.abort = threading.Event()
        self.last_beat = time.monotonic()
        self._beat_marker = 0

    def save_artifact(self, name: str, path: str):
        self.artifacts[name] = path
        self.last_artifact = path

    def resolve_artifact(self, name: str) -> str:
        path = self.artifacts.get(name, self.last_artifact)
        if path is None or not os.path.exists(path):
            raise TransformError(f"no artifact named {name!r} in job workspace")
        return path


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
        self.log: list[str] = []
        self.exposure_served_bytes = 0
        self.started_at: float | None = None
        self.shutdown_at: float | None = None
        self.terminated = threading.Event()

        self._listener: Listener | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._jobs: dict[str, _Job] = {}
        self._exposed: dict[tuple[str, str], _Exposed] = {}
        self._backend: StorageBackend | None = cfg.backend
        self._key_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._log_lock = threading.Lock()
        self._stopping = False
        self._ready = threading.Event()
        self._shutdown_timer: threading.Timer | None = None
        self._threads: list[threading.Thread] = []
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
        if self.cfg.coordinator_addr:
            try:
                self._register()
            except Exception:
                self._listener.close()
                raise
        self._start_service()
        return self.addr

    def _open(self, addr: str, purpose: str) -> Channel:
        if self.cfg.channel_factory:
            return self.cfg.channel_factory(addr, purpose)
        return open_channel(addr)

    def _register(self):
        ch = self._open(self.cfg.coordinator_addr, "register")
        try:
            reply = ch.request("REGISTER_INSTANCE", {
                "addr": self.addr,
                "os_info": self.cfg.os_info,
                "hardware_info": self.cfg.hardware_info,
                "share_until": self.share_until,
                "shared": self.cfg.shared,
                "capacity": self.cfg.capacity,
            })
        finally:
            ch.close()
        self.pid = bytes.fromhex(reply.body["pid"])
        self.coordinator_pub = bytes.fromhex(reply.body["coordinator_pub"])
        self._log(f"registered pid={self.pid.hex()} at {self.cfg.coordinator_addr}")
        if not self._ready.wait(self.cfg.register_timeout_s):
            raise StartError("coordinator never dispatched the service bundle")

    def _start_service(self):
        self.started_at = time.monotonic()
        deadline = min(
            self.share_until,
            time.time() + self.cfg.billing_period_s,
        ) - self.cfg.safety_margin_s
        delay = max(0.0, deadline - time.time())
        self._shutdown_timer = threading.Timer(delay, self._auto_shutdown)
        self._shutdown_timer.daemon = True
        self._shutdown_timer.start()
        if self.cfg.coordinator_addr:
            t = threading.Thread(target=self._ping_loop, daemon=True)
            t.start()
            self._threads.append(t)
        t = threading.Thread(target=self._rotation_loop, daemon=True)
        t.start()
        self._threads.append(t)
        t = threading.Thread(target=self._sweep_loop, daemon=True)
        t.start()
        self._threads.append(t)
        self._log(f"service ready at {self.addr}")

    def stop(self):
        """Tear down without the billing-deadline protocol (tests, CLI exit)."""
        self._stopping = True
        if self._shutdown_timer:
            self._shutdown_timer.cancel()
        self._abort_jobs()
        if self._executor:
            self._executor.shutdown(wait=False)
        if self._listener:
            self._listener.close()
        self.terminated.set()
        if self._scratch_owned:
            shutil.rmtree(self._scratch, ignore_errors=True)

    def _auto_shutdown(self):
        if self.terminated.is_set():
            return
        self._stopping = True
        self.shutdown_at = time.monotonic()
        self._log("billing deadline reached, shutting down")
        self._abort_jobs()
        if self._executor:
            self._executor.shutdown(wait=False)
        if self.cfg.coordinator_addr and self.pid is not None:
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

    def _abort_jobs(self):
        with self._state_lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            job.abort.set()
        deadline = time.monotonic() + 1.0
        for job in jobs:
            while job.status == "running" and time.monotonic() < deadline:
                time.sleep(0.01)

    # -- background loops --

    def _ping_loop(self):
        ch: Channel | None = None
        while not self._stopping and not self.terminated.wait(self.cfg.ping_interval_s):
            if self.pid is None:
                continue
            try:
                if ch is None:
                    ch = self._open(self.cfg.coordinator_addr, "liveness")
                ch.request("HEARTBEAT", {"pid": self.pid.hex()}, timeout=5.0)
            except SkyrelayError:
                if ch is not None:
                    ch.close()
                ch = None
        if ch is not None:
            ch.close()

    def _rotation_loop(self):
        while not self._stopping:
            with self._key_lock:
                st = self.key_state
                wait = 1.0 if st is None else max(0.05, st.next_rotation_at() - time.time())
            if self.terminated.wait(min(wait, 1.0)):
                return
            with self._key_lock:
                st = self.key_state
                if st is not None and time.time() >= st.next_rotation_at():
                    # catch up fully; a delayed poll must not leave us behind
                    while time.time() >= st.next_rotation_at():
                        st.rotate()
                    self._log(f"rotated to epoch {st.epoch}")

    def _sweep_loop(self):
        interval = max(0.05, min(self.cfg.expose_ttl_s / 4, 30.0))
        while not self.terminated.wait(interval):
            now = time.time()
            with self._state_lock:
                dead = [k for k, e in self._exposed.items() if now >= e.expires_at]
                for k in dead:
                    e = self._exposed.pop(k)
                    try:
                        os.remove(e.path)
                    except OSError:
                        pass

    def _log(self, line: str):
        with self._log_lock:
            self.log.append(f"{time.time():.3f} {line}")

    def wire_totals(self) -> tuple[int, int]:
        """(sent, received) on this worker's listener, cumulative."""
        if self._listener is None:
            return (0, 0)
        return self._listener.total_bytes()

    # -- message handling --

    def _handle(self, conn: ServerConn, msg: Message):
        if msg.kind == "DISPATCH_SSP":
            self._handle_dispatch(conn, msg)
        elif msg.kind == "KEY_INIT":
            self._handle_key_init(conn, msg)
        elif msg.kind == "SUBMIT_OP":
            if "fetch" in msg.body:
                self._handle_fetch(conn, msg)
            else:
                self._handle_submit(conn, msg)
        else:
            conn.send_error(msg.seq, {
                "code": "DECODE_ERROR",
                "message": f"worker does not accept {msg.kind}",
            })

    def _handle_dispatch(self, conn: ServerConn, msg: Message):
        body = msg.body
        pid = bytes.fromhex(body["pid"])
        if self.pid is not None and pid != self.pid:
            raise RegistrationError("dispatch names a different pid")
        self.pid = pid
        self.certificate = Certificate.from_wire(body["certificate"])
        cfg = body["cfg"]
        self.share_until = int(cfg.get("share_until", self.share_until))
        self._log(f"service bundle received for pid={pid.hex()}")
        conn.send_ack(msg.seq)

    def _handle_key_init(self, conn: ServerConn, msg: Message):
        body = msg.body
        pid = bytes.fromhex(body["pid"])
        key = bytes.fromhex(body["k_serv"])
        t0 = int(body["t0"])
        epoch = int(body["epoch"])
        if epoch == 0 and key != initial_server_key(pid, t0):
            raise RegistrationError("key material does not match pid and start time")
        with self._key_lock:
            self.key_state = EpochKeyState(
                pid=pid,
                t0=t0,
                offset_s=int(body["offset_s"]),
                interval_s=int(body["interval_s"]),
                epoch=epoch,
                key_current=key,
                key_previous=None,
            )
        self._log(f"key chain initialized at epoch {epoch}")
        conn.send_ack(msg.seq)
        self._ready.set()

    # -- exposure --

    def expose_intermediate(self, src_path: str, job_id: str, name: str) -> dict:
        file_id = secrets.token_hex(16)
        guest_token = secrets.token_hex(16)
        dst = os.path.join(self._scratch, "exposed", f"{job_id}.{file_id}")
        shutil.copyfile(src_path, dst)
        size = os.path.getsize(dst)
        expires_at = time.time() + self.cfg.expose_ttl_s
        with self._state_lock:
            self._exposed[(job_id, file_id)] = _Exposed(
                dst, guest_token, expires_at, name, size)
        self._log(f"exposed {name} as {file_id} (job {job_id}, {size} bytes)")
        return {
            "file_id": file_id,
            "name": name,
            "size_bytes": size,
            "uri": make_exposure_uri(self.addr, job_id, file_id),
            "guest_token": guest_token,
            "expires_at": int(expires_at),
        }

    def read_exposed(self, job_id: str, file_id: str, guest_token: str,
                     offset: int, max_bytes: int) -> tuple[bytes, bool, int]:
        with self._state_lock:
            entry = self._exposed.get((job_id, file_id))
        if entry is None:
            raise NotFound(f"no exposed file {file_id} for job {job_id}")
        if time.time() >= entry.expires_at:
            raise Gone(f"exposure {file_id} expired")
        if not hmac.compare_digest(entry.guest_token, guest_token or ""):
            raise PermissionDenied("bad guest token")
        max_bytes = max(0, min(max_bytes, FETCH_CHUNK_BYTES))
        with open(entry.path, "rb") as f:
            f.seek(offset)
            data = f.read(max_bytes)
        eof = offset + len(data) >= entry.size_bytes
        with self._state_lock:
            self.exposure_served_bytes += len(data)
        return data, eof, entry.size_bytes

    def _handle_fetch(self, conn: ServerConn, msg: Message):
        spec = msg.body["fetch"]
        try:
            addr, job_id, file_id = parse_exposure_uri(spec["uri"])
        except ValueError as e:
            conn.send_error(msg.seq, {"code": "DECODE_ERROR", "message": str(e)})
            return
        if addr != self.addr:
            conn.send_error(msg.seq, {
                "code": "NOT_FOUND",
                "message": f"uri names {addr}, this instance is {self.addr}",
            })
            return
        try:
            data, eof, total = self.read_exposed(
                job_id, file_id, spec.get("guest_token", ""),
                int(spec.get("offset", 0)), int(spec.get("max_bytes", FETCH_CHUNK_BYTES)))
        except SkyrelayError as e:
            self._log(f"fetch denied for {file_id}: {e.code}")
            conn.send_error(msg.seq, e.body())
            return
        conn.send_result(msg.seq, {
            "data_b64": base64.b64encode(data).decode("ascii"),
            "eof": eof,
            "size_total": total,
        })

    # -- job intake --

    def _handle_submit(self, conn: ServerConn, msg: Message):
        if self._stopping:
            conn.send_error(msg.seq, ShutdownError("instance is shutting down").body())
            return
        body = msg.body
        try:
            fois = sequence_from_wire(body["fois"])
        except (KeyError, TypeError) as e:
            conn.send_error(msg.seq, {"code": "DECODE_ERROR", "message": f"bad fois: {e}"})
            return
        violations = validate_foi_sequence(fois)
        if violations:
            conn.send_error(msg.seq, {
                "code": "DECODE_ERROR",
                "message": "invalid FOI sequence: " + "; ".join(violations),
            })
            return
        job_id = body.get("job_id") or secrets.token_hex(6)
        with self._state_lock:
            if job_id in self._jobs:
                conn.send_error(msg.seq, {
                    "code": "ALREADY_EXISTS", "message": f"job {job_id} exists"})
                return
            job = _Job(job_id, fois, conn, msg.seq)
            self._jobs[job_id] = job
        if "credentials_ct" in body:
            ct = CredentialCiphertext.from_wire(body["credentials_ct"])
            creds = None
            self._log(
                f"job {job_id}: {[f.verb for f in fois]} with sealed credentials "
                f"r={body['credentials_ct']['r']} nonce={body['credentials_ct']['nonce']} "
                f"epoch_hint={ct.epoch_hint}")
        elif "credentials" in body:
            if self.cfg.shared and self.cfg.coordinator_addr:
                with self._state_lock:
                    del self._jobs[job_id]
                conn.send_error(msg.seq, PermissionDenied(
                    "shared instances accept sealed credentials only").body())
                return
            ct = None
            creds = CredentialSet.from_wire(body["credentials"])
            self._log(f"job {job_id}: {[f.verb for f in fois]} with owner credentials")
        else:
            ct = creds = None
            self._log(f"job {job_id}: {[f.verb for f in fois]} without credentials")
        self._executor.submit(self._run_job, job, ct, creds)

    # -- job execution --

    def _beat(self, job: _Job):
        job.last_beat = time.monotonic()
        try:
            job.conn.send_event("HEARTBEAT", job.seq, {
                "job_id": job.job_id, "step": job.step, "work_bytes": job.work_bytes})
        except SkyrelayError:
            pass  # agent went away; job continues, terminal send will fail too

    def _add_work(self, job: _Job, n: int):
        if job.abort.is_set():
            raise ShutdownError("job aborted by instance shutdown")
        before = job.work_bytes
        job.work_bytes += n
        if job.work_bytes // HEARTBEAT_QUANTUM_BYTES > before // HEARTBEAT_QUANTUM_BYTES:
            self._beat(job)

    def _backstop_loop(self, job: _Job):
        # Liveness guarantee: a beat at least every HEARTBEAT_BACKSTOP_S while
        # the job runs.  Progress beats normally come much faster, so this
        # stays silent on any healthy run.
        while job.status == "running":
            time.sleep(HEARTBEAT_BACKSTOP_S / 4)
            if job.status != "running":
                return
            if time.monotonic() - job.last_beat >= HEARTBEAT_BACKSTOP_S:
                self._beat(job)

    def _get_backend(self) -> StorageBackend:
        if self._backend is None:
            if self.cfg.store_root is None:
                raise NotFound("worker has no storage backend configured")
            self._backend = LocalDirBackend(self.cfg.store_root)
        return self._backend

    def _run_job(self, job: _Job, ct: CredentialCiphertext | None,
                 creds: CredentialSet | None):
        backstop = threading.Thread(target=self._backstop_loop, args=(job,), daemon=True)
        backstop.start()
        job.workspace = os.path.join(self._scratch, "jobs", job.job_id)
        os.makedirs(job.workspace, exist_ok=True)
        session = None
        try:
            sc = creds
            if ct is not None:
                with self._key_lock:
                    if self.key_state is None:
                        raise CredentialAuthFailure("instance holds no key chain")
                    sc = decrypt_credentials(self.key_state, ct)
            if sc is not None:
                session = self._get_backend().authenticate(sc.token)
                if session.account_id != sc.account_id:
                    raise AuthError("token does not belong to the named account")
            for i, foi in enumerate(job.fois):
                job.step = i
                self._beat(job)
                self._execute_foi(job, foi, session)
                self._log(f"job {job.job_id}: step {i} ({foi.verb}) done")
            job.status = "done"
            job.conn.send_result(job.seq, {
                "job_id": job.job_id,
                "outputs": job.outputs,
                "pushed": job.pushed,
                "work_bytes": job.work_bytes,
            })
            self._log(f"job {job.job_id}: done, work_bytes={job.work_bytes}")
        except SkyrelayError as e:
            job.status = "failed"
            self._send_job_error(job, e.body(step=job.step))
        except Exception as e:  # noqa: BLE001 - report, never hang the agent
            job.status = "failed"
            self._send_job_error(job, {
                "code": "INTERNAL", "message": str(e), "step": job.step})
        finally:
            if job.status == "running":
                job.status = "failed"
            shutil.rmtree(job.workspace, ignore_errors=True)
            with self._state_lock:
                self._jobs.pop(job.job_id, None)

    def _send_job_error(self, job: _Job, body: dict):
        self._log(f"job {job.job_id}: failed at step {body.get('step')}: "
                  f"{body.get('code')} {body.get('message')}")
        try:
            job.conn.send_error(job.seq, body)
        except SkyrelayError:
            pass

    def _execute_foi(self, job: _Job, foi: FOI, session):
        if foi.verb == "download":
            self._foi_download(job, foi)
        elif foi.verb == "get":
            self._foi_get(job, foi, session)
        elif foi.verb == "put":
            self._foi_put(job, foi, session)
        elif foi.verb == "op":
            self._foi_op(job, foi)
        elif foi.verb == "push":
            descriptor = self.expose_intermediate(
                job.resolve_artifact(foi.target), job.job_id, foi.target)
            job.pushed.append(descriptor)
            job.conn.send_event("EXPOSE_GRANT", job.seq, descriptor)
        else:
            raise TransformError(f"unknown verb {foi.verb!r}")

    # -- verb implementations --

    def _foi_get(self, job: _Job, foi: FOI, session):
        if session is None:
            raise AuthError("get requires storage credentials")
        data = self._get_backend().get_object(session, foi.target)
        name = foi.target.rsplit("/", 1)[-1]
        path = os.path.join(job.workspace, name)
        with open(path, "wb") as f:
            for off in range(0, len(data), IO_CHUNK_BYTES):
                chunk = data[off:off + IO_CHUNK_BYTES]
                f.write(chunk)
                self._add_work(job, len(chunk))
        if not data:
            self._add_work(job, 0)
        job.save_artifact(name, path)

    def _foi_put(self, job: _Job, foi: FOI, session):
        if session is None:
            raise AuthError("put requires storage credentials")
        name = foi.target.rsplit("/", 1)[-1]
        path = job.resolve_artifact(name)
        with open(path, "rb") as f:
            data = f.read()
        meta = self._get_backend().put_object(session, foi.target, data)
        self._add_work(job, len(data))
        job.outputs.append(meta.to_wire())

    def _foi_download(self, job: _Job, foi: FOI):
        url = foi.target
        throttle_bps = foi.op_params.get("throttle_bps")
        name = url.split("?", 1)[0].rstrip("/").rsplit("/", 1)[-1] or "download"
        path = os.path.join(job.workspace, name)
        if url.startswith("skyrelay://"):
            self._fetch_exposed_to(job, url, foi.op_params.get("guest_token", ""), path)
            job.save_artifact(name, path)
            return
        if url.startswith("file://"):
            src = url[len("file://"):]
            with open(src, "rb") as fin, open(path, "wb") as fout:
                self._pump(job, fin, fout, throttle_bps)
            job.save_artifact(name, path)
            return
        if url.startswith(("http://", "https://")):
            req = urllib.request.Request(url, headers={"User-Agent": "skyrelay-worker"})
            with urllib.request.urlopen(req, timeout=30) as fin, open(path, "wb") as fout:
                self._pump(job, fin, fout, throttle_bps)
            job.save_artifact(name, path)
            return
        raise TransformError(f"unsupported download scheme in {url!r}")

    def _pump(self, job: _Job, fin, fout, throttle_bps=None):
        while True:
            chunk = fin.read(IO_CHUNK_BYTES)
            if not chunk:
                return
            fout.write(chunk)
            self._add_work(job, len(chunk))
            if throttle_bps:
                self._throttled_wait(job, len(chunk) / float(throttle_bps))

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
        on_chunk = lambda n: self._add_work(job, n)
        if addr == self.addr:
            # transfer through one shared instance: the exposure is local
            pull_exposure(lambda offset: self.read_exposed(
                exp_job, file_id, guest_token, offset, FETCH_CHUNK_BYTES)[:2],
                path, on_chunk)
            return
        ch = self._open(addr, "intermediate-fetch")
        try:
            pull_exposure(fetch_reader(ch, uri, guest_token, timeout=30.0), path, on_chunk)
        finally:
            ch.close()

    def _foi_op(self, job: _Job, foi: FOI):
        in_name = foi.target.rsplit("/", 1)[-1]
        in_path = job.resolve_artifact(in_name)
        out_name = derived_name(in_name, foi.op_kind)
        out_path = os.path.join(job.workspace, out_name)
        if foi.op_kind == "compress":
            with open(in_path, "rb") as fin, open(out_path, "wb") as raw:
                # mtime and name pinned so equal inputs compress to equal bytes
                with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0,
                                   filename="") as fout:
                    while True:
                        chunk = fin.read(IO_CHUNK_BYTES)
                        if not chunk:
                            break
                        fout.write(chunk)
                        self._add_work(job, len(chunk))
            self._add_work(job, os.path.getsize(out_path))
        elif foi.op_kind == "encrypt":
            with open(in_path, "rb") as f:
                data = f.read()
            file_key = secrets.token_bytes(32)
            nonce = secrets.token_bytes(12)
            blob = nonce + AESGCM(file_key).encrypt(nonce, data, None)
            with open(out_path, "wb") as f:
                f.write(blob)
            self._add_work(job, len(data) + len(blob))
            # second artifact: the file key goes back to the requester, never
            # into storage next to the ciphertext
            key_name = in_name + ".key"
            key_path = os.path.join(job.workspace, key_name)
            with open(key_path, "w", encoding="utf-8") as f:
                json.dump({"cipher": "aes-256-gcm", "key": file_key.hex()}, f)
            job.save_artifact(key_name, key_path)
            descriptor = self.expose_intermediate(key_path, job.job_id, key_name)
            job.pushed.append(descriptor)
            job.conn.send_event("EXPOSE_GRANT", job.seq, descriptor)
        elif foi.op_kind == "convert":
            with open(in_path, "rb") as f:
                data = f.read()
            out = ppm.downscale_to_fit(data, int(foi.op_params.get("max_resolution", 128)))
            with open(out_path, "wb") as f:
                f.write(out)
            self._add_work(job, len(data) + len(out))
        else:
            raise TransformError(f"unknown op kind {foi.op_kind!r}")
        job.save_artifact(out_name, out_path)


def decrypt_file_blob(blob: bytes, key: bytes) -> bytes:
    """Inverse of the encrypt op, for receivers holding the pushed key file."""
    return AESGCM(key).decrypt(blob[:12], blob[12:], None)
