"""Shared fixtures: booted components with cleanup, and a frame recorder."""

import functools
import http.server
import threading

import pytest

from skyrelay.coordinator import Coordinator, CoordinatorConfig
from skyrelay.storage import LocalDirBackend, StorageBackend
from skyrelay.wire import open_channel
from skyrelay.worker import Worker, WorkerConfig


class FrameRecorder:
    """Captures every frame crossing any endpoint it is wired into.

    Client side: use `channel_factory(principal)` as a component's channel
    factory.  Server side: use `tap_factory` as a Listener tap factory.
    Frames are kept as (label, direction, bytes) rows for scanning.
    """

    def __init__(self):
        self.rows: list[tuple[str, str, bytes]] = []
        self._lock = threading.Lock()

    def _tap(self, label):
        def tap(direction, frame):
            with self._lock:
                self.rows.append((label, direction, frame))
        return tap

    def channel_factory(self, principal: str):
        def opener(addr: str, purpose: str):
            return open_channel(addr, tap=self._tap(f"{principal}->{addr}"))
        return opener

    def tap_factory_for(self, label: str):
        def factory(peer: str):
            return self._tap(f"{label}<-{peer}")
        return factory

    def all_frames(self) -> list[tuple[str, str, bytes]]:
        with self._lock:
            return list(self.rows)

    def occurrences(self, needle: bytes) -> list[str]:
        return [label for label, _, frame in self.all_frames() if needle in frame]


class _QuietHandler(http.server.SimpleHTTPRequestHandler):
    def log_message(self, *args):
        pass


@pytest.fixture
def http_root(tmp_path):
    """Base URL of a loopback http server over tmp_path."""
    httpd = http.server.ThreadingHTTPServer(
        ("127.0.0.1", 0), functools.partial(_QuietHandler, directory=str(tmp_path)))
    threading.Thread(target=httpd.serve_forever, kwargs={"poll_interval": 0.05},
                     daemon=True).start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()
    httpd.server_close()


@pytest.fixture
def cluster(tmp_path):
    """Backend + running coordinator + cleanup registry for workers."""

    class Cluster:
        def __init__(self):
            self.backend = LocalDirBackend(str(tmp_path / "store"))
            self.recorder = FrameRecorder()
            self.coordinator = Coordinator(CoordinatorConfig(
                tap_factory=self.recorder.tap_factory_for("coordinator"),
                channel_factory=self.recorder.channel_factory("coordinator"),
            ))
            self.coordinator.start()
            self.workers: list[Worker] = []

        def account(self, name: str, quota: int = 1 << 32) -> str:
            return self.backend.create_account(name, quota_bytes=quota)

        def worker(self, *, shared=True, registered=True, **kw) -> Worker:
            kw.setdefault("backend", self.backend)
            kw.setdefault("tap_factory",
                          self.recorder.tap_factory_for(f"worker{len(self.workers)}"))
            kw.setdefault("channel_factory",
                          self.recorder.channel_factory(f"worker{len(self.workers)}"))
            cfg = WorkerConfig(
                coordinator_addr=self.coordinator.addr if registered else None,
                shared=shared, **kw)
            w = Worker(cfg)
            w.start()
            self.workers.append(w)
            return w

        def close(self):
            for w in self.workers:
                w.stop()
            self.coordinator.stop()

    c = Cluster()
    yield c
    c.close()


class SixMethods(StorageBackend):
    """A backend with only the six original methods, so callers run through
    the base-class fallbacks; records the get, put and sync calls."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def authenticate(self, token):
        return self.inner.authenticate(token)

    def basic_op(self, session, action, args):
        return self.inner.basic_op(session, action, args)

    def get_object(self, session, path):
        self.calls.append("get_object")
        return self.inner.get_object(session, path)

    def put_object(self, session, path, data):
        self.calls.append("put_object")
        return self.inner.put_object(session, path, data)

    def list_meta(self, session, path="/", recursive=False):
        return self.inner.list_meta(session, path, recursive)

    def sync_shadow(self, session):
        self.calls.append("sync_shadow")
        return self.inner.sync_shadow(session)


@pytest.fixture
def six_methods(cluster):
    """The cluster's backend seen through its six original methods only."""
    return SixMethods(cluster.backend)
