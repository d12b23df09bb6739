"""Shared fixtures: booted components with cleanup, and a frame recorder."""

import threading
import time

import pytest

from skyrelay.coordinator import Coordinator, CoordinatorConfig
from skyrelay.storage import LocalDirBackend
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
            if registered:
                # the pool flips to active only after the dispatch round
                # trip completes; wait so tests see a grantable instance
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    rows = self.coordinator.instances(status="active")
                    if any(r["pid"] == w.pid.hex() for r in rows):
                        break
                    time.sleep(0.005)
            return w

        def close(self):
            for w in self.workers:
                w.stop()
            self.coordinator.stop()

    c = Cluster()
    yield c
    c.close()
