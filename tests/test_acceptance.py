"""Acceptance gate: ten system-level properties, one test (= one verdict
line under pytest -v) per property, each at its stated tolerance.

These run the real components end to end; nothing here is mocked beyond
the local-process substitutes the package itself ships (in-process object
store, loopback wire).
"""

import hashlib
import json
import os
import random
import threading
import time

import pytest
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from skyrelay import ppm
from skyrelay.agent import AgentConfig, AgentSession, read_ticket
from skyrelay.bench import ScenarioSpec, compare_modes, run_scenario
from skyrelay.core import (
    FOI,
    CredentialSet,
    OperationRequest,
    compile_op_to_fois,
    validate_foi_sequence,
)
from skyrelay.errors import (
    CredentialAuthFailure,
    Infeasible,
    NoInstanceAvailable,
    NotCloudAssisted,
)
from skyrelay.keying import (
    EpochKeyState,
    decrypt_credentials,
    encrypt_credentials,
    issue_user_grant,
    key_at_epoch,
    round_minute,
)
from skyrelay.scheduler import (
    InstanceSpec,
    TaskSpec,
    brute_force_optimum,
    solve_exact,
    solve_greedy,
)

MIB = 1024 * 1024


def _agent(cluster, name, *, seed, launcher=None, download_dir=None):
    token = cluster.account(name, quota=1 << 33)
    cfg = AgentConfig(
        account_id=name, token=token, backend=cluster.backend,
        coordinator_addr=cluster.coordinator.addr,
        coordinator_pub=cluster.coordinator.public_key,
        private_launcher=launcher, download_dir=download_dir, seed=seed,
        channel_factory=cluster.recorder.channel_factory(name))
    return AgentSession(cfg), token


def _chain(root, t0, offset_s, interval_s):
    """A chain at epoch 0 with epoch-0 key root, built as the coordinator builds one."""
    return EpochKeyState(pid=bytes(16), t0=round_minute(t0), offset_s=offset_s,
                         interval_s=interval_s, epoch=0, key_current=root, key_previous=None)


def _seal(state, sc):
    """sc sealed under a fresh grant at state's epoch, as an agent seals it."""
    grant = issue_user_grant(state)
    return encrypt_credentials(grant.key, sc, grant.r, grant.epoch_issued)


def test_c01_key_chains_agree_for_10k_epochs():
    """Coordinator and worker chains stay byte-identical, 100 triples x 1e4."""
    rng = random.Random(0xC1)
    started = time.monotonic()
    for trial in range(100):
        root = rng.randbytes(32)
        t0 = rng.uniform(1.6e9, 1.8e9)
        offset = rng.randint(1, 512)
        interval = rng.choice([60, 180, 300])
        a = _chain(root, t0, offset, interval)
        b = _chain(root, t0, offset, interval)
        assert a.key_current == b.key_current
        for _ in range(10_000):
            a.rotate()
            b.rotate()
            if a.key_current != b.key_current:
                raise AssertionError(
                    f"chains diverged at epoch {a.epoch} (trial {trial})")
        # third route: closed-form walk from the initial key
        assert a.key_current == key_at_epoch(root, t0, offset, interval, 10_000)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"key agreement sweep took {elapsed:.2f}s"
    print(f"100 triples x 10^4 epochs in {elapsed:.2f}s, zero divergence")


def test_c02_grace_window_is_exactly_one_epoch():
    """Sealed at epoch n: opens at n+1, refused at n+2; 1e3 random timings."""
    rng = random.Random(0xC2)
    sc = CredentialSet("acct", "tok-" + "f" * 28)
    opened = refused = 0
    for _ in range(1000):
        root = rng.randbytes(32)
        t0 = rng.uniform(1.6e9, 1.8e9)
        offset = rng.randint(1, 512)
        interval = rng.choice([60, 180, 300, 3600])
        n = rng.randint(0, 40)
        server = _chain(root, t0, offset, interval)
        worker = _chain(root, t0, offset, interval)
        for _ in range(n):
            server.rotate()
            worker.rotate()
        ct = _seal(server, sc)
        worker.rotate()  # n+1: inside the grace window
        got = decrypt_credentials(worker, ct)
        assert got.to_wire() == sc.to_wire()
        opened += 1
        worker.rotate()  # n+2: beyond it
        with pytest.raises(CredentialAuthFailure):
            decrypt_credentials(worker, ct)
        refused += 1
    assert opened == refused == 1000
    print("1000/1000 envelopes opened at n+1 and refused at n+2")


def test_c03_credentials_never_visible_in_shared_mode(cluster, tmp_path, http_root):
    """Marker token absent from all frames and logs across 50 shared jobs;
    1e3 wrong-key decrypts all fail."""
    agent, token = _agent(cluster, "alice", seed=3,
                          download_dir=str(tmp_path / "dl"))
    workers = [cluster.worker(shared=True) for _ in range(2)]
    sess = cluster.backend.authenticate(token)
    img = ppm.write_ppm(96, 64, random.Random(5).randbytes(96 * 64 * 3))
    jobs = 0
    for i in range(50):
        kind = ("compress", "encrypt", "convert", "download")[i % 4]
        if kind == "download":
            (tmp_path / f"dl_{i}.bin").write_bytes(os.urandom(64 * 1024))
            agent.cmd_cloud_op("download", {
                "url": f"{http_root}/dl_{i}.bin", "dest": f"/mk/dl_{i}.bin"})
        elif kind == "convert":
            cluster.backend.put_object(sess, f"/mk/p_{i}.ppm", img)
            agent.sync()
            agent.cmd_cloud_op("convert", {"path": f"/mk/p_{i}.ppm"})
        else:
            cluster.backend.put_object(sess, f"/mk/f_{i}.bin",
                                       os.urandom(64 * 1024))
            agent.sync()
            agent.cmd_cloud_op(kind, {"path": f"/mk/f_{i}.bin"})
        jobs += 1
    assert jobs == 50

    needle = token.encode()
    assert cluster.recorder.occurrences(needle) == []
    for w in workers:
        assert not any(token in line for line in w.log)
    assert not any(token in line for line in cluster.coordinator.log)

    # authenticated envelopes refuse every wrong key
    rng = random.Random(0xC3)
    state = _chain(rng.randbytes(32), 1.7e9, 77, 180)
    ct = _seal(state, CredentialSet("alice", token))
    failures = 0
    for _ in range(1000):
        try:
            AESGCM(rng.randbytes(32)).decrypt(ct.nonce, ct.body, None)
        except InvalidTag:
            failures += 1
    assert failures == 1000
    print("50 jobs: zero token sightings; 1000/1000 wrong keys refused")


def test_c04_compiler_emits_the_exact_mapping_table():
    """The four delegated ops map to exactly these FOI sequences."""
    table = {
        "download": (OperationRequest("download", {
            "url": "https://example.org/f.bin", "dest": "/dl/f.bin"}),
            [("download", "https://example.org/f.bin", None),
             ("put", "/dl/f.bin", None)]),
        "compress": (OperationRequest("compress", {"path": "/d/report.txt"}),
                     [("get", "/d/report.txt", None),
                      ("op", "/d/report.txt", "compress"),
                      ("put", "/d/report.txt.gz", None)]),
        "encrypt": (OperationRequest("encrypt", {"path": "/d/report.txt"}),
                    [("get", "/d/report.txt", None),
                     ("op", "/d/report.txt", "encrypt"),
                     ("put", "/d/report.txt.enc", None)]),
        "convert": (OperationRequest("convert", {"path": "/pics/cat.ppm"}),
                    [("get", "/pics/cat.ppm", None),
                     ("op", "/pics/cat.ppm", "convert"),
                     ("push", "cat.ppm.small", None)]),
    }
    for action, (req, expected) in table.items():
        fois = compile_op_to_fois(req)
        got = [(f.verb, f.target, f.op_kind) for f in fois]
        assert got == expected, f"{action}: {got}"
        assert validate_foi_sequence(fois) == []
    # parameters ride along where given
    fois = compile_op_to_fois(OperationRequest("download", {
        "url": "https://x/y", "dest": "/d/y", "throttle_bps": 9000}))
    assert fois[0].op_params == {"throttle_bps": 9000}
    fois = compile_op_to_fois(OperationRequest("convert", {
        "path": "/p.ppm", "max_resolution": 64}))
    assert fois[1].op_params == {"max_resolution": 64}
    # outside the table: transfers are the agent's job, basics never compile
    with pytest.raises(ValueError):
        compile_op_to_fois(OperationRequest("transfer_send", {"path": "/x"}))
    with pytest.raises(NotCloudAssisted):
        compile_op_to_fois(OperationRequest("delete", {"path": "/x"}))
    print("4/4 mappings exact; all compiled sequences validate")


def test_c05_agent_bandwidth_flat_while_worker_scales():
    """compress/encrypt/download on 1, 16, 64 MiB: agent bytes < 64 KiB and
    flat (max/min < 2), worker bytes >= file size, full run < 60 s."""
    sizes = [1 * MIB, 16 * MIB, 64 * MIB]
    workload = [{"op": op, "size_bytes": s}
                for op in ("compress", "encrypt", "download") for s in sizes]
    started = time.monotonic()
    report = run_scenario(ScenarioSpec(seed=0x5, workload=workload))
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"run took {elapsed:.1f}s"
    assert report.passed(), report.assertions
    for op in ("compress", "encrypt", "download"):
        rows = [o for o in report.ops if o["op"] == op]
        assert [o["size_bytes"] for o in rows] == sizes
        agent_bytes = [o["bytes_agent"] for o in rows]
        assert all(o["ok"] for o in rows)
        assert all(b < 64 * 1024 for b in agent_bytes), (op, agent_bytes)
        assert max(agent_bytes) / min(agent_bytes) < 2.0, (op, agent_bytes)
        for o in rows:
            assert o["bytes_worker"] >= o["size_bytes"]
        print(f"{op}: agent bytes {agent_bytes} across {sizes}")
    print(f"full asymmetry run in {elapsed:.1f}s")


def test_c06_transfers_bit_exact_with_token_isolation(cluster, tmp_path):
    """20 random 1-64 MiB transfers, both protocols: received files hash
    identical; token isolation per side on the dual-instance path."""
    rng = random.Random(0xC6)
    la_worker = cluster.worker(shared=False)
    lb_worker = cluster.worker(shared=False)
    alice, tok_a = _agent(cluster, "alice", seed=61,
                          launcher=lambda: (la_worker.addr,
                                            la_worker.certificate.to_wire()))
    bob, tok_b = _agent(cluster, "bob", seed=62,
                        launcher=lambda: (lb_worker.addr,
                                          lb_worker.certificate.to_wire()))
    cluster.worker(shared=True)
    sess_a = cluster.backend.authenticate(tok_a)
    sess_b = cluster.backend.authenticate(tok_b)

    def one_transfer(i, shared):
        size = int(2 ** rng.uniform(20, 26))  # log-uniform over 1..64 MiB
        payload = rng.randbytes(size)
        src = f"/out/tx{i}.bin"
        cluster.backend.put_object(sess_a, src, payload)
        alice.sync()
        tpath = str(tmp_path / f"t{i}.ticket")
        if shared:
            alice.cmd_send_shared("bob", src, tpath)
            result = bob.cmd_recv_shared(read_ticket(tpath))
        else:
            alice.cmd_send("bob", src, tpath)
            result = bob.cmd_recv(read_ticket(tpath))
        got = cluster.backend.get_object(sess_b, result["outputs"][0]["path"])
        assert hashlib.sha256(got).digest() == hashlib.sha256(payload).digest()
        return size

    moved = sum(one_transfer(i, shared=False) for i in range(10))
    occ_a = cluster.recorder.occurrences(tok_a.encode())
    occ_b = cluster.recorder.occurrences(tok_b.encode())
    assert occ_a and occ_b  # the dual-instance path does carry plaintext creds
    ia = cluster.workers.index(la_worker)
    ib = cluster.workers.index(lb_worker)
    for label in occ_a:  # alice's token: only alice -> her own instance
        assert (label == f"alice->{la_worker.addr}"
                or label.startswith(f"worker{ia}<-")), label
    for label in occ_b:
        assert (label == f"bob->{lb_worker.addr}"
                or label.startswith(f"worker{ib}<-")), label

    moved += sum(one_transfer(10 + i, shared=True) for i in range(10))
    # the shared protocol added no plaintext-token frames anywhere
    assert len(cluster.recorder.occurrences(tok_a.encode())) == len(occ_a)
    assert len(cluster.recorder.occurrences(tok_b.encode())) == len(occ_b)
    print(f"20/20 transfers hash-identical, {moved / MIB:.0f} MiB moved; "
          f"isolation held")


def test_c07_exact_solver_matches_oracle_everywhere():
    """200 random cases |K|<=8 |C|<=4: exact == oracle; greedy feasible
    with used >= exact; under 10 s; canonical 4x3-on-6,6 case == 2."""
    rng = random.Random(0xC7)
    started = time.monotonic()
    feasible_cases = infeasible_cases = 0
    for case in range(200):
        nk, nc = rng.randint(1, 8), rng.randint(1, 4)
        # windows mostly overlap so infeasibility comes from capacity
        # pressure (the interesting regime), not from window filtering
        tasks = []
        for j in range(nk):
            s = rng.uniform(0, 50)
            tasks.append(TaskSpec(f"t{j}", s, s + rng.uniform(1, 40),
                                  rng.uniform(1, 4)))
        insts = []
        for j in range(nc):
            s = rng.uniform(0, 15)
            insts.append(InstanceSpec(f"c{j}", s, s + rng.uniform(60, 120),
                                      rng.uniform(3, 12)))
        try:
            exact_used = solve_exact(tasks, insts).used_count
        except Infeasible:
            exact_used = None
        try:
            oracle_used = brute_force_optimum(tasks, insts)
        except Infeasible:
            oracle_used = None
        assert exact_used == oracle_used, f"case {case}: {exact_used} vs {oracle_used}"
        if exact_used is None:
            infeasible_cases += 1
            continue
        feasible_cases += 1
        greedy = solve_greedy(tasks, insts)  # must not raise here
        assert greedy.used_count >= exact_used
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"solver sweep took {elapsed:.2f}s"

    tasks = [TaskSpec(f"t{j}", 0, 50, 3) for j in range(4)]
    insts = [InstanceSpec(f"c{j}", 0, 100, 6) for j in range(2)]
    assert solve_exact(tasks, insts).used_count == 2
    assert brute_force_optimum(tasks, insts) == 2
    assert solve_greedy(tasks, insts).used_count == 2
    print(f"200/200 exact==oracle ({feasible_cases} feasible, "
          f"{infeasible_cases} infeasible) in {elapsed:.2f}s; canonical case = 2")


def test_c08_shutdown_notice_lands_in_window(cluster):
    """10 workers, billing 10 s / margin 2 s: every notice in [7.5, 8.5] s
    of start, and the pool excludes all of them afterwards."""
    workers = [cluster.worker(shared=True, billing_period_s=10.0,
                              safety_margin_s=2.0) for _ in range(10)]
    deltas = [None] * 10

    def wait_one(i):
        w = workers[i]
        if w.terminated.wait(12.0):
            deltas[i] = time.monotonic() - w.started_at

    threads = [threading.Thread(target=wait_one, args=(i,)) for i in range(10)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(d is not None for d in deltas), deltas
    for i, d in enumerate(deltas):
        assert 7.5 <= d <= 8.5, f"worker {i} shut down at {d:.2f}s"
    # pool exclusion: the coordinator granted their retirement
    deadline = time.monotonic() + 3.0
    while time.monotonic() < deadline:
        if not cluster.coordinator.instances(status="active"):
            break
        time.sleep(0.05)
    assert cluster.coordinator.instances(status="active") == []
    with pytest.raises(NoInstanceAvailable):
        from skyrelay.wire import open_channel
        ch = open_channel(cluster.coordinator.addr)
        try:
            ch.request("REQUEST_INSTANCE", {"user_id": "x"})
        finally:
            ch.close()
    print(f"10/10 notices in window: {[f'{d:.2f}' for d in deltas]}")


def test_c09_shared_pool_beats_cold_private_start():
    """Private startup delay 15 s: every pairwise first-op latency gap
    private - shared >= 14 s, 5/5 trials."""
    out = compare_modes(size_bytes=128 * 1024, trials=5,
                        private_startup_delay_s=15.0, seed=9)
    assert len(out["deltas_ms"]) == 5
    for i, d in enumerate(out["deltas_ms"]):
        assert d >= 14_000.0, f"trial {i}: gap {d:.0f}ms"
    print(f"gaps ms: {[f'{d:.0f}' for d in out['deltas_ms']]}; "
          f"shared mean {out['mean_shared_ms']:.0f}ms")


def test_c10_persisted_state_stays_thin(cluster, tmp_path):
    """1000-file corpus: saved agent state < 512 B per entry, zero content."""
    agent, token = _agent(cluster, "alice", seed=10)
    sess = cluster.backend.authenticate(token)
    marker = b"BODYMARKER-7e2a-"
    for i in range(1000):
        cluster.backend.put_object(
            sess, f"/corpus/d{i % 10}/file_{i:04d}.bin",
            marker + os.urandom(64) + f"-{i}".encode())
    agent.sync()
    state = tmp_path / "state.json"
    agent.save_state(str(state))
    raw = state.read_bytes()
    doc = json.loads(raw)
    entries = doc["shadow"]["entries"]
    n_files = sum(1 for e in entries.values() if e.get("kind") == "file")
    assert n_files == 1000
    # the change cursor rides along: one integer, one change per entry made
    assert doc["shadow"]["cursor"] == len(entries)
    per_entry = len(raw) / len(entries)
    assert per_entry < 512, f"{per_entry:.1f} bytes per entry"
    assert marker not in raw
    assert token.encode() not in raw
    print(f"{len(entries)} entries in {len(raw)} bytes "
          f"({per_entry:.1f} B/entry), no content bytes")
