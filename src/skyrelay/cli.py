"""Command-line front end.

Subcommands mirror the deployment pieces: `coordinator` and `worker` run the
long-lived services, `agent` drives a user session against a store (state
kept in a small profile directory), `sched` solves reservation problems from
JSON, and `bench` runs scripted scenarios.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading

from .agent import AgentConfig, AgentSession, read_ticket
from .bench import ScenarioSpec, compare_modes, run_scenario, write_report
from .coordinator import Coordinator, CoordinatorConfig
from .errors import Infeasible, SkyrelayError
from .scheduler import brute_force_optimum, problem_from_json, solve_exact, solve_greedy
from .storage import LocalDirBackend
from .worker import Worker, WorkerConfig

def default_state_dir() -> str:
    # resolved per call so SKYRELAY_HOME set after import still applies
    return os.path.expanduser(os.environ.get("SKYRELAY_HOME", "~/.skyrelay"))


def _profile_path(state_dir: str) -> str:
    return os.path.join(state_dir, "profile.json")


def _load_profile(state_dir: str) -> dict:
    try:
        with open(_profile_path(state_dir), encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        raise SystemExit("not logged in; run `skyrelay agent login` first")


def _save_profile(state_dir: str, profile: dict):
    os.makedirs(state_dir, exist_ok=True)
    path = _profile_path(state_dir)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(profile, f, indent=2)
    os.chmod(path, 0o600)  # holds the storage token


def _agent_from_profile(args) -> AgentSession:
    profile = _load_profile(args.state_dir)
    cfg = AgentConfig(
        account_id=profile["account_id"],
        token=profile["token"],
        backend=LocalDirBackend(profile["store_root"]),
        mode=getattr(args, "mode", None) or profile.get("mode", "shared"),
        coordinator_addr=getattr(args, "coordinator", None) or profile.get("coordinator"),
        coordinator_pub=(bytes.fromhex(profile["coordinator_pub"])
                         if profile.get("coordinator_pub") else None),
        private_instance=getattr(args, "private_instance", None)
        or profile.get("private_instance"),
        private_certificate=profile.get("private_certificate"),
        download_dir=profile.get("download_dir")
        or os.path.join(args.state_dir, "downloads"),
    )
    return AgentSession(cfg)


def _finish(agent: AgentSession, args):
    agent.save_state(os.path.join(args.state_dir, "shadow.json"))
    if getattr(args, "metrics_out", None):
        with open(args.metrics_out, "w", encoding="utf-8") as f:
            json.dump(agent.metrics, f, indent=2)


def _cmd_agent(args) -> int:
    if args.state_dir is None:
        args.state_dir = default_state_dir()
    if args.agent_cmd == "login":
        backend = LocalDirBackend(args.store_root)
        token = args.token
        if args.create:
            token = backend.create_account(args.account, quota_bytes=args.quota_bytes)
            print(f"created account {args.account}; token: {token}")
        if not token:
            raise SystemExit("pass --token or --create")
        backend.authenticate(token)
        _save_profile(args.state_dir, {
            "account_id": args.account,
            "token": token,
            "store_root": os.path.abspath(args.store_root),
            "coordinator": args.coordinator,
            "coordinator_pub": args.coordinator_pub,
            "mode": args.mode or "shared",
        })
        print(f"logged in as {args.account}")
        return 0

    agent = _agent_from_profile(args)
    try:
        if args.agent_cmd == "ls":
            for meta in agent.ls(args.path):
                marker = "/" if meta.kind == "folder" else ""
                print(f"{meta.size_bytes:>12}  {meta.path}{marker}")
        elif args.agent_cmd == "mkdir":
            agent.cmd_basic("create", {"path": args.path, "kind": "folder"})
        elif args.agent_cmd == "rm":
            agent.cmd_basic("delete", {"path": args.path})
        elif args.agent_cmd == "mv":
            agent.cmd_basic("rename", {"src": args.src, "dst": args.dst})
        elif args.agent_cmd == "download":
            result = agent.cmd_cloud_op("download", {"url": args.url, "dest": args.dest})
            print(json.dumps(result["outputs"], indent=2))
        elif args.agent_cmd in ("compress", "encrypt"):
            result = agent.cmd_cloud_op(args.agent_cmd, {"path": args.path})
            print(json.dumps(result["outputs"], indent=2))
            for p in result["saved"]:
                print(f"saved locally: {p}")
        elif args.agent_cmd == "convert":
            result = agent.cmd_cloud_op("convert", {
                "path": args.path, "max_resolution": args.max_resolution})
            for p in result["saved"]:
                print(f"saved locally: {p}")
        elif args.agent_cmd == "send":
            ticket = agent.cmd_send(args.dst_user, args.path, args.ticket,
                                    protocol=args.protocol or agent.cfg.mode)
            print(f"ticket written to {args.ticket} ({ticket.size_bytes} bytes staged)")
        elif args.agent_cmd == "recv":
            result = agent.cmd_recv(read_ticket(args.ticket, timeout_s=args.wait),
                                    dst_path=args.dst)
            print(json.dumps(result["outputs"], indent=2))
        else:
            raise SystemExit(f"unknown agent command {args.agent_cmd}")
    finally:
        _finish(agent, args)
    return 0


def _cmd_coordinator(args) -> int:
    coord = Coordinator(CoordinatorConfig(
        listen_addr=args.listen,
        min_share_remaining_s=args.min_share_remaining,
        alloc_ttl_s=args.alloc_ttl,
        interval_s=args.interval,
    ))
    addr = coord.start()
    print(f"coordinator at {addr}")
    print(f"public key: {coord.public_key.hex()}")
    _wait_for_signal()
    coord.stop()
    return 0


def _cmd_worker(args) -> int:
    worker = Worker(WorkerConfig(
        listen_addr=args.listen,
        coordinator_addr=args.coordinator,
        store_root=args.store_root,
        billing_period_s=args.billing_period,
        safety_margin_s=args.safety_margin,
        max_jobs=args.max_jobs,
        shared=not args.private,
        share_duration_s=args.share_duration,
        startup_delay_s=args.startup_delay,
    ))
    addr = worker.start()
    print(f"worker at {addr}" + (f" (pid {worker.pid.hex()})" if worker.pid else ""))
    _wait_for_signal(worker.terminated)
    worker.stop()
    return 0


def _wait_for_signal(extra_event: threading.Event | None = None):
    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(sig, lambda *_: stop.set())
        except ValueError:
            pass  # not the main thread (tests)
    while not stop.is_set():
        if extra_event is not None and extra_event.is_set():
            return
        stop.wait(0.2)


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        raise SystemExit(f"cannot read {path}: {e}")


def _cmd_sched(args) -> int:
    tasks, instances = problem_from_json(_read_json(args.input))
    try:
        if args.method == "exact":
            result = solve_exact(tasks, instances).to_wire()
        elif args.method == "greedy":
            result = solve_greedy(tasks, instances).to_wire()
        else:
            result = {"optimum": brute_force_optimum(tasks, instances)}
    except Infeasible as e:
        print(json.dumps({"error": e.code, "task_ids": e.task_ids}))
        return 3
    out = json.dumps(result, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(out + "\n")
    else:
        print(out)
    return 0


def _cmd_bench(args) -> int:
    if args.bench_cmd == "run":
        spec = ScenarioSpec.from_json(_read_json(args.scenario))
        report = run_scenario(spec)
        write_report(report, args.out,
                     text_path=os.path.splitext(args.out)[0] + ".txt")
        print(report.table_text())
        return 0 if report.passed() else 1
    if args.bench_cmd == "compare":
        table = compare_modes(size_bytes=args.size_bytes, trials=args.trials,
                              private_startup_delay_s=args.delay, seed=args.seed)
        print(json.dumps(table, indent=2))
        return 0
    raise SystemExit(f"unknown bench command {args.bench_cmd}")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="skyrelay")
    sub = p.add_subparsers(dest="cmd", required=True)

    ag = sub.add_parser("agent", help="user session commands")
    ag.add_argument("--state-dir", default=None)
    ag.add_argument("--metrics-out", default=None)
    ag.add_argument("--mode", choices=("private", "shared"), default=None)
    ag.add_argument("--coordinator", default=None)
    ag.add_argument("--private-instance", default=None,
                    help="addr of this user's own worker")
    agsub = ag.add_subparsers(dest="agent_cmd", required=True)

    login = agsub.add_parser("login")
    login.add_argument("account")
    login.add_argument("--store-root", required=True)
    login.add_argument("--token", default=None)
    login.add_argument("--create", action="store_true",
                       help="create the account and print its token")
    login.add_argument("--quota-bytes", type=int, default=1 << 30)
    login.add_argument("--coordinator", default=None)
    login.add_argument("--coordinator-pub", default=None)
    login.add_argument("--mode", choices=("private", "shared"), default=None)

    ls = agsub.add_parser("ls")
    ls.add_argument("path", nargs="?", default="/")
    mkdir = agsub.add_parser("mkdir")
    mkdir.add_argument("path")
    rm = agsub.add_parser("rm")
    rm.add_argument("path")
    mv = agsub.add_parser("mv")
    mv.add_argument("src")
    mv.add_argument("dst")

    dl = agsub.add_parser("download")
    dl.add_argument("url")
    dl.add_argument("dest")
    for name in ("compress", "encrypt"):
        sp = agsub.add_parser(name)
        sp.add_argument("path")
    cv = agsub.add_parser("convert")
    cv.add_argument("path")
    cv.add_argument("--max-resolution", type=int, default=128)

    send = agsub.add_parser("send")
    send.add_argument("dst_user")
    send.add_argument("path")
    send.add_argument("--ticket", required=True)
    send.add_argument("--protocol", choices=("private", "shared"), default=None)
    recv = agsub.add_parser("recv")
    recv.add_argument("--ticket", required=True)
    recv.add_argument("--dst", default=None)
    recv.add_argument("--wait", type=float, default=60.0)

    co = sub.add_parser("coordinator", help="run the coordinator service")
    co.add_argument("--listen", default="127.0.0.1:0")
    co.add_argument("--min-share-remaining", type=float, default=60.0)
    co.add_argument("--alloc-ttl", type=float, default=600.0)
    co.add_argument("--interval", type=int, default=180)

    wk = sub.add_parser("worker", help="run a worker instance")
    wk.add_argument("--listen", default="127.0.0.1:0")
    wk.add_argument("--coordinator", default=None)
    wk.add_argument("--store-root", required=True)
    wk.add_argument("--billing-period", type=float, default=3600.0)
    wk.add_argument("--safety-margin", type=float, default=60.0)
    wk.add_argument("--max-jobs", type=int, default=4)
    wk.add_argument("--private", action="store_true",
                    help="register excluded from the shared pool")
    wk.add_argument("--share-duration", type=float, default=3600.0)
    wk.add_argument("--startup-delay", type=float, default=0.0)

    sc = sub.add_parser("sched", help="reservation planning")
    scsub = sc.add_subparsers(dest="sched_cmd", required=True)
    solve = scsub.add_parser("solve")
    solve.add_argument("--input", required=True)
    solve.add_argument("--method", choices=("exact", "greedy", "oracle"),
                       default="exact")
    solve.add_argument("--out", default=None)

    be = sub.add_parser("bench", help="scenario harness")
    besub = be.add_subparsers(dest="bench_cmd", required=True)
    run = besub.add_parser("run")
    run.add_argument("scenario")
    run.add_argument("--out", required=True)
    cmp_ = besub.add_parser("compare")
    cmp_.add_argument("--size-bytes", type=int, default=256 * 1024)
    cmp_.add_argument("--trials", type=int, default=5)
    cmp_.add_argument("--delay", type=float, default=15.0)
    cmp_.add_argument("--seed", type=int, default=0)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.cmd == "agent":
            return _cmd_agent(args)
        if args.cmd == "coordinator":
            return _cmd_coordinator(args)
        if args.cmd == "worker":
            return _cmd_worker(args)
        if args.cmd == "sched":
            return _cmd_sched(args)
        if args.cmd == "bench":
            return _cmd_bench(args)
    except SkyrelayError as e:
        print(f"error: {e.code}: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
