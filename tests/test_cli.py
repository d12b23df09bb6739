"""CLI tests driven through main(argv) with captured stdio."""

import json
import os

import pytest

from skyrelay.cli import main
from skyrelay.storage import LocalDirBackend


@pytest.fixture
def home(tmp_path, monkeypatch):
    state = tmp_path / "home"
    monkeypatch.setenv("SKYRELAY_HOME", str(state))
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_login_then_basic_flow(home, capsys):
    store = str(home / "store")
    code, out, _ = run(capsys, "agent", "login", "alice",
                       "--store-root", store, "--create")
    assert code == 0
    code, _, _ = run(capsys, "agent", "mkdir", "/docs")
    assert code == 0
    code, out, _ = run(capsys, "agent", "ls", "/")
    assert code == 0 and "/docs" in out
    # the state dir holds only the profile, never world readable
    prof = home / "home" / "profile.json"
    assert [p.name for p in (home / "home").iterdir()] == ["profile.json"]
    assert os.stat(prof).st_mode & 0o077 == 0
    doc = json.loads(prof.read_text())
    assert doc["account_id"] == "alice"


def test_profile_is_owner_only_from_creation(home, capsys, monkeypatch):
    chmod = os.chmod
    monkeypatch.setattr(os, "chmod", lambda *args, **kwargs: None)
    prof = home / "home" / "profile.json"
    for account in ("alice", "bob"):  # bob's login replaces a world-readable profile
        code, _, _ = run(capsys, "agent", "login", account,
                         "--store-root", str(home / "store"), "--create")
        assert code == 0
        assert os.stat(prof).st_mode & 0o077 == 0
        chmod(prof, 0o644)


@pytest.mark.parametrize("order", ["agent-level", "login-level"])
def test_login_takes_mode_and_coordinator_on_either_side(home, capsys, order):
    placement = ["--mode", "private", "--coordinator", "127.0.0.1:9"]
    login = ["login", "alice", "--store-root", str(home / "store"), "--create"]
    argv = placement + login if order == "agent-level" else login + placement
    code, _, _ = run(capsys, "agent", *argv)
    assert code == 0
    doc = json.loads((home / "home" / "profile.json").read_text())
    assert (doc["mode"], doc["coordinator"]) == ("private", "127.0.0.1:9")


def test_login_refuses_a_token_of_another_account(home, capsys):
    store = str(home / "store")
    run(capsys, "agent", "login", "alice", "--store-root", store, "--create")
    code, out, _ = run(capsys, "agent", "login", "bob", "--store-root", store, "--create")
    token_b = out.split("token: ")[1].split()[0]
    code, _, err = run(capsys, "agent", "login", "alice", "--store-root", store,
                       "--token", token_b)
    assert code == 1 and "AUTH_ERROR" in err
    doc = json.loads((home / "home" / "profile.json").read_text())
    assert doc["account_id"] == "bob"  # the refused login wrote nothing


def test_agent_error_is_clean_nonzero(home, capsys):
    store = str(home / "store")
    run(capsys, "agent", "login", "alice", "--store-root", store, "--create")
    code, _, err = run(capsys, "agent", "rm", "/absent")
    assert code == 1
    assert "NOT_FOUND" in err
    assert "Traceback" not in err


def test_ls_of_a_missing_or_relative_path_is_an_error(home, capsys):
    store = str(home / "store")
    run(capsys, "agent", "login", "alice", "--store-root", store, "--create")
    code, out, err = run(capsys, "agent", "ls", "/absent")
    assert (code, out) == (1, "") and "NOT_FOUND" in err
    code, out, err = run(capsys, "agent", "ls", "docs")
    assert (code, out) == (1, "") and "PERMISSION_DENIED" in err


def test_printed_names_carry_no_control_characters(home, capsys):
    store = str(home / "store")
    _, out, _ = run(capsys, "agent", "login", "alice", "--store-root", store, "--create")
    backend = LocalDirBackend(store)
    sess = backend.authenticate(out.split("token: ")[1].split()[0])
    backend.put_object(sess, "/a\x1b[2Jb\x9b\\c", b"x")
    code, out, _ = run(capsys, "agent", "ls", "/")
    assert code == 0
    assert not [c for c in out if (c < " " or "\x7f" <= c <= "\x9f") and c != "\n"]
    assert "/a\\x1b[2Jb\\x9b\\\\c" in out
    # the error line carries the path the user typed
    code, _, err = run(capsys, "agent", "rm", "/gone\x1b]0;x\x07")
    assert code == 1
    assert not [c for c in err if c < " " and c != "\n"]
    assert "/gone\\x1b]0;x\\x07" in err


def test_sched_solve_exact_and_oracle_agree(home, capsys, tmp_path):
    problem = {
        "tasks": [
            {"id": f"t{i}", "start": s, "end": e, "bw": 3.0}
            for i, (s, e) in enumerate([(0, 40), (10, 50), (20, 60), (30, 70)])
        ],
        "instances": [
            {"id": f"c{i}", "start": 0, "end": 100, "cap": 6.0}
            for i in range(4)
        ],
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    counts = {}
    for method, key in (("exact", "used_count"), ("greedy", "used_count"),
                        ("oracle", "optimum")):
        code, out, _ = run(capsys, "sched", "solve",
                           "--input", str(path), "--method", method)
        assert code == 0
        counts[method] = json.loads(out)[key]
    assert counts["exact"] == counts["oracle"] == 2
    assert counts["greedy"] >= counts["exact"]


def test_sched_infeasible_exit_code(home, capsys, tmp_path):
    problem = {
        "tasks": [{"id": "t0", "start": 0, "end": 10, "bw": 9.0}],
        "instances": [{"id": "c0", "start": 0, "end": 100, "cap": 1.0}],
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(problem))
    code, out, _ = run(capsys, "sched", "solve", "--input", str(path),
                       "--method", "exact")
    assert code == 3
    doc = json.loads(out)
    assert doc["task_ids"] == ["t0"]


def test_sched_rejects_malformed_json(home, capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    with pytest.raises(SystemExit):
        run(capsys, "sched", "solve", "--input", str(path), "--method", "exact")


def test_bench_run_writes_reports(home, capsys, tmp_path):
    scenario = {"seed": 8, "shared_workers": 1,
                "workload": [{"op": "compress", "size_bytes": 40_000}]}
    spath = tmp_path / "s.json"
    spath.write_text(json.dumps(scenario))
    out_json = tmp_path / "report.json"
    code, _, _ = run(capsys, "bench", "run", str(spath), "--out", str(out_json))
    assert code == 0
    doc = json.loads(out_json.read_text())
    assert doc["passed"] is True and doc["reconciliation"]["delta"] == 0
    table = (tmp_path / "report.txt").read_text()
    assert "compress" in table
