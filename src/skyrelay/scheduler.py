"""Offline assignment of operation tasks onto shared instances.

Each task k asks for a time window [start, end] and a bandwidth demand; each
instance c offers an availability window and a bandwidth capacity.  The goal
is to assign every task to an instance that covers its window without the
summed demand of in-window tasks exceeding capacity, using as few distinct
instances as possible.  One task is never split across instances.

The capacity constraint is deliberately load-volume, not rate: an instance's
budget binds over ALL tasks assigned to it whose windows fit, whether or not
they overlap in time.  A tighter overlap-aware constraint would be a
different problem.

All functions are pure and deterministic; ties break lexicographically by id.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import Infeasible, OracleTooLarge

EXACT_SIZE_CAP = 20
ORACLE_TASK_CAP = 8
ORACLE_INSTANCE_CAP = 4


@dataclass(frozen=True)
class TaskSpec:
    task_id: str
    start_s: int
    end_s: int
    bandwidth: int

    def __post_init__(self):
        if not self.start_s < self.end_s:
            raise ValueError(f"task {self.task_id}: start must precede end")
        if self.bandwidth <= 0:
            raise ValueError(f"task {self.task_id}: bandwidth must be positive")


@dataclass(frozen=True)
class InstanceSpec:
    instance_id: str
    avail_start_s: int
    avail_end_s: int
    capacity: int

    def __post_init__(self):
        if not self.avail_start_s < self.avail_end_s:
            raise ValueError(f"instance {self.instance_id}: start must precede end")
        if self.capacity <= 0:
            raise ValueError(f"instance {self.instance_id}: capacity must be positive")


@dataclass
class Assignment:
    mapping: dict[str, str]  # task_id -> instance_id

    @property
    def used_count(self) -> int:
        return len(set(self.mapping.values()))

    def to_wire(self) -> dict:
        return {"assignment": dict(sorted(self.mapping.items())),
                "used_count": self.used_count}


def _window_fits(t: TaskSpec, c: InstanceSpec) -> bool:
    return c.avail_start_s <= t.start_s and t.end_s <= c.avail_end_s


def verify_assignment(tasks: list[TaskSpec], instances: list[InstanceSpec],
                      a: Assignment) -> list[str]:
    """Check totality, window containment, and per-instance load budgets."""
    violations = []
    by_tid = {t.task_id: t for t in tasks}
    by_iid = {c.instance_id: c for c in instances}
    for tid in sorted(by_tid):
        if tid not in a.mapping:
            violations.append(f"task {tid} is unassigned")
    for tid in sorted(a.mapping):
        if tid not in by_tid:
            violations.append(f"assignment names unknown task {tid}")
        elif a.mapping[tid] not in by_iid:
            violations.append(f"task {tid} assigned to unknown instance {a.mapping[tid]}")
    load: dict[str, int] = {}
    for tid in sorted(a.mapping):
        t = by_tid.get(tid)
        c = by_iid.get(a.mapping.get(tid, ""))
        if t is None or c is None:
            continue
        if not _window_fits(t, c):
            violations.append(
                f"task {tid} window [{t.start_s},{t.end_s}] outside instance "
                f"{c.instance_id} window [{c.avail_start_s},{c.avail_end_s}]")
        else:
            load[c.instance_id] = load.get(c.instance_id, 0) + t.bandwidth
    for iid in sorted(load):
        if load[iid] > by_iid[iid].capacity:
            violations.append(
                f"instance {iid} load {load[iid]} exceeds capacity {by_iid[iid].capacity}")
    return violations


def _candidates(tasks, instances):
    """Window- and size-feasible instances per task; Infeasible if any task has none."""
    fits = {}
    stuck = []
    for t in tasks:
        cand = [c for c in instances
                if _window_fits(t, c) and t.bandwidth <= c.capacity]
        if cand:
            fits[t.task_id] = cand
        else:
            stuck.append(t.task_id)
    if stuck:
        raise Infeasible(f"{len(stuck)} task(s) fit no instance", sorted(stuck))
    return fits


def solve_exact(tasks: list[TaskSpec], instances: list[InstanceSpec],
                size_cap: int = EXACT_SIZE_CAP) -> Assignment:
    """Minimize the number of distinct instances used; branch and bound.

    The bound charges each open instance its residual capacity and assumes
    any remaining demand packs perfectly into fresh instances of maximal
    capacity, so it never overestimates the instances still needed.
    """
    if len(tasks) > size_cap:
        raise ValueError(f"solve_exact capped at {size_cap} tasks, got {len(tasks)}")
    if not tasks:
        return Assignment({})
    insts = sorted(instances, key=lambda c: c.instance_id)
    fits = _candidates(tasks, insts)
    order = sorted(tasks, key=lambda t: (-t.bandwidth, t.task_id))
    beta_max = max(c.capacity for c in insts)

    best_used = len(insts) + 1
    best_map: dict[str, str] | None = None
    try:
        seed = solve_greedy(tasks, instances)
        best_used = seed.used_count
        best_map = dict(seed.mapping)
    except Infeasible:
        pass

    residual = {c.instance_id: c.capacity for c in insts}
    used: set[str] = set()
    mapping: dict[str, str] = {}
    suffix_demand = [0] * (len(order) + 1)
    for i in range(len(order) - 1, -1, -1):
        suffix_demand[i] = suffix_demand[i + 1] + order[i].bandwidth

    def dfs(i: int):
        nonlocal best_used, best_map
        if i == len(order):
            if len(used) < best_used:
                best_used = len(used)
                best_map = dict(mapping)
            return
        open_residual = sum(residual[iid] for iid in used)
        extra = max(0, suffix_demand[i] - open_residual)
        lower = len(used) + -(-extra // beta_max)
        if lower >= best_used:
            return
        t = order[i]
        cand = [c for c in fits[t.task_id] if residual[c.instance_id] >= t.bandwidth]
        cand.sort(key=lambda c: (c.instance_id not in used, c.instance_id))
        # Untouched instances with equal window and capacity are interchangeable;
        # branching into more than the first is pure symmetry.
        seen_fresh_sig = set()
        for c in cand:
            fresh = c.instance_id not in used
            if fresh and residual[c.instance_id] == c.capacity:
                sig = (c.avail_start_s, c.avail_end_s, c.capacity)
                if sig in seen_fresh_sig:
                    continue
                seen_fresh_sig.add(sig)
            residual[c.instance_id] -= t.bandwidth
            if fresh:
                used.add(c.instance_id)
            mapping[t.task_id] = c.instance_id
            dfs(i + 1)
            del mapping[t.task_id]
            if fresh:
                used.discard(c.instance_id)
            residual[c.instance_id] += t.bandwidth
        return

    dfs(0)
    if best_map is None:
        raise Infeasible("no total assignment exists", sorted(t.task_id for t in tasks))
    return Assignment(best_map)


def _feasible_search(tasks: list[TaskSpec], insts: list[InstanceSpec],
                     fits: dict[str, list[InstanceSpec]],
                     budget: int = 250_000) -> dict[str, str] | None:
    """Backtracking hunt for any total assignment; None if none found.

    Tasks with the fewest usable instances place first, each trying tightly
    packed open instances before fresh ones. The node budget keeps the worst
    case bounded; it exceeds the full search space at oracle-checkable sizes,
    so within those the search is exhaustive.
    """
    order = sorted(tasks, key=lambda t: (len(fits[t.task_id]),
                                         -t.bandwidth, t.task_id))
    cap = {c.instance_id: c.capacity for c in insts}
    residual = dict(cap)

    def candidates(t: TaskSpec) -> list[str]:
        cand = [c.instance_id for c in fits[t.task_id]
                if residual[c.instance_id] >= t.bandwidth]
        # open (residual < cap) before fresh, tightest first
        cand.sort(key=lambda i: (residual[i] == cap[i], residual[i], i))
        return cand

    chosen: list[str] = []
    stack = [iter(candidates(order[0]))]
    nodes = 0
    while stack:
        iid = next(stack[-1], None)
        if iid is None:
            stack.pop()
            if chosen:
                prev = chosen.pop()
                residual[prev] += order[len(stack) - 1].bandwidth
            continue
        nodes += 1
        if nodes > budget:
            return None
        residual[iid] -= order[len(chosen)].bandwidth
        chosen.append(iid)
        if len(chosen) == len(order):
            return {order[i].task_id: chosen[i] for i in range(len(order))}
        stack.append(iter(candidates(order[len(chosen)])))
    return None


def solve_greedy(tasks: list[TaskSpec], instances: list[InstanceSpec]) -> Assignment:
    """First-fit-decreasing by demand over instances ordered by capacity.

    FFD can strand a task whose only viable instance got filled by less
    picky work, so a dead end falls back to a backtracking pass instead of
    failing outright; greedy then stays feasible anywhere the exact solver
    is. Both stages are deterministic.
    """
    if not tasks:
        return Assignment({})
    insts = sorted(instances, key=lambda c: (-c.capacity, c.instance_id))
    fits = _candidates(tasks, insts)
    order = sorted(tasks, key=lambda t: (-t.bandwidth, t.task_id))
    residual = {c.instance_id: c.capacity for c in insts}
    opened: list[InstanceSpec] = []
    mapping: dict[str, str] = {}
    stuck = []
    for t in order:
        placed = False
        for c in itertools.chain(opened, (c for c in insts if c not in opened)):
            if _window_fits(t, c) and residual[c.instance_id] >= t.bandwidth:
                residual[c.instance_id] -= t.bandwidth
                mapping[t.task_id] = c.instance_id
                if c not in opened:
                    opened.append(c)
                placed = True
                break
        if not placed:
            stuck.append(t.task_id)
    if stuck:
        rescued = _feasible_search(tasks, insts, fits)
        if rescued is None:
            raise Infeasible(f"{len(stuck)} task(s) fit no open or fresh instance",
                             sorted(stuck))
        mapping = rescued
    return Assignment(mapping)


def plan_batch(tasks: list[dict], pool: list[dict], now: float) -> Assignment:
    """Plan timed task reservations onto a live pool of shared instances.

    Tasks arrive as {id, start, end, bandwidth} with absolute seconds; pool
    rows are coordinator instance summaries (`Coordinator.instances("active")`),
    each contributing the window [now, share_until] at its declared capacity.
    Returns the assignment minimizing instances used: exact for small
    batches, greedy beyond the exact solver's cap.
    """
    specs = [
        TaskSpec(task_id=t["id"], start_s=float(t["start"]),
                 end_s=float(t["end"]), bandwidth=float(t["bandwidth"]))
        for t in tasks
    ]
    instances = [
        InstanceSpec(instance_id=r["pid"], avail_start_s=now,
                     avail_end_s=float(r["share_until"]), capacity=float(r["capacity"]))
        for r in pool if r["shared"]
    ]
    solve = solve_exact if len(specs) <= EXACT_SIZE_CAP else solve_greedy
    return solve(specs, instances)


def brute_force_optimum(tasks: list[TaskSpec], instances: list[InstanceSpec]) -> int:
    """Exhaustive test oracle at toy sizes: minimal feasible used_count.

    Enumerates task->instance choice vectors; choices that put a task outside
    an instance's window or over its solo capacity are infeasible by
    definition and are skipped up front, which prunes nothing feasible.
    """
    if len(tasks) > ORACLE_TASK_CAP or len(instances) > ORACLE_INSTANCE_CAP:
        raise OracleTooLarge(
            f"oracle capped at {ORACLE_TASK_CAP} tasks x {ORACLE_INSTANCE_CAP} instances")
    if not tasks:
        return 0
    order = sorted(tasks, key=lambda t: t.task_id)
    insts = sorted(instances, key=lambda c: c.instance_id)
    cap = {c.instance_id: c.capacity for c in insts}
    per_task = []
    for t in order:
        ok = [c.instance_id for c in insts
              if c.avail_start_s <= t.start_s and t.end_s <= c.avail_end_s
              and t.bandwidth <= c.capacity]
        if not ok:
            raise Infeasible(f"task {t.task_id} fits no instance", [t.task_id])
        per_task.append(ok)
    demands = [t.bandwidth for t in order]
    best = None
    for combo in itertools.product(*per_task):
        load: dict[str, int] = {}
        feasible = True
        for iid, d in zip(combo, demands):
            new = load.get(iid, 0) + d
            if new > cap[iid]:
                feasible = False
                break
            load[iid] = new
        if feasible:
            used = len(set(combo))
            if best is None or used < best:
                best = used
                if best == 1:
                    break
    if best is None:
        raise Infeasible("no total assignment exists",
                         sorted(t.task_id for t in order))
    return best


# -- CLI JSON forms --


def problem_from_json(doc: dict) -> tuple[list[TaskSpec], list[InstanceSpec]]:
    """Problem file format: tasks {id,start,end,bw}, instances {id,start,end,cap}."""
    tasks = [TaskSpec(t["id"], t["start"], t["end"], t["bw"])
             for t in doc.get("tasks", [])]
    instances = [InstanceSpec(c["id"], c["start"], c["end"], c["cap"])
                 for c in doc.get("instances", [])]
    return tasks, instances
