"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 25 \
        --trace 0
    python3 perfbench/run.py --workload served-mixed --seed 7 \
        --seconds 25 --trace 1

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.  The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable report (metric, value,
unit, verdicts) and a ``report:`` line with the run's full record.  The
exit code is non-zero when the checkout has no ``src/repro`` or the
engine process failed.

The engine always runs in a child process (``worker.py``) started here,
once per setup: ``setup_s`` is the median of
:data:`workloads.SETUP_REPS` setups, each timed from process start to
the first timed op.  ``served-mixed`` drives the child's service from
this process over one connection.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import workloads as wl  # noqa: E402

E2E_UNITS = {"setup_s": "s", "read_p50_ms": "ms", "read_p95_ms": "ms",
             "write_p50_ms": "ms", "write_p95_ms": "ms",
             "ops_per_s": "1/s", "peak_rss_mb": "MB", "recover_s": "s"}

#: Seconds a child may take to report before the run is abandoned.
CHILD_TIMEOUT_S = 170.0


class WorkerFailed(Exception):
    """The engine process died, hung or broke protocol (exit code 3)."""


class Worker:
    """One ``worker.py`` child and its message stream."""

    def __init__(self, args, workdir: Path, trace: int):
        self.workdir = workdir
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace),
               "--scale", args.scale, "--workdir", str(workdir)]
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     cwd=str(wl.ROOT))
        self._lines: deque = deque()
        self._cond = threading.Condition()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            if line.startswith("@@"):
                with self._cond:
                    self._lines.append(json.loads(line[2:]))
                    self._cond.notify()
        with self._cond:
            self._lines.append(None)
            self._cond.notify()

    def expect(self, kind: str, timeout: float = CHILD_TIMEOUT_S) -> dict:
        deadline = time.monotonic() + timeout
        with self._cond:
            while not self._lines:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise WorkerFailed(f"worker sent no {kind!r} in time")
                self._cond.wait(left)
            message = self._lines.popleft()
        if message is None:
            raise WorkerFailed(f"worker exited before {kind!r} "
                             f"(code {self.proc.wait()})")
        if message["kind"] != kind:
            raise WorkerFailed(
                f"expected {kind!r}, got {message['kind']!r}")
        return message

    def send(self, **command) -> None:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=10)
        shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# served-mixed load generation
# ---------------------------------------------------------------------------


class Connection:
    """The client connection and the served op mix."""

    WRITES = ("insert", "associate", "set_attribute", "delete")

    def __init__(self, client, rng: random.Random, ready: dict, tag: str):
        self.client = client
        self.rng = rng
        self.ready = ready
        self.tag = tag
        self.serial = 0
        self.step = 0
        self.writes = 0
        self.teacher = None          # inserted, not yet deleted
        self.samples = []            # (kind, text, sent, done, response)

    def next_op(self):
        """A fixed cycle of one write (the write kinds in turn) and nine
        reads (one read group, in turn; the groups alternate by cycle):
        the same 90/10 mix and the same op sequence on every seed, so
        seeds vary the data, not how many snapshots the writes
        invalidate."""
        position = self.step % wl.SERVED_CYCLE
        group = wl.SERVED_READ_GROUPS[
            (self.step // wl.SERVED_CYCLE) % len(wl.SERVED_READ_GROUPS)]
        self.step += 1
        if position == 0:
            kind = self.WRITES[self.writes % len(self.WRITES)]
            self.writes += 1
            if kind in ("associate", "delete") and self.teacher is None:
                kind = "insert"
            return kind, None
        return "read", group[(position - 1) % len(group)]

    def request(self, kind: str, text):
        rng = self.rng
        if kind == "read":
            return self.client.request("query", raise_on_error=False,
                                       text=text)
        if kind == "insert":
            self.serial += 1
            record = {"kind": "insert", "cls": "Teacher", "attrs": {
                "SS#": f"8-{self.tag}-{self.serial:06d}",
                "name": f"Load{self.serial}", "degree": "PhD"}}
        elif kind == "associate":
            record = {"kind": "associate", "owner": self.teacher,
                      "name": "teaches",
                      "target": rng.choice(self.ready["sections"])}
        elif kind == "set_attribute":
            record = {"kind": "set_attribute",
                      "oid": rng.choice(self.ready["regrade_students"]),
                      "name": "GPA",
                      "value": round(2.0 + rng.random() * 1.9, 2)}
        else:
            record = {"kind": "delete", "oid": self.teacher}
        response = self.client.request("update", raise_on_error=False,
                                       updates=[record])
        if response.get("ok"):
            if kind == "insert":
                self.teacher = response["result"]["results"][0]["oid"]
            elif kind == "delete":
                self.teacher = None
        return response

    def run(self, seconds: float) -> dict:
        """The closed loop: the next op is sent when the previous reply
        has been read, until ``seconds`` have passed and the last cycle
        is complete."""
        self.samples = []
        # The load generator's own collector must not pause inside a
        # timed request; each sample keeps only what the checks read.
        gc.disable()
        try:
            start = time.perf_counter()
            deadline = start + seconds
            while time.perf_counter() < deadline or \
                    self.step % wl.SERVED_CYCLE:
                kind, text = self.next_op()
                sent = time.perf_counter()
                response = self.request(kind, text)
                done = time.perf_counter()
                self.samples.append((kind, text, sent, done,
                                     slim_response(response)))
            elapsed = time.perf_counter() - start
        finally:
            gc.enable()
        return {
            "samples": self.samples,
            "reads": [(s[3] - s[2]) * 1000.0 for s in self.samples
                      if s[0] == "read"],
            "writes": [(s[3] - s[2]) * 1000.0 for s in self.samples
                       if s[0] != "read"],
            "ops_per_s": len(self.samples) / elapsed,
            "rtt_s": sum(s[3] - s[2] for s in self.samples),
        }

    def drain(self) -> None:
        if self.teacher is not None:
            self.request("delete", None)


def slim_response(response: dict) -> dict:
    """The parts of a response the correctness checks read."""
    if not response.get("ok"):
        return {"ok": False,
                "error": {"code": response.get("error", {}).get("code")}}
    result = response["result"]
    keep = ("patterns", "pinned_version", "version", "results")
    return {"ok": True,
            "result": {key: result[key] for key in keep if key in result}}


def check_served(samples, ready: dict) -> dict:
    """Every read's pattern count must equal the in-process count at the
    snapshot version it was answered from; any failed request counts."""
    changes = []  # (version, delta in live teachers that teach)
    for kind, _text, _sent, _done, response in samples:
        if response.get("ok") and kind in ("associate", "delete"):
            changes.append((response["result"]["version"],
                            1 if kind == "associate" else -1))
    base = ready["base_counts"]
    failed = mismatched = busy = 0
    for kind, text, _sent, _done, response in samples:
        if not response.get("ok"):
            failed += 1
            if response.get("error", {}).get("code") == "BUSY":
                busy += 1
            continue
        if kind != "read":
            continue
        result = response["result"]
        expected = base[text]
        if text in wl.SERVED_TEACHER_READS:
            version = result["pinned_version"]
            expected += sum(d for v, d in changes if v <= version)
        if result["patterns"] != expected:
            mismatched += 1
    return {"failed": failed + mismatched, "errors": failed, "busy": busy,
            "mismatched": mismatched,
            "live_teachers": sum(d for _v, d in changes)}


def run_served(args, worker: Worker, ready: dict, trace: bool,
               conn: Connection) -> dict:
    report = {}
    traced = None
    if trace:
        worker.send(cmd="trace_on")
        worker.expect("ack")
        traced = conn.run(args.seconds)
        worker.send(cmd="trace_off", ops=len(traced["samples"]))
        report["trace"] = worker.expect("trace")["trace"]
        report["trace"]["writes"] = sum(
            1 for s in traced["samples"]
            if s[0] != "read" and s[4].get("ok"))
    worker.send(cmd="check_untraced")
    report["wrappers_left"] = worker.expect("ack")["wrappers_left"]
    if trace:
        report["wrappers_left"] += report["trace"]["leftovers"] or []
    phase = conn.run(args.seconds)
    worker.send(cmd="checkpoint")
    worker.expect("ack")
    conn.drain()
    worker.send(cmd="stop")
    final = worker.expect("final")
    conn.client.close()
    every = phase["samples"] + (traced["samples"] if traced else [])
    verdict = check_served(every, ready)
    if final["counts"] != ready["base_counts"]:
        verdict["failed"] += 1
        verdict["final_counts_mismatch"] = final["counts"]
    read = harness.latency_summary(phase["reads"])
    write = harness.latency_summary(phase["writes"])
    per_op = {}
    for kind, text, sent, done, _response in phase["samples"]:
        per_op.setdefault(text or kind, []).append((done - sent) * 1e3)
    report.update({
        "read_p50_ms": read["p50"], "read_p95_ms": read["p95"],
        "write_p50_ms": write["p50"], "write_p95_ms": write["p95"],
        "ops_per_s": phase["ops_per_s"],
        "samples": {"read": read, "write": write},
        "per_op": {key: harness.latency_summary(values)
                   for key, values in sorted(per_op.items())},
        "attempted": len(every), "mismatches": verdict["failed"],
        "check": verdict,
        "durability": final["durability"], "recover_s": final["recover_s"],
        "peak_rss_mb": final["peak_rss_mb"],
        "stationary": final["extents"] == ready["extents"],
        "server_counters": final["counters"],
    })
    if traced is not None:
        report["trace"]["per_call"] = final["per_call"]
        report["wrappers_left"] += final["per_call"]["leftovers"]
        report["trace"]["client"] = {
            "rtt_s": traced["rtt_s"], "ops": len(traced["samples"]),
            "ops_per_s": traced["ops_per_s"],
            "untraced_ops_per_s": report["ops_per_s"],
            "busy": check_served(traced["samples"], ready)["busy"]}
    return report


# ---------------------------------------------------------------------------
# Setups
# ---------------------------------------------------------------------------


def start_worker(args, workdir: Path, trace: int):
    """Start one worker and finish its setup; returns (worker, ready
    message, served connection or None, setup seconds)."""
    worker = Worker(args, workdir, trace)
    ready = worker.expect("ready")
    conn = None
    if args.workload == "served-mixed":
        from repro.service import ServiceClient
        client = ServiceClient(ready["host"], ready["port"], timeout=60)
        conn = Connection(client, random.Random(args.seed), ready,
                          str(args.seed))
        for text in wl.SERVED_READS:  # warm-up: pin a snapshot
            client.request("query", text=text)
    return worker, ready, conn, time.perf_counter() - worker.started


def measure(args, workdir: Path) -> dict:
    setups = []
    if not args.trace:
        for rep in range(wl.SETUP_REPS - 1):
            worker, _ready, conn, setup_s = start_worker(
                args, workdir / f"setup{rep}", 0)
            setups.append(setup_s)
            if conn is not None:
                conn.client.close()
            worker.send(cmd="exit")
            worker.close()
    worker, ready, conn, setup_s = start_worker(args, workdir / "run",
                                                 args.trace)
    setups.append(setup_s)
    try:
        if args.workload == "served-mixed":
            report = run_served(args, worker, ready, bool(args.trace),
                                conn)
        else:
            worker.send(cmd="run")
            report = worker.expect("result")["report"]
    finally:
        worker.close()
    report["meta"] = ready["meta"]
    report["setup_samples_s"] = setups
    report["setup_s"] = statistics.median(setups)
    return report


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def layer_metrics(args, report: dict) -> dict:
    trace = report["trace"]
    ops = max(1, trace["ops"])
    selfs = trace["self_s"]
    out = {}
    per_call = trace.get("per_call") or trace
    for name in wl.layer_metric_names():
        if name in wl.PER_CALL_SPANS:
            calls = per_call["calls"].get(name, 0)
            out[name] = (per_call["self_s"].get(name, 0.0) * 1000.0
                         / calls) if calls else 0.0
        elif name.endswith("_ms") and name in selfs:
            out[name] = selfs[name] * 1000.0 / ops
        else:
            out[name] = 0.0
    counters = trace["counters"]
    out["oql.evaluator.extent_filter_evals"] = \
        counters["extent_filter_evals"] / ops
    out["oql.evaluator.rows_generated_per_row_out"] = (
        counters["rows_generated"] / counters["patterns_out"]
        if counters["patterns_out"] else 0.0)
    out["oql.evaluator.patterns_subsumed"] = \
        counters["patterns_subsumed"] / ops
    out["oql.evaluator.index_probes"] = counters["index_probes"] / ops
    lookups = counters["cache_hits"] + counters["cache_misses"]
    out["oql.cache.hit_ratio"] = (counters["cache_hits"] / lookups
                                  if lookups else 0.0)
    out["service.response_bytes"] = counters["response_bytes"] / ops
    writes = trace.get("writes", 0)
    out["storage.wal.bytes_per_write"] = (trace.get("wal_bytes", 0) / writes
                                          if writes else 0.0)
    out["failed_frac"] = report["mismatches"] / max(1, report["attempted"])
    if args.workload == "served-mixed":
        client = trace["client"]
        uncovered = max(0.0, client["rtt_s"] - trace["root_s"])
        out["service.server.unattributed_ms"] = uncovered * 1000.0 / ops
        out["unattributed_share"] = (uncovered / client["rtt_s"]
                                     if client["rtt_s"] else 0.0)
        out["service.busy_shed"] = float(client["busy"])
        traced_rate = client["ops_per_s"]
        untraced_rate = client["untraced_ops_per_s"]
    else:
        total = trace["self_s"].get("workload.op", 0.0)
        op_time = total + sum(v for k, v in selfs.items()
                              if k != "workload.op"
                              and k not in wl.PER_CALL_SPANS)
        out["unattributed_share"] = total / op_time if op_time else 0.0
        traced_rate = trace["window"]["ops"] / trace["window"]["elapsed_s"]
        untraced = trace["untraced_window"]
        untraced_rate = untraced["ops"] / untraced["elapsed_s"]
    out["trace.overhead_pct"] = (untraced_rate / traced_rate - 1.0) * 100.0
    return out


def e2e_values(report: dict) -> dict:
    return {name: report[name] for name in E2E_UNITS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(wl.STUDENTS),
                        default="full",
                        help="dataset size; 'smoke' is for self-tests")
    args = parser.parse_args(argv)
    wl.load_repro()
    workdir = wl.ROOT / ".bench_work" / \
        f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        report = measure(args, workdir)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    durable = report["durability"]["durable"]
    problems = []
    if report["mismatches"]:
        problems.append(f"{report['mismatches']} wrong or failed ops")
    if not durable:
        problems.append("acknowledged writes lost in recovery")
    if not report["stationary"]:
        problems.append("extent sizes changed over the run")
    if report["wrappers_left"]:
        problems.append(f"wrappers left bound: {report['wrappers_left']}")
    if args.trace:
        metrics = layer_metrics(args, report)
        units = {name: wl.layer_unit(name) for name in metrics}
    else:
        metrics = e2e_values(report)
        units = E2E_UNITS
        missing = [n for n, v in metrics.items() if v is None]
        if missing:
            problems.append(f"no samples for {missing}")
    correct = not problems
    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}: {'correct' if correct else 'INCORRECT'}")
    for problem in problems:
        print(f"  problem: {problem}")
    print(f"  durability: {'ok' if durable else 'FAILED'} "
          f"(recovered in {report['recover_s']:.3f} s)")
    for name, value in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:48s} {shown:>14s} {units[name]}")
    slim = {k: v for k, v in report.items() if k != "trace"}
    print("report: " + json.dumps(slim, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": int(report["attempted"]),
        "failed": int(report["mismatches"]),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
