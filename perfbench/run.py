#!/usr/bin/env python3
"""Benchmark of the smalldb name server as it ships: `smalldb-ns serve`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload lookup-heavy --seed 1 --seconds 40 --trace 0

It builds the server and the benchmark's own program (perfbench/pb.ml)
with dune, populates a store from the seed, starts
`smalldb-ns serve --dir D --socket S` with its default flags, drives it
over its Unix socket from one load-generator process (2 client threads,
2 connections), checks every reply, and prints each metric by name with
its unit.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

A run, for every workload: three set-ups (populate, start, first
answered ping); an unmeasured warm-up, an open-loop phase at the
workload's rate with its lookup/update mix, and a closed-loop phase of
lookups; SIGKILL and a restart that must recover the acknowledged state;
then restart repetitions from the pristine store, each timing the first
answered ping and one checkpoint.

The gated end-to-end metrics are the ones a shared virtual machine
keeps steady from run to run: closed-loop lookup latency and capacity,
restart, checkpoint, memory and space.  Open-loop latencies and every
update latency wait on the disk's fsync and on the host's wake-up
delays, which swing by more than any gate could hold there; they are
printed as "ungated" lines with their sample counts.  For the same
reason BENCHMARK.json leaves out the update-heavy workload, whose every
figure follows the disk; run it by hand to see the commit path.

--trace 0 reports the end-to-end metrics.  --trace 1 reports the
per-layer metrics: an untraced pass gives the process CPU and generator
figures, a pass against the traced server (perfbench/traced.ml: the
same assembly as `serve`, with the benchmark's wrappers around the
storage record and the RPC transports) gives the spans, and pb micro
times the layers that have no seam to wrap.

The store lives in .perfbench_run/ inside the checkout, on whatever
device holds the checkout; the run metadata names that device.  Every
fsync is issued as shipped, so update latencies include the device's
flush cost, and storage.fsyncs_per_update stands in for it.

Exit status: 0 when every check passed, 1 when a reply, digest, count
or trace cross-check failed (the result line still printed, with
"correct": false), 2 when the benchmark could not run at all.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

CHECKPOINT_BYTES = 4 * 1024 * 1024  # serve's default --checkpoint-bytes

# Each workload: store size, mix and open-loop rate, the log tail left
# for restart to replay, and how a run's measured seconds are shared
# between restart repetitions, warm-up, the open-loop phase and the
# closed-loop capacity phase.  update-heavy's rate is a fifth of its
# closed-loop capacity with the store on a virtual disk, where each
# update waits on a real fsync.
WORKLOADS = {
    "lookup-heavy": dict(names=200_000, read_fraction=0.99, rate=10_000, tail=0,
                         share=dict(restart=0.30, warm=0.05, open=0.25, cap=0.40)),
    "update-heavy": dict(names=20_000, read_fraction=0.10, rate=2_000, tail=0,
                         share=dict(restart=0.30, warm=0.05, open=0.25, cap=0.40)),
    "restart": dict(names=200_000, read_fraction=0.99, rate=10_000, tail=40_000,
                    share=dict(restart=0.55, warm=0.05, open=0.15, cap=0.25)),
}

RUN_LIMIT_S = 170   # a hung step fails the run after this long
SETUPS = 3          # setup_s is the median of this many set-ups
MIN_RESTARTS = 3    # restart repetitions, at least
UPDATE_ONLY = 2000  # updates in the traced fsync cross-check window
# The traced pass runs the same warm-up and open-loop phase and this
# share of the closed-loop phase, whose p50 it compares with the
# untraced pass's for trace.overhead_pct (closed-loop p50s are the
# steady ones on a shared host).
TRACED_CAP_SHARE = 0.2

END_TO_END_UNITS = {
    "setup_s": "s", "closed_lookup_p50_ms": "ms", "lookup_capacity_ops_s": "1/s",
    "restart_s": "s", "checkpoint_s": "s", "server_rss_mb": "MB",
    "store_bytes_per_live_byte": "ratio",
}

PER_LAYER_UNITS = {
    "rpc.call_us": "us", "rpc.handle_us.lookup": "us",
    "rpc.handle_us.set_value": "us", "rpc.wire_us": "us",
    "rpc.bytes_per_call": "B",
    "core.update_self_us": "us", "core.lookup_self_us": "us",
    "core.residual_us.set_value": "us",
    "storage.fsyncs_per_update": "count", "storage.writes_per_update": "count",
    "storage.bytes_per_update": "B", "storage.fsync_us": "us",
    "storage.read_ms": "ms", "storage.read_bytes": "B",
    "checkpoint.count": "count", "checkpoint.write_ms": "ms",
    "checkpoint.useful_ratio": "ratio",
    "pickle.update_encode_ns": "ns", "pickle.update_bytes": "B",
    "pickle.state_encode_ms": "ms", "pickle.state_decode_ms": "ms",
    "pickle.state_bytes": "B",
    "wal.append_ns": "ns", "wal.frame_ns": "ns", "wal.bytes_per_update": "B",
    "wal.replay_ms": "ms",
    "nameserver.lookup_ns": "ns", "nameserver.apply_ns": "ns",
    "vlock.shared_ns": "ns", "vlock.upgrade_ns": "ns",
    "server.cpu_us_per_op": "us", "runtime.minor_words_per_op": "words",
    "runtime.major_gcs": "count",
    "loadgen.max_lag_ms": "ms", "loadgen.cpu_us_per_op": "us",
    "trace.overhead_pct": "%",
}

# A run whose generator sent its median open-loop request this late, or
# used this share of a core in the closed-loop phase, measured the
# generator as much as the server.  (The maximum lateness is no test:
# one server stall makes every request queued behind it late.)
SATURATED_LAG_P50_MS = 1.0
SATURATED_CPU_SHARE = 0.9


class BenchError(Exception):
    """The benchmark could not run (as opposed to a failed check)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Run:
    """Paths, child processes and checks of one benchmark run."""

    def __init__(self, root, workload, seed, seconds):
        self.root = root
        self.name = workload
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.dir = os.path.join(root, ".perfbench_run")
        self.serve_exe = os.path.join(root, "_build", "default", "bin", "smalldb_ns.exe")
        self.pb_exe = os.path.join(root, "_build", "default", "perfbench", "pb.exe")
        self.children = []
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems = []

    # -- processes -----------------------------------------------------

    def pb(self, *args):
        self.attempted += 1
        out = subprocess.run([self.pb_exe, *map(str, args)], cwd=self.dir,
                             capture_output=True, text=True,
                             timeout=max(1.0, self.deadline - time.monotonic()))
        if out.returncode != 0:
            raise BenchError(f"pb {args[0]} failed: {out.stderr.strip()[-500:]}")
        return json.loads(out.stdout.strip().splitlines()[-1])

    def start(self, argv):
        """Start a server; returns it and the monotonic ns it started at."""
        if os.path.exists(self.path("ns.sock")):
            os.unlink(self.path("ns.sock"))
        with open(self.path("server.log"), "ab") as err:
            t0 = time.monotonic_ns()
            proc = subprocess.Popen(argv, cwd=self.dir, stdout=subprocess.DEVNULL, stderr=err)
        self.children.append(proc)
        return proc, t0

    def start_serve(self):
        return self.start([self.serve_exe, "serve", "--dir", "store", "--socket", "ns.sock"])

    def stop(self, proc, sig=signal.SIGKILL):
        if proc.poll() is None:
            proc.send_signal(sig)
        proc.wait(timeout=60)
        self.children.remove(proc)

    def stop_all(self):
        for proc in list(self.children):
            try:
                self.stop(proc)
            except (OSError, subprocess.TimeoutExpired):
                pass

    def probe(self, t0, checkpoint=False):
        args = ["probe", "--socket", "ns.sock", "--t0-ns", t0]
        return self.pb(*(args + (["--checkpoint"] if checkpoint else [])))

    # -- store ---------------------------------------------------------

    def path(self, *p):
        return os.path.join(self.dir, *p)

    def fresh_dir(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)

    def restore(self):
        """Copy the pristine store into place and flush the copy, so
        its write-back does not land inside the next measurement."""
        shutil.rmtree(self.path("store"), ignore_errors=True)
        shutil.copytree(self.path("pristine"), self.path("store"))
        os.sync()

    def store_bytes(self):
        return sum(os.path.getsize(self.path("store", f)) for f in os.listdir(self.path("store")))

    def check(self, ok, what):
        if not ok:
            self.failed += 1
            self.problems.append(what)

    # -- phases --------------------------------------------------------

    def serve_once(self, checkpoint=False):
        """Start `serve` on the store, probe it (timing one checkpoint if
        asked), SIGKILL it.  Returns the probe's report and the server's
        peak memory in MB."""
        proc, t0 = self.start_serve()
        report = self.probe(t0, checkpoint=checkpoint)
        peak = proc_hwm_mb(proc.pid)
        self.stop(proc)
        return report, peak

    def setup(self):
        """Populate the store from the seed, keep a pristine copy, start
        the server and wait for its first answer.  Returns seconds."""
        t = time.monotonic()
        shutil.rmtree(self.path("store"), ignore_errors=True)
        shutil.rmtree(self.path("pristine"), ignore_errors=True)
        pop = self.pb("populate", "--dir", "store", "--names", self.w["names"],
                      "--tail", self.w["tail"], "--seed", self.seed)
        shutil.copytree(self.path("store"), self.path("pristine"))
        first, _ = self.serve_once()
        took = time.monotonic() - t
        self.check(first["digest"] == pop["digest"], "setup: digest after start differs")
        self.pop = pop
        return took

    def restart_reps(self, budget_s):
        """Restart from the pristine copy: time the first answered ping
        and one checkpoint, read the server's peak memory, SIGKILL,
        restart again and compare."""
        restart, ckpt, hwm, store_bytes = [], [], [], None
        until = time.monotonic() + budget_s
        while len(restart) < MIN_RESTARTS or time.monotonic() < until:
            self.restore()
            p, peak = self.serve_once(checkpoint=True)
            hwm.append(peak)
            self.check(p["digest"] == self.pop["digest"],
                       "restart: replayed digest differs from the populated one")
            self.check(p["count"] == self.pop["count"], "restart: name count differs")
            restart.append(p["restart_s"])
            ckpt.append(p["checkpoint_s"])
            if store_bytes is None:
                store_bytes = self.store_bytes()
            again, _ = self.serve_once()
            self.check(again["digest"] == p["digest"],
                       "restart: digest after checkpoint and SIGKILL differs")
        return restart, ckpt, hwm, store_bytes

    def load(self, open_s, cap_s, traced=False):
        """One load-generator process against a freshly restored store,
        served by `serve`, or by the traced server, which is first asked
        for a checkpoint so every trace holds one.  Returns the server
        process, the generator's report and the server's CPU seconds."""
        self.restore()
        if traced:
            proc, t0 = self.start([self.pb_exe, "serve-traced", "--dir", "store",
                                   "--socket", "ns.sock", "--spans", self.path("server.spans")])
        else:
            proc, t0 = self.start_serve()
        self.probe(t0, checkpoint=traced)
        cpu0 = proc_cpu_s(proc.pid)
        args = ["load", "--socket", "ns.sock", "--names", self.w["names"],
                "--read-fraction", self.w["read_fraction"], "--seed", self.seed,
                "--rate", self.w["rate"], "--warm-s", self.phase_seconds()["warm"],
                "--open-s", open_s, "--cap-s", cap_s, "--tail", self.w["tail"]]
        if traced:
            args += ["--spans", self.path("client.spans"), "--update-only", UPDATE_ONLY]
        r = self.pb(*args)
        server_cpu = proc_cpu_s(proc.pid) - cpu0
        r["server_hwm_mb"] = proc_hwm_mb(proc.pid)
        self.attempted += r["warm_offered"] + r["open_offered"] + r["cap_ops"] + r.get("uo_updates", 0)
        self.failed += r["wrong"] + r["raised"]
        if r["wrong"] + r["raised"]:
            self.problems.append(f"load: {r['wrong']} wrong replies, {r['raised']} raised; "
                                 f"first: {r['first_failure']}")
        return proc, r, server_cpu

    def kill_and_compare(self, proc, report):
        """SIGKILL the server after the load and check that a restart
        recovers exactly what it acknowledged."""
        self.stop(proc)
        after, _ = self.serve_once()
        self.check(after["digest"] == report["digest"],
                   "load: digest after SIGKILL and restart differs from before")
        self.check(after["count"] == report["count"] == self.pop["count"],
                   "load: name count changed")

    def phase_seconds(self):
        s = self.w["share"]
        return {k: v * self.seconds for k, v in s.items()}


def proc_cpu_s(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for the server")


def saturated(r):
    return (r["open_lag_p50_ms"] > SATURATED_LAG_P50_MS
            or r["cap_cpu_s"] / r["cap_elapsed_s"] > SATURATED_CPU_SHARE)


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics


def end_to_end(run):
    ph = run.phase_seconds()
    setups = [run.setup() for _ in range(SETUPS)]
    proc, r, server_cpu = run.load(ph["open"], ph["cap"])
    run.kill_and_compare(proc, r)
    restart, ckpt, hwm, store_bytes = run.restart_reps(ph["restart"])
    ops = r["warm_offered"] + r["open_offered"] + r["cap_ops"]
    info = {
        "setups_s": setups, "restarts_s": restart, "checkpoints_s": ckpt,
        "open_loop": {k[5:]: v for k, v in r.items() if k.startswith("open_")},
        "closed_loop": {k[4:]: v for k, v in r.items() if k.startswith("cap_")},
        "capacity_slo_75ms_met": r["cap_p99_ms"] <= 75.0,
        "loadgen_saturated": saturated(r),
        "error_rate": run.failed / max(run.attempted, 1),
    }
    metrics = {
        "setup_s": statistics.median(setups),
        "closed_lookup_p50_ms": r["cap_p50_ms"],
        "lookup_capacity_ops_s": r["cap_ops_s"],
        "restart_s": statistics.median(restart),
        "checkpoint_s": statistics.median(ckpt),
        "server_rss_mb": statistics.median(hwm),
        "store_bytes_per_live_byte": store_bytes / run.pop["live_bytes"],
    }
    # Printed, not gated: on a shared virtual machine with the store on
    # its disk, open-loop latencies move with the host's wake-up and
    # flush delays from run to run by more than any bound a gate can
    # hold (see CHANGES.md).
    ungated = {
        "open_lookup_p50_ms": (r["open_lookup_p50_ms"], "ms", r["open_lookups"]),
        "open_lookup_p99_ms": (r["open_lookup_p99_ms"], "ms", r["open_lookups"]),
        "open_update_p50_ms": (r["open_update_p50_ms"], "ms", r["open_updates"]),
        "open_update_p99_ms": (r["open_update_p99_ms"], "ms", r["open_updates"]),
        "closed_p99_ms": (r["cap_p99_ms"], "ms", r["cap_ops"]),
        "server_rss_mb_after_load": (r["server_hwm_mb"], "MB", 1),
        "error_rate": (info["error_rate"], "ratio", run.attempted),
        "loadgen.max_lag_ms": (r["open_max_lag_ms"], "ms", r["open_offered"]),
        "loadgen.cpu_us_per_op": (1e6 * (r["open_cpu_s"] + r["cap_cpu_s"]) / ops, "us", ops),
        "loadgen.closed_cpu_share": (r["cap_cpu_s"] / r["cap_elapsed_s"], "cores", r["cap_ops"]),
        "server.cpu_us_per_op": (1e6 * server_cpu / ops, "us", ops),
    }
    info["ungated"] = ungated
    return metrics, END_TO_END_UNITS, info


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics


def read_spans(path):
    spans = []
    with open(path) as f:
        dropped = int(f.readline().split()[2])
        for line in f:
            spans.append(tuple(map(int, line.split())))
    return spans, dropped


KIND = dict(handle=0, call=1, write=2, fsync=3, read=4, open=5, meta=6, create=7)
METH = dict(lookup=0, set_value=1, checkpoint=2, metrics=3)
LOG, CKPT = 0, 1


def analyse(run, server_spans, client_spans, gc, micro, load_report):
    """Per-layer figures from the spans; appends to run.problems when a
    cross-check fails."""
    spans, dropped = server_spans
    calls, cdropped = client_spans
    run.check(dropped == 0 and cdropped == 0, "trace: span buffer overflowed")
    handles = {s[4]: s for s in spans if s[0] == KIND["handle"]}
    children = {}
    for s in spans:
        if s[0] >= KIND["write"] and s[4] >= 0:
            children.setdefault(s[4], []).append(s)
    run.check(all(req in handles for req in children), "trace: storage span without its request")

    # Self time = duration - the part of it the children's intervals
    # cover.  A request's children run one after another on its thread,
    # so that part must equal the sum of their durations, and each child
    # must lie inside the request; a wrapper that overlapped or leaked
    # spans would break one or the other.
    broken = []

    def self_ns(h):
        kids = sorted((c[1], c[2]) for c in children.get(h[4], []))
        covered, end = 0, h[1]
        for a, b in kids:
            if not h[1] <= a <= b <= h[2]:
                broken.append(h)
            a = max(a, end)
            if b > a:
                covered += b - a
                end = b
        if covered != sum(b - a for a, b in kids):
            broken.append(h)
        return (h[2] - h[1]) - covered

    # The load window: lookups and updates of the open- and closed-loop
    # phases, before the first metrics call opens the update-only window.
    metrics_calls = sorted((s for s in handles.values() if s[5] == METH["metrics"]),
                           key=lambda s: s[1])
    run.check(len(metrics_calls) == 2, "trace: expected two metrics calls")
    window_end = metrics_calls[0][1]
    by_meth = {m: [h for h in handles.values() if h[5] == METH[m] and h[2] <= window_end]
               for m in ("lookup", "set_value")}
    sets = by_meth["set_value"]
    n_sets = max(len(sets), 1)

    def mean(xs):
        xs = list(xs)
        return sum(xs) / len(xs) if xs else 0.0

    kids_of_sets = [c for h in sets for c in children.get(h[4], [])]
    store_ns = sum(c[2] - c[1] for c in kids_of_sets) / n_sets
    log_fsyncs = [c for c in kids_of_sets if c[0] == KIND["fsync"] and c[5] == LOG and c[6] == 0]

    # Calls the client timed in the same window.
    client_metrics = min((c[1] for c in calls if c[5] == METH["metrics"]), default=None)
    win_calls = [c for c in calls if c[5] in (METH["lookup"], METH["set_value"])
                 and (client_metrics is None or c[2] <= client_metrics)]
    window_handles = by_meth["lookup"] + sets
    run.check(len(win_calls) == len(window_handles),
              "trace: client calls and server requests differ in number")
    call_us = [(c[2] - c[1]) / 1e3 for c in win_calls]

    # Checkpoints: one new checkpoint file each.  Useful when the log it
    # retired had outgrown the policy, or a client asked for it.
    ckpts = [s for s in spans if s[0] == KIND["create"] and s[5] == CKPT]
    asked = {h[4] for h in handles.values() if h[5] == METH["checkpoint"]}
    useful = [s for s in ckpts if s[6] > CHECKPOINT_BYTES or s[4] in asked]
    ckpt_ns = sum(s[2] - s[1] for s in spans if s[0] >= KIND["write"] and s[5] == CKPT)

    # fsync cross-check over the update-only window, between the two
    # metrics calls: log fsyncs after each new log's header sync.
    lo, hi = metrics_calls[0][2], metrics_calls[-1][1]
    uo_fsyncs = sum(1 for s in spans if s[0] == KIND["fsync"] and s[5] == LOG
                    and s[6] == 0 and s[1] >= lo and s[2] <= hi)
    uo_sets = sum(1 for h in handles.values() if h[5] == METH["set_value"] and h[1] >= lo and h[2] <= hi)
    run.check(uo_fsyncs == load_report["uo_wal_syncs"],
              f"trace: wrapper counted {uo_fsyncs} log fsyncs, "
              f"sdb_wal_syncs_total moved by {load_report['uo_wal_syncs']}")
    run.check(uo_sets == load_report["uo_updates"], "trace: update-only window lost requests")

    handle_set_us = mean(h[2] - h[1] for h in sets) / 1e3
    update_self_us = mean(self_ns(h) for h in sets) / 1e3
    lookup_self_us = mean(self_ns(h) for h in by_meth["lookup"]) / 1e3
    explained_ns = (micro["pickle.update_encode_ns"] + micro["wal.frame_ns"]
                    + micro["nameserver.apply_ns"] + micro["vlock.upgrade_ns"])
    run.check(not broken, f"trace: {len(broken)} requests whose self time and children "
                          "do not add up to their duration")
    reads = [s for s in spans if s[0] == KIND["read"]]
    return {
        "rpc.call_us": statistics.median(call_us) if call_us else 0.0,
        "rpc.handle_us.lookup": mean(h[2] - h[1] for h in by_meth["lookup"]) / 1e3,
        "rpc.handle_us.set_value": handle_set_us,
        "rpc.wire_us": mean(call_us) - mean(h[2] - h[1] for h in window_handles) / 1e3,
        "rpc.bytes_per_call": mean(c[6] for c in win_calls),
        "core.update_self_us": update_self_us,
        "core.lookup_self_us": lookup_self_us,
        "core.residual_us.set_value": update_self_us - explained_ns / 1e3,
        "storage.fsyncs_per_update": sum(1 for c in kids_of_sets if c[0] == KIND["fsync"]) / n_sets,
        "storage.writes_per_update": sum(1 for c in kids_of_sets if c[0] == KIND["write"]) / n_sets,
        "storage.bytes_per_update": sum(c[6] for c in kids_of_sets if c[0] == KIND["write"]) / n_sets,
        "storage.fsync_us": mean(c[2] - c[1] for c in log_fsyncs) / 1e3,
        "storage.read_ms": sum(s[2] - s[1] for s in reads) / 1e6,
        "storage.read_bytes": sum(s[6] for s in reads),
        "checkpoint.count": len(ckpts),
        "checkpoint.write_ms": ckpt_ns / max(len(ckpts), 1) / 1e6,
        "checkpoint.useful_ratio": len(useful) / max(len(ckpts), 1),
        "runtime.minor_words_per_op": gc["minor_words"] / max(gc["requests"], 1),
        "runtime.major_gcs": gc["major_collections"],
    }, {
        # set_value handle time = storage children + core self time, and
        # core self time = the layers timed alone + one named residual.
        "set_value_handle_us": handle_set_us,
        "storage_children_us": store_ns / 1e3,
        "pickle_us": micro["pickle.update_encode_ns"] / 1e3,
        "wal_frame_us": micro["wal.frame_ns"] / 1e3,
        "apply_us": micro["nameserver.apply_ns"] / 1e3,
        "vlock_us": micro["vlock.upgrade_ns"] / 1e3,
        "residual_us": update_self_us - explained_ns / 1e3,
        "fsync_crosscheck": f"{uo_fsyncs} wrapper == {load_report['uo_wal_syncs']} sdb_wal_syncs_total",
    }


def per_layer(run):
    ph = run.phase_seconds()
    run.setup()
    # Untraced pass: process CPU and generator figures, and the
    # closed-loop p50 the traced pass is compared with.
    proc, plain, server_cpu = run.load(ph["open"], ph["cap"])
    run.kill_and_compare(proc, plain)
    ops = plain["warm_offered"] + plain["open_offered"] + plain["cap_ops"]
    # Traced pass: the same phases, a shorter closed loop, then the
    # update-only window; SIGTERM makes the traced server write its spans.
    proc, traced, _ = run.load(ph["open"], TRACED_CAP_SHARE * ph["cap"], traced=True)
    run.stop(proc, signal.SIGTERM)
    spans_file = run.path("server.spans")
    gc = {}
    with open(spans_file + ".gc") as f:
        for line in f:
            k, v = line.split()
            gc[k] = float(v)
    micro = run.pb("micro", "--names", run.w["names"], "--tail", run.w["tail"], "--seed", run.seed)
    layers, decomposition = analyse(run, read_spans(spans_file),
                                    read_spans(run.path("client.spans")), gc, micro, traced)
    metrics = dict(micro)
    metrics.update(layers)
    metrics.update({
        "server.cpu_us_per_op": 1e6 * server_cpu / ops,
        "loadgen.max_lag_ms": plain["open_max_lag_ms"],
        "loadgen.cpu_us_per_op": 1e6 * (plain["open_cpu_s"] + plain["cap_cpu_s"]) / ops,
        "trace.overhead_pct": 100.0 * (traced["cap_p50_ms"] / plain["cap_p50_ms"] - 1.0),
    })
    info = {"decomposition": decomposition, "loadgen_saturated": saturated(plain),
            "error_rate": run.failed / max(run.attempted, 1)}
    return metrics, PER_LAYER_UNITS, info


# ---------------------------------------------------------------------------


def build(root):
    if not all(os.path.exists(os.path.join(root, p)) for p in ("dune-project", "bin", "lib")):
        raise BenchError("run from the root of a smalldb checkout (dune-project, bin/, lib/)")
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    cmd += ["build", "--root", ".", "./bin/smalldb_ns.exe", "./perfbench/pb.exe"]
    # No shared build cache: the build, like the run, writes only inside
    # the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=850)
    except (OSError, subprocess.SubprocessError) as e:
        raise BenchError(f"build failed: {e}")


def metadata(run, trace):
    def cmd_out(argv):
        try:
            return subprocess.run(argv, cwd=run.root, capture_output=True, text=True,
                                  timeout=20).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            return "unknown"

    return {
        "workload": run.name, "seed": run.seed, "seconds": run.seconds, "trace": trace,
        "nproc": os.cpu_count(),
        "ocaml": cmd_out(["ocamlfind", "ocamlopt", "-version"]),
        "git_rev": cmd_out(["git", "rev-parse", "HEAD"]) if os.path.isdir(
            os.path.join(run.root, ".git")) else "unknown (not a git checkout)",
        "store_device": store_device(run.dir),
        "server": "smalldb-ns serve --dir D --socket S (defaults: --checkpoint-bytes 4194304, "
                  "--read-path locked, --trace-ring 512, --trace-slow-ms 1)",
        "load": "1 process, 2 threads, 2 connections; zipf theta 0.9; Poisson arrivals",
        "workload_params": {k: v for k, v in run.w.items() if k != "share"},
    }


def store_device(path):
    """File-system type and source of the mount holding [path]."""
    best = ("", "unknown", "unknown")
    try:
        with open("/proc/self/mountinfo") as f:
            for line in f:
                left, right = line.split(" - ", 1)
                mount = left.split()[4]
                fstype, source = right.split()[:2]
                if path.startswith(mount) and len(mount) >= len(best[0]):
                    best = (mount, fstype, source)
    except OSError:
        pass
    return f"{best[1]} ({best[2]})"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    try:
        build(root)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    run = Run(root, args.workload, args.seed, args.seconds)

    def on_signal(signum, _frame):
        run.stop_all()
        sys.exit(2)

    signal.signal(signal.SIGTERM, on_signal)
    try:
        run.fresh_dir()
        metrics, units, info = (per_layer if args.trace else end_to_end)(run)
    except (BenchError, OSError, subprocess.SubprocessError, KeyError, ValueError) as e:
        log(f"perfbench: {e}")
        return 2
    finally:
        run.stop_all()
    shutil.rmtree(run.dir, ignore_errors=True)

    print(json.dumps({"meta": metadata(run, args.trace), "info": info}))
    for name in units:
        print(f"{args.workload:13} {name:28} {metrics[name]:16.6f} {units[name]}")
    for name, (value, unit, samples) in info.get("ungated", {}).items():
        print(f"{args.workload:13} {name:28} {value:16.6f} {unit} (ungated, n={samples})")
    if info.get("loadgen_saturated"):
        print(f"{args.workload:13} the load generator was saturated: "
              "its figures bound the server's numbers")
    for p in run.problems:
        print(f"CHECK FAILED: {p}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if not run.problems else 1


if __name__ == "__main__":
    sys.exit(main())
