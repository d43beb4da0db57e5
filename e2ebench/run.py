#!/usr/bin/env python3
"""End-to-end benchmark of the router reproduction.

    python3 e2ebench/run.py --workload paper-shm|paper-mp|scale-dyn \
        --seed N --seconds S --trace 0|1

Builds e2ebench/pass.cpp against the library sources (Release, into
.bench_build/e2ebench), then runs the workload as a closed loop: one pass at
a time, each pass in a fresh `e2e_pass` process, until the next pass would
overrun --seconds (at least one pass; two with --trace 1). Every layer call
of every pass is an op whose deterministic outputs are checked: against the
digests recorded in e2ebench/digests/seed0.json at seed 0, and at every
seed against the first pass of the run and the op's own invariants. A
mismatch, a failed invariant, an illegal routing or a crashed pass counts as
failed ops.

--trace 0 reports the end-to-end metrics (medians over passes):
    wall_s       host seconds of one pass, tracing off
    setup_s      main() entry to pass start: circuits, partitions, assignments
    peak_rss_mb  peak resident set of the pass process
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones, a per-layer table (host s, self s, share of
wall_s, work, rate) and trace_overhead = traced wall_s / untraced wall_s.
Spans go to .bench_out/<workload>-seed<N>/pass<K>.trace.json (Chrome
trace_event JSON); the run's digests to .bench_out/digests/.

The last line of stdout is one JSON object:
    {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
OUT = ROOT / ".bench_out"
PASS_BIN = BUILD / "e2e_pass"
DIGESTS = HERE / "digests" / "seed0.json"
WORKLOADS = ("paper-shm", "paper-mp", "scale-dyn")
JOBS = max(1, min(4, os.cpu_count() or 1))

# Span layers in table order; "bench" is the benchmark's own setup/pass/check
# roots, whose self time is the harness overhead.
LAYERS = ("circuit.gen", "assign.make", "shm.capture", "coherence.replay",
          "coherence.lru_replay", "msg.run", "check.legality", "check.circuit",
          "bench")
WORK_UNIT = {"circuit.gen": "wires", "assign.make": "wires",
             "shm.capture": "refs", "coherence.replay": "refs",
             "coherence.lru_replay": "refs", "msg.run": "events",
             "check.legality": "wires", "check.circuit": "wires", "bench": "-"}

# Exact counts summed over a pass's ops, by op output key.
SUM_COUNTS = ("shm.refs", "coherence.refs_replayed", "coherence.misses",
              "coherence.invalidations", "coherence.evictions",
              "route.wires_routed", "route.probes", "route.routes_evaluated",
              "route.cells_committed", "msg.bytes", "msg.packets",
              "msg.requests_sent", "msg.updates_suppressed",
              "msg.grants_issued", "msg.grant_wires", "sim.events",
              "sim.byte_hops", "sim.link_stalls", "sim.completion_ns")
COUNT_UNIT = {"msg.bytes": "B", "sim.byte_hops": "B", "sim.completion_ns": "ns"}
MEMREF_BYTES = 16  # sizeof(MemRef): the in-memory trace record


def log(*args):
    print(*args, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build --

def build():
    """Configures once and builds e2e_pass; returns False on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "e2e_pass",
                  "-j", str(JOBS)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("e2ebench: build failed:", " ".join(cmd))
            return False
    return PASS_BIN.exists()


# ----------------------------------------------------------------- passes --

def resolve_circuit_seeds(workload, seed):
    """The generator seeds of the workload's circuits, drawn once per run."""
    proc = subprocess.run([str(PASS_BIN), f"--workload={workload}", f"--seed={seed}",
                           "--resolve"], stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True)
    if proc.returncode != 0:
        return None
    return ",".join(str(s) for s in json.loads(proc.stdout)["circuit_seeds"])


def run_pass(workload, seed, circuit_seeds, pass_id, traced, trace_dir):
    """Runs one pass process; returns its record (None if it failed)."""
    cmd = [str(PASS_BIN), f"--workload={workload}", f"--seed={seed}",
           f"--circuit-seeds={circuit_seeds}", f"--pass={pass_id}"]
    if traced:
        cmd += ["--trace", f"--chrome={trace_dir / f'pass{pass_id}.trace.json'}"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        log(f"e2ebench: pass {pass_id} exited with {proc.returncode}")
        return None
    try:
        rec = json.loads(out)
    except ValueError:
        log(f"e2ebench: pass {pass_id} printed no result")
        return None
    rec["pass"] = pass_id
    rec["traced"] = traced
    rec["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6
    return rec


def run_passes(workload, seed, circuit_seeds, start, seconds, trace):
    """The closed loop: passes back to back until the next would overrun
    `seconds` after `start`."""
    trace_dir = OUT / f"{workload}-seed{seed}"
    if trace:
        trace_dir.mkdir(parents=True, exist_ok=True)
    records, durations = [], []
    while True:
        pass_id = len(records)
        traced = bool(trace) and pass_id % 2 == 1
        t0 = time.monotonic()
        records.append(run_pass(workload, seed, circuit_seeds, pass_id, traced,
                                trace_dir))
        durations.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        need = 2 if trace else 1
        if len(records) >= need and elapsed + statistics.median(durations) > seconds:
            return records


# ------------------------------------------------------------ correctness --

def op_table(rec):
    """Ops keyed "layer:name" (a route set's legality op shares its name)."""
    return {f"{op['layer']}:{op['op']}": op for op in rec["ops"]}


def check_ops(records, expected):
    """Counts attempted/failed ops over all passes.

    `expected` maps op name -> outputs (the recorded digest) or is None; the
    first complete pass is then the reference every later pass must repeat.
    Returns (attempted, failed, reasons).
    """
    reference = expected
    if reference is None:
        reference = next((digest(rec) for rec in records if rec is not None), {})
    n_ops = len(reference) or 1
    attempted = failed = 0
    reasons = []
    for pass_id, rec in enumerate(records):
        if rec is None:
            attempted += n_ops
            failed += n_ops
            reasons.append(f"pass {pass_id}: no result")
            continue
        ops = op_table(rec)
        names = set(ops) | set(reference)
        for name in sorted(names):
            attempted += 1
            op = ops.get(name)
            why = None
            if op is None:
                why = "missing"
            elif op["error"]:
                why = op["error"]
            elif name not in reference:
                why = "not in the digest"
            elif op["out"] != reference[name]:
                diff = sorted(k for k in set(op["out"]) | set(reference[name])
                              if op["out"].get(k) != reference[name].get(k))
                why = "digest mismatch on " + ",".join(diff)
            if why:
                failed += 1
                reasons.append(f"pass {pass_id} op {name}: {why}")
    return attempted, failed, reasons


def digest(rec):
    """A pass's deterministic outputs: op -> outputs."""
    return {name: op["out"] for name, op in op_table(rec).items()}


def load_digests(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return {}


def write_digests(workload, seed, rec):
    path = OUT / "digests" / f"{workload}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(digest(rec), indent=1, sort_keys=True) + "\n")
    return path


# ------------------------------------------------------------------ spans --

def self_times(spans):
    """Per span: duration minus the part of it its children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] >= 0:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0, s["start_ns"]
        for c in sorted(children[i], key=lambda c: spans[c]["start_ns"]):
            lo = max(spans[c]["start_ns"], cursor)
            hi = min(spans[c]["end_ns"], s["end_ns"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((s["end_ns"] - s["start_ns"] - covered) / 1e9)
    return out


def layer_totals(rec):
    """Per layer: host seconds, self seconds, work, and call durations."""
    spans = rec["spans"]
    selfs = self_times(spans)
    table = {layer: {"host_s": 0.0, "self_s": 0.0, "work": 0, "calls": []}
             for layer in LAYERS}
    for s, self_s in zip(spans, selfs):
        row = table[s["layer"]]
        dur = (s["end_ns"] - s["start_ns"]) / 1e9
        if s["layer"] != "bench":  # roots nest the layers: count their self only
            row["host_s"] += dur
            row["calls"].append(dur)
        else:
            row["host_s"] += self_s
        row["self_s"] += self_s
        row["work"] += s["work"]
    return table


def percentile_ms(samples, q):
    """The q-quantile when at least ten samples lie beyond it, else 0."""
    if len(samples) * (1 - q) < 10:
        return 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[round(q * 100) - 1] * 1e3


def per_layer_metrics(traced, untraced):
    """Per-layer metrics: medians over traced passes; counts from the first."""
    tables = [layer_totals(r) for r in traced]

    def med(layer, key):
        return statistics.median(t[layer][key] for t in tables)

    first = traced[0]
    sums = {k: 0 for k in SUM_COUNTS}
    resident = 0
    for op in first["ops"]:
        for k in SUM_COUNTS:
            sums[k] += op["out"].get(k, 0)
        resident = max(resident, op["out"].get("grid.view_resident_bytes", 0))
    inf_refs = sum(op["out"]["coherence.refs_replayed"] for op in first["ops"]
                   if op["layer"] == "coherence.replay")
    lru_refs = sum(op["out"]["coherence.refs_replayed"] for op in first["ops"]
                   if op["layer"] == "coherence.lru_replay")

    def rate(work, secs):
        return work / secs if secs > 0 else 0.0

    capture_s = med("shm.capture", "host_s")
    replay_s = med("coherence.replay", "host_s")
    lru_s = med("coherence.lru_replay", "host_s")
    msg_s = med("msg.run", "host_s")
    calls = [c for t in tables for c in t["msg.run"]["calls"]]
    m = {
        "circuit.gen_s": (med("circuit.gen", "host_s"), "s"),
        "assign.make_s": (med("assign.make", "host_s"), "s"),
        "shm.capture_s": (capture_s, "s"),
        "shm.refs": (sums["shm.refs"], "count"),
        "shm.trace_mb": (sums["shm.refs"] * MEMREF_BYTES / 1e6, "MB"),
        "shm.refs_per_s": (rate(sums["shm.refs"], capture_s), "1/s"),
        "coherence.replay_s": (replay_s, "s"),
        "coherence.refs_per_s": (rate(inf_refs, replay_s), "1/s"),
        "coherence.lru_replay_s": (lru_s, "s"),
        "coherence.lru_refs_per_s": (rate(lru_refs, lru_s), "1/s"),
        "coherence.miss_ratio": (
            sums["coherence.misses"] / sums["coherence.refs_replayed"]
            if sums["coherence.refs_replayed"] else 0.0, "ratio"),
        "route.probes_per_wire": (
            sums["route.probes"] / sums["route.wires_routed"]
            if sums["route.wires_routed"] else 0.0, "ratio"),
        "msg.run_s": (msg_s, "s"),
        "msg.run_p50_ms": (percentile_ms(calls, 0.50), "ms"),
        "msg.run_p95_ms": (percentile_ms(calls, 0.95), "ms"),
        "sim.events_per_s": (rate(sums["sim.events"], msg_s), "1/s"),
        "grid.view_resident_mb": (resident / 1e6, "MB"),
        "check.legality_s": (med("check.legality", "host_s"), "s"),
        "bench.self_s": (med("bench", "self_s"), "s"),
        "trace_overhead": (
            statistics.median(r["wall_s"] for r in traced) /
            statistics.median(r["wall_s"] for r in untraced), "ratio"),
    }
    for k in SUM_COUNTS:
        if k != "shm.refs":
            m[k] = (sums[k], COUNT_UNIT.get(k, "count"))
    return m, tables


def print_layer_table(workload, traced, tables):
    wall = statistics.median(r["wall_s"] for r in traced)
    print(f"\nper-layer ledger, {workload} ({len(traced)} traced passes, "
          f"median traced wall_s {wall:.4f} s)")
    print(f"{'layer':<22}{'host s':>10}{'self s':>10}{'% wall':>8}"
          f"{'work':>14}  {'unit':<7}{'rate /s':>14}")
    for layer in LAYERS:
        host = statistics.median(t[layer]["host_s"] for t in tables)
        self_s = statistics.median(t[layer]["self_s"] for t in tables)
        work = tables[0][layer]["work"]
        rate = work / host if host > 0 and layer != "bench" else 0.0
        name = "bench (own self time)" if layer == "bench" else layer
        print(f"{name:<22}{host:>10.4f}{self_s:>10.4f}{100 * host / wall:>7.1f}%"
              f"{work:>14}  {WORK_UNIT[layer]:<7}{rate:>14.4g}")
    print("(setup layers and check.* run outside wall_s; "
          "their share is relative to it for scale only)")
    setup = statistics.median(r["setup_s"] for r in traced)
    layers = sum(statistics.median(t[layer]["host_s"] for t in tables)
                 for layer in ("circuit.gen", "assign.make"))
    print(f"setup_s {setup:.6f} s, of which circuit.gen + assign.make {layers:.6f} s")


def print_paper_distance(rec):
    """Measured MBytes next to the published ones. Information only."""
    rows = [op for op in rec["ops"] if "paper_mb" in op]
    if not rows:
        return
    print("\ndistance from the published values (synthetic circuits; not gated)")
    dists = []
    for op in rows:
        measured = op["out"].get("total_bytes", op["out"].get("msg.bytes", 0)) / 1e6
        d = measured / op["paper_mb"] - 1
        dists.append(abs(d))
        print(f"  {op['op']:<34} measured {measured:9.4f} MB  paper "
              f"{op['paper_mb']:7.3f} MB  {100 * d:+7.1f}%")
    print(f"  mean |distance| {100 * statistics.mean(dists):.1f}% over {len(dists)} rows")


# ------------------------------------------------------------------- main --

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="workload seed; 0 = the repo's own circuits")
    ap.add_argument("--seconds", type=float, default=60)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    if not build():
        return 1
    start = time.monotonic()  # the run's time budget includes drawing the circuits
    circuit_seeds = resolve_circuit_seeds(args.workload, args.seed)
    if circuit_seeds is None:
        return 1
    records = run_passes(args.workload, args.seed, circuit_seeds, start, args.seconds,
                         args.trace)
    expected = load_digests(DIGESTS).get(args.workload) if args.seed == 0 else None
    if args.seed == 0 and expected is None:
        log(f"e2ebench: no seed-0 digest for {args.workload} in {DIGESTS}")
        return 1
    attempted, failed, reasons = check_ops(records, expected)
    good = [r for r in records if r is not None]
    for r in good:
        kind = "traced" if r["traced"] else "untraced"
        print(f"pass {r['pass']}: {kind} wall_s {r['wall_s']:.4f}"
              f"  setup_s {r['setup_s']:.5f}  peak_rss_mb {r['peak_rss_mb']:.1f}")
    for why in reasons[:20]:
        print("FAILED", why)
    if good:
        print("digests written to", write_digests(args.workload, args.seed, good[0]))
    print(f"circuit generator seeds: {circuit_seeds}")
    print(f"workload {args.workload}  seed {args.seed}  passes {len(records)}  "
          f"pool_threads {good[0]['pool_threads'] if good else '-'} (closed loop, "
          f"one layer call at a time)  error_rate {failed / max(1, attempted):.6f} "
          f"({failed}/{attempted} ops)")

    metrics = {}
    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    if args.trace == 0 and untraced:
        for key in ("wall_s", "setup_s"):
            values = [r[key] for r in untraced]
            print(f"{key}: median {statistics.median(values):.6f} s (reported), fastest "
                  f"{min(values):.6f} s, slowest {max(values):.6f} s over {len(values)} "
                  f"untraced passes")
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(r["setup_s"] for r in untraced), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in untraced),
                            "unit": "MB"},
        }
    elif args.trace == 1 and traced and untraced:
        per_layer, tables = per_layer_metrics(traced, untraced)
        print_layer_table(args.workload, traced, tables)
        print(f"trace_overhead {per_layer['trace_overhead'][0]:.4f} "
              f"(traced wall_s / untraced wall_s)")
        per_layer["error_rate"] = (failed / max(1, attempted), "ratio")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
    if good:
        print_paper_distance(good[0])
    if not metrics:
        log("e2ebench: no complete pass")
        return 1
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
