#!/usr/bin/env python3
"""Benchmark of the connreuse simulator, end to end and layer by layer.

Run from the root of the repository:

    python3 simbench/run.py --workload atlas --seed 1 --seconds 10 --trace 0
    python3 simbench/run.py --self-check      # every workload at tiny size, in seconds
    python3 simbench/run.py --write-pins      # re-pin the simulated outputs

Workloads (closed loop, one client; threads = available cores):

* ``atlas``: ``run_atlas`` over the 100k-site Zipf population. Cold visits,
  one deployment on one link, streaming classification, work-stealing
  chunks. Store and session layers stay idle.
* ``sessions``: ``run_fleet`` + ``run_chaos`` at the default scenario size
  (29 + 145 cells over one navigation trace). Warm DNS, the connection pool,
  TLS resumption and fault/retry/hedge.
* ``whatif``: set-up builds a shard store of all 16 deployments x 3 link
  profiles (100 chunks); each repetition answers a seeded stream of 1000
  queries with ``open_store`` + ``answer_query``.

Every measured repetition runs in a fresh process (the simulator's intern
table is process-global and would flatter later repetitions), right after
one run of a fixed reference kernel whose time scales the repetition's timed
figures to a nominal machine speed (see REFERENCE_NOMINAL_S); a run reports
medians over its repetitions. Each process's outputs are checked against
``pins.json``; a wrong, failed or missing output counts as a failed
operation (a chunk, a cell or a query). ``failed``/``attempted`` in the
result is the run's error rate.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced replica of the same workload, built with the simulator's
stage profiler. The last line of stdout is one JSON object; a human-readable
account goes to stderr.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")
WORKLOADS = ("atlas", "sessions", "whatif")
# Input variants: seed n runs variant n % SEED_CLASSES (SEED_CLASSES in
# simbench/src/inputs.rs); pins.json holds one entry per variant.
SEED_CLASSES = 8

# What one latency sample is.
LATENCY_OP = {"atlas": "one atlas run", "sessions": "one fleet + chaos run", "whatif": "one query"}

# Set-ups per run (the median is reported). The whatif set-up builds the store.
SETUPS = {"atlas": 9, "sessions": 9, "whatif": 3}

# The reference kernel's wall seconds on an undisturbed run of the 2-core
# machine the bounds were tuned on (`simbench calibrate`, 2 threads).
#
# That machine is shared, and its speed drifts by up to 40% over minutes:
# over seven minutes of back-to-back `sessions` repetitions, the median of
# 30 s windows moved by 13-15% (quartile spread). Every repetition and every
# set-up therefore runs right after the reference kernel, and its timed
# figures are scaled to this nominal machine speed; the scaled medians moved
# by 5%. The kernel is the benchmark's own code, so a change to the
# simulator moves the scaled figures exactly as it moves the raw ones.
REFERENCE_NOMINAL_S = 0.140

# A repetition that takes longer than this is killed and counted as failed.
REP_TIMEOUT_S = 150

END_TO_END = {
    # name: (unit, better, meaning). Times, rates and CPU seconds are scaled
    # to the nominal machine speed (see REFERENCE_NOMINAL_S).
    "setup_s": ("s", "lower", "set-up time in a fresh process: atlas the shared service deployment, "
                              "sessions the navigation population, whatif the whole store build"),
    "throughput_per_s": ("1/s", "higher", "work per second: atlas sites, sessions session pages, whatif queries"),
    "latency_p50_ms": ("ms", "lower", "median latency of one operation: a whole run for atlas/sessions, "
                                      "a query for whatif"),
    "latency_p99_ms": ("ms", "lower", "99th percentile (nearest rank) of the same samples; whatif has 1000 per "
                                      "repetition, atlas/sessions one, so there it equals the median"),
    "cpu_s": ("s", "lower", "CPU seconds (user + system) of one repetition"),
    "peak_rss_mib": ("MiB", "lower", "peak resident set of one repetition"),
}

# name -> (unit, {workload: end-to-end metric the layer should move there}).
# A layer a workload does not exercise is reported as 0 for it.
PER_LAYER = {
    "web.build_s": ("s", {"atlas": "throughput_per_s", "sessions": "throughput_per_s", "whatif": "setup_s"}),
    "browser.visit_s": ("s", {"atlas": "throughput_per_s", "whatif": "setup_s"}),
    "browser.session_page_s": ("s", {"sessions": "throughput_per_s"}),
    "browser.pool_hit_ratio": ("ratio", {"sessions": "throughput_per_s"}),
    "browser.pool_evicted": ("count", {"sessions": "throughput_per_s"}),
    "browser.pool_idle_expired": ("count", {"sessions": "throughput_per_s"}),
    "browser.retries_per_fault": ("ratio", {"sessions": "throughput_per_s"}),
    "dns.walk_s": ("s", {"atlas": "throughput_per_s", "sessions": "throughput_per_s, little (warm session DNS cache)",
                         "whatif": "setup_s"}),
    "dns.authority_queries_per_walk": ("ratio", {"atlas": "throughput_per_s",
                                                 "sessions": "throughput_per_s, little (warm session DNS cache)",
                                                 "whatif": "setup_s"}),
    "h2.reuse_scan_s": ("s", {"atlas": "throughput_per_s", "sessions": "throughput_per_s", "whatif": "setup_s"}),
    "h2.reuse_ratio": ("ratio", {"atlas": "throughput_per_s", "sessions": "throughput_per_s", "whatif": "setup_s"}),
    "h2.request_encode_s": ("s", {"atlas": "throughput_per_s", "sessions": "throughput_per_s", "whatif": "setup_s"}),
    "tls.handshake_s": ("s", {"atlas": "throughput_per_s", "sessions": "throughput_per_s", "whatif": "setup_s"}),
    "tls.handshake_rtts": ("count", {"atlas": "throughput_per_s", "sessions": "throughput_per_s",
                                     "whatif": "setup_s"}),
    "cost.fold_s": ("s", {"atlas": "throughput_per_s", "sessions": "throughput_per_s", "whatif": "setup_s"}),
    "core.classify_s": ("s", {"atlas": "throughput_per_s", "whatif": "setup_s"}),
    "core.classify_fallback_ratio": ("ratio", {"atlas": "throughput_per_s"}),
    "core.merge_s": ("s", {"atlas": "throughput_per_s", "whatif": "latency_p50_ms"}),
    "executor.busy_ratio": ("ratio", {"atlas": "throughput_per_s", "sessions": "throughput_per_s",
                                      "whatif": "latency_p50_ms"}),
    "executor.imbalance": ("ratio", {"atlas": "throughput_per_s", "sessions": "throughput_per_s",
                                     "whatif": "latency_p99_ms"}),
    "executor.steals": ("count", {"atlas": "throughput_per_s", "sessions": "throughput_per_s",
                                  "whatif": "latency_p99_ms"}),
    "executor.wait_s": ("s", {"whatif": "latency_p99_ms"}),
    "store.read_chunk_s": ("s", {"whatif": "latency_p50_ms"}),
    "store.bytes_read": ("bytes", {"whatif": "latency_p50_ms"}),
    "store.shards_read": ("count", {"whatif": "latency_p50_ms"}),
    "store.write_shard_s": ("s", {"whatif": "setup_s"}),
    "store.bytes_written": ("bytes", {"whatif": "setup_s"}),
    "trace.coverage": ("ratio", {"atlas": "none (trace quality)", "sessions": "none (trace quality)",
                                 "whatif": "none (trace quality)"}),
    "trace.overhead": ("ratio", {"atlas": "none (trace quality)", "sessions": "none (trace quality)",
                                 "whatif": "none (trace quality)"}),
}


class BenchError(Exception):
    """The benchmark cannot produce a result (build failure, bad set-up)."""


def log(message=""):
    print(message, file=sys.stderr, flush=True)


def target_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target) if not os.path.isabs(target) else target


def build():
    """Build the measured and the traced binary; return their paths."""
    binaries = {}
    for variant, features in (("plain", []), ("traced", ["--features", "trace"])):
        variant_dir = os.path.join(target_dir(), "simbench", variant)
        command = ["cargo", "build", "--release", "--offline", "--quiet",
                   "--manifest-path", os.path.join(HERE, "Cargo.toml"), "--target-dir", variant_dir] + features
        try:
            status = subprocess.run(command, cwd=ROOT, stdout=sys.stderr, timeout=840).returncode
        except (OSError, subprocess.TimeoutExpired) as error:
            raise BenchError(f"cannot build the benchmark ({variant}): {error}")
        if status != 0:
            raise BenchError(f"building the benchmark ({variant}) failed with status {status}")
        binaries[variant] = os.path.join(variant_dir, "release", "simbench")
    return binaries


def commit_id():
    """The program's commit, or a digest of its sources outside a git checkout."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "vendor", "simbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(base, name) for base, dirs, names in os.walk(path) for name in names)
        for name in files:
            if name.endswith((".rs", ".toml", ".lock", ".py", ".json")):
                digest.update(os.path.relpath(name, ROOT).encode())
                with open(name, "rb") as handle:
                    digest.update(handle.read())
    return "tree-" + digest.hexdigest()


def spawn(binary, command, workload, seed, threads, size, work):
    """Run one `simbench` process; return (record, child CPU seconds)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    argv = [binary, command, workload, "--seed", str(seed), "--threads", str(threads), "--size", size,
            "--dir", work]
    process = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = process.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        log(f"  {command} {workload}: killed after {REP_TIMEOUT_S} s")
        return None, 0.0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    if process.returncode != 0:
        log(f"  {command} {workload}: exit status {process.returncode}")
        return None, cpu
    try:
        return json.loads(out.strip().splitlines()[-1]), cpu
    except (ValueError, IndexError):
        log(f"  {command} {workload}: unreadable output")
        return None, cpu


def failed_ops(outputs, pin):
    """Operations of one execution that failed or disagree with the pins."""
    count = pin["op_count"]
    if outputs is None or outputs["op_count"] != count or len(outputs["ops"]) != len(pin["ops"]):
        return count
    wrong = sum(1 for got, want in zip(outputs["ops"], pin["ops"]) if got != want)
    if wrong:
        return wrong
    # The reports and statistics summarise every operation: if they are
    # wrong while each operation looks right, no operation can be trusted.
    if outputs["reports"] != pin["reports"] or outputs["stats"] != pin["stats"]:
        return count
    return 0


def percentile(values, share):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


class Run:
    """One benchmark run of one workload: set-up, then measured or traced repetitions."""

    def __init__(self, binaries, workload, seed, seconds, size, pins, threads):
        self.binaries = binaries
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.pins = pins
        self.threads = threads
        self.work = os.path.join(target_dir(), "simbench", "work", f"{workload}-{os.getpid()}")
        self.attempted = 0
        self.failed = 0
        self.replicas_ok = True
        self.meta = {}
        # Every repetition's figures, kept with the run's record.
        self.per_rep = {}
        # Typed errors the program returned for failed operations.
        self.errors = []

    def pin(self, seed_class):
        try:
            return self.pins[self.size][self.workload][str(seed_class)]
        except KeyError:
            raise BenchError(f"no pins for {self.workload} size {self.size} seed class {seed_class}; "
                             "run `python3 simbench/run.py --write-pins`")

    def call(self, variant, command):
        record, cpu = spawn(self.binaries[variant], command, self.workload, self.seed, self.threads, self.size,
                            self.work)
        if record is not None:
            self.meta = {key: record[key] for key in ("seed_class", "threads", "available_cores")}
        return record, cpu

    def check(self, record):
        """Count one execution's operations against the pins."""
        pin = self.pin(self.meta.get("seed_class", self.seed % SEED_CLASSES))
        outputs = record["result"]["outputs"] if record is not None else None
        if outputs is not None:
            self.errors.extend(op["error"] for op in outputs["ops"] if isinstance(op, dict))
        self.attempted += pin["op_count"]
        self.failed += failed_ops(outputs, pin)

    def setup(self, after_setup=None):
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        walls = []
        for _ in range(SETUPS[self.workload]):
            speed = self.machine_speed()
            record, _ = self.call("plain", "setup")
            if record is None:
                raise BenchError(f"{self.workload} set-up failed")
            pin = self.pin(record["seed_class"])
            if record["result"]["reports"] != pin["setup_reports"]:
                raise BenchError(f"{self.workload} set-up output differs from the pins")
            walls.append(record["result"]["setup_s"] * speed)
        if after_setup is not None:
            after_setup(self)
        return statistics.median(walls)

    def machine_speed(self):
        """How fast the machine runs right now, relative to the nominal speed
        (1.0); from one run of the reference kernel."""
        record, _ = self.call("plain", "calibrate")
        if record is None:
            raise BenchError("the reference kernel did not run")
        return REFERENCE_NOMINAL_S / record["result"]["wall_s"]

    def measure(self, after_setup=None):
        setup_s = self.setup(after_setup)
        deadline = time.perf_counter() + self.seconds
        # The first repetition after set-up runs slow (cold page cache and
        # clocks); it is checked but not timed.
        warm_up, _ = self.call("plain", "run")
        self.check(warm_up)
        reps = []
        attempts = 0
        while attempts == 0 or time.perf_counter() < deadline:
            attempts += 1
            speed = self.machine_speed()
            record, cpu = self.call("plain", "run")
            self.check(record)
            if record is not None:
                reps.append((record, cpu, speed))
        if not reps:
            raise BenchError(f"every {self.workload} repetition failed")
        # One figure per repetition and metric, timed figures scaled to the
        # nominal machine speed (see REFERENCE_NOMINAL_S); the run reports
        # their medians.
        per_rep = {
            "throughput_per_s": [r["result"]["units"] / r["result"]["wall_s"] / speed for r, _, speed in reps],
            "latency_p50_ms": [percentile(r["result"]["op_ms"], 0.50) * speed for r, _, speed in reps],
            "latency_p99_ms": [percentile(r["result"]["op_ms"], 0.99) * speed for r, _, speed in reps],
            "cpu_s": [cpu * speed for _, cpu, speed in reps],
            "peak_rss_mib": [r["peak_rss_kib"] / 1024 for r, _, _ in reps],
        }
        self.per_rep = {**per_rep, "machine_speed": [speed for _, _, speed in reps],
                        "raw_wall_s": [r["result"]["wall_s"] for r, _, _ in reps]}
        values = {"setup_s": setup_s}
        values.update((name, statistics.median(figures)) for name, figures in per_rep.items())
        samples = len(reps[0][0]["result"]["op_ms"])
        log(f"{self.workload}: {len(reps)} timed repetitions after one warm-up; {samples} latency sample(s) "
            f"({LATENCY_OP[self.workload]} each) per repetition; medians over repetitions; machine speed "
            f"{min(self.per_rep['machine_speed']):.2f}-{max(self.per_rep['machine_speed']):.2f} of nominal")
        log(f"{'metric':<20} {'value':>14}  unit")
        for name, value in values.items():
            log(f"{name:<20} {value:>14.4f}  {END_TO_END[name][0]:<5} {END_TO_END[name][2]}")
        log(f"{'error_rate':<20} {self.error_rate():>14.6f}  failed/attempted ({self.failed}/{self.attempted})")
        return {name: {"value": value, "unit": END_TO_END[name][0]} for name, value in values.items()}

    def trace(self, after_setup=None):
        self.setup(after_setup)
        pairs = []
        attempts = 0
        deadline = time.perf_counter() + self.seconds
        while attempts == 0 or time.perf_counter() < deadline:
            attempts += 1
            untraced, _ = self.call("plain", "run")
            self.check(untraced)
            traced, _ = self.call("traced", "trace")
            self.check(traced)
            if untraced is None or traced is None:
                self.replicas_ok = False
                continue
            for replica in traced["result"]["replicas"]:
                if not replica["equal"]:
                    self.replicas_ok = False
                    log(f"  replica mismatch: {replica['check']}")
            spans = os.path.join(self.work, f"spans-{self.workload}.tsv")
            if os.path.exists(spans):
                keep = os.path.join(target_dir(), "simbench", "traces")
                os.makedirs(keep, exist_ok=True)
                shutil.move(spans, os.path.join(keep, f"spans-{self.workload}.tsv"))
            layers = dict(traced["result"]["layers"])
            layers["trace.overhead"] = traced["result"]["wall_s"] / untraced["result"]["wall_s"] - 1
            pairs.append(layers)
        if not pairs:
            raise BenchError(f"every traced {self.workload} repetition failed")
        values = {}
        for name, (unit, moves) in PER_LAYER.items():
            measured = [layers[name] for layers in pairs if name in layers]
            if self.workload in moves and not measured:
                raise BenchError(f"the traced {self.workload} run did not measure {name}")
            values[name] = statistics.median(measured) if measured else 0.0
        log(f"{self.workload} traced: {len(pairs)} traced/untraced pairs; spans in "
            f"{os.path.join(target_dir(), 'simbench', 'traces')}")
        log(f"{'metric':<32} {'value':>16}  {'unit':<6} should move")
        for name, value in values.items():
            unit, moves = PER_LAYER[name]
            log(f"{name:<32} {value:>16.6f}  {unit:<6} {moves.get(self.workload, '(layer idle)')}")
        log(f"replica checks: {'all equal' if self.replicas_ok else 'MISMATCH'}")
        return {name: {"value": value, "unit": PER_LAYER[name][0]} for name, value in values.items()}

    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 1.0

    def cleanup(self):
        shutil.rmtree(self.work, ignore_errors=True)


def run_workload(binaries, workload, seed, seconds, trace, size, pins, after_setup=None, errors=None):
    """One run; returns the result object `run.py` prints last. Typed errors
    of failed operations are appended to `errors`."""
    threads = len(os.sched_getaffinity(0))
    run = Run(binaries, workload, seed, seconds, size, pins, threads)
    try:
        metrics = run.trace(after_setup) if trace else run.measure(after_setup)
    finally:
        run.cleanup()
    if errors is not None:
        errors.extend(run.errors)
    correct = run.failed == 0 and run.replicas_ok
    record = {"workload": workload, "seed": seed, "trace": trace, "size": size, "commit": commit_id(),
              **run.meta, "attempted": run.attempted, "failed": run.failed, "correct": correct, "metrics": metrics,
              "per_repetition": run.per_rep}
    log(f"run: workload={workload} seed={seed} seed_class={run.meta.get('seed_class')} "
        f"threads={run.meta.get('threads')} available_cores={run.meta.get('available_cores')} "
        f"commit={record['commit']}")
    os.makedirs(os.path.join(target_dir(), "simbench"), exist_ok=True)
    with open(os.path.join(target_dir(), "simbench", "results.jsonl"), "a") as handle:
        handle.write(json.dumps(record) + "\n")
    return {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}


def load_pins():
    with open(PINS) as handle:
        return json.load(handle)


def write_pins(binaries, sizes):
    """Record what the program outputs for every workload and seed class."""
    pins = load_pins() if os.path.exists(PINS) else {}
    threads = len(os.sched_getaffinity(0))
    for size in sizes:
        pins[size] = {}
        for workload in WORKLOADS:
            pins[size][workload] = {}
            for seed_class in range(SEED_CLASSES):
                run = Run(binaries, workload, seed_class, 0, size, {}, threads)
                shutil.rmtree(run.work, ignore_errors=True)
                os.makedirs(run.work)
                setup, _ = run.call("plain", "setup")
                record, _ = run.call("plain", "run")
                run.cleanup()
                if setup is None or record is None:
                    raise BenchError(f"{workload} ({size}, class {seed_class}) did not run")
                outputs = record["result"]["outputs"]
                pins[size][workload][str(seed_class)] = {"setup_reports": setup["result"]["reports"], **outputs}
                log(f"pinned {size} {workload} class {seed_class}: {outputs['stats']}")
    with open(PINS, "w") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


def self_check(binaries):
    """Every workload at tiny size, both modes, plus two injected faults."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    pins = load_pins()
    problems = []

    def expect(condition, message):
        if not condition:
            problems.append(message)
            log(f"FAIL: {message}")

    for workload in WORKLOADS:
        for trace, listed in ((0, contract["end_to_end"]), (1, contract["per_layer"])):
            result = run_workload(binaries, workload, 1, 0, trace, "tiny", pins)
            expect(result["correct"] and result["failed"] == 0, f"{workload} trace={trace} is not correct")
            for metric in listed:
                got = result["metrics"].get(metric["name"])
                expect(got is not None and got["unit"] == metric["unit"] and math.isfinite(got["value"]),
                       f"{workload} trace={trace}: {metric['name']} missing or not in {metric['unit']}")
                if trace == 0 and got is not None:
                    expect(got["value"] > 0, f"{workload}: {metric['name']} is not positive")
            expect(set(result["metrics"]) == {metric["name"] for metric in listed},
                   f"{workload} trace={trace} prints metrics BENCHMARK.json does not list")

    # A tampered pin must count as failed operations: every chunk of the
    # atlas report, one cell, one query. With no time to fill, a run makes
    # exactly one repetition.
    for workload, tamper, per_rep in (("atlas", "reports", None), ("sessions", "ops", 1), ("whatif", "ops", 1)):
        tampered = json.loads(json.dumps(pins))
        for pin in tampered["tiny"][workload].values():
            pin[tamper][0] = "0" * 16
        result = run_workload(binaries, workload, 1, 0, 0, "tiny", tampered)
        op_count = tampered["tiny"][workload]["1"]["op_count"]
        expected = result["attempted"] if per_rep is None else per_rep * result["attempted"] // op_count
        expect(not result["correct"] and result["failed"] == expected,
               f"tampered {workload} {tamper} digest: {result['failed']} of {result['attempted']} ops failed, "
               f"expected {expected}")

    # A truncated shard must fail exactly the queries that fold it, each with
    # a typed error and without a panic.
    def truncate(run):
        shard = os.path.join(run.work, "store", "shards", "chunk-000003.shard")
        with open(shard, "r+b") as handle:
            handle.truncate(os.path.getsize(shard) // 2)

    errors = []
    result = run_workload(binaries, "whatif", 1, 0, 0, "tiny", pins, after_setup=truncate, errors=errors)
    expect(not result["correct"] and result["failed"] > 0 and len(errors) == result["failed"],
           f"truncated shard: {result['failed']} failed ops, {len(errors)} typed errors")
    expect(all("chunk-000003.shard" in error for error in errors),
           f"truncated shard errors name another file: {errors[:2]}")
    if problems:
        log(f"self-check: {len(problems)} problem(s)")
        return 1
    log("self-check passed: all workloads, both modes, every metric with its unit; "
        "tampered digests and a truncated shard count as failed operations")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        binaries = build()
        if args.self_check:
            return self_check(binaries)
        if args.write_pins:
            write_pins(binaries, ("full", "tiny"))
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run_workload(binaries, args.workload, args.seed, args.seconds, args.trace, args.size, load_pins())
    except BenchError as error:
        log(f"simbench: {error}")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
