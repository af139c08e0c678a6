#!/usr/bin/env python3
"""The repository benchmark: one command, three named workloads.

    python3 perfbench/run.py --workload fig7-oltp --seed 1 --seconds 40 --trace 0

Run from the repository root. The first run builds the simulator and
perfbench_sim from source into .bench_build/perfbench (CMake, Release
flags of the root build); later runs rebuild incrementally.

--trace 0 repeats the workload's full run (every config) in fresh
processes until --seconds have passed (at least three times) and
prints the end-to-end metrics as medians over the repetitions.
--trace 1 makes one traced run and prints the per-layer metrics; it
writes the spans as Chrome trace-event JSON (path on stderr, or
--trace-out).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Every simulation is one attempted
operation; see checks.py for what makes one fail.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402

# Budget after the build: the benchmark must exit within 180 s.
DEADLINE_S = 170.0
MIN_REPS = 3


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configure (once) and build perfbench_sim; returns its path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_sim")


def load_json(path):
    with open(path) as f:
        return json.load(f)


class Runner:
    """Runs perfbench_sim processes for one workload and seed."""

    def __init__(self, binary, spec, seed, length, deadline):
        self.binary = binary
        self.program = dict(spec["program"])
        # Shortening the functional warmup too would leave caches cold,
        # and cold 64-node machines break the paper orderings.
        for key in ("cpu_warmup", "cpu_measure"):
            self.program[key] = max(1, int(self.program[key] * length))
        self.configs = spec["configs"]
        self.seed = seed
        self.deadline = deadline

    def run(self, configs, shards=None, extra=()):
        """One process. Returns (rep, replay, process, problem): rep maps
        every requested config to its result or None."""
        p = self.program
        args = [self.binary, "--workload", p["workload"],
                "--scale", str(p["scale"]), "--nodes", str(p["nodes"]),
                "--hubs", str(p["hubs"]), "--cluster", str(p["cluster"]),
                "--switch-ns", str(p["switch_ns"]), "--cpu", p["cpu"],
                "--pred-entries", str(p["pred_entries"]),
                "--seed", str(self.seed),
                "--warmup-misses", str(p["warmup_misses"]),
                "--cpu-warmup", str(p["cpu_warmup"]),
                "--cpu-measure", str(p["cpu_measure"]),
                "--shards", str(shards or p["shards"])]
        if configs:
            args += ["--configs", ",".join(configs)]
        args += list(extra)
        rep = {label: None for label in configs}
        replay = process = None
        problem = None
        timeout = max(1.0, self.deadline - time.monotonic())
        try:
            proc = subprocess.run(args, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired as e:
            stdout = e.stdout.decode() if isinstance(e.stdout, bytes) \
                else (e.stdout or "")
            problem = "timed out after %.0f s" % timeout
        else:
            stdout = proc.stdout
            if proc.returncode != 0:
                problem = "exit code %d: %s" % (proc.returncode,
                                                 proc.stderr.strip()[-500:])
        for line in stdout.splitlines():
            try:
                obj = json.loads(line)
            except ValueError:
                continue
            if obj.get("type") == "config" and obj["config"] in rep:
                rep[obj["config"]] = obj
            elif obj.get("type") == "replay":
                replay = obj
            elif obj.get("type") == "process":
                process = obj
        return rep, replay, process, problem


class Tally:
    """Attempted/failed simulations and the reasons for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def sims(self, rep, program, rep_reasons=()):
        """Count every simulation of a rep. A rep-level reason (broken
        ordering, shard mismatch, ...) fails each of its simulations and
        is reported once. Returns True when all passed."""
        ok = True
        for label, result in rep.items():
            why = checks.simulation_failures(result, program)
            self.attempted += 1
            if why or rep_reasons:
                ok = False
                self.failed += 1
                self.reasons += ["%s: %s" % (label, w) for w in why]
        self.reasons += ["%s: %s" % ("+".join(rep), w) for w in rep_reasons]
        return ok

    def op(self, name, why):
        self.attempted += 1
        if why:
            self.failed += 1
            self.reasons += ["%s: %s" % (name, w) for w in why]


def full_rep_checks(rep, problem):
    """Rep-level reasons: the process problem, then (when every config
    reported) the paper orderings."""
    why = [problem] if problem else []
    if all(r is not None and not r.get("error") for r in rep.values()):
        why += checks.ordering_failures(rep)
    return why


def measure(runner, seconds, tally):
    """--trace 0: repeat full runs for `seconds`; returns metrics."""
    start = time.monotonic()
    good, rss, durations = [], [], []
    while True:
        t0 = time.monotonic()
        rep, _, process, problem = runner.run(runner.configs)
        durations.append(time.monotonic() - t0)
        why = full_rep_checks(rep, problem)
        if good and not why and all(
                not checks.simulation_failures(r, runner.program)
                for r in rep.values()):
            for label in rep:
                why += checks.determinism_failures(
                    good[0][label], rep[label], "repeat of " + label)
        if tally.sims(rep, runner.program, why):
            good.append(rep)
            rss.append(process["peak_rss_kb"])
            log("perfbench: rep %d: wall_s %.4f setup_s %.4f misses_per_s "
                "%.1f" % (len(durations), checks.rep_wall_s(rep),
                          checks.rep_setup_s(rep),
                          checks.rep_misses_per_s(rep)))
        elapsed = time.monotonic() - start
        est = sorted(durations)[len(durations) // 2]
        if len(durations) >= MIN_REPS and elapsed + est > seconds:
            break
        if time.monotonic() + est > runner.deadline:
            break
    return checks.end_to_end(good, rss, tally.attempted, tally.failed)


def merge_traces(parts, out_path, labels):
    """Concatenate the per-process span files into one Chrome trace."""
    events = []
    for pid, path in parts:
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": labels[pid]}})
        if os.path.exists(path):
            events += load_json(path)["traceEvents"]
            os.remove(path)
    with open(out_path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, f)
    # The file must load back as trace-event JSON.
    loaded = load_json(out_path)["traceEvents"]
    bad = [e for e in loaded if e["ph"] == "X" and
           not all(k in e for k in ("name", "ts", "dur", "pid", "tid",
                                    "args"))]
    return ["trace file has %d malformed spans" % len(bad)] if bad else []


def traced(runner, tally, trace_out):
    """--trace 1: one traced run; returns per-layer metrics."""
    p = runner.program
    og = checks.HEADLINE
    alt_shards = 4 if p["shards"] == 1 else 1
    out_dir = os.path.dirname(os.path.abspath(trace_out))
    os.makedirs(out_dir, exist_ok=True)
    labels = {1: "full run, traced", 2: "owner-group at %d shards"
              % alt_shards, 3: "owner-group with oracle",
              4: "functional-warmup replay"}
    parts = [(pid, os.path.join(out_dir, "part-%d.json" % pid))
             for pid in labels]

    def spans(pid):
        return ["--spans", parts[pid - 1][1], "--trace-pid", str(pid)]

    untraced, _, _, problem = runner.run(runner.configs)
    untraced_ok = tally.sims(untraced, p, full_rep_checks(untraced, problem))
    rep, _, process, problem = runner.run(runner.configs, extra=spans(1))
    rep_ok = tally.sims(rep, p, full_rep_checks(rep, problem))

    # Determinism: owner-group at the other shard count must match.
    alt, _, _, problem = runner.run([og], shards=alt_shards, extra=spans(2))
    why = [problem] if problem else []
    if rep_ok and not checks.simulation_failures(alt[og], p):
        why += checks.determinism_failures(
            rep[og], alt[og], "%d vs %d shards" % (p["shards"], alt_shards))
    alt_ok = tally.sims(alt, p, why)

    # Oracle: owner-group with the coherence oracle must end
    # violation-free (a violation aborts the simulation).
    orc, _, _, problem = runner.run([og], extra=["--oracle"] + spans(3))
    orc_ok = tally.sims(orc, p, [problem] if problem else [])

    _, replay, _, problem = runner.run([], extra=["--replay"] + spans(4))
    replay_why = [problem] if problem else []
    if replay is None:
        replay_why.append("no replay result")
    elif replay["misses"] != p["warmup_misses"]:
        replay_why.append("replayed %d misses, expected %d"
                          % (replay["misses"], p["warmup_misses"]))
    tally.op("replay", replay_why)

    tally.op("trace-file", merge_traces(parts, trace_out, labels))
    log("perfbench: trace written to %s" % trace_out)

    if not (rep_ok and alt_ok and orc_ok and untraced_ok and not replay_why):
        return {}
    return checks.per_layer(rep, untraced, process, rep[og], alt[og],
                            orc[og], replay)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--trace-out", help="Chrome trace path (--trace 1)")
    ap.add_argument("--length", type=float, default=1.0,
                    help="scale the timed phases (smoke tests only)")
    args = ap.parse_args(argv)

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    specs = load_json(os.path.join(HERE, "workloads.json"))["workloads"]
    if args.workload not in specs:
        raise SystemExit("perfbench: unknown workload %r (have: %s)"
                         % (args.workload, ", ".join(sorted(specs))))
    binary = build()
    # The first run in a checkout may build for minutes; the budget
    # covers the measurement that follows.
    deadline = time.monotonic() + DEADLINE_S

    runner = Runner(binary, specs[args.workload], args.seed, args.length,
                    deadline)
    tally = Tally()
    if args.trace:
        wanted = bench["per_layer"]
        trace_out = args.trace_out or os.path.join(
            build_dir(), "trace", "%s-seed%d.json" % (args.workload,
                                                       args.seed))
        metrics = traced(runner, tally, trace_out)
    else:
        wanted = bench["end_to_end"]
        metrics = measure(runner, args.seconds, tally)

    # Repeated reps of one seed fail identically; report each once.
    for reason in dict.fromkeys(tally.reasons):
        print("FAILED " + reason)
    correct = tally.failed == 0 and bool(metrics)
    out = {}
    for m in wanted:
        value = metrics.get(m["name"], 0.0)
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-36s %16.6f %s" % (m["name"], value, m["unit"]))
    print("%-36s %16.6f %% (%d failed of %d attempted)" % (
        "fail_pct", 100.0 * tally.failed / max(1, tally.attempted),
        tally.failed, tally.attempted))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
