"""Correctness checks and metric arithmetic for the benchmark.

Pure functions over the JSON objects perfbench_sim prints (see
perfbench_sim.cc), so the tests can feed them fabricated results. run.py does
all process handling and I/O.

A "result" is one {"type": "config"} object: one simulation. A "rep"
maps config label -> result (None when the process died before
reporting that config).
"""

import statistics

# SystemStats fields that must be bit-identical at every shard count
# and on every repetition of one seed. calendar_ops, barrier_crossings,
# windows and wall_seconds are partition- or host-dependent and are
# deliberately absent.
DETERMINISTIC_FIELDS = (
    "runtime_ticks", "instructions", "misses", "indirections", "retries",
    "double_retries", "upgrades", "cache_to_cache", "request_messages",
    "writebacks", "traffic_bytes", "events", "avg_miss_latency_ns",
    "stopped_early", "cache_accesses", "l0_hits", "l0_absorbed",
    "word_touches",
)

# The multicast config the paper-tradeoff metrics report.
HEADLINE = "owner-group"


def simulation_failures(result, program):
    """Why one simulation failed; an empty list when it passed."""
    if result is None:
        return ["no result: the simulator process died before reporting it"]
    if result.get("error"):
        return ["aborted: " + result["error"]]
    reasons = []
    stats = result["stats"]
    expected = program["nodes"] * program["cpu_measure"]
    if stats["stopped_early"] or stats["instructions"] != expected:
        reasons.append("retired %d instructions%s, expected %d" % (
            stats["instructions"],
            " (stopped early)" if stats["stopped_early"] else "", expected))
    if stats["misses"] == 0:
        reasons.append("no misses in the measured phase")
    for pool in ("event", "msg"):
        live = (result["pools_after"][pool + "_live"] -
                result["pools_before"][pool + "_live"])
        if live:
            reasons.append("%d %s-pool objects still live after the System "
                           "was destroyed" % (live, pool))
    return reasons


def bytes_per_miss(stats):
    return stats["traffic_bytes"] / stats["misses"]


def ordering_failures(rep):
    """The paper orderings that hold today, over one rep's configs:
    snooping has the highest bytes per miss and the lowest runtime, and
    directory has the highest runtime. Ties are allowed."""
    stats = {label: r["stats"] for label, r in rep.items()}
    snoop = stats["snooping"]
    direc = stats["directory"]
    reasons = []
    for label, s in stats.items():
        if label == "snooping":
            continue
        if bytes_per_miss(s) > bytes_per_miss(snoop):
            reasons.append("%s has more bytes/miss than snooping "
                           "(%.2f > %.2f)" % (label, bytes_per_miss(s),
                                               bytes_per_miss(snoop)))
        if s["runtime_ticks"] < snoop["runtime_ticks"]:
            reasons.append("%s runs faster than snooping (%d < %d ticks)"
                           % (label, s["runtime_ticks"],
                              snoop["runtime_ticks"]))
        if label != "directory" and s["runtime_ticks"] > direc["runtime_ticks"]:
            reasons.append("%s runs slower than directory (%d > %d ticks)"
                           % (label, s["runtime_ticks"],
                              direc["runtime_ticks"]))
    return reasons


def determinism_failures(a, b, what):
    """Deterministic statistics that differ between two simulations that
    must agree (another shard count, or another repetition)."""
    return ["%s: %s differs (%r != %r)" % (what, f, a["stats"][f],
                                           b["stats"][f])
            for f in DETERMINISTIC_FIELDS if a["stats"][f] != b["stats"][f]]


def rep_wall_s(rep):
    """Host seconds for one full run of the workload: makeWorkload,
    System construction, run() (functional warmup, timed warmup,
    measured phase) and destruction, summed over configs."""
    return sum(r["workload_s"] + r["ctor_s"] + r["run_s"] + r["dtor_s"]
               for r in rep.values())


def rep_setup_s(rep):
    return sum(r["workload_s"] + r["ctor_s"] for r in rep.values())


def rep_misses_per_s(rep):
    return (sum(r["stats"]["misses"] for r in rep.values()) /
            sum(r["stats"]["wall_seconds"] for r in rep.values()))


def tradeoff(rep):
    """Figure 7/8 axes for the headline config: runtime normalised to
    the directory protocol and bytes/miss normalised to snooping (both
    in percent), plus its mean miss latency. Simulated, deterministic."""
    og = rep[HEADLINE]["stats"]
    return {
        "runtime_norm_pct": 100.0 * og["runtime_ticks"] /
                            rep["directory"]["stats"]["runtime_ticks"],
        "traffic_norm_pct": 100.0 * bytes_per_miss(og) /
                            bytes_per_miss(rep["snooping"]["stats"]),
        "miss_latency_ns": og["avg_miss_latency_ns"],
    }


def end_to_end(good_reps, peak_rss_kb, attempted, failed):
    """End-to-end metrics: medians over the fully passing reps."""
    if not good_reps:
        return {}
    metrics = {
        "wall_s": statistics.median(rep_wall_s(r) for r in good_reps),
        "setup_s": statistics.median(rep_setup_s(r) for r in good_reps),
        "misses_per_s": statistics.median(rep_misses_per_s(r)
                                          for r in good_reps),
        "peak_rss_mb": statistics.median(peak_rss_kb) / 1024.0,
        "pass_pct": 100.0 * (attempted - failed) / attempted,
    }
    metrics.update(tradeoff(good_reps[0]))
    return metrics


def _per_miss(results, field):
    return (sum(r["stats"][field] for r in results) /
            sum(r["stats"]["misses"] for r in results))


def _pool_delta(results, field):
    return sum(r["pools_after_run"][field] - r["pools_before"][field]
               for r in results)


def _ns_per_call(replay, call):
    c = replay["calls"][call]
    return c["ns"] / c["calls"] if c["calls"] else 0.0


def per_layer(traced, untraced, process, base_og, alt_og, oracle_og,
              replay):
    """Per-layer metrics of one workload's traced run.

    traced / untraced: the same rep with and without spans; process:
    the traced rep's process line; base_og / alt_og: owner-group at the
    workload's shard count and at the other one (1 vs 4); oracle_og:
    owner-group with the oracle on; replay: the functional-warmup
    replay line."""
    results = list(traced.values())
    misses = sum(r["stats"]["misses"] for r in results)
    measure_s = sum(r["stats"]["wall_seconds"] for r in results)
    og = traced[HEADLINE]["stats"]
    one, four = ((base_og, alt_og) if base_og["shards"] == 1
                 else (alt_og, base_og))
    calls = replay["calls"]
    layer_ns = {
        "workload": calls["next"]["ns"],
        "mem": sum(calls[c]["ns"] for c in ("access", "fill", "invalidate",
                                            "downgrade")),
        "coherence": calls["apply"]["ns"] + calls["evict"]["ns"],
        "core": calls["predict"]["ns"] + calls["train"]["ns"],
    }
    replay_ns = sum(layer_ns.values())
    metrics = {
        "system.ctor_s": sum(r["ctor_s"] for r in results),
        "system.warmup_s": sum(r["run_s"] - r["stats"]["wall_seconds"]
                               for r in results),
        "system.measure_s": measure_s,
        "workload.next_ns": _ns_per_call(replay, "next"),
        "workload.refs_per_miss": replay["refs"] / replay["misses"],
        "mem.access_ns": _ns_per_call(replay, "access"),
        "mem.fill_ns": _ns_per_call(replay, "fill"),
        "mem.l0_hit_rate": (sum(r["stats"]["l0_hits"] for r in results) /
                            sum(r["stats"]["cache_accesses"]
                                for r in results)),
        "mem.words_per_access": (
            sum(r["stats"]["word_touches"] for r in results) /
            sum(r["stats"]["cache_accesses"] for r in results)),
        "coherence.apply_ns": _ns_per_call(replay, "apply"),
        "coherence.c2c_pct": 100.0 * _per_miss(results, "cache_to_cache"),
        "core.predict_ns": _ns_per_call(replay, "predict"),
        "core.train_ns": _ns_per_call(replay, "train"),
        "core.retry_pct": 100.0 * og["retries"] / og["misses"],
        "sim.events_per_miss": _per_miss(results, "events"),
        "sim.calendar_ops_per_miss": _per_miss(results, "calendar_ops"),
        "sim.ns_per_event": 1e9 * measure_s /
                            sum(r["stats"]["events"] for r in results),
        "sim.pool_acquires_per_miss": _pool_delta(results,
                                                  "event_acquires") / misses,
        "sim.slab_allocations": process["event_slabs"] +
                                process["msg_slabs"],
        "sim.barriers_per_window": (four["stats"]["barrier_crossings"] /
                                    four["stats"]["windows"]),
        "sim.shard_speedup": (one["stats"]["wall_seconds"] /
                              four["stats"]["wall_seconds"]),
        "interconnect.msgs_per_miss": _per_miss(results, "request_messages"),
        "interconnect.bytes_per_miss": _per_miss(results, "traffic_bytes"),
        "interconnect.shared_refs_per_miss": _pool_delta(
            results, "msg_refs_shared") / misses,
        "verify.oracle_overhead_x": oracle_og["run_s"] /
                                    traced[HEADLINE]["run_s"],
        "bench.tracing_overhead_pct": 100.0 * (
            rep_wall_s(traced) / rep_wall_s(untraced) - 1.0),
    }
    for layer, ns in layer_ns.items():
        metrics[layer + ".functional_pct"] = 100.0 * ns / replay_ns
    return metrics
