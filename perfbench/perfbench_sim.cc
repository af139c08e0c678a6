/**
 * @file
 * perfbench_sim: runs one workload's protocol configs through the
 * simulator's public API (makeWorkload, System, System::run) and
 * prints one JSON object per line for perfbench/run.py to check and
 * aggregate.
 *
 * Lines on stdout:
 *   {"type":"config", ...}   one per simulation: host times of each
 *                            phase, every SystemStats field, and the
 *                            event/message pool counters around it
 *   {"type":"replay", ...}   the timed functional-warmup replay
 *   {"type":"process", ...}  peak RSS and process-lifetime slab counts
 *
 * A panic or fatal error raised on the main thread is caught (the
 * PanicGuard turns it into an exception) and reported in the config's
 * "error" field; one that kills the process leaves its config without
 * a line, which run.py counts as a failed simulation.
 *
 * With --spans FILE, spans are kept in memory around every call into
 * a layer and written at exit as Chrome trace-event JSON.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "coherence/sharing_tracker.hh"
#include "core/factory.hh"
#include "interconnect/message.hh"
#include "interconnect/topology.hh"
#include "mem/node_caches.hh"
#include "sim/event.hh"
#include "sim/logging.hh"
#include "system/system.hh"
#include "workload/presets.hh"

namespace {

using namespace dsp;
using Clock = std::chrono::steady_clock;

struct Options {
    std::string workload = "oltp";
    NodeId nodes = 16;
    unsigned hubs = 1;
    unsigned cluster = 0;
    double switchNs = 0.0;
    CpuModel cpu = CpuModel::Simple;
    double scale = 1.0;
    std::uint64_t seed = 1;
    std::uint64_t warmupMisses = 0;
    std::uint64_t cpuWarmup = 0;
    std::uint64_t cpuMeasure = 0;
    std::size_t predEntries = 8192;
    unsigned shards = 1;
    bool oracle = false;
    std::vector<std::string> configs;
    bool replay = false;
    std::string spansPath;
    int tracePid = 1;
};

struct ConfigSpec {
    const char *label;
    ProtocolKind protocol;
    PredictorPolicy policy;
};

// The six Figure-7 configs. Snooping and directory ignore the policy.
constexpr ConfigSpec configTable[] = {
    {"snooping", ProtocolKind::Snooping, PredictorPolicy::Owner},
    {"directory", ProtocolKind::Directory, PredictorPolicy::Owner},
    {"owner", ProtocolKind::Multicast, PredictorPolicy::Owner},
    {"bcast-if-shared", ProtocolKind::Multicast,
     PredictorPolicy::BroadcastIfShared},
    {"group", ProtocolKind::Multicast, PredictorPolicy::Group},
    {"owner-group", ProtocolKind::Multicast, PredictorPolicy::OwnerGroup},
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr, "perfbench_sim: %s\n", why.c_str());
    std::exit(2);
}

const ConfigSpec &
findConfig(const std::string &label)
{
    for (const ConfigSpec &spec : configTable)
        if (label == spec.label)
            return spec;
    usage("unknown config '" + label + "'");
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        std::size_t comma = s.find(',', start);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > start)
            out.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

std::uint64_t
parseCount(const char *s)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0')
        usage(std::string("not a count: '") + s + "'");
    return v;
}

double
parseReal(const char *s)
{
    char *end = nullptr;
    double v = std::strtod(s, &end);
    if (end == s || *end != '\0')
        usage(std::string("not a number: '") + s + "'");
    return v;
}

Options
parseOptions(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workload") {
            opt.workload = next();
        } else if (arg == "--nodes") {
            opt.nodes = static_cast<NodeId>(parseCount(next()));
        } else if (arg == "--hubs") {
            opt.hubs = static_cast<unsigned>(parseCount(next()));
        } else if (arg == "--cluster") {
            opt.cluster = static_cast<unsigned>(parseCount(next()));
        } else if (arg == "--switch-ns") {
            opt.switchNs = parseReal(next());
        } else if (arg == "--cpu") {
            std::string cpu = next();
            if (cpu == "simple")
                opt.cpu = CpuModel::Simple;
            else if (cpu == "detailed")
                opt.cpu = CpuModel::Detailed;
            else
                usage("unknown cpu model '" + cpu + "'");
        } else if (arg == "--scale") {
            opt.scale = parseReal(next());
        } else if (arg == "--seed") {
            opt.seed = parseCount(next());
        } else if (arg == "--warmup-misses") {
            opt.warmupMisses = parseCount(next());
        } else if (arg == "--cpu-warmup") {
            opt.cpuWarmup = parseCount(next());
        } else if (arg == "--cpu-measure") {
            opt.cpuMeasure = parseCount(next());
        } else if (arg == "--pred-entries") {
            opt.predEntries = parseCount(next());
        } else if (arg == "--shards") {
            opt.shards = static_cast<unsigned>(parseCount(next()));
        } else if (arg == "--oracle") {
            opt.oracle = true;
        } else if (arg == "--configs") {
            opt.configs = splitList(next());
        } else if (arg == "--replay") {
            opt.replay = true;
        } else if (arg == "--spans") {
            opt.spansPath = next();
        } else if (arg == "--trace-pid") {
            opt.tracePid = static_cast<int>(parseCount(next()));
        } else {
            usage("unknown option '" + arg + "'");
        }
    }
    if (opt.nodes == 0 || opt.nodes > maxNodes)
        usage("--nodes out of range");
    for (const std::string &label : opt.configs)
        findConfig(label);
    return opt;
}

/**
 * In-memory span log, written as Chrome trace-event JSON ("X" complete
 * events) at exit. Every span carries its own id, its parent's id
 * (0 = root) and the id of the config it belongs to.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    std::uint32_t
    add(const char *name, Clock::time_point start, Clock::time_point end,
        std::uint32_t parent, std::uint32_t config)
    {
        if (!enabled_)
            return 0;
        spans_.push_back({name, start, end, ++lastId_, parent, config});
        return lastId_;
    }

    /** Reserve an id for a span whose end is not known yet. */
    std::uint32_t
    open(const char *name, Clock::time_point start, std::uint32_t parent,
         std::uint32_t config)
    {
        return add(name, start, start, parent, config);
    }

    void
    close(std::uint32_t id, Clock::time_point end)
    {
        if (enabled_ && id != 0)
            spans_[id - 1].end = end;
    }

    bool
    write(const std::string &path, int pid) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::fprintf(f, "{\"traceEvents\":[\n");
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(
                f,
                "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%u,"
                "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span_id\":%u,"
                "\"parent_id\":%u,\"config_id\":%u}}\n",
                i ? "," : "", s.name, pid, s.config, usSince(s.start),
                std::chrono::duration<double, std::micro>(s.end - s.start)
                    .count(),
                s.id, s.parent, s.config);
        }
        std::fprintf(f, "],\"displayTimeUnit\":\"ns\"}\n");
        return std::fclose(f) == 0;
    }

  private:
    struct Span {
        const char *name;
        Clock::time_point start;
        Clock::time_point end;
        std::uint32_t id;
        std::uint32_t parent;
        std::uint32_t config;
    };

    double
    usSince(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - origin_)
            .count();
    }

    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::uint32_t lastId_ = 0;
    std::vector<Span> spans_;
};

double
seconds(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

SystemParams
systemParams(const Options &opt, const ConfigSpec &spec)
{
    SystemParams params;
    params.nodes = opt.nodes;
    params.protocol = spec.protocol;
    params.policy = spec.policy;
    params.predictor.entries = opt.predEntries;
    params.predictor.indexing = IndexingMode::Macroblock1024;
    params.cpuModel = opt.cpu;
    params.crossbar.topology.hubs = opt.hubs;
    params.crossbar.topology.cluster_size = opt.cluster;
    params.crossbar.topology.switch_link_ns = opt.switchNs;
    params.functionalWarmupMisses = opt.warmupMisses;
    params.warmupInstrPerCpu = opt.cpuWarmup;
    params.measureInstrPerCpu = opt.cpuMeasure;
    params.shards = opt.shards;
    params.verify.oracle = opt.oracle;
    return params;
}

void
printPools(const char *key, const EventPoolStats &e,
           const MessagePoolStats &m)
{
    std::printf(",\"%s\":{\"event_acquires\":%" PRIu64
                ",\"event_live\":%" PRIu64 ",\"event_slabs\":%" PRIu64
                ",\"msg_acquires\":%" PRIu64 ",\"msg_live\":%" PRIu64
                ",\"msg_refs_shared\":%" PRIu64 ",\"msg_slabs\":%" PRIu64
                "}",
                key, e.acquires, e.live(), e.slabAllocations, m.acquires,
                m.live(), m.refsShared, m.slabAllocations);
}

void
printStats(const SystemStats &s)
{
    std::printf(
        ",\"stats\":{\"runtime_ticks\":%" PRIu64
        ",\"instructions\":%" PRIu64 ",\"misses\":%" PRIu64
        ",\"indirections\":%" PRIu64 ",\"retries\":%" PRIu64
        ",\"double_retries\":%" PRIu64 ",\"upgrades\":%" PRIu64
        ",\"cache_to_cache\":%" PRIu64 ",\"request_messages\":%" PRIu64
        ",\"writebacks\":%" PRIu64 ",\"traffic_bytes\":%" PRIu64
        ",\"events\":%" PRIu64 ",\"barrier_crossings\":%" PRIu64
        ",\"windows\":%" PRIu64 ",\"wall_seconds\":%.9g"
        ",\"avg_miss_latency_ns\":%.17g,\"stopped_early\":%s"
        ",\"cache_accesses\":%" PRIu64 ",\"l0_hits\":%" PRIu64
        ",\"l0_absorbed\":%" PRIu64 ",\"word_touches\":%" PRIu64
        ",\"calendar_ops\":%" PRIu64 "}",
        static_cast<std::uint64_t>(s.runtimeTicks), s.instructions,
        s.misses, s.indirections, s.retries, s.doubleRetries, s.upgrades,
        s.cacheToCache, s.requestMessages, s.writebacks, s.trafficBytes,
        s.eventsExecuted, s.barrierCrossings, s.windowsRun, s.wallSeconds,
        s.avgMissLatencyNs, s.stoppedEarly ? "true" : "false",
        s.cacheAccesses, s.l0Hits, s.l0Absorbed, s.wordTouches,
        s.calendarOps);
}

/** JSON string literal body: escapes quotes, backslashes, controls. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

/** One simulation: makeWorkload, System::System, System::run, and
 *  ~System, each timed and spanned; prints its "config" line. */
void
runConfig(const Options &opt, const ConfigSpec &spec,
          std::uint32_t config_id, SpanLog &spans)
{
    const EventPoolStats events_before = eventPoolStats();
    const MessagePoolStats msgs_before = MessageRef::stats();
    EventPoolStats events_run;
    MessagePoolStats msgs_run;
    SystemStats stats;
    double workload_s = 0.0, ctor_s = 0.0, run_s = 0.0, dtor_s = 0.0;
    std::string error;

    const Clock::time_point t0 = Clock::now();
    const std::uint32_t root = spans.open(spec.label, t0, 0, config_id);
    try {
        PanicGuard guard;
        std::unique_ptr<Workload> workload =
            makeWorkload(opt.workload, opt.nodes, opt.seed, opt.scale);
        const Clock::time_point t1 = Clock::now();
        spans.add("makeWorkload", t0, t1, root, config_id);
        Clock::time_point t3;
        {
            System system(*workload, systemParams(opt, spec));
            const Clock::time_point t2 = Clock::now();
            spans.add("System::System", t1, t2, root, config_id);
            stats = system.run();
            t3 = Clock::now();
            events_run = eventPoolStats();
            msgs_run = MessageRef::stats();
            // run() reports only its measured phase's host time; the
            // measured phase is the tail of run(), so everything
            // before it is warmup (functional + timed).
            const std::uint32_t run_span =
                spans.add("System::run", t2, t3, root, config_id);
            const Clock::time_point measure_start =
                t3 - std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(stats.wallSeconds));
            spans.add("run.warmup", t2, measure_start, run_span,
                      config_id);
            spans.add("run.measure", measure_start, t3, run_span,
                      config_id);
            workload_s = seconds(t0, t1);
            ctor_s = seconds(t1, t2);
            run_s = seconds(t2, t3);
            t3 = Clock::now();
        }
        const Clock::time_point t4 = Clock::now();
        spans.add("System::~System", t3, t4, root, config_id);
        dtor_s = seconds(t3, t4);
    } catch (const std::exception &e) {
        error = e.what();
    }
    spans.close(root, Clock::now());

    std::printf("{\"type\":\"config\",\"config\":\"%s\",\"shards\":%u,"
                "\"oracle\":%s,\"workload_s\":%.9g,\"ctor_s\":%.9g,"
                "\"run_s\":%.9g,\"dtor_s\":%.9g",
                spec.label, opt.shards, opt.oracle ? "true" : "false",
                workload_s, ctor_s, run_s, dtor_s);
    if (error.empty()) {
        printStats(stats);
        printPools("pools_before", events_before, msgs_before);
        printPools("pools_after_run", events_run, msgs_run);
        printPools("pools_after", eventPoolStats(), MessageRef::stats());
        std::printf(",\"error\":null}\n");
    } else {
        std::printf(",\"error\":\"%s\"}\n", jsonEscape(error).c_str());
    }
    std::fflush(stdout);
}

/** The replay times every call of one reference in this many. */
constexpr unsigned samplePeriod = 64;

/** Host time spent in one kind of call during the replay. */
struct CallTimer {
    std::uint64_t calls = 0;
    double ns = 0.0;
};

/** Cheap deterministic sampler (xorshift64), so the 1-in-N choice
 *  never aliases with the workload's internal buffer refills. */
class Sampler
{
  public:
    explicit Sampler(unsigned period) : period_(period) {}

    bool
    next()
    {
        state_ ^= state_ << 13;
        state_ ^= state_ >> 7;
        state_ ^= state_ << 17;
        return state_ % period_ == 0;
    }

  private:
    std::uint64_t state_ = 0x9e3779b97f4a7c15ull;
    unsigned period_;
};

/** Median cost of one back-to-back Clock::now() pair, subtracted from
 *  every timed call. */
double
timerOverheadNs()
{
    std::vector<double> d(2001);
    for (double &v : d) {
        const Clock::time_point a = Clock::now();
        const Clock::time_point b = Clock::now();
        v = std::chrono::duration<double, std::nano>(b - a).count();
    }
    std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
    return d[d.size() / 2];
}

/**
 * Replays, from outside System, the call sequence
 * System::functionalWarmup performs for the owner-group config (the
 * same interleaving, cache, tracker and predictor calls, on fresh
 * instances built the way System builds them), timing the calls of a
 * 1-in-N sample of references per layer. The split tells how
 * functional-warmup host time divides among workload, mem, coherence
 * and core.
 */
void
replayFunctionalWarmup(const Options &opt, std::uint32_t config_id,
                       SpanLog &spans)
{
    const double overhead = timerOverheadNs();
    const Clock::time_point start = Clock::now();
    const std::uint32_t root =
        spans.open("replay.functionalWarmup", start, 0, config_id);

    std::unique_ptr<Workload> workload =
        makeWorkload(opt.workload, opt.nodes, opt.seed, opt.scale);
    TopologyParams topo_params;
    topo_params.hubs = opt.hubs;
    topo_params.cluster_size = opt.cluster;
    topo_params.switch_link_ns = opt.switchNs;
    const Topology topo(opt.nodes, topo_params,
                        CrossbarParams{}.traversal_ns);
    const std::size_t blocks_per_hub =
        static_cast<std::size_t>(workload->totalFootprint() / blockBytes) /
            topo.hubs() +
        1;
    std::vector<SharingTracker> trackers;
    trackers.reserve(topo.hubs());
    for (unsigned h = 0; h < topo.hubs(); ++h) {
        trackers.emplace_back(opt.nodes);
        trackers.back().reserve(blocks_per_hub);
    }
    std::vector<std::unique_ptr<NodeCaches>> caches;
    for (NodeId n = 0; n < opt.nodes; ++n)
        caches.push_back(std::make_unique<NodeCaches>());
    PredictorConfig pred_config;
    pred_config.numNodes = opt.nodes;
    pred_config.entries = opt.predEntries;
    pred_config.indexing = IndexingMode::Macroblock1024;
    std::vector<std::unique_ptr<Predictor>> predictors =
        makePredictorsPerNode(PredictorPolicy::OwnerGroup, pred_config);
    auto tracker_for = [&](BlockId b) -> SharingTracker & {
        return trackers[topo.hubOf(b)];
    };

    CallTimer t_next, t_access, t_fill, t_inval, t_downgrade, t_apply,
        t_evict, t_predict, t_train;
    Sampler sampler(samplePeriod);
    // One sampled reference in spanEvery also gets a span per call, to
    // keep the trace file small.
    constexpr std::uint64_t spanEvery = 64;
    std::uint64_t refs = 0, sampled_refs = 0;
    bool sampled = false;
    std::uint32_t ref_span = 0;

    auto timed = [&](CallTimer &timer, const char *name, auto &&fn) {
        if (!sampled)
            return fn();
        const Clock::time_point a = Clock::now();
        if constexpr (std::is_void_v<decltype(fn())>) {
            fn();
            const Clock::time_point b = Clock::now();
            ++timer.calls;
            timer.ns +=
                std::chrono::duration<double, std::nano>(b - a).count() -
                overhead;
            if (ref_span)
                spans.add(name, a, b, ref_span, config_id);
        } else {
            auto r = fn();
            const Clock::time_point b = Clock::now();
            ++timer.calls;
            timer.ns +=
                std::chrono::duration<double, std::nano>(b - a).count() -
                overhead;
            if (ref_span)
                spans.add(name, a, b, ref_span, config_id);
            return r;
        }
    };

    std::vector<std::uint64_t> icount(opt.nodes, 0);
    std::uint64_t done = 0;
    while (done < opt.warmupMisses) {
        NodeId p = 0;
        for (NodeId n = 1; n < opt.nodes; ++n)
            if (icount[n] < icount[p])
                p = n;

        ++refs;
        sampled = sampler.next();
        ref_span = 0;
        if (sampled && spans.enabled() && sampled_refs % spanEvery == 0)
            ref_span =
                spans.open("replay.reference", Clock::now(), root,
                           config_id);
        sampled_refs += sampled;

        MemRef ref = timed(t_next, "Workload::next",
                           [&] { return workload->next(p); });
        icount[p] += ref.work + 1;

        NodeCaches &mine = *caches[p];
        NodeCaches::StagedAccess staged =
            timed(t_access, "NodeCaches::probeAccess+commitAccess", [&] {
                NodeCaches::StagedAccess s =
                    mine.probeAccess(ref.addr, ref.write);
                mine.commitAccess(s);
                return s;
            });
        if (staged.result.need == CoherenceNeed::None) {
            spans.close(ref_span, Clock::now());
            continue;
        }

        const RequestType type =
            staged.result.need == CoherenceNeed::GetExclusive
                ? RequestType::GetExclusive
                : RequestType::GetShared;
        const BlockId block = blockOf(ref.addr);
        SharingTracker::Transaction txn =
            timed(t_apply, "SharingTracker::apply",
                  [&] { return tracker_for(block).apply(block, p, type); });

        if (type == RequestType::GetShared) {
            if (txn.cacheToCache) {
                NodeCaches &owner = *caches[txn.responder];
                timed(t_downgrade, "NodeCaches::downgrade", [&] {
                    owner.l0Invalidate(block);
                    owner.downgrade(block);
                });
            }
        } else {
            txn.required.forEach([&](NodeId q) {
                NodeCaches &peer = *caches[q];
                timed(t_inval, "NodeCaches::invalidate", [&] {
                    peer.l0Invalidate(block);
                    peer.invalidate(block);
                });
            });
        }

        NodeCaches::FillHandle handle = staged.fillHandle();
        NodeCaches::FillResult fill =
            timed(t_fill, "NodeCaches::fill", [&] {
                return mine.fill(ref.addr, txn.grantedState, &handle);
            });
        if (fill.evicted) {
            if (isOwnerState(fill.victimState)) {
                timed(t_evict, "SharingTracker::evictOwned", [&] {
                    tracker_for(fill.victim).evictOwned(fill.victim, p);
                });
            } else if (fill.victimState == MosiState::Shared) {
                timed(t_evict, "SharingTracker::evictShared", [&] {
                    tracker_for(fill.victim).evictShared(fill.victim, p);
                });
            }
        }
        ++done;

        const NodeId home = homeOf(block, opt.nodes);
        DestinationSet predicted =
            timed(t_predict, "Predictor::predict", [&] {
                return predictors[p]->predict(ref.addr, ref.pc, type, p,
                                              home);
            });
        timed(t_train, "Predictor::train", [&] {
            if (!predicted.containsAll(txn.required))
                predictors[p]->trainRetry(ref.addr, ref.pc, txn.required);
            if (txn.responder != p) {
                predictors[p]->trainResponse(ref.addr, ref.pc,
                                             txn.responder,
                                             !txn.required.empty());
            }
            DestinationSet observers = predicted | txn.required;
            observers.forEach([&](NodeId q) {
                if (q != p)
                    predictors[q]->trainExternalRequest(ref.addr, ref.pc,
                                                        type, p);
            });
        });
        spans.close(ref_span, Clock::now());
    }
    const Clock::time_point end = Clock::now();
    spans.close(root, end);

    std::printf("{\"type\":\"replay\",\"refs\":%" PRIu64
                ",\"misses\":%" PRIu64 ",\"sampled_refs\":%" PRIu64
                ",\"replay_s\":%.9g,\"timer_overhead_ns\":%.6g",
                refs, done, sampled_refs, seconds(start, end), overhead);
    const std::pair<const char *, const CallTimer *> timers[] = {
        {"next", &t_next},        {"access", &t_access},
        {"fill", &t_fill},        {"invalidate", &t_inval},
        {"downgrade", &t_downgrade}, {"apply", &t_apply},
        {"evict", &t_evict},      {"predict", &t_predict},
        {"train", &t_train},
    };
    std::printf(",\"calls\":{");
    for (std::size_t i = 0; i < std::size(timers); ++i) {
        std::printf("%s\"%s\":{\"calls\":%" PRIu64 ",\"ns\":%.6f}",
                    i ? "," : "", timers[i].first, timers[i].second->calls,
                    timers[i].second->ns);
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseOptions(argc, argv);
    SpanLog spans(!opt.spansPath.empty());

    std::uint32_t config_id = 0;
    for (const std::string &label : opt.configs)
        runConfig(opt, findConfig(label), ++config_id, spans);
    if (opt.replay)
        replayFunctionalWarmup(opt, ++config_id, spans);

    rusage usage_self{};
    getrusage(RUSAGE_SELF, &usage_self);
    const EventPoolStats events = eventPoolStats();
    const MessagePoolStats msgs = MessageRef::stats();
    std::printf("{\"type\":\"process\",\"peak_rss_kb\":%ld"
                ",\"event_slabs\":%" PRIu64 ",\"msg_slabs\":%" PRIu64
                "}\n",
                usage_self.ru_maxrss, events.slabAllocations,
                msgs.slabAllocations);
    std::fflush(stdout);

    if (spans.enabled() && !spans.write(opt.spansPath, opt.tracePid)) {
        std::fprintf(stderr, "perfbench_sim: cannot write '%s'\n",
                     opt.spansPath.c_str());
        return 1;
    }
    return 0;
}
