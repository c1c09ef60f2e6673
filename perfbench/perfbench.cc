/**
 * @file
 * Measurement program of the benchmark of record (run.py runs it).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--passes N] [--threads T]
 *
 * A pass builds, installs, runs and verifies every machine of the
 * workload once. Pass 0 is a warm-up that runs only the first machine;
 * passes repeat until S seconds have elapsed and at least two passes
 * were measured (or exactly N passes with --passes). With --trace 1
 * every other pass runs with the host profiler on and reports its
 * scope tree and, for parallel machines, the kernel's utilization
 * stats; the other passes stay untraced so run.py can report the
 * tracing overhead. --threads overrides the machines' simThreads
 * (the serial-vs-parallel identity self-test).
 *
 * Output is JSON lines: one "context" record, one "run" record per
 * machine run, and a closing "end" record. run.py aggregates them.
 */

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "obs/host_profiler.hh"
#include "sim/parallel_kernel.hh"
#include "workload/random_stress.hh"

using namespace limitless;
using namespace limitless::bench;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct MachineSpec
{
    std::string label;
    MachineConfig cfg;
    std::function<std::unique_ptr<Workload>()> make;
};

/** The machines one pass of @p workload runs (see README.md for why
 *  each workload was chosen). */
std::vector<MachineSpec>
machinesFor(const std::string &workload, std::uint64_t seed,
            unsigned threads)
{
    std::vector<MachineSpec> specs;
    if (workload == "weather64-schemes") {
        const WeatherParams wp = weatherFigureParams();
        const std::pair<const char *, ProtocolParams> schemes[] = {
            {"full-map", protocols::fullMap()},
            {"dir4nb", protocols::dirNB(4)},
            {"limitless4", protocols::limitlessStall(4, 50)},
            {"limitless4-emu", protocols::limitlessEmulated(4)},
            {"chained", protocols::chained()},
        };
        for (const auto &[label, proto] : schemes) {
            MachineConfig cfg = alewife64(proto);
            cfg.seed = seed;
            specs.push_back(
                {label, cfg, [wp] { return std::make_unique<Weather>(wp); }});
        }
    } else if (workload == "stress256-torus") {
        // One stress run's finishing time hinges on its most starved
        // processor, so it swings by several percent from seed to seed;
        // four independent programs per pass average that out. Machine
        // 0 runs exactly --seed.
        for (std::uint64_t k = 0; k < 4; ++k) {
            MachineConfig cfg = alewife64(protocols::limitlessEmulated(4));
            cfg.numNodes = 256;
            cfg.topology.kind = TopologyKind::torus;
            cfg.seed = seed + k * 0x9E3779B97F4A7C15ull;
            RandomStressParams rp;
            rp.seed = cfg.seed;
            specs.push_back(
                {"limitless4-emu-256-torus-" + std::to_string(k), cfg,
                 [rp] { return std::make_unique<RandomStress>(rp); }});
        }
    } else if (workload == "weather1024-torus-t4") {
        WeatherParams wp = weatherFigureParams();
        wp.iterations = 3;
        MachineConfig cfg = alewife64(protocols::limitlessStall(4, 50));
        cfg.numNodes = 1024;
        cfg.topology.kind = TopologyKind::torus;
        cfg.simThreads = 4;
        cfg.seed = seed;
        specs.push_back({"limitless4-1024-torus", cfg,
                         [wp] { return std::make_unique<Weather>(wp); }});
    } else {
        return specs;
    }
    if (threads)
        for (MachineSpec &s : specs)
            s.cfg.simThreads = threads;
    return specs;
}

std::uint64_t
counterOf(const StatSet *set, const char *name)
{
    const Stat *s = set ? set->find(name) : nullptr;
    const auto *c = dynamic_cast<const Counter *>(s);
    if (!c)
        fatal("perfbench: no counter '%s'", name);
    return c->value();
}

/** Deterministic counts of one finished machine, as a JSON object body. */
void
writeCounts(std::ostream &os, Machine &m, const RunResult &run)
{
    double lat_sum = 0.0;
    std::uint64_t lat_count = 0;
    for (unsigned i = 0; i < m.numNodes(); ++i) {
        const auto *acc = dynamic_cast<const Accumulator *>(
            m.node(i).statSet("cache")->find("remote_latency"));
        if (!acc)
            fatal("perfbench: no remote_latency accumulator");
        lat_sum += acc->sum();
        lat_count += acc->count();
    }
    const StatSet *net = m.network().statSet();
    const std::pair<const char *, std::uint64_t> counts[] = {
        {"nodes", m.numNodes()},
        {"cycles", run.cycles},
        {"events", run.events},
        {"proc.ops", m.sumCounter("proc", "ops")},
        {"proc.stall_cycles", m.sumCounter("proc", "stall_cycles")},
        {"proc.switches", m.sumCounter("proc", "switches")},
        {"cache.hits", m.sumCounter("cache", "hits")},
        {"cache.misses", m.sumCounter("cache", "misses")},
        {"cache.busy_retries", m.sumCounter("cache", "busy_retries")},
        {"cache.remote_misses", lat_count},
        {"mem.requests", m.sumCounter("mem", "requests")},
        {"mem.rreq", m.sumCounter("mem", "rreq")},
        {"mem.wreq", m.sumCounter("mem", "wreq")},
        {"mem.busy_nacks", m.sumCounter("mem", "busy_nacks")},
        {"mem.invs_sent", m.sumCounter("mem", "invs_sent")},
        {"mem.evictions", m.sumCounter("mem", "evictions")},
        {"mem.traps", m.sumCounter("mem", "read_traps") +
                          m.sumCounter("mem", "write_traps")},
        {"mem.trap_cycles", m.sumCounter("mem", "trap_cycles")},
        {"network.packets", counterOf(net, "packets")},
        {"network.flit_hops", counterOf(net, "flit_hops")},
        {"network.blocked", counterOf(net, "blocked")},
    };
    os << "{";
    for (const auto &[name, value] : counts)
        os << "\"" << name << "\": " << value << ", ";
    // Latencies are whole cycles, so the sum is exact in a double.
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", lat_sum);
    os << "\"cache.remote_latency_sum\": " << buf << "}";
}

/** Host-profiler scope tree of the traced run: [[path, self_ns], ...]. */
void
writeScopes(std::ostream &os)
{
    os << "[";
    bool first = true;
    for (const HostProfiler::Scope &s : HostProfiler::snapshot()) {
        os << (first ? "" : ", ") << "[";
        jsonEscape(os, s.path);
        os << ", " << s.selfNs << "]";
        first = false;
    }
    os << "]";
}

void
writePkStats(std::ostream &os, const ParallelKernelStats &pk)
{
    os << "{\"partitions\": " << pk.partitions
       << ", \"windows\": " << pk.windows
       << ", \"coupled_windows\": " << pk.coupledWindows
       << ", \"barrier_wait_s\": [";
    for (unsigned p = 0; p < pk.partitions; ++p)
        os << (p ? ", " : "") << pk.barrierWaitSeconds(p);
    os << "], \"events\": [";
    for (unsigned p = 0; p < pk.partitions; ++p)
        os << (p ? ", " : "") << pk.parts[p].events;
    os << "]}";
}

/** Build, install, run and verify one machine; print its "run" record. */
void
runOne(const MachineSpec &spec, unsigned pass, bool traced)
{
    const Clock::time_point t0 = Clock::now();
    Machine machine(spec.cfg);
    const double construct_s = secondsSince(t0);
    const Clock::time_point t1 = Clock::now();
    std::unique_ptr<Workload> wl = spec.make();
    wl->install(machine);
    const double install_s = secondsSince(t1);

    if (traced) {
        HostProfiler::reset();
        HostProfiler::enable();
    }
    const RunResult run = machine.run();
    if (traced)
        HostProfiler::disable();

    // verify() panics (and so aborts the process) on any data error;
    // run.py counts a run that never reports as failed.
    if (run.completed)
        wl->verify(machine);

    std::ostringstream os;
    os.precision(9);
    os << "{\"type\": \"run\", \"pass\": " << pass << ", \"machine\": ";
    jsonEscape(os, spec.label);
    os << ", \"traced\": " << (traced ? "true" : "false")
       << ", \"completed\": " << (run.completed ? "true" : "false")
       << ", \"construct_s\": " << construct_s
       << ", \"install_s\": " << install_s
       << ", \"wall_s\": " << run.hostSeconds << ", \"counts\": ";
    writeCounts(os, machine, run);
    if (traced) {
        os << ", \"scopes\": ";
        writeScopes(os);
        if (const ParallelKernelStats *pk = machine.pkStats()) {
            os << ", \"pk\": ";
            writePkStats(os, *pk);
        }
        HostProfiler::reset();
    }
    os << "}\n";
    std::cout << os.str() << std::flush;
}

[[noreturn]] void
usage(const char *why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--passes N] [--threads T]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = -1.0;
    int trace = -1;
    unsigned passes = 0;
    unsigned threads = 0;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *val = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            workload = val;
            continue;
        }
        const double num = std::strtod(val, &end);
        if (end == val || *end != '\0' || num < 0)
            usage(("bad value for " + flag).c_str());
        if (flag == "--seed") {
            seed = std::strtoull(val, &end, 10);
            if (*end != '\0')
                usage("--seed must be a whole number");
            have_seed = true;
        } else if (flag == "--seconds") {
            seconds = num;
        } else if (flag == "--trace") {
            trace = static_cast<int>(num);
        } else if (flag == "--passes") {
            passes = static_cast<unsigned>(num);
        } else if (flag == "--threads") {
            threads = static_cast<unsigned>(num);
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_seed || seconds < 0 || (trace != 0 && trace != 1))
        usage("--seed, --seconds and --trace 0|1 are required");
    const std::vector<MachineSpec> specs =
        machinesFor(workload, seed, threads);
    if (specs.empty())
        usage(("unknown workload '" + workload + "'").c_str());

#ifdef NDEBUG
    const bool asserts = false;
#else
    const bool asserts = true;
#endif
#ifdef LIMITLESS_NO_PROF
    const bool no_prof = true;
#else
    const bool no_prof = false;
#endif
    std::cout << "{\"type\": \"context\", \"compiler\": ";
    jsonEscape(std::cout, PERFBENCH_COMPILER);
    std::cout << ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\""
              << ", \"asserts\": " << (asserts ? "true" : "false")
              << ", \"limitless_no_prof\": " << (no_prof ? "true" : "false")
              << "}\n";

    const Clock::time_point start = Clock::now();
    for (unsigned pass = 0;; ++pass) {
        if (passes ? pass >= passes
                   : pass >= 3 && secondsSince(start) >= seconds)
            break;
        // Pass 0 is the warm-up and runs only the first machine; with
        // --trace 1 odd passes are traced.
        const bool traced = trace == 1 && pass % 2 == 1;
        for (const MachineSpec &spec : specs) {
            runOne(spec, pass, traced);
            if (pass == 0)
                break;
        }
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::cout << "{\"type\": \"end\", \"peak_rss_kb\": " << ru.ru_maxrss
              << "}\n";
    return 0;
}
