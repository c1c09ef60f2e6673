#include "harness/cli.hh"

#include <algorithm>
#include <cctype>

#include "directory/limited_dir.hh"
#include "sim/log.hh"
#include "workload/hotspot.hh"
#include "workload/migratory.hh"
#include "workload/multigrid.hh"
#include "workload/random_stress.hh"
#include "workload/transpose.hh"
#include "workload/weather.hh"
#include "workload/worker_set.hh"

namespace limitless
{

CliOptions
CliOptions::parse(int argc, char **argv,
                  const std::map<std::string, bool> &known)
{
    CliOptions opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            fatal("unexpected argument '%s' (flags start with --)",
                  arg.c_str());
        arg = arg.substr(2);
        // Accept both "--flag value" and "--flag=value".
        std::string inline_value;
        bool has_inline = false;
        const std::size_t eq = arg.find('=');
        if (eq != std::string::npos) {
            inline_value = arg.substr(eq + 1);
            arg = arg.substr(0, eq);
            has_inline = true;
        }
        auto it = known.find(arg);
        if (it == known.end())
            fatal("unknown flag --%s", arg.c_str());
        if (it->second) {
            if (has_inline) {
                opts._values[arg] = inline_value;
            } else {
                if (i + 1 >= argc)
                    fatal("flag --%s needs a value", arg.c_str());
                opts._values[arg] = argv[++i];
            }
        } else {
            if (has_inline)
                fatal("flag --%s takes no value", arg.c_str());
            opts._values[arg] = "1";
        }
    }
    return opts;
}

std::string
CliOptions::str(const std::string &flag, const std::string &fallback) const
{
    auto it = _values.find(flag);
    return it == _values.end() ? fallback : it->second;
}

std::uint64_t
CliOptions::numUpTo(const std::string &flag, std::uint64_t fallback,
                    std::uint64_t max) const
{
    auto it = _values.find(flag);
    if (it == _values.end())
        return fallback;
    const std::string &text = it->second;
    if (text.empty() ||
        !std::all_of(text.begin(), text.end(), [](unsigned char c) {
            return std::isdigit(c) != 0;
        }))
        fatal("flag --%s: '%s' is not a number (expected decimal digits)",
              flag.c_str(), text.c_str());
    std::uint64_t v = 0;
    for (const char c : text) {
        const unsigned digit = static_cast<unsigned>(c - '0');
        if (v > (max - digit) / 10)
            fatal("flag --%s: '%s' is out of range (at most %llu)",
                  flag.c_str(), text.c_str(), (unsigned long long)max);
        v = v * 10 + digit;
    }
    return v;
}

ProtocolParams
parseProtocol(const std::string &name)
{
    std::string s = name;
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (s == "full-map" || s == "fullmap" || s == "full")
        return protocols::fullMap();
    if (s == "chained")
        return protocols::chained();
    if (s == "private-only" || s == "private") {
        ProtocolParams p;
        p.kind = ProtocolKind::privateOnly;
        return p;
    }
    // dir<i>nb / limitless<i>
    auto digits = [](const std::string &str, std::size_t pos) {
        unsigned v = 0;
        while (pos < str.size() && std::isdigit(
                   static_cast<unsigned char>(str[pos]))) {
            v = v * 10 + (str[pos] - '0');
            ++pos;
        }
        return v;
    };
    if (s.rfind("dir", 0) == 0) {
        const unsigned p = digits(s, 3);
        if (p >= 1 && p <= LimitedDir::maxPointers)
            return protocols::dirNB(p);
    }
    if (s.rfind("limitless", 0) == 0) {
        const unsigned p = digits(s, 9);
        if (p >= 1 && p <= LimitedDir::maxPointers)
            return protocols::limitlessStall(p, 50);
    }
    fatal("unknown protocol '%s' (try full-map, dir4nb, limitless4, "
          "chained, private-only)",
          name.c_str());
}

WorkloadFactory
makeWorkloadFactory(const std::string &name, unsigned iterations,
                    std::uint64_t seed)
{
    if (name == "multigrid") {
        MultigridParams wp;
        if (iterations)
            wp.iterations = iterations;
        return [wp] { return std::make_unique<Multigrid>(wp); };
    }
    if (name == "weather" || name == "weather-opt") {
        WeatherParams wp;
        wp.optimizeHotVariable = name == "weather-opt";
        if (iterations)
            wp.iterations = iterations;
        return [wp] { return std::make_unique<Weather>(wp); };
    }
    if (name == "hotspot") {
        HotspotParams hp;
        if (iterations)
            hp.iterations = iterations;
        return [hp] { return std::make_unique<Hotspot>(hp); };
    }
    if (name == "worker-set") {
        WorkerSetParams wp;
        if (iterations)
            wp.rounds = iterations;
        return [wp] { return std::make_unique<WorkerSetSweep>(wp); };
    }
    if (name == "migratory") {
        MigratoryParams mp;
        if (iterations)
            mp.rounds = iterations;
        return [mp] { return std::make_unique<Migratory>(mp); };
    }
    if (name == "transpose") {
        TransposeParams tp;
        if (iterations)
            tp.rounds = iterations;
        return [tp] { return std::make_unique<Transpose>(tp); };
    }
    if (name == "random-stress") {
        RandomStressParams rp;
        if (iterations)
            rp.opsPerProc = iterations;
        if (seed)
            rp.seed = seed;
        return [rp] { return std::make_unique<RandomStress>(rp); };
    }
    fatal("unknown workload '%s'", name.c_str());
}

std::vector<std::string>
workloadNames()
{
    return {"multigrid",  "weather",   "weather-opt",
            "hotspot",    "worker-set", "migratory",
            "transpose",  "random-stress"};
}

} // namespace limitless
