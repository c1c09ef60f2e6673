/**
 * @file
 * Small command-line option parser and the flag → MachineConfig /
 * Workload factories used by the limitless-sim driver (tools/).
 *
 * Flags are --name value or --name (boolean); unknown flags are fatal so
 * typos never silently fall back to defaults.
 */

#ifndef LIMITLESS_HARNESS_CLI_HH
#define LIMITLESS_HARNESS_CLI_HH

#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "directory/limited_dir.hh"
#include "harness/experiment.hh"
#include "machine/machine_config.hh"
#include "workload/workload.hh"

namespace limitless
{

/** Parsed command line. */
class CliOptions
{
  public:
    /**
     * Parse argv. @p known maps flag name -> true if it takes a value.
     * Aborts (fatal) on unknown flags or missing values.
     */
    static CliOptions parse(int argc, char **argv,
                            const std::map<std::string, bool> &known);

    bool has(const std::string &flag) const
    {
        return _values.count(flag) != 0;
    }

    std::string str(const std::string &flag,
                    const std::string &fallback = "") const;

    /**
     * Value of a numeric flag as @p T, or @p fallback when absent. Only
     * plain decimal digits are accepted: a sign, trailing characters or
     * a value @p T cannot hold is fatal, naming the flag.
     */
    template <typename T = std::uint64_t>
    T
    num(const std::string &flag, std::type_identity_t<T> fallback) const
    {
        static_assert(std::is_unsigned_v<T>, "flags are unsigned");
        return static_cast<T>(
            numUpTo(flag, fallback, std::numeric_limits<T>::max()));
    }

  private:
    std::uint64_t numUpTo(const std::string &flag, std::uint64_t fallback,
                          std::uint64_t max) const;

    std::map<std::string, std::string> _values;
};

/**
 * Protocol spec parser: "full-map", "dir4nb", "limitless4" (with
 * optional --ts / --emulate modifiers applied by the caller),
 * "chained", "private-only". Aborts on unknown names.
 */
ProtocolParams parseProtocol(const std::string &name);

/**
 * Workload factory by name: multigrid, weather, weather-opt, hotspot,
 * worker-set, migratory, random-stress. Size knobs: @p iterations
 * scales the main loop (0 keeps each workload's default); @p seed
 * seeds the workload's own RNG where it has one (0 keeps the
 * workload's default seed).
 */
WorkloadFactory makeWorkloadFactory(const std::string &name,
                                    unsigned iterations,
                                    std::uint64_t seed = 0);

/** Names accepted by makeWorkloadFactory, for --help. */
std::vector<std::string> workloadNames();

} // namespace limitless

#endif // LIMITLESS_HARNESS_CLI_HH
