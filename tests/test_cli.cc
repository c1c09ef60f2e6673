/** @file CLI parser + harness factory tests. */

#include <gtest/gtest.h>

#include <sstream>

#include "harness/cli.hh"
#include "harness/result_table.hh"

namespace limitless
{
namespace
{

const std::map<std::string, bool> knownFlags = {
    {"workload", true}, {"nodes", true}, {"emulate", false},
};

CliOptions
parseArgs(std::vector<std::string> args)
{
    std::vector<char *> argv;
    static std::vector<std::string> storage;
    storage = std::move(args);
    argv.push_back(const_cast<char *>("prog"));
    for (auto &s : storage)
        argv.push_back(const_cast<char *>(s.c_str()));
    return CliOptions::parse(static_cast<int>(argv.size()), argv.data(),
                             knownFlags);
}

TEST(Cli, ParsesValueAndBooleanFlags)
{
    const CliOptions opts =
        parseArgs({"--workload", "weather", "--nodes", "32", "--emulate"});
    EXPECT_EQ(opts.str("workload"), "weather");
    EXPECT_EQ(opts.num("nodes", 0), 32u);
    EXPECT_TRUE(opts.has("emulate"));
    EXPECT_FALSE(opts.has("missing"));
    EXPECT_EQ(opts.num("missing", 7), 7u);
    EXPECT_EQ(opts.str("missing", "dflt"), "dflt");
}

TEST(Cli, RejectsUnknownFlags)
{
    EXPECT_DEATH(parseArgs({"--bogus"}), "unknown flag");
}

TEST(Cli, RejectsMissingValues)
{
    EXPECT_DEATH(parseArgs({"--nodes"}), "needs a value");
}

TEST(Cli, RejectsNonNumericValues)
{
    const CliOptions opts = parseArgs({"--nodes", "lots"});
    EXPECT_DEATH(opts.num("nodes", 0), "not a number");
}

TEST(Cli, RejectsSignsAndTrailingCharacters)
{
    for (const char *bad : {"-1", "+5", "12abc", " 7", "7 ", "0x10", ""}) {
        const CliOptions opts = parseArgs({"--nodes", bad});
        EXPECT_DEATH(opts.num("nodes", 0), "--nodes: .* is not a number")
            << "'" << bad << "'";
    }
}

TEST(Cli, RejectsValuesTheDestinationCannotHold)
{
    // 2^32 + 1 would wrap to 1 through a cast to unsigned.
    const CliOptions wide = parseArgs({"--nodes", "4294967297"});
    EXPECT_EQ(wide.num("nodes", 0), 4294967297u);
    EXPECT_DEATH(wide.num<unsigned>("nodes", 0),
                 "--nodes: .* is out of range \\(at most 4294967295\\)");

    const CliOptions huge = parseArgs({"--nodes", "18446744073709551616"});
    EXPECT_DEATH(huge.num("nodes", 0), "--nodes: .* is out of range");
}

TEST(Cli, AcceptsEveryValueInRange)
{
    EXPECT_EQ(parseArgs({"--nodes", "0"}).num<unsigned>("nodes", 9), 0u);
    EXPECT_EQ(parseArgs({"--nodes", "007"}).num<unsigned>("nodes", 9), 7u);
    EXPECT_EQ(parseArgs({"--nodes", "4294967295"}).num<unsigned>("nodes", 9),
              4294967295u);
    EXPECT_EQ(parseArgs({"--nodes", "18446744073709551615"}).num("nodes", 9),
              18446744073709551615u);
    EXPECT_EQ(parseArgs({}).num<unsigned>("nodes", 9), 9u);
}

TEST(Cli, ProtocolSpecParsing)
{
    EXPECT_EQ(parseProtocol("full-map").kind, ProtocolKind::fullMap);
    EXPECT_EQ(parseProtocol("FullMap").kind, ProtocolKind::fullMap);
    EXPECT_EQ(parseProtocol("chained").kind, ProtocolKind::chained);
    EXPECT_EQ(parseProtocol("private-only").kind,
              ProtocolKind::privateOnly);

    const ProtocolParams d2 = parseProtocol("dir2nb");
    EXPECT_EQ(d2.kind, ProtocolKind::limited);
    EXPECT_EQ(d2.pointers, 2u);

    const ProtocolParams l8 = parseProtocol("limitless8");
    EXPECT_EQ(l8.kind, ProtocolKind::limitless);
    EXPECT_EQ(l8.pointers, 8u);

    EXPECT_DEATH(parseProtocol("nonsense"), "unknown protocol");
    EXPECT_DEATH(parseProtocol("dir0nb"), "unknown protocol");
}

TEST(Cli, WorkloadFactoryCoversEveryAdvertisedName)
{
    for (const std::string &name : workloadNames()) {
        WorkloadFactory factory = makeWorkloadFactory(name, 2);
        std::unique_ptr<Workload> wl = factory();
        ASSERT_NE(wl, nullptr) << name;
        EXPECT_FALSE(wl->name().empty());
    }
    EXPECT_DEATH(makeWorkloadFactory("nope", 0), "unknown workload");
}

TEST(ResultTable, RowLookupAndCsv)
{
    ResultTable table("t");
    ExperimentOutcome a;
    a.label = "Dir4NB";
    a.cycles = 1000;
    a.mcycles = 0.001;
    table.add(a);
    ExperimentOutcome b;
    b.label = "Full-Map";
    b.cycles = 500;
    b.mcycles = 0.0005;
    table.add(b);

    EXPECT_EQ(table.row("Dir4").cycles, 1000u);
    EXPECT_EQ(table.row("Full").cycles, 500u);
    EXPECT_DEATH(table.row("Chained"), "no row");

    std::ostringstream csv;
    table.printCsv(csv);
    EXPECT_NE(csv.str().find("\"Dir4NB\",1000"), std::string::npos);
    EXPECT_NE(csv.str().find("scheme,cycles"), std::string::npos);

    std::ostringstream bars;
    table.printBars(bars);
    EXPECT_NE(bars.str().find("#"), std::string::npos);
    EXPECT_NE(bars.str().find("Mcycles"), std::string::npos);
}

} // namespace
} // namespace limitless
