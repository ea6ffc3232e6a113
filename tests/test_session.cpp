/** @file Tests for the campaign session: its two backends share one
 * post-run tail, so an in-process run and a fleet run of the same plan
 * print the same summary and metamorphic block and render the same
 * report. The fleet runs its workers as forked processes; each gtest
 * TEST runs in its own process (gtest_discover_tests). */
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "session/session.hpp"

namespace fs = std::filesystem;

namespace dce::session {
namespace {

using compiler::CompilerId;
using compiler::OptLevel;

class TempDir {
  public:
    explicit TempDir(const std::string &tag)
        : path_((fs::temp_directory_path() /
                 ("dce_session_" + tag + "_" +
                  std::to_string(::getpid())))
                    .string())
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~TempDir() { fs::remove_all(path_); }

    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

corpus::CampaignPlan
smallPlan()
{
    corpus::CampaignPlan plan;
    plan.count = 18;
    plan.chunkSize = 3;
    plan.randomSeeds = true;
    plan.streamSeed = 2024;
    plan.builds = {{CompilerId::Alpha, OptLevel::O3},
                   {CompilerId::Beta, OptLevel::O3}};
    plan.computePrimary = true;
    plan.collectRemarks = true;
    plan.missedByBuild = 0;
    plan.referenceBuild = 1;
    return plan;
}

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Run @p session, returning what it printed. */
std::string
runToText(const Session &session)
{
    std::FILE *out = std::tmpfile();
    EXPECT_NE(out, nullptr);
    corpus::StoreError error;
    EXPECT_EQ(session.run(out, &error), 0) << error.message;
    std::rewind(out);
    std::string text;
    char buffer[4096];
    for (size_t n; (n = std::fread(buffer, 1, sizeof buffer, out)) > 0;)
        text.append(buffer, n);
    std::fclose(out);
    return text;
}

TEST(Session, FleetBackendMatchesInProcessSummaryEquivAndReport)
{
    TempDir single("single");
    Session in_process{smallPlan(),
                       {.dir = single.str() + "/store",
                        .reportDir = single.str() + "/report",
                        .equivVariants = 2}};
    std::string expected = runToText(in_process);
    ASSERT_NE(expected.find("findings "), std::string::npos) << expected;
    ASSERT_NE(expected.find("== metamorphic =="), std::string::npos)
        << expected;

    TempDir fleet("fleet");
    Session sharded{smallPlan(),
                    {.dir = fleet.str() + "/fleet",
                     .reportDir = fleet.str() + "/report",
                     .fleetWorkers = 2,
                     .equivVariants = 2}};
    EXPECT_EQ(runToText(sharded), expected);
    std::string report = readAll(single.str() + "/report/report.md");
    EXPECT_NE(report.find("## Metamorphic testing"), std::string::npos);
    EXPECT_EQ(readAll(fleet.str() + "/report/report.md"), report);
    EXPECT_TRUE(fs::exists(fleet.str() + "/fleet/merged/equiv.json"));
}

TEST(Session, HaltedRunResumesToTheFullSummary)
{
    TempDir full("full");
    std::string expected = runToText(
        Session{smallPlan(), {.dir = full.str() + "/store"}});

    TempDir killed("killed");
    Session halted{smallPlan(), {.mode = Mode::Run,
                                 .dir = killed.str() + "/store",
                                 .haltChunks = 2}};
    EXPECT_EQ(runToText(halted), "halted after 2 chunks (checkpointed)\n");
    // The resume runs the checkpoint's plan, not the caller's.
    Session resume{corpus::CampaignPlan{},
                   {.mode = Mode::Resume, .dir = halted.options.dir}};
    EXPECT_EQ(runToText(resume), expected);
}

} // namespace
} // namespace dce::session
