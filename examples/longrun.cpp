/**
 * @file
 * Long-running campaign workflow: argument parsing for one
 * session::Session (DESIGN.md §22). Each flag sets the SessionOptions
 * field of the same name (src/session/session.hpp); `run` may take a
 * halt count (the crash drill); --fleet requires `full` and excludes
 * --events, since a fleet's events happen in its workers.
 * `fleet-worker` is what the coordinator execs; `trace-merge`
 * re-merges a traced fleet's traces/ (by default into the
 * coordinator's own output path). An unknown flag, a non-numeric value
 * or a halt count outside `run` prints the usage and exits 2.
 */
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "fleet/fleet.hpp"
#include "fleet/trace_merge.hpp"
#include "fleet/worker.hpp"
#include "session/session.hpp"

using namespace dce;

namespace {

corpus::CampaignPlan
demoPlan()
{
    corpus::CampaignPlan plan;
    // Sized so a `sleep 2 && kill -9` in CI reliably lands mid-run
    // (several seconds of work, a checkpoint every ~10 seeds).
    plan.count = 600;
    plan.chunkSize = 5;
    plan.randomSeeds = true;
    plan.streamSeed = 7;
    plan.builds = {{compiler::CompilerId::Alpha, compiler::OptLevel::O3},
                   {compiler::CompilerId::Beta, compiler::OptLevel::O3}};
    plan.computePrimary = true;
    plan.collectRemarks = true;
    plan.missedByBuild = 0;
    plan.referenceBuild = 1;
    return plan;
}

int
usage(const char *self)
{
    std::fprintf(stderr,
                 "usage: %s full|run|resume <store-dir> [halt-chunks] "
                 "[--events|--metrics|--trace <file>] [--report <dir>] "
                 "[--sample <ms>] [--latency-report] [--equiv <K>] "
                 "[--serve <port>] [--serve-wait] [--fleet <N>]\n"
                 "   or: %s fleet-worker <fleet-dir> <store-name> | "
                 "trace-merge <fleet-dir> [out]\n", self, self);
    return 2;
}

/** Parse a decimal in [0, max] into @p field; false on anything else. */
template <typename T>
bool
number(const char *text, uint64_t max, T &field)
{
    char *end = nullptr;
    errno = 0;
    uint64_t n = std::strtoull(text, &end, 10);
    if (!std::isdigit((unsigned char)text[0]) || *end || errno || n > max)
        return false;
    field = T(n);
    return true;
}

int
traceMerge(const std::string &fleet_dir, const std::string &out)
{
    corpus::StoreError error;
    std::optional<fleet::TraceMergeResult> merged =
        fleet::mergeTraces(fleet_dir, out, &error);
    if (merged)
        std::printf("merged %llu trace file(s), %llu span(s) -> %s\n",
                    (unsigned long long)merged->files,
                    (unsigned long long)merged->events, out.c_str());
    else
        std::fprintf(stderr, "error: %s (%s)\n", error.message.c_str(),
                     corpus::storeStatusName(error.status));
    return merged ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string mode = argc >= 3 ? argv[1] : "";
    if (mode == "fleet-worker" && argc == 4)
        return fleet::runFleetWorker(argv[2], argv[3]);
    if (mode == "trace-merge" && argc <= 4)
        return traceMerge(argv[2], argc == 4 ? argv[3]
                                             : fleet::mergedTracePath(argv[2]));
    session::Session session{demoPlan(), {}, {argv[0], "fleet-worker"}};
    session::SessionOptions &o = session.options;
    if (mode == "run")
        o.mode = session::Mode::Run;
    else if (mode == "resume")
        o.mode = session::Mode::Resume;
    else if (mode != "full")
        return usage(argv[0]);
    o.dir = argv[2];
    bool halt_given = false;
    for (int i = 3; i < argc; ++i) {
        std::string arg = argv[i];
        // Every flag but the two switches takes the next argument.
        bool takes_value = arg.rfind("--", 0) == 0 &&
                           arg != "--latency-report" && arg != "--serve-wait";
        if (takes_value && ++i == argc)
            return usage(argv[0]);
        const char *value = argv[i];
        bool ok = true;
        if (arg == "--events")
            o.eventsPath = value;
        else if (arg == "--metrics")
            o.metricsPath = value;
        else if (arg == "--report")
            o.reportDir = value;
        else if (arg == "--trace")
            o.tracePath = value;
        else if (arg == "--latency-report")
            o.latencyReport = true;
        else if (arg == "--serve-wait")
            o.serveWait = true;
        else if (arg == "--sample")
            ok = number(value, UINT64_MAX, o.sampleMs);
        else if (arg == "--serve")
            ok = o.serve = number(value, UINT16_MAX, o.servePort);
        else if (arg == "--equiv")
            ok = number(value, UINT_MAX, o.equivVariants);
        else if (arg == "--fleet")
            ok = number(value, UINT_MAX, o.fleetWorkers);
        else if (o.mode == session::Mode::Run && !halt_given)
            ok = halt_given = number(arg.c_str(), UINT64_MAX, o.haltChunks);
        else
            ok = false;
        if (!ok)
            return usage(argv[0]);
    }
    bool bad_fleet = o.mode != session::Mode::Full || !o.eventsPath.empty();
    return o.fleetWorkers > 0 && bad_fleet ? usage(argv[0]) : session.run();
}
