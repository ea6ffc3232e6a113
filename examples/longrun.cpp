/**
 * @file
 * Long-running campaign workflow: a checkpointed campaign over a
 * persistent corpus store that survives being killed at any point,
 * with the full telemetry stack attached — structured event log, one
 * report::Liveness sampler (the /timeseries ring, the --metrics JSONL
 * and the stalled/degraded health behind /readyz, DESIGN.md §12), and
 * a campaign report rendered from the store afterwards.
 *
 *   longrun full <store-dir>            uninterrupted run + summary
 *   longrun run <store-dir> [chunks]    run, optionally stopping after
 *                                       N chunk commits (crash drill)
 *   longrun resume <store-dir>          continue from the checkpoint
 *   longrun full <fleet-dir> --fleet N  shard the same plan across N
 *                                       worker processes; the merged
 *                                       summary/report byte-match the
 *                                       single-process run
 *   longrun fleet-worker <fleet-dir> <store-name>
 *                                       (internal) one fleet worker —
 *                                       what the coordinator execs
 *   longrun trace-merge <fleet-dir> [out]
 *                                       re-merge a traced fleet's
 *                                       traces/ into one Perfetto file
 *                                       (defaults to the coordinator's
 *                                       own output path, so the two
 *                                       merges are diffably identical)
 *
 * Optional flags (any mode):
 *   --events <file>    write the deterministic event log (JSONL)
 *   --metrics <file>   append a metrics snapshot (JSONL) per sample
 *   --report <dir>     render report.md/report.html + dossiers
 *   --trace <file>     record Chrome-trace spans; single-process runs
 *                      write <file> directly, a --fleet run traces
 *                      every process and copies the merged timeline to
 *                      <file>
 *   --sample <ms>      the liveness sampler's one cadence (default
 *                      500); feeds /timeseries, the /dashboard
 *                      sparklines, --metrics, and the stall/throughput
 *                      health behind /readyz — and, under --fleet,
 *                      each worker's metrics.jsonl cadence
 *   --latency-report   add the wall-clock "Pipeline latency" section
 *                      (stage p50/p90/p99) to the --report output;
 *                      off by default because that section is NOT
 *                      byte-reproducible across runs
 *   --equiv <K>        after a completed campaign, run the metamorphic
 *                      analysis (K variants per corpus program), triage
 *                      its findings through the store's verdict cache,
 *                      persist equiv.json, and append the deterministic
 *                      metamorphic summary block to the output
 *   --serve <port>     serve live ops endpoints (loopback; 0 picks an
 *                      ephemeral port, printed on startup)
 *   --serve-wait       after the run (and report), keep serving until
 *                      GET /quitquitquit — lets drills curl a settled
 *                      server instead of racing the campaign's exit
 *
 * `run` and `resume` print the same deterministic summary once the
 * campaign completes, so `diff <(longrun full a) <(... kill/resume b)`
 * is the crash-safety check — CI runs exactly that, with a real
 * SIGKILL between `run` and `resume`, and additionally diffs the
 * `--report` output of both stores (the report derives from the store
 * alone, so kill/resume must not change a byte of it).
 */
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "corpus/checkpoint.hpp"
#include "corpus/store.hpp"
#include "equiv/engine.hpp"
#include "fleet/coordinator.hpp"
#include "fleet/trace_merge.hpp"
#include "fleet/worker.hpp"
#include "report/event_log.hpp"
#include "report/liveness.hpp"
#include "report/report.hpp"
#include "serve/ops_server.hpp"
#include "support/trace.hpp"

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
    plan.builds = {
        {compiler::CompilerId::Alpha, compiler::OptLevel::O3,
         SIZE_MAX},
        {compiler::CompilerId::Beta, compiler::OptLevel::O3,
         SIZE_MAX},
    };
    plan.computePrimary = true;
    plan.collectRemarks = true;
    plan.missedByBuild = 0;
    plan.referenceBuild = 1;
    return plan;
}

int
fail(const corpus::StoreError &error)
{
    std::fprintf(stderr, "error: %s (%s)\n", error.message.c_str(),
                 corpus::storeStatusName(error.status));
    return 1;
}

int
printSummary(const corpus::CheckpointedCampaign &result)
{
    if (!result.completed) {
        std::printf("halted after %llu chunks (checkpointed)\n",
                    (unsigned long long)result.chunksRun);
        return 0;
    }
    std::fputs(corpus::summaryText(result).c_str(), stdout);
    return 0;
}

struct Flags {
    std::string eventsPath;
    std::string metricsPath;
    std::string reportDir;
    std::string tracePath;
    uint64_t sampleMs = 500;
    bool latencyReport = false;
    bool serve = false;
    uint16_t servePort = 0;
    bool serveWait = false;
    unsigned fleetWorkers = 0;
    unsigned equivVariants = 0;
};

/** Coordinator mode: shard demoPlan() across worker processes (each
 * an exec of this binary in fleet-worker mode), serve the aggregated
 * ops endpoints while they run, then report from the merged store. */
int
runFleetMode(const char *self, const std::string &fleet_dir,
             const Flags &flags)
{
    corpus::StoreError error;
    support::MetricsRegistry registry;
    fleet::FleetOptions fleet_options;
    fleet_options.workers = flags.fleetWorkers;
    fleet_options.workerExecArgv = {self, "fleet-worker"};
    fleet_options.metrics = &registry;
    fleet_options.trace = !flags.tracePath.empty();
    fleet_options.snapshotIntervalMs = flags.sampleMs;
    fleet_options.logLine = [](const std::string &line) {
        std::fprintf(stderr, "%s\n", line.c_str());
    };
    fleet::FleetCoordinator coordinator(fleet_dir, demoPlan(),
                                        fleet_options);

    // The coordinator's own registry has only fleet.* counters; each
    // sample folds in the workers' latest dumps plus the
    // lease-committed findings total, so the series — and the stall and
    // throughput health behind /readyz — is fleet-wide.
    report::Liveness liveness(
        {.intervalMs = flags.sampleMs,
         .registry = &registry,
         .augment =
             [&coordinator](support::MetricsRegistry &scratch) {
                 coordinator.mergeWorkerMetrics(scratch);
                 scratch.counter("campaign.progress", "findings")
                     .add(coordinator.progress().findings);
             }});
    liveness.start();

    serve::OpsServerOptions serve_options;
    serve_options.port = flags.servePort;
    serve_options.metrics = &registry;
    serve_options.fleet = &coordinator;
    serve_options.allowRemoteShutdown = flags.serveWait;
    serve_options.liveness = &liveness;
    serve::OpsServer ops(serve_options);
    if (flags.serve) {
        std::string serve_error;
        if (!ops.start(&serve_error)) {
            std::fprintf(stderr, "error: serve: %s\n",
                         serve_error.c_str());
            return 1;
        }
        std::fprintf(stderr, "serving ops on 127.0.0.1:%u\n",
                     unsigned(ops.port()));
    }

    std::optional<fleet::FleetResult> result =
        coordinator.run(&error);
    liveness.stop();
    if (!result)
        return fail(error);

    if (!flags.tracePath.empty() &&
        !result->mergedTracePath.empty() &&
        result->mergedTracePath != flags.tracePath) {
        std::optional<std::string> trace_bytes =
            fleet::readFile(result->mergedTracePath, &error);
        if (!trace_bytes ||
            !fleet::writeFileAtomic(flags.tracePath, *trace_bytes,
                                    &error))
            return fail(error);
    }

    support::MetricsRegistry latency_registry;
    if (!flags.reportDir.empty()) {
        corpus::OpenOptions open_options;
        open_options.createIfMissing = false;
        open_options.metrics = &registry;
        auto merged = corpus::CorpusStore::open(
            result->mergedStoreDir, &error, open_options);
        if (!merged)
            return fail(error);
        report::CampaignReportOptions report_options;
        report_options.html = true;
        if (flags.latencyReport) {
            coordinator.mergeWorkerMetrics(latency_registry);
            report_options.latencyMetrics = &latency_registry;
        }
        if (!report::writeCampaignReport(*merged, flags.reportDir,
                                         report_options, &error))
            return fail(error);
    }

    int status = printSummary(result->merged);
    if (flags.serve && flags.serveWait) {
        std::fflush(stdout);
        ops.waitForShutdownRequest();
    }
    return status;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: %s full|run|resume <store-dir> "
                     "[halt-chunks] [--events <file>] "
                     "[--metrics <file>] [--report <dir>] "
                     "[--trace <file>] [--sample <ms>] "
                     "[--latency-report] [--equiv <K>] "
                     "[--serve <port>] [--serve-wait]\n",
                     argv[0]);
        return 2;
    }
    std::string mode = argv[1];
    std::string dir = argv[2];
    if (mode == "fleet-worker") {
        if (argc != 4) {
            std::fprintf(stderr,
                         "usage: %s fleet-worker <fleet-dir> "
                         "<store-name>\n",
                         argv[0]);
            return 2;
        }
        return fleet::runFleetWorker(dir, argv[3]);
    }
    if (mode == "trace-merge") {
        std::string out = argc >= 4 ? argv[3]
                                    : fleet::mergedTracePath(dir);
        corpus::StoreError error;
        std::optional<fleet::TraceMergeResult> merged =
            fleet::mergeTraces(dir, out, &error);
        if (!merged)
            return fail(error);
        std::printf("merged %llu trace file(s), %llu span(s) -> %s\n",
                    (unsigned long long)merged->files,
                    (unsigned long long)merged->events, out.c_str());
        return 0;
    }
    Flags flags;
    uint64_t halt_chunks = 0;
    for (int i = 3; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--events")
            flags.eventsPath = value();
        else if (arg == "--metrics")
            flags.metricsPath = value();
        else if (arg == "--report")
            flags.reportDir = value();
        else if (arg == "--trace")
            flags.tracePath = value();
        else if (arg == "--sample")
            flags.sampleMs = std::strtoull(value(), nullptr, 10);
        else if (arg == "--latency-report")
            flags.latencyReport = true;
        else if (arg == "--serve") {
            flags.serve = true;
            flags.servePort =
                uint16_t(std::strtoul(value(), nullptr, 10));
        } else if (arg == "--serve-wait")
            flags.serveWait = true;
        else if (arg == "--equiv")
            flags.equivVariants =
                unsigned(std::strtoul(value(), nullptr, 10));
        else if (arg == "--fleet")
            flags.fleetWorkers =
                unsigned(std::strtoul(value(), nullptr, 10));
        else
            halt_chunks = std::strtoull(arg.c_str(), nullptr, 10);
    }

    if (mode != "full" && mode != "run" && mode != "resume") {
        std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
        return 2;
    }
    if (flags.fleetWorkers > 0) {
        if (mode != "full") {
            std::fprintf(stderr, "--fleet requires mode 'full'\n");
            return 2;
        }
        return runFleetMode(argv[0], dir, flags);
    }

    corpus::StoreError error;
    support::MetricsRegistry registry;
    report::EventLog log(&registry);
    report::Liveness liveness({.intervalMs = flags.sampleMs,
                               .registry = &registry,
                               .jsonlPath = flags.metricsPath,
                               .events = &log});
    liveness.start();

    // Tracing keeps the default process identity (pid 1,
    // "dce-campaign"), so single-process trace output is unchanged
    // by the fleet-identity machinery.
    if (!flags.tracePath.empty())
        support::Tracer::global().setEnabled(true);

    // One store handle for the whole process: the campaign writes
    // through it and — when serving — /report and /dossier read
    // through it concurrently (the store is mutex-guarded).
    corpus::OpenOptions open_options;
    open_options.createIfMissing = mode != "resume";
    open_options.metrics = &registry;
    auto store = corpus::CorpusStore::open(dir, &error, open_options);
    if (!store)
        return fail(error);

    corpus::CampaignPlan plan;
    if (mode == "resume") {
        // The plan comes from the checkpoint, exactly as
        // resumeCampaign would derive it.
        std::optional<corpus::CheckpointState> state =
            corpus::readCheckpointState(*store, &error);
        if (!state)
            return fail(error);
        plan = state->plan;
    } else {
        plan = demoPlan();
    }

    corpus::CampaignStatusBoard board;
    corpus::CheckpointRunOptions options;
    options.checkpointEveryChunks = 2;
    options.metrics = &registry;
    options.events = &log;
    options.status = &board;
    if (mode == "run")
        options.haltAfterChunks = halt_chunks;

    serve::OpsServerOptions serve_options;
    serve_options.port = flags.servePort;
    serve_options.metrics = &registry;
    serve_options.store = store.get();
    serve_options.events = &log;
    serve_options.liveness = &liveness;
    serve_options.status = &board;
    serve_options.allowRemoteShutdown = flags.serveWait;
    serve::OpsServer ops(serve_options);
    if (flags.serve) {
        std::string serve_error;
        if (!ops.start(&serve_error)) {
            std::fprintf(stderr, "error: serve: %s\n",
                         serve_error.c_str());
            return 1;
        }
        std::fprintf(stderr, "serving ops on 127.0.0.1:%u\n",
                     unsigned(ops.port()));
    }

    std::optional<corpus::CheckpointedCampaign> result =
        corpus::runCheckpointed(*store, plan, options, &error);
    liveness.stop();
    if (!flags.tracePath.empty() &&
        !support::Tracer::global().writeJson(flags.tracePath)) {
        std::fprintf(stderr, "error: writing trace %s failed\n",
                     flags.tracePath.c_str());
        return 1;
    }
    if (!result)
        return fail(error);

    // Metamorphic analysis runs as post-campaign store analysis (like
    // the report): pure in (store contents, options), so full and
    // kill/resume runs produce byte-identical equiv.json, summary
    // block, and report section.
    std::optional<equiv::EquivSummary> equiv_summary;
    if (flags.equivVariants > 0 && result->completed) {
        equiv::EquivOptions equiv_options;
        equiv_options.variantsPerProgram = flags.equivVariants;
        equiv_options.metrics = &registry;
        equiv_options.events = &log;
        equiv_summary = equiv::runEquivAnalysis(*store, equiv_options);
        if (equiv_summary) {
            corpus::StoreVerdictCache cache(*store);
            core::TriageOptions triage_options;
            triage_options.metrics = &registry;
            triage_options.verdictCache = &cache;
            equiv::triageEquivFindings(*equiv_summary, triage_options);
            if (!store->writeEquivState(
                    equiv::serializeEquivSummary(*equiv_summary),
                    &error))
                return fail(error);
        }
    }

    if (!flags.eventsPath.empty() && !log.write(flags.eventsPath)) {
        std::fprintf(stderr, "error: writing event log %s failed\n",
                     flags.eventsPath.c_str());
        return 1;
    }
    if (!flags.reportDir.empty()) {
        // The report derives from the durable store alone (no event
        // log), so kill/resume runs render byte-identical reports —
        // and the same render the server's /report endpoint returns.
        report::CampaignReportOptions report_options;
        report_options.html = true;
        if (flags.latencyReport)
            report_options.latencyMetrics = &registry;
        if (!report::writeCampaignReport(*store, flags.reportDir,
                                         report_options, &error))
            return fail(error);
    }

    int status = printSummary(*result);
    if (equiv_summary)
        std::fputs(equiv::equivSummaryText(*equiv_summary).c_str(),
                   stdout);
    if (flags.serve && flags.serveWait) {
        // Summary and artifacts are on disk; hold the endpoints open
        // for drills until an operator asks us to go.
        std::fflush(stdout);
        ops.waitForShutdownRequest();
    }
    return status;
}
