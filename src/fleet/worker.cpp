#include "fleet/worker.hpp"

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <signal.h>
#include <sys/stat.h>
#include <unistd.h>

#include "corpus/checkpoint.hpp"
#include "corpus/store.hpp"
#include "fleet/fleet.hpp"
#include "fleet/lease.hpp"
#include "fleet/metrics_io.hpp"
#include "support/trace.hpp"

namespace dce::fleet {

namespace {

/** Idle poll cadence while other workers still hold leases. */
constexpr useconds_t kIdlePollUs = 20 * 1000;
/** Threads per lease run. A forked worker must not start threads
 * (see coordinator.hpp); the fleet scales by processes instead. */
constexpr unsigned kWorkerThreads = 1;

int
fail(const corpus::StoreError &error, const char *what)
{
    std::fprintf(stderr, "fleet-worker: %s: %s\n", what,
                 error.message.c_str());
    return 1;
}

/** Publish the worker's cumulative registry state atomically. */
void
publishMetrics(const std::string &fleet_dir,
               const std::string &store_name,
               const std::map<std::string, uint64_t> &counters,
               const std::map<
                   std::string,
                   support::MetricsRegistry::HistogramSnapshot> &hists)
{
    CounterList counter_list(counters.begin(), counters.end());
    HistogramList hist_list(hists.begin(), hists.end());
    // Best-effort: a failed dump costs one scrape, never the run.
    corpus::writeFileAtomic(workerMetricsPath(fleet_dir, store_name),
                            encodeRegistryDump(counter_list, hist_list));
}

} // namespace

int
runFleetWorker(const std::string &fleet_dir,
               const std::string &store_name,
               const FleetWorkerOptions &options)
{
    corpus::StoreError error;
    std::optional<FleetConfig> config =
        readFleetConfig(fleet_dir, &error);
    if (!config)
        return fail(error, "read PLAN.json");
    const corpus::CampaignPlan &plan = config->plan;

    if (::mkdir(workerDir(fleet_dir, store_name).c_str(), 0755) != 0 &&
        errno != EEXIST) {
        std::fprintf(stderr, "fleet-worker: mkdir %s failed\n",
                     workerDir(fleet_dir, store_name).c_str());
        return 1;
    }
    if (config->trace) {
        support::Tracer &tracer = support::Tracer::global();
        tracer.setEnabled(true);
        // Fork-mode workers inherit whatever spans the coordinator had
        // buffered; drop them so this file holds only this process.
        tracer.clear();
        tracer.setProcess(uint64_t(::getpid()),
                          "fleet-worker " + store_name);
        ::mkdir(tracesDir(fleet_dir).c_str(), 0755);
    }
    // The store's corpus.* instruments live here; campaign.* metrics
    // go to per-lease registries so lease deltas are exact.
    support::MetricsRegistry store_registry;
    corpus::OpenOptions open_options;
    open_options.metrics = &store_registry;
    std::unique_ptr<corpus::CorpusStore> store =
        corpus::CorpusStore::open(
            workerStoreDir(fleet_dir, store_name), &error,
            open_options);
    if (!store)
        return fail(error, "open worker store");

    LeaseTable table(fleet_dir);
    // Cumulative published state: campaign.* counter deltas from
    // leases this worker *owns* (stolen completions are excluded so
    // the cross-worker sum equals the single-process totals), plus
    // every histogram observation it actually made.
    std::map<std::string, uint64_t> cum_counters;
    std::map<std::string, support::MetricsRegistry::HistogramSnapshot>
        cum_hists;
    uint64_t crash_after = options.crashAfterChunks;

    for (;;) {
        std::optional<Lease> lease =
            table.claim(::getpid(), store_name, &error);
        if (!lease && !error.ok())
            return fail(error, "claim lease");
        if (!lease) {
            std::optional<std::vector<Lease>> leases =
                table.list(&error);
            if (!leases)
                return fail(error, "list leases");
            bool all_done = true;
            for (const Lease &entry : *leases)
                all_done &= entry.state == LeaseState::Done;
            if (all_done)
                break;
            ::usleep(kIdlePollUs);
            continue;
        }

        // C0: the campaign.* totals already committed to this store's
        // checkpoint before the lease runs. The lease's contribution
        // is C1 - C0 per key, immune to whatever this store ran
        // earlier.
        std::map<std::string, uint64_t> before;
        if (store->hasCheckpoint()) {
            std::optional<corpus::CheckpointState> state =
                corpus::readCheckpointState(*store, &error);
            if (!state)
                return fail(error, "read worker checkpoint");
            for (const auto &[key, value] : state->counters)
                before[key] = value;
        }

        support::MetricsRegistry lease_registry;
        corpus::CheckpointRunOptions run;
        run.threads = kWorkerThreads;
        run.checkpointEveryChunks =
            config->workerCheckpointEveryChunks;
        run.metrics = &lease_registry;
        uint64_t begin = lease->beginChunk, end = lease->endChunk;
        run.chunkFilter = [begin, end](uint64_t chunk) {
            return chunk >= begin && chunk < end;
        };
        if (crash_after)
            run.haltAfterChunks = crash_after;
        std::optional<corpus::CheckpointedCampaign> result;
        {
            support::TraceSpan span("lease", "fleet");
            span.setArg("lease", lease->index);
            result = corpus::runCheckpointed(*store, plan, run, &error);
        }
        if (!result)
            return fail(error, "run lease");
        if (crash_after) {
            // Crash drill: some chunks committed, lease never
            // completed — exactly what SIGKILL mid-lease leaves.
            ::raise(SIGKILL);
        }

        Lease done = *lease;
        done.counters.clear();
        done.findings.clear();
        for (const auto &[key, value] : lease_registry.counters()) {
            if (key.rfind("campaign.", 0) != 0)
                continue;
            // campaign.progress gauges are positional, not additive;
            // the merge sets their finals directly.
            if (key.rfind("campaign.progress", 0) == 0)
                continue;
            auto it = before.find(key);
            uint64_t base = it == before.end() ? 0 : it->second;
            // Keep zero deltas: every lease then carries the same key
            // set, and the merged registry's keys match a
            // single-process run's.
            done.counters.emplace_back(key, value - base);
        }
        std::optional<corpus::CheckpointState> after =
            corpus::readCheckpointState(*store, &error);
        if (!after)
            return fail(error, "read post-lease checkpoint");
        for (const corpus::StoredFinding &stored : after->findings) {
            if (stored.chunk < begin || stored.chunk >= end)
                continue;
            done.findings.push_back({stored.chunk, stored.slot,
                                     stored.finding.seed,
                                     stored.finding.marker});
        }

        bool stolen = false;
        if (!table.complete(done, &stolen, &error))
            return fail(error, "complete lease");
        if (!stolen) {
            for (const auto &[key, value] : done.counters)
                cum_counters[key] += value;
        }
        for (const auto &[key, snapshot] :
             lease_registry.histograms()) {
            support::MetricsRegistry::HistogramSnapshot &slot =
                cum_hists[key];
            slot.count += snapshot.count;
            slot.sum += snapshot.sum;
            for (size_t i = 0; i < slot.buckets.size(); ++i)
                slot.buckets[i] += snapshot.buckets[i];
        }
        // Fold the store's corpus.* instruments in fresh each dump
        // (they are cumulative already).
        std::map<std::string, uint64_t> dump_counters = cum_counters;
        for (const auto &[key, value] : store_registry.counters())
            dump_counters[key] = value;
        std::map<std::string,
                 support::MetricsRegistry::HistogramSnapshot>
            dump_hists = cum_hists;
        for (const auto &[key, snapshot] :
             store_registry.histograms())
            dump_hists[key] = snapshot;
        publishMetrics(fleet_dir, store_name, dump_counters,
                       dump_hists);
    }
    if (config->trace) {
        // Best-effort like the metrics dump: a lost trace costs the
        // timeline, never the run's exit status.
        corpus::writeFileAtomic(workerTracePath(fleet_dir, store_name),
                                support::Tracer::global().toJson());
    }
    return 0;
}

} // namespace dce::fleet
