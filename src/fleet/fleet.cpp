#include "fleet/fleet.hpp"

#include <ctime>

#include "support/json.hpp"

namespace dce::fleet {

using corpus::setError;

uint64_t
FleetConfig::numLeases() const
{
    uint64_t granule = leaseChunks ? leaseChunks : 1;
    return (plan.numChunks() + granule - 1) / granule;
}

std::string
planPath(const std::string &fleet_dir)
{
    return fleet_dir + "/PLAN.json";
}

std::string
leasesDir(const std::string &fleet_dir)
{
    return fleet_dir + "/leases";
}

std::string
leasePath(const std::string &fleet_dir, uint64_t index)
{
    return leasesDir(fleet_dir) + "/lease." + std::to_string(index) +
           ".json";
}

std::string
leaseLockPath(const std::string &fleet_dir)
{
    return leasesDir(fleet_dir) + "/LOCK";
}

std::string
workerDir(const std::string &fleet_dir, const std::string &store_name)
{
    return fleet_dir + "/" + store_name;
}

std::string
workerStoreDir(const std::string &fleet_dir,
               const std::string &store_name)
{
    return workerDir(fleet_dir, store_name) + "/store";
}

std::string
workerMetricsPath(const std::string &fleet_dir,
                  const std::string &store_name)
{
    return workerDir(fleet_dir, store_name) + "/metrics.json";
}

std::string
mergedStoreDir(const std::string &fleet_dir)
{
    return fleet_dir + "/merged";
}

std::string
tracesDir(const std::string &fleet_dir)
{
    return fleet_dir + "/traces";
}

std::string
workerTracePath(const std::string &fleet_dir,
                const std::string &store_name)
{
    return tracesDir(fleet_dir) + "/" + store_name + ".trace.json";
}

std::string
coordinatorTracePath(const std::string &fleet_dir)
{
    return tracesDir(fleet_dir) + "/coordinator.trace.json";
}

std::string
mergedTracePath(const std::string &fleet_dir)
{
    return fleet_dir + "/trace.merged.json";
}

uint64_t
monotonicMs()
{
    struct timespec ts = {};
    ::clock_gettime(CLOCK_MONOTONIC, &ts);
    return uint64_t(ts.tv_sec) * 1000 +
           uint64_t(ts.tv_nsec) / 1000000;
}

bool
writeFleetConfig(const std::string &fleet_dir,
                 const FleetConfig &config, corpus::StoreError *error)
{
    support::JsonWriter writer;
    writer.beginObject();
    writer.field("version", uint64_t(1));
    writer.key("plan");
    writer.raw(corpus::serializePlan(config.plan));
    writer.field("lease_chunks", config.leaseChunks);
    writer.field("worker_checkpoint_every_chunks",
                 uint64_t(config.workerCheckpointEveryChunks));
    writer.field("trace", config.trace);
    writer.endObject();
    return corpus::writeFileAtomic(
        planPath(fleet_dir), support::sealJsonLine(writer.take()) + "\n",
        error);
}

std::optional<FleetConfig>
readFleetConfig(const std::string &fleet_dir,
                corpus::StoreError *error)
{
    std::optional<std::string> text =
        corpus::readWholeFile(planPath(fleet_dir), error);
    if (!text)
        return std::nullopt;
    while (!text->empty() && text->back() == '\n')
        text->pop_back();
    std::optional<support::JsonValue> value =
        support::unsealJsonLine(*text);
    if (!value) {
        setError(error, corpus::StoreStatus::Corrupt,
                 "PLAN.json failed its checksum");
        return std::nullopt;
    }
    const support::JsonValue *plan_value = value->get("plan");
    std::optional<corpus::CampaignPlan> plan =
        plan_value ? corpus::readPlan(*plan_value) : std::nullopt;
    if (!plan) {
        setError(error, corpus::StoreStatus::Corrupt,
                 "PLAN.json has no valid plan");
        return std::nullopt;
    }
    FleetConfig config;
    config.plan = *plan;
    // Older PLAN.json files also carry lease_ttl_ms, steal_after_ms
    // and worker_threads, now constants, and snapshot_interval_ms, the
    // cadence of a retired per-worker sampler; those keys are ignored.
    config.leaseChunks = value->getU64("lease_chunks", 1);
    config.workerCheckpointEveryChunks = unsigned(
        value->getU64("worker_checkpoint_every_chunks", 4));
    // Observability knobs arrived after v1 fleets existed; defaults
    // keep old PLAN.json files readable.
    config.trace = value->getBool("trace", false);
    return config;
}

} // namespace dce::fleet
