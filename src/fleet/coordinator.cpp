#include "fleet/coordinator.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <filesystem>
#include <poll.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "fleet/metrics_io.hpp"
#include "fleet/trace_merge.hpp"
#include "fleet/worker.hpp"
#include "support/json.hpp"
#include "support/trace.hpp"

namespace dce::fleet {

using corpus::setError;

namespace {

/** Crash-respawn budget across the fleet's lifetime. */
constexpr unsigned kMaxRespawns = 8;
/** Supervision loop poll cadence (SIGCHLD wakes it early). */
constexpr int kSupervisePollMs = 50;

// SIGCHLD self-pipe: the handler only writes one byte, the
// supervision loop polls the read end, so child exits cut the poll
// timeout short without any async-signal-unsafe work in the handler.
// Deliberately installed without SA_RESTART — a process-directed
// SIGCHLD may land on an ops-server handler thread mid-recv, which is
// exactly the EINTR surface serve::readRequestHead retries.
int g_sigchld_pipe = -1;

void
sigchldHandler(int)
{
    int saved = errno;
    if (g_sigchld_pipe >= 0) {
        char byte = 'c';
        [[maybe_unused]] ssize_t rc =
            ::write(g_sigchld_pipe, &byte, 1);
    }
    errno = saved;
}

} // namespace

FleetCoordinator::FleetCoordinator(std::string fleet_dir,
                                   corpus::CampaignPlan plan,
                                   FleetOptions options)
    : fleetDir_(std::move(fleet_dir)), plan_(std::move(plan)),
      options_(std::move(options))
{
    planJson_ = corpus::serializePlan(plan_);
}

FleetCoordinator::~FleetCoordinator() = default;

void
FleetCoordinator::log(const std::string &line) const
{
    if (options_.logLine)
        options_.logLine(line);
}

bool
FleetCoordinator::initFleetDir(corpus::StoreError *error)
{
    std::error_code ec;
    std::filesystem::create_directories(fleetDir_, ec);
    if (ec) {
        setError(error, corpus::StoreStatus::IoError,
                 "mkdir " + fleetDir_ + ": " + ec.message());
        return false;
    }

    FleetConfig config;
    config.plan = plan_;
    config.workerCheckpointEveryChunks =
        options_.workerCheckpointEveryChunks;
    config.trace = options_.trace;
    if (options_.leaseChunks) {
        config.leaseChunks = options_.leaseChunks;
    } else {
        // ~4 leases per worker: coarse enough to amortize claim I/O,
        // fine enough that a straggler leaves work for idle workers.
        uint64_t workers = options_.workers ? options_.workers : 1;
        config.leaseChunks =
            std::max<uint64_t>(1, config.plan.numChunks() / (workers * 4));
    }

    corpus::StoreError read_error;
    std::optional<FleetConfig> existing =
        readFleetConfig(fleetDir_, &read_error);
    if (existing) {
        if (corpus::serializePlan(existing->plan) != planJson_) {
            setError(error, corpus::StoreStatus::PlanMismatch,
                     "fleet directory pins a different plan");
            return false;
        }
        // Shard geometry is immutable per fleet: a resume must see
        // the exact lease boundaries the leases were recorded under.
        config_ = *existing;
    } else if (read_error.status == corpus::StoreStatus::NotFound) {
        if (!writeFleetConfig(fleetDir_, config, error))
            return false;
        config_ = config;
    } else {
        setError(error, read_error.status, read_error.message);
        return false;
    }
    // A resumed fleet's PLAN.json wins over the in-memory options, so
    // every process (including exec-mode workers reading only the
    // file) agrees on whether this fleet traces.
    if (config_.trace) {
        std::filesystem::create_directories(tracesDir(fleetDir_), ec);
        support::Tracer &tracer = support::Tracer::global();
        tracer.setEnabled(true);
        tracer.setProcess(uint64_t(::getpid()), "fleet-coordinator");
    }
    return LeaseTable::init(fleetDir_, config_.plan.numChunks(),
                            config_.leaseChunks, error);
}

bool
FleetCoordinator::spawnWorker(uint64_t crash_after_chunks,
                              corpus::StoreError *error)
{
    std::string store_name;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        store_name = "worker." + std::to_string(nextWorkerSeq_++);
    }
    pid_t pid = ::fork();
    if (pid < 0) {
        setError(error, corpus::StoreStatus::IoError,
                 std::string("fork: ") + std::strerror(errno));
        return false;
    }
    if (pid == 0) {
        // Child: drop the coordinator's SIGCHLD state, then either
        // exec the worker binary or run the loop right here (safe:
        // ThreadPool(1) is inline, no inherited threads are used).
        ::signal(SIGCHLD, SIG_DFL);
        if (!options_.workerExecArgv.empty()) {
            std::vector<std::string> args = options_.workerExecArgv;
            args.push_back(fleetDir_);
            args.push_back(store_name);
            std::vector<char *> argv;
            argv.reserve(args.size() + 1);
            for (std::string &arg : args)
                argv.push_back(arg.data());
            argv.push_back(nullptr);
            ::execv(argv[0], argv.data());
            std::fprintf(stderr, "fleet: execv %s: %s\n",
                         argv[0], std::strerror(errno));
            ::_exit(127);
        }
        FleetWorkerOptions worker_options;
        worker_options.crashAfterChunks = crash_after_chunks;
        ::_exit(runFleetWorker(fleetDir_, store_name,
                               worker_options));
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        WorkerProc worker;
        worker.pid = pid;
        worker.store = store_name;
        worker.alive = true;
        workers_.push_back(std::move(worker));
        ++spawned_;
    }
    if (options_.metrics)
        options_.metrics->counter("fleet.workers_spawned").add(1);
    log("fleet: spawned " + store_name + " pid " +
        std::to_string(pid));
    return true;
}

std::optional<FleetResult>
FleetCoordinator::run(corpus::StoreError *error)
{
    if (!initFleetDir(error))
        return std::nullopt;

    int pipe_fds[2] = {-1, -1};
    if (::pipe(pipe_fds) != 0) {
        setError(error, corpus::StoreStatus::IoError,
                 std::string("pipe: ") + std::strerror(errno));
        return std::nullopt;
    }
    ::fcntl(pipe_fds[0], F_SETFL, O_NONBLOCK);
    ::fcntl(pipe_fds[1], F_SETFL, O_NONBLOCK);
    ::fcntl(pipe_fds[0], F_SETFD, FD_CLOEXEC);
    ::fcntl(pipe_fds[1], F_SETFD, FD_CLOEXEC);
    g_sigchld_pipe = pipe_fds[1];
    struct sigaction action = {};
    action.sa_handler = sigchldHandler;
    ::sigemptyset(&action.sa_mask);
    action.sa_flags = SA_NOCLDSTOP; // no SA_RESTART, see above
    struct sigaction previous = {};
    ::sigaction(SIGCHLD, &action, &previous);
    // Whatever the exit path, put the signal state back.
    auto cleanup = [&] {
        ::sigaction(SIGCHLD, &previous, nullptr);
        g_sigchld_pipe = -1;
        ::close(pipe_fds[0]);
        ::close(pipe_fds[1]);
    };

    LeaseTable table(fleetDir_);
    unsigned respawns_left = kMaxRespawns;
    unsigned to_spawn = options_.workers ? options_.workers : 1;
    for (unsigned i = 0; i < to_spawn; ++i) {
        uint64_t crash_after =
            i == 0 ? options_.crashFirstWorkerAfterChunks : 0;
        if (!spawnWorker(crash_after, error)) {
            cleanup();
            return std::nullopt;
        }
    }

    bool all_done = false;
    {
    support::TraceSpan supervise_span("supervise", "fleet");
    for (;;) {
        struct pollfd pfd = {};
        pfd.fd = pipe_fds[0];
        pfd.events = POLLIN;
        int rc = ::poll(&pfd, 1, kSupervisePollMs);
        if (rc > 0 && (pfd.revents & POLLIN)) {
            char drain[64];
            while (::read(pipe_fds[0], drain, sizeof drain) > 0)
                ;
        }

        // Reap exactly the pids we own — never a blanket wait(-1),
        // which would race any other child the host process has.
        struct Death {
            pid_t pid;
            std::string store;
            bool crashed;
        };
        std::vector<Death> deaths;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (WorkerProc &worker : workers_) {
                if (!worker.alive)
                    continue;
                int status = 0;
                pid_t got =
                    ::waitpid(worker.pid, &status, WNOHANG);
                if (got != worker.pid)
                    continue;
                worker.alive = false;
                bool clean = WIFEXITED(status) &&
                             WEXITSTATUS(status) == 0;
                worker.crashed = !clean;
                if (!clean)
                    ++crashed_;
                deaths.push_back(
                    {worker.pid, worker.store, !clean});
            }
        }
        for (const Death &death : deaths) {
            if (!death.crashed)
                continue;
            if (options_.metrics)
                options_.metrics->counter("fleet.workers_crashed")
                    .add(1);
            std::optional<size_t> returned =
                table.reclaimOwnedBy(death.pid, error);
            if (!returned) {
                cleanup();
                return std::nullopt;
            }
            {
                std::lock_guard<std::mutex> lock(mutex_);
                reclaimed_ += *returned;
            }
            if (options_.metrics && *returned)
                options_.metrics->counter("fleet.leases_reclaimed")
                    .add(*returned);
            log("fleet: " + death.store + " pid " +
                std::to_string(death.pid) + " died; reclaimed " +
                std::to_string(*returned) + " lease(s)");
        }

        std::optional<std::vector<Lease>> leases =
            table.list(error);
        if (!leases) {
            cleanup();
            return std::nullopt;
        }
        all_done = true;
        for (const Lease &lease : *leases)
            all_done &= lease.state == LeaseState::Done;
        recordScan(*leases);

        // Respawn after the lease scan so a crash with everything
        // already done doesn't spawn a worker with nothing to do.
        for (const Death &death : deaths) {
            if (!death.crashed || all_done)
                continue;
            if (respawns_left == 0)
                continue;
            --respawns_left;
            if (!spawnWorker(0, error)) {
                cleanup();
                return std::nullopt;
            }
        }

        bool any_alive = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            for (const WorkerProc &worker : workers_)
                any_alive |= worker.alive;
        }
        if (all_done && !any_alive)
            break;
        if (!any_alive && !all_done) {
            uint64_t open = 0;
            for (const Lease &lease : *leases)
                open += lease.state != LeaseState::Done;
            cleanup();
            setError(error, corpus::StoreStatus::IoError,
                     "fleet stalled: no workers left (respawn "
                     "budget spent) with " +
                         std::to_string(open) +
                         " lease(s) incomplete");
            return std::nullopt;
        }
    }
    } // supervise span
    cleanup();

    std::optional<corpus::CheckpointedCampaign> merged;
    {
        support::TraceSpan merge_span("merge", "fleet");
        merged = mergeFleet(fleetDir_, error);
    }
    if (!merged)
        return std::nullopt;

    FleetResult result;
    result.merged = std::move(*merged);
    result.mergedStoreDir = mergedStoreDir(fleetDir_);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        result.leases = lastLeases_.size();
        result.workersSpawned = spawned_;
        result.workersCrashed = crashed_;
        result.leasesReclaimed = reclaimed_;
    }
    if (config_.trace) {
        // Spans above are closed by now; the coordinator's own file
        // joins the workers' under traces/ before the fold.
        corpus::writeFileAtomic(coordinatorTracePath(fleetDir_),
                                support::Tracer::global().toJson());
        corpus::StoreError trace_error;
        std::optional<TraceMergeResult> traces = mergeTraces(
            fleetDir_, mergedTracePath(fleetDir_), &trace_error);
        if (traces) {
            result.mergedTracePath = mergedTracePath(fleetDir_);
            result.traceFiles = traces->files;
            log("fleet: merged " + std::to_string(traces->files) +
                " trace file(s) -> " + result.mergedTracePath);
        } else {
            // Lost timeline, not a lost campaign.
            log("fleet: trace merge failed: " + trace_error.message);
        }
    }
    return result;
}

void
FleetCoordinator::recordScan(const std::vector<Lease> &leases)
{
    if (options_.metrics) {
        // The gauges runCheckpointed sets at a checkpoint, for the
        // whole fleet: done leases are its committed work.
        const uint64_t chunk_size = std::max(1u, plan_.chunkSize);
        const uint64_t num_chunks = config_.plan.numChunks();
        std::vector<char> done(num_chunks, 0);
        uint64_t completed = 0, watermark = 0, seeds = 0, findings = 0;
        for (const Lease &lease : leases) {
            if (lease.state != LeaseState::Done)
                continue;
            findings += lease.findings.size();
            for (uint64_t chunk = lease.beginChunk;
                 chunk < lease.endChunk && chunk < num_chunks; ++chunk) {
                done[chunk] = 1;
                ++completed;
                seeds += std::min<uint64_t>(
                    chunk_size, plan_.count - chunk * chunk_size);
            }
        }
        while (watermark < num_chunks && done[watermark])
            ++watermark;
        support::MetricsRegistry &registry = *options_.metrics;
        corpus::bumpCounterTo(registry, "campaign.progress",
                              "completed_chunks", completed);
        corpus::bumpCounterTo(registry, "campaign.progress", "watermark",
                              watermark);
        corpus::bumpCounterTo(registry, "campaign.progress",
                              "seeds_committed", seeds);
        corpus::bumpCounterTo(registry, "campaign.progress", "findings",
                              findings);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    lastLeases_ = leases;
}

void
FleetCoordinator::mergeWorkerMetrics(
    support::MetricsRegistry &into) const
{
    std::vector<std::string> stores;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stores.reserve(workers_.size());
        for (const WorkerProc &worker : workers_)
            stores.push_back(worker.store);
    }
    for (const std::string &store : stores) {
        // A dead worker's last dump still counts: it names exactly
        // the leases that worker completed.
        std::optional<std::string> text =
            corpus::readWholeFile(workerMetricsPath(fleetDir_, store));
        if (text)
            absorbRegistryDump(*text, into);
    }
}

std::string
FleetCoordinator::fleetJson() const
{
    support::JsonWriter writer;
    std::lock_guard<std::mutex> lock(mutex_);
    writer.beginObject();
    writer.field("workers_spawned", spawned_);
    writer.field("workers_crashed", crashed_);
    writer.field("leases_reclaimed", reclaimed_);
    writer.key("workers");
    writer.beginArray();
    for (const WorkerProc &worker : workers_) {
        writer.beginObject();
        writer.field("store", worker.store);
        writer.field("pid", int64_t(worker.pid));
        writer.field("alive", worker.alive);
        writer.field("crashed", worker.crashed);
        writer.endObject();
    }
    writer.endArray();
    uint64_t done = 0;
    for (const Lease &lease : lastLeases_)
        done += lease.state == LeaseState::Done;
    writer.field("leases_total", uint64_t(lastLeases_.size()));
    writer.field("leases_done", done);
    writer.key("leases");
    writer.beginArray();
    for (const Lease &lease : lastLeases_) {
        writer.beginObject();
        writer.field("lease", lease.index);
        writer.field("begin", lease.beginChunk);
        writer.field("end", lease.endChunk);
        writer.field("state", leaseStateName(lease.state));
        writer.field("epoch", lease.epoch);
        writer.field("pid", lease.ownerPid);
        writer.field("store", lease.store);
        writer.field("findings", uint64_t(lease.findings.size()));
        writer.endObject();
    }
    writer.endArray();
    writer.endObject();
    return writer.take();
}

} // namespace dce::fleet
