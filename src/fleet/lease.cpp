#include "fleet/lease.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "fleet/fleet.hpp"
#include "support/json.hpp"

namespace dce::fleet {

using corpus::setError;

namespace {

/**
 * Liveness by kill(pid, 0). A zombie still "exists" here — which is
 * why the coordinator's reap (waitpid + reclaimOwnedBy) is the
 * primary crash-recovery path and the TTL only the backstop.
 */
bool
pidAlive(int64_t pid)
{
    if (pid <= 0)
        return false;
    return ::kill(pid_t(pid), 0) == 0 || errno == EPERM;
}

/** RAII flock on leases/LOCK — the table-wide critical section. */
class TableLock {
  public:
    TableLock(const std::string &fleet_dir, corpus::StoreError *error)
    {
        std::string path = leaseLockPath(fleet_dir);
        fd_ = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
        if (fd_ < 0) {
            setError(error, corpus::StoreStatus::IoError,
                     "open " + path + ": " + std::strerror(errno));
            return;
        }
        int rc;
        do {
            rc = ::flock(fd_, LOCK_EX);
        } while (rc != 0 && errno == EINTR);
        if (rc != 0) {
            setError(error, corpus::StoreStatus::IoError,
                     "flock " + path + ": " + std::strerror(errno));
            ::close(fd_);
            fd_ = -1;
        }
    }

    ~TableLock()
    {
        if (fd_ >= 0)
            ::close(fd_); // releases the flock
    }

    bool held() const { return fd_ >= 0; }

  private:
    int fd_ = -1;
};

std::string
encodeLease(const Lease &lease)
{
    support::JsonWriter writer;
    writer.beginObject();
    writer.field("lease", lease.index);
    writer.field("begin", lease.beginChunk);
    writer.field("end", lease.endChunk);
    writer.field("epoch", lease.epoch);
    writer.field("state", leaseStateName(lease.state));
    writer.field("pid", lease.ownerPid);
    writer.field("store", lease.store);
    writer.field("claim_ms", lease.claimMs);
    writer.key("counters");
    writer.beginArray();
    for (const auto &[key, value] : lease.counters) {
        writer.beginObject();
        writer.field("k", key);
        writer.field("v", value);
        writer.endObject();
    }
    writer.endArray();
    writer.key("findings");
    writer.beginArray();
    for (const LeaseFinding &finding : lease.findings) {
        writer.beginObject();
        writer.field("chunk", finding.chunk);
        writer.field("slot", finding.slot);
        writer.field("seed", finding.seed);
        writer.field("marker", uint64_t(finding.marker));
        writer.endObject();
    }
    writer.endArray();
    writer.endObject();
    return support::sealJsonLine(writer.take()) + "\n";
}

std::optional<Lease>
decodeLease(std::string_view text, corpus::StoreError *error,
            const std::string &path)
{
    while (!text.empty() && text.back() == '\n')
        text.remove_suffix(1);
    std::optional<support::JsonValue> value =
        support::unsealJsonLine(text);
    if (!value) {
        setError(error, corpus::StoreStatus::Corrupt,
                 path + " failed its checksum");
        return std::nullopt;
    }
    Lease lease;
    lease.index = value->getU64("lease");
    lease.beginChunk = value->getU64("begin");
    lease.endChunk = value->getU64("end");
    lease.epoch = value->getU64("epoch");
    std::string state = value->getString("state");
    if (state == "available")
        lease.state = LeaseState::Available;
    else if (state == "claimed")
        lease.state = LeaseState::Claimed;
    else if (state == "done")
        lease.state = LeaseState::Done;
    else {
        setError(error, corpus::StoreStatus::Corrupt,
                 path + " has unknown state '" + state + "'");
        return std::nullopt;
    }
    if (const support::JsonValue *pid = value->get("pid"))
        lease.ownerPid = pid->asI64();
    lease.store = value->getString("store");
    lease.claimMs = value->getU64("claim_ms");
    // Older done leases also carry stage_us (the stage time of their
    // chunks); the key is ignored.
    if (const support::JsonValue *counters = value->get("counters")) {
        for (const support::JsonValue &entry : counters->items)
            lease.counters.emplace_back(entry.getString("k"),
                                        entry.getU64("v"));
    }
    if (const support::JsonValue *findings = value->get("findings")) {
        for (const support::JsonValue &entry : findings->items) {
            LeaseFinding finding;
            finding.chunk = entry.getU64("chunk");
            finding.slot = entry.getU64("slot");
            finding.seed = entry.getU64("seed");
            finding.marker = unsigned(entry.getU64("marker"));
            lease.findings.push_back(finding);
        }
    }
    return lease;
}

std::optional<Lease>
readLease(const std::string &fleet_dir, uint64_t index,
          corpus::StoreError *error)
{
    std::string path = leasePath(fleet_dir, index);
    std::optional<std::string> text = corpus::readWholeFile(path, error);
    if (!text)
        return std::nullopt;
    return decodeLease(*text, error, path);
}

bool
writeLease(const std::string &fleet_dir, const Lease &lease,
           corpus::StoreError *error)
{
    return corpus::writeFileAtomic(leasePath(fleet_dir, lease.index),
                                   encodeLease(lease), error);
}

std::optional<uint64_t>
countLeases(const std::string &fleet_dir, corpus::StoreError *error)
{
    // Lease indices are dense from 0, so the count is the first gap.
    for (uint64_t index = 0;; ++index) {
        if (::access(leasePath(fleet_dir, index).c_str(), F_OK) != 0) {
            if (errno == ENOENT)
                return index;
            setError(error, corpus::StoreStatus::IoError,
                     "access " + leasePath(fleet_dir, index) + ": " +
                         std::strerror(errno));
            return std::nullopt;
        }
    }
}

} // namespace

const char *
leaseStateName(LeaseState state)
{
    switch (state) {
    case LeaseState::Available:
        return "available";
    case LeaseState::Claimed:
        return "claimed";
    case LeaseState::Done:
        return "done";
    }
    return "?";
}

bool
LeaseTable::init(const std::string &fleet_dir, uint64_t num_chunks,
                 uint64_t lease_chunks, corpus::StoreError *error)
{
    if (::mkdir(leasesDir(fleet_dir).c_str(), 0755) != 0 &&
        errno != EEXIST) {
        setError(error, corpus::StoreStatus::IoError,
                 "mkdir " + leasesDir(fleet_dir) + ": " +
                     std::strerror(errno));
        return false;
    }
    TableLock lock(fleet_dir, error);
    if (!lock.held())
        return false;
    uint64_t granule = lease_chunks ? lease_chunks : 1;
    for (uint64_t index = 0, begin = 0; begin < num_chunks;
         ++index, begin += granule) {
        if (::access(leasePath(fleet_dir, index).c_str(), F_OK) == 0)
            continue; // resume: keep recorded state
        Lease lease;
        lease.index = index;
        lease.beginChunk = begin;
        lease.endChunk = std::min(begin + granule, num_chunks);
        if (!writeLease(fleet_dir, lease, error))
            return false;
    }
    return true;
}

std::optional<std::vector<Lease>>
LeaseTable::list(corpus::StoreError *error) const
{
    TableLock lock(fleetDir_, error);
    if (!lock.held())
        return std::nullopt;
    std::optional<uint64_t> count = countLeases(fleetDir_, error);
    if (!count)
        return std::nullopt;
    std::vector<Lease> out;
    out.reserve(*count);
    for (uint64_t index = 0; index < *count; ++index) {
        std::optional<Lease> lease =
            readLease(fleetDir_, index, error);
        if (!lease)
            return std::nullopt;
        out.push_back(std::move(*lease));
    }
    return out;
}

std::optional<Lease>
LeaseTable::claim(int64_t pid, const std::string &store,
                  corpus::StoreError *error)
{
    TableLock lock(fleetDir_, error);
    if (!lock.held())
        return std::nullopt;
    std::optional<uint64_t> count = countLeases(fleetDir_, error);
    if (!count)
        return std::nullopt;
    uint64_t now = monotonicMs();
    for (uint64_t index = 0; index < *count; ++index) {
        std::optional<Lease> lease =
            readLease(fleetDir_, index, error);
        if (!lease)
            return std::nullopt;
        bool runnable = false;
        if (lease->state == LeaseState::Available) {
            runnable = true;
        } else if (lease->state == LeaseState::Claimed) {
            uint64_t age =
                now > lease->claimMs ? now - lease->claimMs : 0;
            runnable = !pidAlive(lease->ownerPid) || age >= kLeaseTtlMs;
        }
        if (!runnable)
            continue;
        lease->state = LeaseState::Claimed;
        lease->epoch += 1; // fences any in-flight prior owner
        lease->ownerPid = pid;
        lease->store = store;
        lease->claimMs = now;
        lease->counters.clear();
        lease->findings.clear();
        if (!writeLease(fleetDir_, *lease, error))
            return std::nullopt;
        setError(error, corpus::StoreStatus::Ok, "");
        return lease;
    }
    // Nothing runnable is not a failure.
    setError(error, corpus::StoreStatus::Ok, "");
    return std::nullopt;
}

bool
LeaseTable::complete(const Lease &lease, bool *stolen,
                     corpus::StoreError *error)
{
    if (stolen)
        *stolen = false;
    TableLock lock(fleetDir_, error);
    if (!lock.held())
        return false;
    std::optional<Lease> current =
        readLease(fleetDir_, lease.index, error);
    if (!current)
        return false;
    if (current->epoch != lease.epoch ||
        current->state != LeaseState::Claimed) {
        // Claimed past us (stolen) or already done by the thief —
        // our payload would be byte-identical anyway; discard it.
        if (stolen)
            *stolen = true;
        setError(error, corpus::StoreStatus::Ok, "");
        return true;
    }
    Lease done = lease;
    done.state = LeaseState::Done;
    return writeLease(fleetDir_, done, error);
}

std::optional<size_t>
LeaseTable::reclaimOwnedBy(int64_t pid, corpus::StoreError *error)
{
    TableLock lock(fleetDir_, error);
    if (!lock.held())
        return std::nullopt;
    std::optional<uint64_t> count = countLeases(fleetDir_, error);
    if (!count)
        return std::nullopt;
    size_t reclaimed = 0;
    for (uint64_t index = 0; index < *count; ++index) {
        std::optional<Lease> lease =
            readLease(fleetDir_, index, error);
        if (!lease)
            return std::nullopt;
        if (lease->state != LeaseState::Claimed ||
            lease->ownerPid != pid)
            continue;
        lease->state = LeaseState::Available;
        lease->ownerPid = 0;
        lease->store.clear();
        lease->claimMs = 0;
        if (!writeLease(fleetDir_, *lease, error))
            return std::nullopt;
        ++reclaimed;
    }
    return reclaimed;
}

} // namespace dce::fleet
