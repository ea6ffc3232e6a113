/**
 * @file
 * The structured event log (DESIGN.md §12): the canonical
 * support::EventSink. Workers append events from any thread; the log
 * buffers them and serializes in deterministic EventKey order, so a
 * serial and an 8-thread run of the same plan produce byte-identical
 * JSONL — the property the report/dossier layer (and CI) builds on.
 *
 * Buffering model: events accumulate in memory for the campaign's
 * lifetime (a full longrun campaign is a few thousand events — the
 * log is per-chunk/per-finding, never per-candidate), and write()
 * rewrites the whole file through corpus::writeFileAtomic. Rewriting
 * instead of appending is what makes mid-run flushes crash-safe *and*
 * the final file schedule-independent: whenever the last flush
 * happened, the file on disk is a deterministically ordered prefix of
 * the run's events, and the final flush is the full sorted log.
 */
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "support/events.hpp"
#include "support/metrics.hpp"

namespace dce::report {

class EventLog : public support::EventSink {
  public:
    /** @param metrics registry for the `report.events` counter;
     * null = the process global. */
    explicit EventLog(support::MetricsRegistry *metrics = nullptr);

    /** Append one event. Thread-safe; never blocks on I/O. */
    void emit(support::Event event) override;

    size_t size() const;
    void clear();

    /** The buffered events in deterministic order: stable-sorted by
     * EventKey, so same-key events keep their (single-emitter)
     * emission order. */
    std::vector<support::Event> sorted() const;

    /** One JSON object per line, in sorted() order. */
    std::string toJsonl() const;

    /**
     * Cursor-paged tail in *emission* order: up to @p max events
     * starting at emission index @p since, with the current total in
     * @p total. Emission order is append-only, so `since = last total`
     * is a stable cursor while the campaign runs — unlike sorted()
     * order, which reshuffles as out-of-order keys arrive. Backs the
     * ops server's /events endpoint.
     */
    std::vector<support::Event> tail(size_t since, size_t max,
                                     size_t *total = nullptr) const;

    /**
     * Write toJsonl() to @p path durably through
     * corpus::writeFileAtomic (temp file, fsync, rename: the file is
     * never observable half-written). Safe to call repeatedly —
     * each call rewrites the full deterministic log. False on I/O
     * failure.
     */
    bool write(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::vector<support::Event> events_;
    support::Counter *emitted_ = nullptr;
};

} // namespace dce::report
