#include "report/event_log.hpp"

#include <algorithm>

#include "corpus/store.hpp"

namespace dce::report {

EventLog::EventLog(support::MetricsRegistry *metrics)
{
    support::MetricsRegistry &registry =
        metrics ? *metrics : support::MetricsRegistry::global();
    emitted_ = &registry.counter("report.events");
}

void
EventLog::emit(support::Event event)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        events_.push_back(std::move(event));
    }
    emitted_->add();
}

size_t
EventLog::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

void
EventLog::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
}

std::vector<support::Event>
EventLog::sorted() const
{
    std::vector<support::Event> snapshot;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        snapshot = events_;
    }
    // Stable: same-key events come from a single emitter (one worker
    // owns a chunk, one worker owns a finding), so their relative
    // buffer order is deterministic even though unrelated events from
    // other workers interleave between them.
    std::stable_sort(snapshot.begin(), snapshot.end(),
                     [](const support::Event &a,
                        const support::Event &b) {
                         return a.key() < b.key();
                     });
    return snapshot;
}

std::vector<support::Event>
EventLog::tail(size_t since, size_t max, size_t *total) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (total)
        *total = events_.size();
    std::vector<support::Event> page;
    if (since >= events_.size() || max == 0)
        return page;
    size_t end = std::min(events_.size(), since + max);
    page.assign(events_.begin() + ptrdiff_t(since),
                events_.begin() + ptrdiff_t(end));
    return page;
}

std::string
EventLog::toJsonl() const
{
    std::vector<support::Event> events = sorted();
    std::string out;
    out.reserve(events.size() * 96);
    for (const support::Event &event : events) {
        event.appendJson(out);
        out += '\n';
    }
    return out;
}

bool
EventLog::write(const std::string &path) const
{
    return corpus::writeFileAtomic(path, toJsonl());
}

} // namespace dce::report
