#include "support/trace.hpp"

#include <chrono>

#include "support/json.hpp"

namespace dce::support {

namespace {

using Clock = std::chrono::steady_clock;

Clock::time_point
tracerEpoch()
{
    static const Clock::time_point epoch = Clock::now();
    return epoch;
}

/** JSON string escaping for the few fields we serialize — the shared
 * support implementation, so the tracer and the event log agree on
 * control-character and UTF-8 handling. */
void
appendEscaped(std::string &out, const std::string &text)
{
    appendJsonEscaped(out, text);
}

} // namespace

Tracer &
Tracer::global()
{
    static Tracer tracer;
    return tracer;
}

uint64_t
Tracer::nowUs() const
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            Clock::now() - tracerEpoch())
            .count());
}

uint32_t
Tracer::currentThreadId()
{
    static std::atomic<uint32_t> next{1};
    thread_local uint32_t id =
        next.fetch_add(1, std::memory_order_relaxed);
    return id;
}

void
Tracer::setProcess(uint64_t pid, std::string name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    pid_ = pid;
    processName_ = std::move(name);
}

uint64_t
Tracer::processId() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return pid_;
}

std::string
Tracer::processName() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return processName_;
}

void
Tracer::record(Event event)
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(std::move(event));
}

std::vector<Tracer::Event>
Tracer::events() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
}

std::string
Tracer::toJson() const
{
    std::vector<Event> snapshot = events();
    uint64_t pid;
    std::string process_name;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        pid = pid_;
        process_name = processName_;
    }
    std::string pid_str = std::to_string(pid);
    std::string out;
    out.reserve(64 + snapshot.size() * 96);
    out += "{\"traceEvents\":[";
    // A process_name metadata event so the viewer labels the lane
    // group; tools accept "M" events with ts omitted-or-zero.
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    out += pid_str;
    out += ",\"tid\":0,\"args\":{\"name\":\"";
    appendEscaped(out, process_name);
    out += "\"}}";
    for (const Event &event : snapshot) {
        out += ",{\"name\":\"";
        appendEscaped(out, event.name);
        out += "\",\"cat\":\"";
        appendEscaped(out, event.category);
        out += "\",\"ph\":\"X\",\"ts\":";
        out += std::to_string(event.startUs);
        out += ",\"dur\":";
        out += std::to_string(event.durationUs);
        out += ",\"pid\":";
        out += pid_str;
        out += ",\"tid\":";
        out += std::to_string(event.tid);
        if (event.arg != Event::kNoArg) {
            out += ",\"args\":{\"";
            appendEscaped(out, event.argName.empty() ? "value"
                                                     : event.argName);
            out += "\":";
            out += std::to_string(event.arg);
            out += "}";
        }
        out += "}";
    }
    out += "]}";
    return out;
}

} // namespace dce::support
