/**
 * @file
 * Scoped-span structured tracing — the `-ftime-trace` analog.
 *
 * A Tracer buffers complete ("ph":"X") spans and serializes them as
 * Chrome trace_event JSON, loadable in chrome://tracing or Perfetto
 * (https://ui.perfetto.dev). Spans are created with the RAII TraceSpan
 * guard; each records its wall-clock duration and the worker thread it
 * ran on, so a parallel campaign renders as one lane per worker.
 *
 * Cost model:
 *  - Disabled (the default): TraceSpan's constructor does one relaxed
 *    atomic load, stores nullptr, and returns — no clock read, no
 *    allocation, no lock. Verified by a zero-allocation test.
 *  - Enabled: two steady_clock reads per span plus one short
 *    mutex-guarded append at scope exit.
 *
 * The process-wide instance is Tracer::global(); campaign code traces
 * through it so spans from every layer land in one timeline.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace dce::support {

class Tracer {
public:
    /** One complete span ("ph":"X") in trace_event terms. */
    struct Event {
        std::string name;
        std::string category;
        uint64_t startUs = 0; ///< µs since the tracer's epoch
        uint64_t durationUs = 0;
        uint32_t tid = 0;
        /// Optional numeric argument (seed, pass index, ...);
        /// kNoArg when absent.
        uint64_t arg = kNoArg;
        std::string argName;

        static constexpr uint64_t kNoArg = ~uint64_t{0};
    };

    /** Process-wide tracer used by the default TraceSpan constructor. */
    static Tracer &global();

    /** Enable or disable recording. Safe to call from any thread. */
    void setEnabled(bool enabled)
    {
        enabled_.store(enabled, std::memory_order_relaxed);
    }

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Set the process identity stamped on every serialized event and
     * on the process_name metadata record. Defaults to pid 1 /
     * "dce-campaign" so single-process traces are unchanged; fleet
     * workers set their real pid + worker name so merged traces get
     * one labeled track per process (DESIGN.md §17).
     */
    void setProcess(uint64_t pid, std::string name);

    uint64_t processId() const;
    std::string processName() const;

    /** Append a finished span. Thread-safe. */
    void record(Event event);

    /** Current µs-since-epoch timestamp for span bookkeeping. */
    uint64_t nowUs() const;

    /** Snapshot of the buffered events. Thread-safe. */
    std::vector<Event> events() const;

    /** Drop all buffered events. Thread-safe. */
    void clear();

    /**
     * Serialize buffered events as a Chrome trace JSON object:
     * `{"traceEvents":[...]}`. Thread-safe.
     */
    std::string toJson() const;

    /** Stable small id for the calling thread (one timeline lane). */
    static uint32_t currentThreadId();

private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::vector<Event> events_;
    uint64_t pid_ = 1;
    std::string processName_ = "dce-campaign";
};

/**
 * RAII span guard. When the tracer is disabled at construction the
 * guard holds only the two string_views and a null tracer pointer —
 * no clock read, no allocation. Name and category must outlive the
 * span; string literals are the intended usage.
 */
class TraceSpan {
public:
    explicit TraceSpan(std::string_view name,
                       std::string_view category = "task",
                       Tracer &tracer = Tracer::global())
    {
        if (tracer.enabled()) {
            tracer_ = &tracer;
            name_ = name;
            category_ = category;
            startUs_ = tracer.nowUs();
        }
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

    /** Attach a numeric argument shown in the trace viewer. */
    void setArg(std::string_view name, uint64_t value)
    {
        argName_ = name;
        arg_ = value;
    }

    bool active() const { return tracer_ != nullptr; }

    ~TraceSpan()
    {
        if (!tracer_)
            return;
        Tracer::Event event;
        event.name.assign(name_.data(), name_.size());
        event.category.assign(category_.data(), category_.size());
        event.startUs = startUs_;
        uint64_t end = tracer_->nowUs();
        event.durationUs = end > startUs_ ? end - startUs_ : 0;
        event.tid = Tracer::currentThreadId();
        event.arg = arg_;
        if (arg_ != Tracer::Event::kNoArg)
            event.argName.assign(argName_.data(), argName_.size());
        tracer_->record(std::move(event));
    }

private:
    Tracer *tracer_ = nullptr;
    std::string_view name_;
    std::string_view category_;
    std::string_view argName_;
    uint64_t startUs_ = 0;
    uint64_t arg_ = Tracer::Event::kNoArg;
};

} // namespace dce::support
