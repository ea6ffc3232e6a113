/**
 * @file
 * Live campaign operations server (DESIGN.md §14): composes the
 * existing telemetry subsystems behind HTTP endpoints served *while a
 * campaign runs*, turning the PR-5 post-mortem artifacts into a live
 * surface:
 *
 *     GET /metrics        Prometheus text (MetricsRegistry::expose())
 *     GET /healthz        process liveness (always 200 once serving)
 *     GET /readyz         503 while the liveness pipeline reads the
 *                         campaign as stalled or degraded
 *     GET /progress       JSON committed progress + rates
 *     GET /report         live campaign report, Markdown
 *     GET /report.html    the same report, rendered HTML
 *     GET /dossiers       JSON index of checkpointed findings
 *     GET /dossier/<fp>   one finding's dossier (?format=md|json)
 *     GET /events?since=N cursor-paged tail of the structured log
 *     GET /fleet          fleet workers + leases (coordinator mode)
 *     GET /timeseries     JSON liveness samples (?since=N cursor)
 *     GET /dashboard      self-contained HTML live dashboard
 *     GET /quitquitquit   request shutdown (only when enabled)
 *
 * Consistency model: the registry is the one source of live progress.
 * /progress is computed on each request from the same registry view
 * /metrics exposes (in fleet mode: this server's registry folded with
 * every worker's latest dump) plus the pinned CampaignPlan. Its
 * committed counts are the campaign.progress gauges, which
 * runCheckpointed sets at each checkpoint commit and a fleet
 * coordinator at each lease scan, so /progress and /metrics agree by
 * construction. /report and /dossier read the store through exactly
 * the code paths writeCampaignReport uses, and the report generator
 * filters records to checkpoint-completed chunks — served bytes equal
 * the on-disk render of the same store.
 *
 * Wall-clock data is the deliberate exception: /progress's stage time,
 * rate and latency read the live registry (chunks committed since the
 * last checkpoint included), and /timeseries (with the /dashboard
 * that reads it) serves liveness samples that are best-effort and
 * never checkpointed (DESIGN.md §17) — they answer "what is happening
 * right now", not replay determinism.
 */
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>

#include "corpus/checkpoint.hpp"
#include "corpus/store.hpp"
#include "report/event_log.hpp"
#include "report/liveness.hpp"
#include "serve/http.hpp"

namespace dce::serve {

/** HTTP handler threads of an OpsServer. */
inline constexpr unsigned kOpsHandlerThreads = 4;
/** Default page size of /events, and the cap on its ?limit=. */
inline constexpr uint64_t kEventsPageSize = 256;

/**
 * Aggregated multi-process view for a fleet coordinator's ops server
 * (DESIGN.md §15). The coordinator implements this; wiring it into
 * OpsServerOptions::fleet makes /metrics and /progress fold every
 * worker's latest registry dump into their view, and enables
 * GET /fleet. Implementations must be thread-safe — handler threads
 * call them concurrently with the coordinator's supervision loop.
 */
class FleetOpsSource {
  public:
    virtual ~FleetOpsSource() = default;

    /** Fold every worker's latest metrics dump into @p into. */
    virtual void
    mergeWorkerMetrics(support::MetricsRegistry &into) const = 0;

    /** JSON body for GET /fleet: workers + leases + totals. */
    virtual std::string fleetJson() const = 0;
};

struct OpsServerOptions {
    /** Loopback TCP port; 0 = ephemeral (read back via port()). */
    uint16_t port = 0;
    /** Registry behind /metrics and the serve.* counters; null = the
     * process global. */
    support::MetricsRegistry *metrics = nullptr;
    /** Event log behind /events and dossier trajectories; null
     * disables /events (404). */
    const report::EventLog *events = nullptr;
    /** The pinned plan behind /progress's totals and plan hash; null
     * disables /progress (404). The committed counts come from the
     * campaign.progress gauges in `metrics`. */
    const corpus::CampaignPlan *plan = nullptr;
    /** Enable GET /quitquitquit (sets the shutdown-requested flag the
     * owner polls/waits on). Off by default: remote shutdown is a
     * deliberate opt-in for drills and --serve-wait runs. */
    bool allowRemoteShutdown = false;
    /** Fleet aggregation source (a coordinator); null = the
     * single-process endpoints only. When set, /metrics and /progress
     * merge every worker's dump on top of this server's own registry,
     * and /fleet serves the per-worker/per-lease detail. */
    const FleetOpsSource *fleet = nullptr;
    /** Liveness pipeline behind /readyz (503 while stalled, then
     * while degraded), /progress's `active` (while it samples) and
     * /timeseries + the /dashboard sparklines (its ring); null =
     * always ready, never active, and /timeseries disabled (404). The
     * owner runs it. */
    const report::Liveness *liveness = nullptr;
};

class OpsServer {
  public:
    explicit OpsServer(OpsServerOptions options);
    ~OpsServer(); ///< stops the HTTP server if running

    OpsServer(const OpsServer &) = delete;
    OpsServer &operator=(const OpsServer &) = delete;

    bool start(std::string *error = nullptr);
    void stop();
    uint16_t port() const { return http_.port(); }

    /**
     * Serve @p store behind /report, /report.html, /equiv, /dossiers
     * and /dossier; until a store is attached (or after null is) those
     * endpoints answer 404. Valid before or after start(), so a fleet
     * can attach its merged store once the merge has opened it. The
     * store is shared with the running campaign — its own mutex makes
     * the reads safe — and must outlive the server or be detached.
     */
    void attachStore(corpus::CorpusStore *store);

    /** True once /quitquitquit has been hit (sticky). */
    bool shutdownRequested() const;
    /** Block until shutdownRequested(); @p timeout_ms 0 = forever.
     * Returns shutdownRequested(). */
    bool waitForShutdownRequest(uint64_t timeout_ms = 0);

    /** The routing core, exposed so tests can drive endpoints without
     * a socket. Thread-safe (it is the HttpServer handler). */
    HttpResponse handle(const HttpRequest &request);

  private:
    /** The registry view behind /metrics and /progress: the options'
     * registry (or the global), with every worker's dump folded into
     * @p scratch in fleet mode. */
    const support::MetricsRegistry &
    view(support::MetricsRegistry &scratch) const;
    HttpResponse metricsEndpoint() const;
    HttpResponse readyzEndpoint() const;
    HttpResponse progressEndpoint() const;
    HttpResponse reportEndpoint(bool html) const;
    HttpResponse equivEndpoint() const;
    HttpResponse dossierIndexEndpoint() const;
    HttpResponse dossierEndpoint(const HttpRequest &request) const;
    HttpResponse eventsEndpoint(const HttpRequest &request) const;
    HttpResponse fleetEndpoint() const;
    HttpResponse timeseriesEndpoint(const HttpRequest &request) const;
    HttpResponse quitEndpoint();

    OpsServerOptions options_;
    /** Steady-clock µs at construction: the ETA's wall-clock origin. */
    uint64_t startUs_ = 0;
    std::atomic<corpus::CorpusStore *> store_{nullptr};
    HttpServer http_;

    mutable std::mutex shutdownMutex_;
    std::condition_variable shutdownCv_;
    bool shutdownRequested_ = false;
};

} // namespace dce::serve
