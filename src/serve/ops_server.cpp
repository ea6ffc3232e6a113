#include "serve/ops_server.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "report/dossier.hpp"
#include "report/report.hpp"
#include "serve/dashboard.hpp"
#include "support/hash.hpp"
#include "support/json.hpp"

namespace dce::serve {

namespace {

constexpr const char *kJsonContentType =
    "application/json; charset=utf-8";
constexpr const char *kMarkdownContentType =
    "text/markdown; charset=utf-8";
constexpr const char *kHtmlContentType = "text/html; charset=utf-8";

HttpResponse
jsonResponse(int status, std::string body)
{
    HttpResponse response;
    response.status = status;
    response.contentType = kJsonContentType;
    response.body = std::move(body);
    return response;
}

/** {"count":N,"p50":"..","p90":"..","p99":".."} for one histogram. */
void
appendPercentiles(support::JsonWriter &writer,
                  const support::MetricsRegistry::HistogramSnapshot
                      &snapshot)
{
    writer.beginObject();
    writer.field("count", snapshot.count);
    writer.field("p50",
                 support::jsonDecimal(support::Histogram::percentileFromBuckets(
                     snapshot.buckets, snapshot.count, 0.5)));
    writer.field("p90",
                 support::jsonDecimal(support::Histogram::percentileFromBuckets(
                     snapshot.buckets, snapshot.count, 0.9)));
    writer.field("p99",
                 support::jsonDecimal(support::Histogram::percentileFromBuckets(
                     snapshot.buckets, snapshot.count, 0.99)));
    writer.endObject();
}

/** The /progress "latency" block: per-stage campaign.stage_us
 * percentiles plus serve.request_us (DESIGN.md §17). */
void
appendLatency(support::JsonWriter &writer,
              const support::MetricsRegistry &registry)
{
    constexpr std::string_view prefix = "campaign.stage_us{";
    writer.key("latency");
    writer.beginObject();
    writer.key("stage_us");
    writer.beginObject();
    support::MetricsRegistry::HistogramSnapshot serve_snapshot;
    for (const auto &[key, snapshot] : registry.histograms()) {
        if (key.compare(0, prefix.size(), prefix) == 0 &&
            key.back() == '}') {
            writer.key(key.substr(prefix.size(),
                                  key.size() - prefix.size() - 1));
            appendPercentiles(writer, snapshot);
        } else if (key == "serve.request_us") {
            serve_snapshot = snapshot;
        }
    }
    writer.endObject();
    writer.key("serve_request_us");
    appendPercentiles(writer, serve_snapshot);
    writer.endObject();
}

uint64_t
steadyUs()
{
    return uint64_t(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

HttpResponse
storeFailure(const corpus::StoreError &error)
{
    // A store without a checkpoint is an expected pre-first-commit
    // state, not a server fault.
    if (error.status == corpus::StoreStatus::NoCheckpoint)
        return HttpResponse::text(404, "no checkpoint yet\n");
    return HttpResponse::text(500,
                              "store error: " + error.message + "\n");
}

} // namespace

OpsServer::OpsServer(OpsServerOptions options)
    : options_(options), startUs_(steadyUs()),
      http_(
          [this](const HttpRequest &request) {
              return handle(request);
          },
          [&options] {
              HttpServerOptions http;
              http.port = options.port;
              http.handlerThreads = kOpsHandlerThreads;
              http.metrics = options.metrics;
              return http;
          }())
{
}

OpsServer::~OpsServer()
{
    stop();
}

bool
OpsServer::start(std::string *error)
{
    return http_.start(error);
}

void
OpsServer::stop()
{
    http_.stop();
}

void
OpsServer::attachStore(corpus::CorpusStore *store)
{
    store_.store(store, std::memory_order_release);
}

bool
OpsServer::shutdownRequested() const
{
    std::lock_guard<std::mutex> lock(shutdownMutex_);
    return shutdownRequested_;
}

bool
OpsServer::waitForShutdownRequest(uint64_t timeout_ms)
{
    std::unique_lock<std::mutex> lock(shutdownMutex_);
    if (timeout_ms == 0) {
        shutdownCv_.wait(lock, [this] { return shutdownRequested_; });
    } else {
        shutdownCv_.wait_for(lock,
                             std::chrono::milliseconds(timeout_ms),
                             [this] { return shutdownRequested_; });
    }
    return shutdownRequested_;
}

HttpResponse
OpsServer::handle(const HttpRequest &request)
{
    const std::string &path = request.path;
    if (path == "/metrics")
        return metricsEndpoint();
    if (path == "/healthz")
        return HttpResponse::text(200, "ok\n");
    if (path == "/readyz")
        return readyzEndpoint();
    if (path == "/progress")
        return progressEndpoint();
    if (path == "/report")
        return reportEndpoint(false);
    if (path == "/report.html")
        return reportEndpoint(true);
    if (path == "/dossiers")
        return dossierIndexEndpoint();
    if (path.rfind("/dossier/", 0) == 0)
        return dossierEndpoint(request);
    if (path == "/events")
        return eventsEndpoint(request);
    if (path == "/equiv")
        return equivEndpoint();
    if (path == "/fleet")
        return fleetEndpoint();
    if (path == "/timeseries")
        return timeseriesEndpoint(request);
    if (path == "/dashboard") {
        HttpResponse response;
        response.contentType = kHtmlContentType;
        response.body = dashboardHtml();
        return response;
    }
    if (path == "/quitquitquit" && options_.allowRemoteShutdown)
        return quitEndpoint();
    return HttpResponse::text(404, "not found\n");
}

const support::MetricsRegistry &
OpsServer::view(support::MetricsRegistry &scratch) const
{
    const support::MetricsRegistry &registry =
        options_.metrics ? *options_.metrics
                         : support::MetricsRegistry::global();
    if (!options_.fleet)
        return registry;
    // Coordinator mode: one view covering the whole fleet — this
    // process's own instruments plus every worker's latest dump,
    // folded into a per-request scratch registry so a scrape never
    // mutates durable state.
    scratch.merge(registry);
    options_.fleet->mergeWorkerMetrics(scratch);
    return scratch;
}

HttpResponse
OpsServer::metricsEndpoint() const
{
    support::MetricsRegistry scratch;
    HttpResponse response;
    response.contentType = support::kPrometheusContentType;
    response.body = view(scratch).expose();
    return response;
}

HttpResponse
OpsServer::readyzEndpoint() const
{
    if (options_.liveness && options_.liveness->stalled())
        return HttpResponse::text(
            503, "stalled: watchdog fired, no recent progress\n");
    if (options_.liveness && options_.liveness->degraded())
        return HttpResponse::text(
            503, "degraded: throughput below baseline\n");
    return HttpResponse::text(200, "ready\n");
}

HttpResponse
OpsServer::progressEndpoint() const
{
    if (!options_.plan)
        return HttpResponse::text(404,
                                  "no campaign plan attached\n");
    const corpus::CampaignPlan &plan = *options_.plan;
    support::MetricsRegistry scratch;
    const support::MetricsRegistry &registry = view(scratch);
    auto gauge = [&registry](std::string_view label) {
        return registry.counterValue("campaign.progress", label);
    };
    const uint64_t chunks_total = plan.numChunks();
    const uint64_t completed_chunks = gauge("completed_chunks");
    const uint64_t seeds_committed = gauge("seeds_committed");
    uint64_t stage_us = 0;
    uint64_t checkpoints = 0;
    for (const auto &[key, snapshot] : registry.histograms()) {
        if (key.rfind("campaign.stage_us", 0) == 0)
            stage_us += snapshot.sum;
        else if (key == "corpus.checkpoint_us")
            checkpoints = snapshot.count;
    }

    // Pipeline rate from the stage time: how fast seeds clear
    // generate+oracle+compile+analyze, independent of thread count.
    // The ETA scales it by the worker count implied by wall-clock
    // elapsed (since this server started) vs pipeline time, so it
    // tracks actual progress rather than single-thread cost.
    double stage_seconds = double(stage_us) / 1e6;
    double rate = stage_seconds > 0.0
                      ? double(seeds_committed) / stage_seconds
                      : 0.0;
    uint64_t now_us = steadyUs();
    double wall_seconds =
        now_us > startUs_ ? double(now_us - startUs_) / 1e6 : 0.0;
    uint64_t remaining =
        plan.count > seeds_committed ? plan.count - seeds_committed : 0;
    double parallelism =
        wall_seconds > 0.0 && stage_seconds > 0.0
            ? stage_seconds / wall_seconds
            : 1.0;
    // "ETA unknown" and "ETA zero" are different answers: with no
    // pipeline time yet (rate 0) there is nothing to extrapolate from,
    // and reporting 0.0 would make a just-started campaign read as
    // finished; a halted run (held open after its stop) will not move
    // until a resume, whatever its past rate. Unknown serializes as
    // null; 0.0 is reserved for "nothing remaining".
    const bool active = options_.liveness && options_.liveness->sampling();
    bool eta_known = remaining == 0 || (active && rate > 0.0);
    double eta_seconds =
        rate > 0.0 && remaining
            ? double(remaining) /
                  (rate * (parallelism > 0.0 ? parallelism : 1.0))
            : 0.0;

    support::JsonWriter writer;
    writer.beginObject();
    writer.field("active", active);
    writer.field("complete", completed_chunks == chunks_total);
    writer.field("plan_hash",
                 support::fnv1a64Hex(corpus::serializePlan(plan)));
    writer.field("seeds_total", plan.count);
    writer.field("chunks_total", chunks_total);
    writer.field("completed_chunks", completed_chunks);
    writer.field("watermark", gauge("watermark"));
    writer.field("seeds_committed", seeds_committed);
    writer.field("findings", gauge("findings"));
    writer.field("checkpoints", checkpoints);
    writer.field("stage_us", stage_us);
    appendLatency(writer, registry);
    // Quoted decimals: the in-tree JSON reader (and the checkpoint
    // format it serves) is integer-only, and jq's `tonumber` covers
    // shell consumers.
    writer.field("seeds_per_pipeline_second", support::jsonDecimal(rate));
    if (eta_known) {
        writer.field("eta_seconds", support::jsonDecimal(eta_seconds));
    } else {
        writer.key("eta_seconds");
        writer.null();
    }
    writer.endObject();
    return jsonResponse(200, writer.take() + "\n");
}

HttpResponse
OpsServer::reportEndpoint(bool html) const
{
    corpus::CorpusStore *store = store_.load(std::memory_order_acquire);
    if (!store)
        return HttpResponse::text(404, "no store attached\n");
    corpus::StoreError error;
    std::optional<report::CampaignReportData> data =
        report::collectReportData(*store, &error);
    if (!data)
        return storeFailure(error);
    // Exactly the writeCampaignReport render paths, so the served
    // bytes equal the on-disk report.md / report.html for the same
    // store state.
    std::string markdown =
        report::renderCampaignReportMarkdown(*data);
    HttpResponse response;
    if (html) {
        response.contentType = kHtmlContentType;
        response.body =
            report::markdownToHtml(markdown, "Campaign report");
    } else {
        response.contentType = kMarkdownContentType;
        response.body = std::move(markdown);
    }
    return response;
}

HttpResponse
OpsServer::equivEndpoint() const
{
    corpus::CorpusStore *store = store_.load(std::memory_order_acquire);
    if (!store)
        return HttpResponse::text(404, "no store attached\n");
    // The stored line is already sealed JSON — serve it verbatim, so
    // the served bytes equal equiv.json on disk (same contract as
    // /report vs report.md).
    std::optional<std::string> line = store->readEquivState();
    if (!line)
        return HttpResponse::text(404, "no metamorphic analysis\n");
    return jsonResponse(200, *line + "\n");
}

HttpResponse
OpsServer::dossierIndexEndpoint() const
{
    corpus::CorpusStore *store = store_.load(std::memory_order_acquire);
    if (!store)
        return HttpResponse::text(404, "no store attached\n");
    corpus::StoreError error;
    std::optional<report::CampaignReportData> data =
        report::collectReportData(*store, &error);
    if (!data)
        return storeFailure(error);

    support::JsonWriter writer;
    writer.beginObject();
    writer.field("findings", uint64_t(data->state.findings.size()));
    writer.key("dossiers");
    writer.beginArray();
    for (size_t i = 0; i < data->state.findings.size(); ++i) {
        const corpus::StoredFinding &stored = data->state.findings[i];
        writer.beginObject();
        writer.field("index", uint64_t(i));
        writer.field("fingerprint", data->fingerprints[i]);
        writer.field("seed", stored.finding.seed);
        writer.field("marker", uint64_t(stored.finding.marker));
        writer.field("chunk", stored.chunk);
        writer.field("slot", stored.slot);
        writer.field("missed_by", stored.finding.missedBy.name());
        writer.field("reference", stored.finding.reference.name());
        writer.endObject();
    }
    writer.endArray();
    writer.endObject();
    return jsonResponse(200, writer.take() + "\n");
}

HttpResponse
OpsServer::dossierEndpoint(const HttpRequest &request) const
{
    corpus::CorpusStore *store = store_.load(std::memory_order_acquire);
    if (!store)
        return HttpResponse::text(404, "no store attached\n");
    std::string fingerprint =
        request.path.substr(std::string_view("/dossier/").size());
    if (fingerprint.empty())
        return HttpResponse::text(404, "missing fingerprint\n");

    std::string format =
        request.queryParam("format").value_or("json");
    if (format != "json" && format != "md")
        return HttpResponse::text(
            400, "bad request: format must be json or md\n");

    corpus::StoreError error;
    std::optional<report::Dossier> dossier = report::buildDossier(
        *store, options_.events, fingerprint, &error);
    if (!dossier) {
        if (error.status == corpus::StoreStatus::NotFound)
            return HttpResponse::text(
                404, "no finding with that fingerprint\n");
        return storeFailure(error);
    }
    HttpResponse response;
    if (format == "md") {
        response.contentType = kMarkdownContentType;
        response.body = report::dossierMarkdown(*dossier);
    } else {
        response.contentType = kJsonContentType;
        response.body = report::dossierJson(*dossier);
    }
    return response;
}

HttpResponse
OpsServer::eventsEndpoint(const HttpRequest &request) const
{
    if (!options_.events)
        return HttpResponse::text(404, "no event log attached\n");

    uint64_t since = 0;
    if (std::optional<std::string> raw = request.queryParam("since")) {
        char *end = nullptr;
        since = std::strtoull(raw->c_str(), &end, 10);
        if (!end || *end != '\0')
            return HttpResponse::text(
                400, "bad request: since must be an integer\n");
    }
    uint64_t limit = kEventsPageSize;
    if (std::optional<std::string> raw = request.queryParam("limit")) {
        char *end = nullptr;
        limit = std::strtoull(raw->c_str(), &end, 10);
        if (!end || *end != '\0' || limit == 0)
            return HttpResponse::text(
                400, "bad request: limit must be a positive integer\n");
        limit = std::min(limit, kEventsPageSize);
    }

    size_t total = 0;
    std::vector<support::Event> page =
        options_.events->tail(size_t(since), size_t(limit), &total);

    std::string body = "{\"total\":" + std::to_string(total) +
                       ",\"since\":" + std::to_string(since) +
                       ",\"next\":" +
                       std::to_string(since + page.size()) +
                       ",\"events\":[";
    for (size_t i = 0; i < page.size(); ++i) {
        if (i)
            body += ',';
        page[i].appendJson(body);
    }
    body += "]}\n";
    return jsonResponse(200, std::move(body));
}

HttpResponse
OpsServer::fleetEndpoint() const
{
    if (!options_.fleet)
        return HttpResponse::text(404, "no fleet attached\n");
    return jsonResponse(200, options_.fleet->fleetJson() + "\n");
}

HttpResponse
OpsServer::timeseriesEndpoint(const HttpRequest &request) const
{
    if (!options_.liveness)
        return HttpResponse::text(404, "no time series attached\n");
    uint64_t since = 0;
    if (std::optional<std::string> raw = request.queryParam("since")) {
        char *end = nullptr;
        since = std::strtoull(raw->c_str(), &end, 10);
        if (!end || *end != '\0')
            return HttpResponse::text(
                400, "bad request: since must be an integer\n");
    }
    return jsonResponse(
        200, support::timeSeriesJson(options_.liveness->series(), since) +
                 "\n");
}

HttpResponse
OpsServer::quitEndpoint()
{
    {
        std::lock_guard<std::mutex> lock(shutdownMutex_);
        shutdownRequested_ = true;
    }
    shutdownCv_.notify_all();
    return HttpResponse::text(200, "shutting down\n");
}

} // namespace dce::serve
