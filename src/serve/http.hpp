/**
 * @file
 * Dependency-free embedded HTTP/1.1 server (DESIGN.md §14): the
 * transport under the campaign ops endpoints. POSIX sockets only — a
 * loopback listener, one accept thread, and a bounded
 * support::ThreadPool that runs the handler for each connection, so a
 * slow endpoint (a large /report render) never blocks accept and the
 * concurrency ceiling is explicit.
 *
 * Scope is deliberately small: GET requests, close-delimited
 * responses (`Connection: close` on every reply), no keep-alive, no
 * TLS, no body parsing. That covers every consumer the ops surface
 * has — curl, Prometheus scrapers, a browser — while keeping the
 * parser small enough to test exhaustively over a loopback socket.
 *
 * Shutdown contract: stop() closes the listener, then drains — every
 * request already accepted gets its response before stop() returns.
 */
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "support/metrics.hpp"
#include "support/thread_pool.hpp"

namespace dce::serve {

/** One parsed request. Only the request line is interpreted; headers
 * are read off the socket (to find the end of the head) but ignored. */
struct HttpRequest {
    std::string method; ///< "GET" — anything else is rejected upstream
    std::string path;   ///< percent-decoded, query stripped, e.g. "/metrics"
    std::string query;  ///< raw query string after '?', "" when absent

    /** Percent-decoded value of query parameter @p name, if present. */
    std::optional<std::string> queryParam(std::string_view name) const;
};

struct HttpResponse {
    int status = 200;
    std::string contentType = "text/plain; charset=utf-8";
    std::string body;
    /** Extra response headers (name, value), serialized in order
     * after Content-Type/Content-Length — e.g. the `Allow: GET` a
     * 405 carries. Names and values are code-controlled. */
    std::vector<std::pair<std::string, std::string>> headers;

    static HttpResponse text(int status, std::string body);
};

/** Reason phrase for the status codes the server emits. */
const char *httpStatusReason(int status);

/** Percent-decode @p text (%XX only; '+' is left alone — query values
 * here are path-like, not form-encoded). nullopt on a malformed or
 * truncated escape. */
std::optional<std::string> percentDecode(std::string_view text);

/**
 * Read a request head (everything through the blank line) from @p fd
 * into @p head, reading at most @p max_bytes. Retries recv() on EINTR:
 * the serving process may be signal-heavy (a fleet coordinator reaping
 * SIGCHLD from dying workers), and a signal landing mid-request must
 * not abort the read. Returns true when the terminating blank line
 * arrived; @p line_complete reports whether at least the request-line
 * terminator arrived (it decides 400 vs 414 for oversized heads).
 * Exposed as a building block so signal-delivery tests can drive it
 * over a socketpair.
 */
bool readRequestHead(int fd, size_t max_bytes, std::string &head,
                     bool &line_complete);

using HttpHandler = std::function<HttpResponse(const HttpRequest &)>;

struct HttpServerOptions {
    /** TCP port to bind on the loopback interface; 0 picks an
     * ephemeral port (read it back with port()). */
    uint16_t port = 0;
    /** Handler pool size — the maximum number of in-flight requests. */
    unsigned handlerThreads = 4;
    /** Cap on the request head (request line + headers). A head that
     * exceeds it before the request line ends is answered 414, after
     * the request line 400 — the connection never buffers unbounded
     * input. */
    size_t maxRequestBytes = 8 * 1024;
    /** Registry for the serve.* counters; null = the process global. */
    support::MetricsRegistry *metrics = nullptr;
};

/**
 * The server. Construct with the routing handler, start(), and every
 * connection runs: parse → handler(request) → serialize → close. The
 * handler is called from pool threads and must be thread-safe; a
 * handler that throws becomes a 500 without killing the worker.
 */
class HttpServer {
  public:
    explicit HttpServer(HttpHandler handler,
                        HttpServerOptions options = {});
    ~HttpServer(); ///< stops (gracefully) if still running

    HttpServer(const HttpServer &) = delete;
    HttpServer &operator=(const HttpServer &) = delete;

    /** Bind + listen + spawn the accept thread and handler pool.
     * False (with a classified message in @p error) on socket
     * failure; idempotent once running. */
    bool start(std::string *error = nullptr);

    /**
     * Graceful shutdown: stop accepting, then block until every
     * accepted request has been answered. Idempotent; the destructor
     * calls it.
     */
    void stop();

    bool running() const;

    /** The bound port (the ephemeral pick when options.port was 0);
     * 0 before start(). */
    uint16_t port() const { return port_; }

    /** Total requests answered (any status) since start(). */
    uint64_t requestsServed() const;

  private:
    void acceptLoop();
    void handleConnection(int fd);
    /** serve.responses{status}: resolved in the registry on a status's
     * first response, then read without the registry lock. */
    support::Counter &responsesFor(int status);

    HttpHandler handler_;
    HttpServerOptions options_;
    support::MetricsRegistry *registry_ = nullptr;
    std::array<std::atomic<support::Counter *>, 500> responses_{};
    support::Counter *requests_ = nullptr;
    /** serve.request_us: accept-to-response-sent wall µs, feeding the
     * /progress serve latency percentiles. */
    support::Histogram *requestUs_ = nullptr;

    int listenFd_ = -1;
    uint16_t port_ = 0;
    std::thread acceptor_;
    std::unique_ptr<support::ThreadPool> pool_;
    std::atomic<bool> stopRequested_{false};
    std::atomic<uint64_t> served_{0};
    mutable std::mutex lifecycleMutex_;
    bool running_ = false;
};

} // namespace dce::serve
