#include "serve/http.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

namespace dce::serve {

namespace {

/** How long a connected client may dawdle before we give up on it —
 * bounds how long stop() can be held up by a wedged peer. */
constexpr int kSocketTimeoutSec = 5;

/** Accept-loop poll cadence: the latency ceiling on noticing stop(). */
constexpr int kAcceptPollMs = 50;

int
hexValue(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

bool
sendAll(int fd, std::string_view bytes)
{
    size_t sent = 0;
    while (sent < bytes.size()) {
        // MSG_NOSIGNAL: a client that hangs up mid-response must not
        // SIGPIPE the whole process.
        ssize_t n = ::send(fd, bytes.data() + sent,
                           bytes.size() - sent, MSG_NOSIGNAL);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            return false;
        }
        sent += size_t(n);
    }
    return true;
}

} // namespace

std::optional<std::string>
percentDecode(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (size_t i = 0; i < text.size(); ++i) {
        if (text[i] != '%') {
            out += text[i];
            continue;
        }
        if (i + 2 >= text.size())
            return std::nullopt;
        int hi = hexValue(text[i + 1]);
        int lo = hexValue(text[i + 2]);
        if (hi < 0 || lo < 0)
            return std::nullopt;
        out += char(hi * 16 + lo);
        i += 2;
    }
    return out;
}

std::optional<std::string>
HttpRequest::queryParam(std::string_view name) const
{
    size_t begin = 0;
    while (begin <= query.size()) {
        size_t end = query.find('&', begin);
        if (end == std::string::npos)
            end = query.size();
        std::string_view pair =
            std::string_view(query).substr(begin, end - begin);
        size_t eq = pair.find('=');
        std::string_view key =
            eq == std::string_view::npos ? pair : pair.substr(0, eq);
        if (key == name) {
            std::string_view raw = eq == std::string_view::npos
                                       ? std::string_view{}
                                       : pair.substr(eq + 1);
            return percentDecode(raw);
        }
        if (end == query.size())
            break;
        begin = end + 1;
    }
    return std::nullopt;
}

bool
readRequestHead(int fd, size_t max_bytes, std::string &head,
                bool &line_complete)
{
    line_complete = false;
    while (head.size() < max_bytes) {
        char buffer[2048];
        size_t room = std::min(sizeof buffer, max_bytes - head.size());
        ssize_t n = ::recv(fd, buffer, room, 0);
        if (n < 0 && errno == EINTR)
            continue; // same retry discipline as the send path
        if (n <= 0)
            break; // timeout, reset, or EOF before the head ended
        head.append(buffer, size_t(n));
        if (head.find("\r\n") != std::string::npos ||
            head.find('\n') != std::string::npos)
            line_complete = true;
        if (head.find("\r\n\r\n") != std::string::npos ||
            head.find("\n\n") != std::string::npos)
            return true;
    }
    return false;
}

HttpResponse
HttpResponse::text(int status, std::string body)
{
    HttpResponse response;
    response.status = status;
    response.body = std::move(body);
    return response;
}

const char *
httpStatusReason(int status)
{
    switch (status) {
    case 200:
        return "OK";
    case 400:
        return "Bad Request";
    case 404:
        return "Not Found";
    case 405:
        return "Method Not Allowed";
    case 414:
        return "URI Too Long";
    case 500:
        return "Internal Server Error";
    case 503:
        return "Service Unavailable";
    default:
        return "Unknown";
    }
}

HttpServer::HttpServer(HttpHandler handler, HttpServerOptions options)
    : handler_(std::move(handler)), options_(options)
{
    registry_ = options_.metrics ? options_.metrics
                                 : &support::MetricsRegistry::global();
    requests_ = &registry_->counter("serve.requests");
    requestUs_ = &registry_->histogram("serve.request_us");
}

support::Counter &
HttpServer::responsesFor(int status)
{
    // Statuses 100..599 get a cached slot; anything else is looked up
    // each time. Racing first uses resolve the same counter.
    size_t slot = static_cast<size_t>(status - 100);
    if (status < 100 || slot >= responses_.size())
        return registry_->counter("serve.responses", std::to_string(status));
    support::Counter *counter =
        responses_[slot].load(std::memory_order_acquire);
    if (!counter) {
        counter = &registry_->counter("serve.responses",
                                      std::to_string(status));
        responses_[slot].store(counter, std::memory_order_release);
    }
    return *counter;
}

HttpServer::~HttpServer()
{
    stop();
}

bool
HttpServer::running() const
{
    std::lock_guard<std::mutex> lock(lifecycleMutex_);
    return running_;
}

uint64_t
HttpServer::requestsServed() const
{
    return served_.load(std::memory_order_relaxed);
}

bool
HttpServer::start(std::string *error)
{
    std::lock_guard<std::mutex> lock(lifecycleMutex_);
    if (running_)
        return true;

    auto fail = [&](const char *what) {
        if (error)
            *error = std::string(what) + ": " + std::strerror(errno);
        if (listenFd_ >= 0) {
            ::close(listenFd_);
            listenFd_ = -1;
        }
        return false;
    };

    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        return fail("socket");
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    // Loopback only: the ops surface is an operator's port, not a
    // public one; fronting proxies can forward if remote access is
    // actually wanted.
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.port);
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0)
        return fail("bind");
    if (::listen(listenFd_, 64) != 0)
        return fail("listen");
    socklen_t len = sizeof addr;
    if (::getsockname(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        return fail("getsockname");
    port_ = ntohs(addr.sin_port);

    stopRequested_.store(false);
    pool_ = std::make_unique<support::ThreadPool>(
        std::max(1u, options_.handlerThreads));
    acceptor_ = std::thread([this] { acceptLoop(); });
    running_ = true;
    return true;
}

void
HttpServer::stop()
{
    std::lock_guard<std::mutex> lock(lifecycleMutex_);
    if (!running_)
        return;
    stopRequested_.store(true);
    acceptor_.join();
    ::close(listenFd_);
    listenFd_ = -1;
    // Drain: every connection already accepted (queued or running in
    // the pool) gets its response before stop() returns.
    pool_->wait();
    pool_.reset();
    running_ = false;
}

void
HttpServer::acceptLoop()
{
    for (;;) {
        pollfd pfd{listenFd_, POLLIN, 0};
        int ready = ::poll(&pfd, 1, kAcceptPollMs);
        if (stopRequested_.load())
            return;
        if (ready <= 0)
            continue;
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        pool_->submit([this, fd] { handleConnection(fd); });
    }
}

void
HttpServer::handleConnection(int fd)
{
    auto started = std::chrono::steady_clock::now();
    timeval timeout{kSocketTimeoutSec, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout,
                 sizeof timeout);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout,
                 sizeof timeout);

    // Read the request head: everything up to the blank line. The
    // server never reads a body (GET only), so the head is the whole
    // request.
    std::string head;
    bool line_complete = false;
    bool complete = readRequestHead(fd, options_.maxRequestBytes, head,
                                    line_complete);

    HttpResponse response;
    if (!complete) {
        // An overlong request line gets the specific 414; any other
        // truncated/oversized head is a plain bad request.
        response = HttpResponse::text(
            line_complete ? 400 : 414,
            line_complete ? "bad request: oversized header block\n"
                          : "request line too long\n");
    } else {
        size_t line_end = head.find_first_of("\r\n");
        std::string request_line = head.substr(0, line_end);
        size_t method_end = request_line.find(' ');
        size_t target_end =
            method_end == std::string::npos
                ? std::string::npos
                : request_line.find(' ', method_end + 1);
        if (method_end == std::string::npos ||
            target_end == std::string::npos ||
            request_line.compare(target_end + 1, 5, "HTTP/") != 0) {
            response =
                HttpResponse::text(400, "malformed request line\n");
        } else {
            HttpRequest request;
            request.method = request_line.substr(0, method_end);
            std::string target = request_line.substr(
                method_end + 1, target_end - method_end - 1);
            size_t question = target.find('?');
            if (question != std::string::npos) {
                request.query = target.substr(question + 1);
                target.resize(question);
            }
            std::optional<std::string> path = percentDecode(target);
            if (request.method != "GET") {
                // The target parsed fine; the method is what's wrong
                // — say so precisely (405 + Allow) instead of a
                // generic 400, so clients can tell a bad tool apart
                // from a bad request.
                response = HttpResponse::text(
                    405, "method not allowed: only GET is "
                         "supported\n");
                response.headers.emplace_back("Allow", "GET");
            } else if (!path || path->empty() ||
                       (*path)[0] != '/') {
                response = HttpResponse::text(
                    400, "bad request: malformed target\n");
            } else {
                request.path = std::move(*path);
                try {
                    response = handler_(request);
                } catch (const std::exception &e) {
                    response = HttpResponse::text(
                        500, std::string("handler error: ") +
                                 e.what() + "\n");
                } catch (...) {
                    response =
                        HttpResponse::text(500, "handler error\n");
                }
            }
        }
    }

    std::string wire = "HTTP/1.1 " + std::to_string(response.status) +
                       " " + httpStatusReason(response.status) +
                       "\r\nContent-Type: " + response.contentType +
                       "\r\nContent-Length: " +
                       std::to_string(response.body.size());
    for (const auto &[name, value] : response.headers)
        wire += "\r\n" + name + ": " + value;
    wire += "\r\nConnection: close\r\n\r\n";
    wire += response.body;

    // Meter before the response leaves: a client (or a /metrics
    // scrape) that has seen the response must also see it counted.
    served_.fetch_add(1, std::memory_order_relaxed);
    requests_->add();
    requestUs_->observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - started)
            .count()));
    responsesFor(response.status).add();

    sendAll(fd, wire);
    ::close(fd);
}

} // namespace dce::serve
