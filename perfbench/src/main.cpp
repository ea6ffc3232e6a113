/**
 * @file
 * dce_perfbench, the repository benchmark (see perfbench/README.md).
 *
 *   dce_perfbench --workdir DIR --workload campaign|triage|equiv
 *                 --seed N --seconds S --trace 0|1
 *
 * Sets the workload up in three parts (setup_s is the median), runs one
 * untimed warm-up job, then times jobs until S seconds of job time have
 * passed (or, on a slowed host, until the wall-time cap). Every job's
 * outputs are checked outside the timed region.
 * With --trace 0 it reports the end-to-end metrics, tracing off; with
 * --trace 1 it alternates untraced and traced jobs of the traced shape
 * and reports the per-layer metrics plus the tracing overhead. The last
 * line of stdout is one JSON object: correct, attempted, failed,
 * metrics.
 */
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "layers.hpp"
#include "support/trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;

/** Worker threads per library call: the benchmark host's nproc. */
constexpr unsigned kThreads = 4;
constexpr unsigned kSetupParts = 3;
/** No timed job starts once this much wall time has passed since the
 * run began (set-up and checks included), so a run on a slowed host
 * still ends well inside the 180-second limit a run is given. On an
 * unloaded host a 30-second run ends after about 45 seconds. */
constexpr double kWallCapSeconds = 110;

struct Args {
    std::string workdir;
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
};

bool
parseUnsigned(const std::string &text, uint64_t &out)
{
    if (text.empty() || text.size() > 18 ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return false;
    out = std::stoull(text);
    return true;
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    bool have[5] = {};
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string flag = argv[i], value = argv[i + 1];
        uint64_t number = 0;
        if (flag == "--workdir") {
            args.workdir = value;
            have[0] = true;
        } else if (flag == "--workload") {
            args.workload = value;
            have[1] = true;
        } else if (flag == "--seed" && parseUnsigned(value, number)) {
            args.seed = number;
            have[2] = true;
        } else if (flag == "--seconds" && parseUnsigned(value, number) &&
                   number >= 1 && number <= 600) {
            args.seconds = double(number);
            have[3] = true;
        } else if (flag == "--trace" && (value == "0" || value == "1")) {
            args.trace = value == "1";
            have[4] = true;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 &&
           std::all_of(have, have + 5, [](bool b) { return b; });
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &tv) {
        return double(tv.tv_sec) + double(tv.tv_usec) / 1e6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/**
 * Hand freed heap memory back to the kernel between jobs, outside the
 * timed region. Without it, glibc's per-thread arenas keep every job's
 * high-water mark and peak RSS drifts upward with the job count; with
 * it, peak_rss_mb is the largest single job's footprint.
 */
void
trimHeap()
{
#ifdef __GLIBC__
    malloc_trim(0);
#endif
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : (values[mid - 1] + values[mid]) / 2;
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
        if (!__get_cpuid(0x80000002 + leaf, &regs[leaf * 4],
                         &regs[leaf * 4 + 1], &regs[leaf * 4 + 2],
                         &regs[leaf * 4 + 3]))
            return "unknown";
    }
    std::string brand(reinterpret_cast<const char *>(regs), sizeof regs);
    brand = brand.c_str(); // drop the NUL padding
    size_t first = brand.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : brand.substr(first);
#else
    return "unknown";
#endif
}

/**
 * What the run is doing, for the message a fatal signal prints: an
 * assertion in the library, or a crash, would otherwise end the run
 * with no hint of which input or which step it was on.
 */
enum class Phase : int { StartUp, SetUp, Job, TracedJob, Check, Report };

const char *const kPhaseNames[] = {"start-up", "set-up part", "job",
                                   "traced job", "check of job",
                                   "report"};

// Atomics, not volatile: a worker thread that aborts runs the handler
// and reads what the main thread wrote. Lock-free, so signal-safe.
std::atomic<int> g_phase{0};
std::atomic<unsigned> g_index{0};
static_assert(std::atomic<int>::is_always_lock_free &&
              std::atomic<unsigned>::is_always_lock_free);
const char *g_workload = "";
uint64_t g_seed = 0;

void
enterPhase(Phase phase, unsigned index)
{
    g_index.store(index, std::memory_order_relaxed);
    g_phase.store(int(phase), std::memory_order_relaxed);
}

/** write(2) of text and unsigned numbers only: async-signal-safe. */
void
writeText(const char *text)
{
    ssize_t ignored = ::write(STDERR_FILENO, text, std::strlen(text));
    (void)ignored;
}

void
writeNumber(uint64_t value)
{
    char digits[24];
    char *end = digits + sizeof digits, *p = end;
    *--p = '\0';
    do {
        *--p = char('0' + value % 10);
        value /= 10;
    } while (value);
    writeText(p);
}

extern "C" void
onFatalSignal(int signal)
{
    writeText("dce_perfbench: fatal signal ");
    writeNumber(uint64_t(signal));
    const int phase = g_phase.load(std::memory_order_relaxed);
    writeText(" during ");
    writeText(kPhaseNames[phase]);
    if (phase != int(Phase::StartUp) && phase != int(Phase::Report)) {
        writeText(" ");
        writeNumber(g_index.load(std::memory_order_relaxed));
    }
    writeText(" (workload ");
    writeText(g_workload);
    writeText(", seed ");
    writeNumber(g_seed);
    writeText(")\n");
    // SA_RESETHAND restored the default action: die of the same signal.
    ::raise(signal);
}

void
reportFatalSignals(const Args &args)
{
    g_workload = args.workload.c_str();
    g_seed = args.seed;
    struct sigaction action {};
    action.sa_handler = onFatalSignal;
    action.sa_flags = SA_RESETHAND;
    sigemptyset(&action.sa_mask);
    for (int signal : {SIGABRT, SIGSEGV, SIGBUS, SIGFPE, SIGILL})
        sigaction(signal, &action, nullptr);
}

using Metric = LayerFold::Metric;

void
printResult(const Checks &checks, const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                checks.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(checks.attempted),
                static_cast<unsigned long long>(checks.failed));
    for (size_t i = 0; i < metrics.size(); ++i) {
        double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), value,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

int
run(const Args &args)
{
    const Clock::time_point run_start = Clock::now();
    std::unique_ptr<Workload> workload =
        makeWorkload(args.workload, args.seed, kThreads, args.workdir);
    if (!workload) {
        std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
        return 2;
    }
    dce::support::Tracer &tracer = dce::support::Tracer::global();
    tracer.setEnabled(false);
#ifdef __GLIBC__
    // Pin glibc's mmap threshold at the top of its dynamic range (32 MiB
    // on 64-bit). Left dynamic, it moves with the order in which large
    // blocks happen to be freed, and peak RSS swung by a third between
    // runs of one seed; pinned, it repeats within a few percent, with no
    // throughput change measurable on a 4-CPU Xeon VM.
    mallopt(M_MMAP_THRESHOLD, 32 * 1024 * 1024);
#endif

#ifdef NDEBUG
    const char *asserts = "off";
#else
    const char *asserts = "on";
#endif
    std::printf("workload=%s seed=%llu threads=%u trace=%d seconds=%g\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), kThreads,
                args.trace ? 1 : 0, args.seconds);
    std::printf("host: nproc=%u cpu=\"%s\" compiler=\"GCC %s\" "
                "build=%s asserts=%s\n",
                std::thread::hardware_concurrency(), cpuModel().c_str(),
                __VERSION__, PERFBENCH_BUILD_TYPE, asserts);

    std::vector<double> setup;
    for (unsigned part = 0; part < kSetupParts; ++part) {
        enterPhase(Phase::SetUp, part);
        Clock::time_point start = Clock::now();
        workload->setUp(part);
        setup.push_back(secondsSince(start));
    }

    const double rss_setup = peakRssMb();

    Checks checks;
    enterPhase(Phase::Job, 0);
    workload->runJob(0); // warm-up; also the reference for later jobs
    enterPhase(Phase::Check, 0);
    workload->check(checks);
    trimHeap();
    const double rss_warm = peakRssMb();

    const char *item = workload->itemName();
    std::vector<Metric> metrics;
    double timed = 0;
    unsigned jobs = 0;
    uint64_t items = 0;
    bool capped = false;
    // At least one timed job; then until --seconds of job time, or the
    // wall-time cap.
    auto another = [&] {
        if (jobs == 0)
            return true;
        if (timed >= args.seconds)
            return false;
        capped = secondsSince(run_start) >= kWallCapSeconds;
        return !capped;
    };
    if (!args.trace) {
        std::vector<double> rates, cpu_ms;
        while (another()) {
            enterPhase(Phase::Job, ++jobs);
            double cpu0 = cpuSeconds();
            Clock::time_point start = Clock::now();
            uint64_t done = workload->runJob(jobs);
            double wall = secondsSince(start);
            double cpu = cpuSeconds() - cpu0;
            timed += wall;
            items += done;
            rates.push_back(double(done) / wall);
            cpu_ms.push_back(cpu * 1000.0 / double(done));
            enterPhase(Phase::Check, jobs);
            workload->check(checks);
            trimHeap();
        }
        metrics = {
            {"setup_s", "s", median(setup)},
            {"items_per_s", "1/s", median(rates)},
            {"cpu_ms_per_item", "ms", median(cpu_ms)},
        };
        std::printf("%s_per_s=%.1f (items_per_s; median of %u jobs, "
                    "%llu %s in %.2f s; job rates %.1f..%.1f)\n",
                    item, median(rates), jobs,
                    static_cast<unsigned long long>(items), item, timed,
                    *std::min_element(rates.begin(), rates.end()),
                    *std::max_element(rates.begin(), rates.end()));
    } else {
        LayerFold fold;
        std::vector<double> plain_rates, traced_rates;
        while (another()) {
            enterPhase(Phase::Job, ++jobs);
            Clock::time_point start = Clock::now();
            uint64_t done = workload->runTracedJob(jobs, nullptr);
            double wall = secondsSince(start);
            plain_rates.push_back(double(done) / wall);
            enterPhase(Phase::Check, jobs);
            workload->check(checks);

            enterPhase(Phase::TracedJob, jobs);
            double drained = fold.drainSeconds();
            tracer.setEnabled(true);
            start = Clock::now();
            done = workload->runTracedJob(jobs, &fold);
            tracer.setEnabled(false);
            fold.drain();
            double traced_wall =
                secondsSince(start) - (fold.drainSeconds() - drained);
            traced_rates.push_back(double(done) / traced_wall);
            fold.addItems(done);
            items += done;
            timed += wall + traced_wall;
            enterPhase(Phase::Check, jobs);
            workload->check(checks);
        }
        double overhead = median(plain_rates) / median(traced_rates);
        metrics = fold.metrics(overhead);
        std::printf("traced %u job pairs, %llu %s traced; untraced "
                    "%.1f %s/s, traced %.1f %s/s, overhead ratio %.3f\n",
                    jobs, static_cast<unsigned long long>(items), item,
                    median(plain_rates), item, median(traced_rates), item,
                    overhead);
    }

    enterPhase(Phase::Report, 0);
    if (capped)
        std::printf("wall-time cap of %.0f s reached after %.2f s of job "
                    "time; the host is slower than usual\n",
                    kWallCapSeconds, timed);
    for (const Metric &m : metrics)
        std::printf("%-36s %14.4f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("peak_rss_mb=%.1f (unbounded; %.1f after set-up, %.1f "
                "after warm-up)\n",
                peakRssMb(), rss_setup, rss_warm);
    std::printf("setup_s runs:");
    for (double s : setup)
        std::printf(" %.4f", s);
    std::printf("\nrepeats differing: %llu of %llu (reported, not "
                "failed; see README)\n",
                static_cast<unsigned long long>(checks.repeatsDiffering),
                static_cast<unsigned long long>(checks.repeats));
    std::printf("fail_ratio=%.6g (%llu of %llu checks failed)\n",
                checks.attempted
                    ? double(checks.failed) / double(checks.attempted)
                    : 0.0,
                static_cast<unsigned long long>(checks.failed),
                static_cast<unsigned long long>(checks.attempted));
    printResult(checks, metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: dce_perfbench --workdir DIR --workload "
                     "campaign|triage|equiv --seed N --seconds S "
                     "--trace 0|1\n");
        return 2;
    }
    reportFatalSignals(args);
    std::filesystem::path workdir = std::filesystem::path(args.workdir) /
                                     std::to_string(::getpid());
    int status = 1;
    try {
        args.workdir = workdir.string();
        std::filesystem::create_directories(workdir);
        status = run(args);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "dce_perfbench: %s\n", error.what());
        status = 1;
    }
    std::error_code ignored;
    std::filesystem::remove_all(workdir, ignored);
    return status;
}
