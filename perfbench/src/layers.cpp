#include "layers.hpp"

#include <algorithm>
#include <chrono>

#include "support/trace.hpp"

namespace perfbench {

namespace {

using dce::support::Tracer;

const char *const kPasses[] = {
    "dce",          "dse",        "earlycse",     "globaldce",
    "globalopt",    "inline",     "instcombine",  "jumpthreading",
    "loopstorerewrite",           "loopunroll",   "loopunswitch",
    "mem2reg",      "sccp",       "simplifycfg",  "vrp"};

const char *const kAnalyses[] = {"domtree", "loopinfo", "memorysummary",
                                 "escapeinfo"};

const char *const kReduceRejects[] = {"parse-fail", "marker-absent",
                                      "trap-timeout", "executed",
                                      "not-differential"};

const char *const kEquivRejects[] = {"no-edit",        "stale",
                                     "trap-timeout",   "not-equivalent",
                                     "base-invalid",   "missing-program"};

uint64_t
endUs(const Tracer::Event &event)
{
    return event.startUs + event.durationUs;
}

bool
contains(const Tracer::Event &outer, const Tracer::Event &inner)
{
    return inner.startUs >= outer.startUs && endUs(inner) <= endUs(outer);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    double pos = q * double(values.size() - 1);
    size_t lo = size_t(pos);
    size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - double(lo)) * (values[hi] - values[lo]);
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

} // namespace

void
LayerFold::drain()
{
    auto start = std::chrono::steady_clock::now();
    Tracer &tracer = Tracer::global();
    std::vector<Tracer::Event> events = tracer.events();
    tracer.clear();

    // Spans are RAII scopes, so on one thread they nest properly:
    // sorted by (thread, start, longest first), each span's parent is
    // the innermost open span that contains it.
    std::vector<size_t> order(events.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        const Tracer::Event &x = events[a], &y = events[b];
        if (x.tid != y.tid)
            return x.tid < y.tid;
        if (x.startUs != y.startUs)
            return x.startUs < y.startUs;
        return x.durationUs > y.durationUs;
    });
    std::vector<long> parent(events.size(), -1);
    std::vector<uint64_t> childUs(events.size(), 0);
    std::vector<size_t> open;
    for (size_t k = 0; k < order.size(); ++k) {
        size_t i = order[k];
        if (k > 0 && events[order[k - 1]].tid != events[i].tid)
            open.clear();
        while (!open.empty() && !contains(events[open.back()], events[i]))
            open.pop_back();
        if (!open.empty()) {
            parent[i] = long(open.back());
            childUs[open.back()] += events[i].durationUs;
        }
        open.push_back(i);
    }

    for (size_t i = 0; i < events.size(); ++i) {
        const Tracer::Event &event = events[i];
        SpanTotal &total = spans_[event.category + "/" + event.name];
        total.us += event.durationUs;
        ++total.calls;
        uint64_t self = event.durationUs - std::min(event.durationUs,
                                                    childUs[i]);
        if (event.name == "reduce")
            reduceSelfUs_ += self;
        if (event.category == "triage" && event.name == "reduce")
            findingMs_.push_back(double(event.durationUs) / 1000.0);
        if (event.category == "bench" && event.name == "stage.seed" &&
            event.durationUs > 0) {
            seedWallUs_ += event.durationUs;
            seedCoveredUs_ += childUs[i];
            seedCoverage_.push_back(double(childUs[i]) /
                                    double(event.durationUs));
        }
        if (event.category == "bench" && event.name == "equiv.job") {
            // The engine fans out over a pool the calling thread joins:
            // every lane that ran inside the job counts its wall time
            // minus the time it spent in other layers' spans.
            std::map<uint32_t, uint64_t> covered{{event.tid, childUs[i]}};
            for (size_t j = 0; j < events.size(); ++j) {
                if (parent[j] < 0 && events[j].tid != event.tid &&
                    contains(event, events[j]))
                    covered[events[j].tid] += events[j].durationUs;
            }
            for (const auto &[tid, us] : covered)
                equivSelfUs_ +=
                    event.durationUs - std::min(event.durationUs, us);
        }
    }
    drainSeconds_ += std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
}

double
LayerFold::spanUs(const std::string &key) const
{
    auto it = spans_.find(key);
    return it == spans_.end() ? 0 : double(it->second.us);
}

double
LayerFold::spanCalls(const std::string &key) const
{
    auto it = spans_.find(key);
    return it == spans_.end() ? 0 : double(it->second.calls);
}

double
LayerFold::count(const std::string &key) const
{
    auto it = counts_.find(key);
    return it == counts_.end() ? 0 : it->second;
}

std::vector<LayerFold::Metric>
LayerFold::metrics(double overhead_ratio) const
{
    const double items = double(items_);
    std::vector<Metric> out;
    auto perItem = [&](const std::string &name, const char *unit,
                       double total) {
        out.push_back({name, unit, ratio(total, items)});
    };
    auto plain = [&](const std::string &name, const char *unit,
                     double value) { out.push_back({name, unit, value}); };

    for (const char *pass : kPasses) {
        std::string key = std::string("pass/") + pass;
        perItem(std::string("opt.pass_us.") + pass, "us/item", spanUs(key));
        perItem(std::string("opt.pass_calls.") + pass, "count/item",
                spanCalls(key));
    }
    for (const char *kind : kAnalyses) {
        std::string key = std::string("analysis/") + kind;
        perItem(std::string("opt.analysis_builds.") + kind, "count/item",
                spanCalls(key));
        perItem(std::string("opt.analysis_us.") + kind, "us/item",
                spanUs(key));
    }

    perItem("compiler.optimize_us", "us/item", spanUs("compile/optimize"));
    for (const char *build : kBuildLabels)
        perItem(std::string("compiler.optimize_us.") + build, "us/item",
                spanUs(std::string("bench/stage.optimize.") + build));
    perItem("compiler.compiles", "count/item",
            spanCalls("compile/optimize"));
    for (const char *build : kBuildLabels)
        perItem(std::string("compiler.instrs_out.") + build, "count/item",
                count(std::string("compiler.instrs_out.") + build));

    perItem("ir.lower_us", "us/item", spanUs("compile/lower"));
    perItem("ir.clone_us", "us/item", spanUs("compile/clone"));
    perItem("ir.lowered_instrs", "count/item", count("ir.lowered_instrs"));

    perItem("interp.execute_us", "us/item", spanUs("interp/execute"));
    perItem("interp.executions", "count/item", spanCalls("interp/execute"));

    perItem("gen.generate_us", "us/item", spanUs("bench/stage.generate"));
    perItem("gen.invalid_ratio", "ratio", count("gen.invalid"));
    perItem("instrument.instrument_us", "us/item",
            spanUs("campaign/instrument"));
    perItem("instrument.markers_per_seed", "count/item",
            count("instrument.markers"));

    perItem("core.primary_us", "us/item", spanUs("bench/stage.primary"));
    perItem("core.markers_dead", "count/item", count("core.markers_dead"));
    for (const char *build : kBuildLabels)
        plain(std::string("core.elimination_ratio.") + build, "ratio",
              ratio(count(std::string("core.eliminated.") + build),
                    count("core.markers_dead")));

    perItem("corpus.commit_us", "us/item", spanUs("bench/stage.commit"));
    perItem("corpus.bytes_written", "byte/item", count("corpus.bytes"));
    perItem("corpus.read_us", "us/item", spanUs("bench/corpus.read"));

    double tests = count("reduce.tests");
    double rejects = 0;
    for (const char *reason : kReduceRejects)
        rejects += count(std::string("reduce.reject.") + reason);
    perItem("reduce.tests", "count/item", tests);
    perItem("reduce.compiles", "count/item", count("reduce.compiles"));
    plain("reduce.accept_ratio", "ratio",
          ratio(tests - std::min(tests, rejects), tests));
    for (const char *reason : kReduceRejects)
        perItem(std::string("reduce.reject.") + reason, "count/item",
                count(std::string("reduce.reject.") + reason));
    plain("reduce.finding_ms_p50", "ms", quantile(findingMs_, 0.5));
    plain("reduce.finding_ms_p90", "ms", quantile(findingMs_, 0.9));
    perItem("reduce.self_us", "us/item", double(reduceSelfUs_));

    double variants = count("equiv.variants");
    double equiv_rejects = 0;
    for (const char *reason : kEquivRejects)
        equiv_rejects += count(std::string("equiv.reject.") + reason);
    plain("equiv.variants_derived", "count/program",
          ratio(variants, count("equiv.programs")));
    plain("equiv.reject_ratio", "ratio",
          ratio(equiv_rejects, variants + equiv_rejects));
    for (const char *reason : kEquivRejects)
        perItem(std::string("equiv.reject.") + reason, "count/item",
                count(std::string("equiv.reject.") + reason));
    perItem("equiv.self_us", "us/item", double(equivSelfUs_));

    plain("trace.overhead_ratio", "ratio", overhead_ratio);
    plain("trace.coverage", "ratio",
          ratio(double(seedCoveredUs_), double(seedWallUs_)));
    plain("trace.coverage_p10", "ratio", quantile(seedCoverage_, 0.1));
    return out;
}

} // namespace perfbench
