/**
 * @file
 * Per-layer metrics from a traced run. The library already records
 * spans through support::Tracer::global() (pass, analysis, lower,
 * clone, optimize, execute, instrument, reduce, corpus.*); the
 * benchmark adds its own spans, category "bench", around the calls it
 * makes into each layer. LayerFold drains the tracer after each traced
 * job, rebuilds span nesting per thread, and folds everything into the
 * per-layer metrics listed in BENCHMARK.json.
 *
 * Counts and times are per work item (a seed on campaign, a finding on
 * triage, a proven variant on equiv) so runs of different lengths
 * compare; ratios and percentiles are not normalized. A layer that does
 * not run on a workload reads 0 there.
 */
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** The two head builds every workload compiles with, as metric labels. */
inline const char *const kBuildLabels[] = {"alpha-O3", "beta-O3"};

class LayerFold {
  public:
    /** Fold every span the global tracer holds, then clear it. */
    void drain();

    /** Seconds spent inside drain() so far (excluded from job timing). */
    double drainSeconds() const { return drainSeconds_; }

    /** Add to a counter measured outside the tracer (a registry
     * counter, a record field). */
    void
    add(const std::string &key, double value)
    {
        counts_[key] += value;
    }

    void addItems(uint64_t items) { items_ += items; }

    /** Every per-layer metric as (name, unit, value), in BENCHMARK.json
     * order. @p overhead_ratio is untraced ÷ traced throughput. */
    struct Metric {
        std::string name;
        std::string unit;
        double value;
    };
    std::vector<Metric> metrics(double overhead_ratio) const;

  private:
    struct SpanTotal {
        uint64_t us = 0;
        uint64_t calls = 0;
    };

    double spanUs(const std::string &key) const;
    double spanCalls(const std::string &key) const;
    double count(const std::string &key) const;

    /** Keyed "category/name". */
    std::map<std::string, SpanTotal> spans_;
    std::map<std::string, double> counts_;
    uint64_t items_ = 0;
    double drainSeconds_ = 0;
    /** Self time of every "reduce" span (triage + reducer categories). */
    uint64_t reduceSelfUs_ = 0;
    /** Self time of the benchmark's equiv.job span, summed over the
     * worker lanes that ran inside it. */
    uint64_t equivSelfUs_ = 0;
    /** Per-finding reduction wall time (triage "reduce" spans). */
    std::vector<double> findingMs_;
    /** Per seed: share of the stage.seed span its child spans cover. */
    std::vector<double> seedCoverage_;
    uint64_t seedWallUs_ = 0;
    uint64_t seedCoveredUs_ = 0;
};

} // namespace perfbench
