/**
 * @file
 * The benchmark's three workloads. Each is a batch job that makes one
 * call into a stable library entry point per job:
 *
 *   campaign  corpus::runCheckpointed into a fresh store
 *   triage    core::triageFindings over one slice of fixed findings
 *   equiv     equiv::runEquivAnalysis over one of fixed stores
 *
 * A workload builds its inputs in setUp() parts (setup_s is the median
 * part), runs jobs the harness times, and checks each job's outputs in
 * check(), outside the timed region. runTracedJob() is the same work in
 * the shape the
 * traced run uses: campaign drives each seed stage by stage, triage
 * calls triageFindings on small batches so the span buffer stays small.
 */
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "layers.hpp"

namespace perfbench {

/** Output checks: every checked operation counts once in attempted. */
struct Checks {
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Outputs compared with an earlier run of the same input. The
     * optimizer's result can depend on heap layout (perfbench/README.md,
     * "Known nondeterminism"), so a differing repeat is counted and
     * reported but is not a failed check. */
    uint64_t repeats = 0;
    uint64_t repeatsDiffering = 0;

    /** Count one check; print the first few failures to stderr. */
    void expect(bool ok, const std::string &what);
    /** Count one repeat comparison; print the first few differences. */
    void compareRepeat(bool same, const std::string &what);
};

class Workload {
  public:
    virtual ~Workload() = default;

    /** What one item is: "seeds", "findings", "variants". */
    virtual const char *itemName() const = 0;

    /** Build part @p part of the inputs; the harness calls it for parts
     * 0, 1 and 2 and times each call. Each part is the same amount of
     * work on other seeds, and the jobs use all of them. */
    virtual void setUp(unsigned part) = 0;

    /** One end-to-end job; returns the items it processed. Job inputs
     * depend only on the seed and @p index. */
    virtual uint64_t runJob(unsigned index) = 0;

    /** The same job in the traced shape. With @p fold non-null the
     * tracer is on and the job adds its counters to @p fold; with null
     * it runs untraced, for the overhead comparison. */
    virtual uint64_t runTracedJob(unsigned index, LayerFold *fold) = 0;

    /** Check the outputs of the job that ran last. */
    virtual void check(Checks &checks) = 0;
};

/** nullptr for an unknown workload name. Scratch stores live under
 * @p workdir. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed, unsigned threads,
                                       const std::string &workdir);

} // namespace perfbench
