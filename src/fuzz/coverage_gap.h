// Coverage cross-check between the source-level barrier audit
// (src/analysis/srcmodel) and the dynamic side of the pipeline.
//
// The audit sees every instrumented access in the source; the fuzzer only
// sees the InstrIds its corpus has executed. Joining the two (on normalized
// file path + line) answers two questions the trace-based tiers cannot:
//   (a) which statically-known access sites has the corpus never profiled?
//   (b) which statically-unordered pairs has the hint machinery never
//       actually tested (no hint whose sched/reorder sets cover both
//       endpoints)?
//
// Reported by `ozz_audit` and `ozz_analyze --audit`.
#ifndef OZZ_SRC_FUZZ_COVERAGE_GAP_H_
#define OZZ_SRC_FUZZ_COVERAGE_GAP_H_

#include <string>
#include <vector>

#include "src/analysis/srcmodel/audit.h"
#include "src/osk/kernel.h"

namespace ozz::fuzz {

struct CoverageGap {
  int static_sites = 0;    // sites the audit knows about
  int profiled_sites = 0;  // of those, sites some seed-corpus profile hit
  int tested_pairs = 0;    // statically-unordered pairs some hint covered
  std::vector<analysis::srcmodel::AccessSite> unprofiled;     // (a)
  std::vector<analysis::srcmodel::AuditPair> untested_pairs;  // (b)
};

// Profiles the seed programs under `config` and joins their traces/hints
// against the audit report. Deterministic (profiling is single-threaded and
// the axiomatic tier is disabled for speed).
CoverageGap CrossCheckCoverage(const analysis::srcmodel::AuditReport& report,
                               const osk::KernelConfig& config);

std::string FormatCoverageGap(const CoverageGap& gap);

// A `"coverage": {...}` JSON member for AuditReportJson's extra slot.
std::string CoverageGapJsonMember(const CoverageGap& gap);

}  // namespace ozz::fuzz

#endif  // OZZ_SRC_FUZZ_COVERAGE_GAP_H_
