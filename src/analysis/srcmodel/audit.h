// Source-level barrier audit: runs the srcmodel dataflow over a directory of
// instrumented kernel sources in both fix-flag modes and classifies the
// resulting unordered pairs:
//
//   * fix-gated  — unordered with the fix flags off, ordered with them on.
//     These are exactly the documented missing-barrier sites (the fix the
//     flag guards is what orders the pair); they are the audit's headline.
//   * residual   — unordered in both modes. Benign under the kernel's actual
//     invariants (or TSO) but invisible to the syntactic model; they feed
//     the CI baseline so *new* ones fail the build.
//
// Residual store->load pairs are dropped entirely: every store/load pair
// with no full barrier between them would qualify, which is TSO-permitted
// noise. Store->load pairs are reported only when fix-gated (e.g. the
// synthetic store-buffering scenario, which an `if (fixed_) OSK_SMP_MB()`
// gates).
//
// The audit is advisory: it is a report, and the fuzzer never consumes it.
#ifndef OZZ_SRC_ANALYSIS_SRCMODEL_AUDIT_H_
#define OZZ_SRC_ANALYSIS_SRCMODEL_AUDIT_H_

#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/analysis/srcmodel/srcmodel.h"

namespace ozz::analysis::srcmodel {

struct SourceFile {
  std::string path;  // as given (NormalizeSrcPath applied by the parser)
  std::string contents;
};

// Loads every .cc/.h under `dir` (recursive), sorted by path. Returns an
// empty vector when the directory does not exist.
std::vector<SourceFile> LoadSourceDir(const std::string& dir);

// Stable, line-free identity of one access site ("file:function:expr[S]"),
// the unit both the audit's and the race analyzer's identities are built
// from (line numbers churn on unrelated edits; file/function/expr/kind do
// not).
std::string SiteIdentity(const AccessSite& site);

// One audited pair, with its classification.
struct AuditPair {
  AccessSite first;
  AccessSite second;
  PairClass cls = PairClass::kStoreStore;
  bool fix_gated = false;

  // Stable, line-number-free identity used for the CI baseline (line numbers
  // churn on unrelated edits; file/function/expr/kind do not):
  //   "file:function:expr[S] -> file:function:expr[S] S-S"
  std::string Identity() const;
};

struct SubsystemStats {
  std::string file;
  int gated = 0;
  int residual = 0;
  int sites = 0;
};

struct AuditReport {
  std::vector<AuditPair> pairs;  // fix-gated first, then residual; each
                                 // group sorted by (file, line, line)
  std::vector<AccessSite> site_list;  // every instrumented access site seen
  std::vector<SubsystemStats> subsystems;
  int files = 0;
  int functions = 0;
  int sites = 0;
  int gated_pairs = 0;
  int residual_pairs = 0;
  // Load-load pairs reclassified as dependency-ordered (token-backed chains
  // LKMM honors) instead of reported unordered — see srcmodel/deps.h.
  int dep_ordered_pairs = 0;
};

// Parses every source file once and runs the dataflow in both modes.
AuditReport RunAudit(const std::vector<SourceFile>& files);

// The unordered-pair identities for one mode only — used by the bench's
// false-site check (assume_fixed = true must not contain any documented
// missing-barrier pair) and by `ozz_audit --assume-fixed`.
std::set<std::string> UnorderedIdentities(const std::vector<SourceFile>& files,
                                          bool assume_fixed);

std::string FormatAuditText(const AuditReport& report);

// JSON object; `extra_json_member` (e.g. a pre-rendered "coverage": {...}
// member) is spliced in verbatim when non-empty.
std::string AuditReportJson(const AuditReport& report, const std::string& extra_json_member);

}  // namespace ozz::analysis::srcmodel

#endif  // OZZ_SRC_ANALYSIS_SRCMODEL_AUDIT_H_
