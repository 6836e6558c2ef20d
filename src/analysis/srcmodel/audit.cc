#include "src/analysis/srcmodel/audit.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "src/analysis/srcmodel/deps.h"
#include "src/base/json.h"
#include "src/oemu/memory_model.h"

namespace ozz::analysis::srcmodel {
namespace {

using base::JsonEscape;

// The audit's legacy path is the LKMM bit path (DataflowOptions.model null);
// dependency discharge honors the same model so the pending-pair lattice and
// the dep chains agree on what LKMM orders.
std::vector<SitePair> AuditUnorderedPairs(const FileModel& model, bool assume_fixed,
                                          std::set<std::pair<int, int>>* discharged) {
  const DepInfo deps = RecoverDeps(model);
  const std::set<std::pair<int, int>> dep_ordered =
      DepOrderedPairs(deps, oemu::MemoryModel::Lkmm());
  DataflowOptions opts;
  opts.assume_fixed = assume_fixed;
  opts.dep_ordered = &dep_ordered;
  opts.dep_discharged = discharged;
  return UnorderedPairs(model, opts);
}

bool PairLess(const AuditPair& a, const AuditPair& b) {
  if (a.first.file != b.first.file) {
    return a.first.file < b.first.file;
  }
  if (a.first.line != b.first.line) {
    return a.first.line < b.first.line;
  }
  if (a.second.line != b.second.line) {
    return a.second.line < b.second.line;
  }
  return static_cast<int>(a.cls) < static_cast<int>(b.cls);
}

}  // namespace

std::vector<SourceFile> LoadSourceDir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<SourceFile> out;
  std::error_code ec;
  fs::recursive_directory_iterator it(dir, ec);
  if (ec) {
    return out;
  }
  for (const auto& entry : it) {
    if (!entry.is_regular_file()) {
      continue;
    }
    std::string ext = entry.path().extension().string();
    if (ext != ".cc" && ext != ".h") {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    if (!in) {
      continue;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    out.push_back(SourceFile{entry.path().string(), ss.str()});
  }
  std::sort(out.begin(), out.end(),
            [](const SourceFile& a, const SourceFile& b) { return a.path < b.path; });
  return out;
}

std::string SiteIdentity(const AccessSite& site) {
  std::string out = site.file;
  out += ':';
  out += site.function;
  out += ':';
  for (char c : site.expr) {
    if (c != ' ') {
      out.push_back(c);
    }
  }
  out += site.is_store ? "[S]" : "[L]";
  return out;
}

std::string AuditPair::Identity() const {
  std::string out = SiteIdentity(first);
  out += " -> ";
  out += SiteIdentity(second);
  out += ' ';
  out += PairClassName(cls);
  return out;
}

AuditReport RunAudit(const std::vector<SourceFile>& files) {
  AuditReport report;
  std::vector<AuditPair> gated;
  std::vector<AuditPair> residual;
  std::set<std::string> seen;  // identity dedup across overloads/paths
  for (const SourceFile& src : files) {
    FileModel model = ParseFile(src.path, src.contents);
    if (model.functions.empty() && model.sites.empty()) {
      continue;
    }
    report.files += 1;
    report.functions += static_cast<int>(model.functions.size());
    report.sites += static_cast<int>(model.sites.size());
    report.site_list.insert(report.site_list.end(), model.sites.begin(), model.sites.end());
    std::set<std::pair<int, int>> discharged;
    std::vector<SitePair> buggy = AuditUnorderedPairs(model, /*assume_fixed=*/false, &discharged);
    report.dep_ordered_pairs += static_cast<int>(discharged.size());
    // Compare by line-free identity, not site index: the fixed form may
    // reach the same expression pair through different lines (its own arm of
    // a fix-gated branch), and such a pair is NOT fixed by the flag.
    std::set<std::string> fixed_ids;
    for (const SitePair& p : AuditUnorderedPairs(model, /*assume_fixed=*/true, nullptr)) {
      AuditPair ap;
      ap.first = model.sites[static_cast<std::size_t>(p.first)];
      ap.second = model.sites[static_cast<std::size_t>(p.second)];
      ap.cls = p.cls;
      fixed_ids.insert(ap.Identity());
    }
    SubsystemStats stats;
    stats.file = model.path;
    stats.sites = static_cast<int>(model.sites.size());
    for (const SitePair& p : buggy) {
      AuditPair ap;
      ap.first = model.sites[static_cast<std::size_t>(p.first)];
      ap.second = model.sites[static_cast<std::size_t>(p.second)];
      ap.cls = p.cls;
      ap.fix_gated = fixed_ids.count(ap.Identity()) == 0;
      if (!ap.fix_gated && ap.cls == PairClass::kStoreLoad) {
        continue;  // TSO-permitted noise; see header
      }
      if (!seen.insert(ap.Identity()).second) {
        continue;
      }
      if (ap.fix_gated) {
        stats.gated += 1;
        gated.push_back(std::move(ap));
      } else {
        stats.residual += 1;
        residual.push_back(std::move(ap));
      }
    }
    if (stats.gated != 0 || stats.residual != 0 || stats.sites != 0) {
      report.subsystems.push_back(std::move(stats));
    }
  }
  std::sort(gated.begin(), gated.end(), PairLess);
  std::sort(residual.begin(), residual.end(), PairLess);
  report.gated_pairs = static_cast<int>(gated.size());
  report.residual_pairs = static_cast<int>(residual.size());
  report.pairs = std::move(gated);
  report.pairs.insert(report.pairs.end(), residual.begin(), residual.end());
  return report;
}

std::set<std::string> UnorderedIdentities(const std::vector<SourceFile>& files,
                                          bool assume_fixed) {
  std::set<std::string> out;
  for (const SourceFile& src : files) {
    FileModel model = ParseFile(src.path, src.contents);
    for (const SitePair& p : AuditUnorderedPairs(model, assume_fixed, nullptr)) {
      AuditPair ap;
      ap.first = model.sites[static_cast<std::size_t>(p.first)];
      ap.second = model.sites[static_cast<std::size_t>(p.second)];
      ap.cls = p.cls;
      out.insert(ap.Identity());
    }
  }
  return out;
}

std::string FormatAuditText(const AuditReport& report) {
  std::ostringstream out;
  out << "== source-level barrier audit ==\n";
  out << "files: " << report.files << "  functions: " << report.functions
      << "  sites: " << report.sites << "\n";
  out << "fix-gated pairs (documented missing-barrier sites): " << report.gated_pairs << "\n";
  out << "residual pairs (baseline): " << report.residual_pairs << "\n";
  out << "dep-ordered pairs (discharged by dependency chains): " << report.dep_ordered_pairs
      << "\n\n";
  auto print = [&](const AuditPair& p) {
    out << "  [" << PairClassName(p.cls) << "] " << p.first.file << ":" << p.first.line << " "
        << p.first.function << " " << p.first.expr << (p.first.is_store ? " (store)" : " (load)")
        << "  ->  line " << p.second.line << " " << p.second.function << " " << p.second.expr
        << (p.second.is_store ? " (store)" : " (load)") << "\n";
  };
  bool any_gated = false;
  for (const AuditPair& p : report.pairs) {
    if (p.fix_gated) {
      if (!any_gated) {
        out << "-- fix-gated --\n";
        any_gated = true;
      }
      print(p);
    }
  }
  bool any_residual = false;
  for (const AuditPair& p : report.pairs) {
    if (!p.fix_gated) {
      if (!any_residual) {
        out << (any_gated ? "\n" : "") << "-- residual --\n";
        any_residual = true;
      }
      print(p);
    }
  }
  out << "\nper-subsystem:\n";
  for (const SubsystemStats& s : report.subsystems) {
    out << "  " << s.file << ": sites=" << s.sites << " gated=" << s.gated
        << " residual=" << s.residual << "\n";
  }
  return out.str();
}

std::string AuditReportJson(const AuditReport& report, const std::string& extra_json_member) {
  std::ostringstream out;
  auto site = [&](const AccessSite& s) {
    std::ostringstream j;
    j << "{\"file\":\"" << JsonEscape(s.file) << "\",\"function\":\"" << JsonEscape(s.function)
      << "\",\"expr\":\"" << JsonEscape(s.expr) << "\",\"line\":" << s.line << ",\"kind\":\""
      << (s.is_store ? "store" : "load") << "\"}";
    return j.str();
  };
  out << "{\n";
  out << "  \"files\": " << report.files << ",\n";
  out << "  \"functions\": " << report.functions << ",\n";
  out << "  \"sites\": " << report.sites << ",\n";
  out << "  \"gated_pairs\": " << report.gated_pairs << ",\n";
  out << "  \"residual_pairs\": " << report.residual_pairs << ",\n";
  out << "  \"dep_ordered_pairs\": " << report.dep_ordered_pairs << ",\n";
  out << "  \"pairs\": [\n";
  for (std::size_t i = 0; i < report.pairs.size(); ++i) {
    const AuditPair& p = report.pairs[i];
    out << "    {\"class\":\"" << PairClassName(p.cls) << "\",\"fix_gated\":"
        << (p.fix_gated ? "true" : "false") << ",\"identity\":\"" << JsonEscape(p.Identity())
        << "\",\"first\":" << site(p.first) << ",\"second\":" << site(p.second) << "}"
        << (i + 1 < report.pairs.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"subsystems\": [\n";
  for (std::size_t i = 0; i < report.subsystems.size(); ++i) {
    const SubsystemStats& s = report.subsystems[i];
    out << "    {\"file\":\"" << JsonEscape(s.file) << "\",\"sites\":" << s.sites
        << ",\"gated\":" << s.gated << ",\"residual\":" << s.residual << "}"
        << (i + 1 < report.subsystems.size() ? "," : "") << "\n";
  }
  out << "  ]";
  if (!extra_json_member.empty()) {
    out << ",\n  " << extra_json_member;
  }
  out << "\n}\n";
  return out.str();
}

}  // namespace ozz::analysis::srcmodel
