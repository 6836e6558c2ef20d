#include "src/fuzz/coverage_gap.h"

#include <set>
#include <sstream>
#include <utility>

#include "src/base/json.h"
#include "src/fuzz/hints.h"
#include "src/fuzz/profile.h"
#include "src/oemu/instr.h"

namespace ozz::fuzz {
namespace {

namespace srcmodel = analysis::srcmodel;
using base::JsonEscape;

// The (normalized file, line) key a static site and a registered InstrId
// join on.
using SiteKey = std::pair<std::string, u32>;

SiteKey KeyOf(const srcmodel::AccessSite& site) {
  return {site.file, static_cast<u32>(site.line)};
}

bool RegisteredKey(InstrId id, SiteKey* key) {
  if (id == kInvalidInstr || id > oemu::InstrRegistry::Count()) {
    return false;
  }
  const oemu::InstrInfo& info = oemu::InstrRegistry::Info(id);
  key->first = srcmodel::NormalizeSrcPath(info.file);
  key->second = info.line;
  return true;
}

}  // namespace

CoverageGap CrossCheckCoverage(const srcmodel::AuditReport& report,
                               const osk::KernelConfig& config) {
  CoverageGap gap;
  gap.static_sites = static_cast<int>(report.site_list.size());

  // Profile the seed programs (one per subsystem — the deterministic part of
  // every campaign) and collect (a) every profiled site and (b) the site set
  // each hint's sched/reorder members cover, per ordered call pair.
  osk::Kernel kernel(config);
  osk::InstallDefaultSubsystems(kernel);
  std::set<SiteKey> profiled;
  std::vector<std::set<SiteKey>> hint_sets;
  HintOptions hint_options;
  hint_options.axiomatic_prune = false;  // exactness not needed for the join
  for (const Prog& seed : SeedPrograms(kernel.table())) {
    ProgProfile profile = ProfileProg(seed, config);
    if (profile.crashed) {
      continue;
    }
    for (InstrId id : profile.coverage) {
      SiteKey key;
      if (RegisteredKey(id, &key)) {
        profiled.insert(std::move(key));
      }
    }
    for (std::size_t a = 0; a < profile.calls.size(); ++a) {
      for (std::size_t b = 0; b < profile.calls.size(); ++b) {
        if (a == b) {
          continue;
        }
        std::set<SiteKey> covered;
        for (const SchedHint& hint :
             ComputeHints(profile.calls[a].trace, profile.calls[b].trace, hint_options)) {
          SiteKey key;
          if (RegisteredKey(hint.sched.instr, &key)) {
            covered.insert(std::move(key));
          }
          for (const DynAccess& access : hint.reorder) {
            if (RegisteredKey(access.instr, &key)) {
              covered.insert(std::move(key));
            }
          }
        }
        if (!covered.empty()) {
          hint_sets.push_back(std::move(covered));
        }
      }
    }
  }

  std::set<SiteKey> seen_sites;
  for (const srcmodel::AccessSite& site : report.site_list) {
    if (!seen_sites.insert(KeyOf(site)).second) {
      continue;  // one entry per (file, line), not per store/load side
    }
    if (profiled.count(KeyOf(site)) != 0) {
      gap.profiled_sites += 1;
    } else {
      gap.unprofiled.push_back(site);
    }
  }

  for (const srcmodel::AuditPair& pair : report.pairs) {
    const SiteKey a = KeyOf(pair.first);
    const SiteKey b = KeyOf(pair.second);
    bool tested = false;
    for (const std::set<SiteKey>& covered : hint_sets) {
      if (covered.count(a) != 0 && covered.count(b) != 0) {
        tested = true;
        break;
      }
    }
    if (tested) {
      gap.tested_pairs += 1;
    } else {
      gap.untested_pairs.push_back(pair);
    }
  }
  return gap;
}

std::string FormatCoverageGap(const CoverageGap& gap) {
  std::ostringstream out;
  out << "== coverage cross-check (static sites vs seed-corpus profile) ==\n";
  out << "static sites: " << gap.static_sites << "  profiled: " << gap.profiled_sites
      << "  never profiled: " << gap.unprofiled.size() << "\n";
  out << "statically-unordered pairs hint-tested: " << gap.tested_pairs
      << "  never tested: " << gap.untested_pairs.size() << "\n";
  for (const auto& site : gap.unprofiled) {
    out << "  never profiled: " << site.file << ":" << site.line << " " << site.function << " "
        << site.expr << "\n";
  }
  for (const auto& pair : gap.untested_pairs) {
    out << "  never hint-tested: [" << srcmodel::PairClassName(pair.cls) << "] "
        << pair.first.file << ":" << pair.first.line << " -> :" << pair.second.line
        << (pair.fix_gated ? " (fix-gated)" : "") << "\n";
  }
  return out.str();
}

std::string CoverageGapJsonMember(const CoverageGap& gap) {
  std::ostringstream out;
  out << "\"coverage\": {\"static_sites\":" << gap.static_sites
      << ",\"profiled_sites\":" << gap.profiled_sites << ",\"tested_pairs\":" << gap.tested_pairs
      << ",\"unprofiled\":[";
  for (std::size_t i = 0; i < gap.unprofiled.size(); ++i) {
    const auto& site = gap.unprofiled[i];
    out << (i > 0 ? "," : "") << "{\"file\":\"" << JsonEscape(site.file) << "\",\"line\":"
        << site.line << ",\"expr\":\"" << JsonEscape(site.expr) << "\"}";
  }
  out << "],\"untested_pairs\":[";
  for (std::size_t i = 0; i < gap.untested_pairs.size(); ++i) {
    const auto& pair = gap.untested_pairs[i];
    out << (i > 0 ? "," : "") << "{\"identity\":\"" << JsonEscape(pair.Identity())
        << "\",\"fix_gated\":" << (pair.fix_gated ? "true" : "false") << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace ozz::fuzz
