#include "src/analysis/srcmodel/races.h"

#include <algorithm>
#include <sstream>

#include "src/analysis/srcmodel/deps.h"
#include "src/base/json.h"
#include "src/oemu/memory_model.h"

namespace ozz::analysis::srcmodel {
namespace {

using base::JsonEscape;
using oemu::MemoryModel;

// Conflicting-pair grouping key: spaces stripped and array subscripts
// canonicalized (`fd[slot]`, `fd[fd]`, `fd[i]` all target `fd[]`) — array
// elements may alias, and the publish/observe sides of a slot protocol
// almost never spell the index identically.
std::string CanonTarget(const std::string& expr) {
  std::string out;
  int depth = 0;
  for (char c : expr) {
    if (c == '[') {
      if (depth == 0) {
        out.push_back('[');
      }
      ++depth;
      continue;
    }
    if (c == ']') {
      --depth;
      if (depth == 0) {
        out.push_back(']');
      }
      continue;
    }
    if (depth == 0 && c != ' ') {
      out.push_back(c);
    }
  }
  return out;
}

// Per-(fix mode) facts about one file: must-hold locksets plus, per model,
// the unordered same-thread pairs of the barrier dataflow (run with lock
// suppression off — lockedness is decided per cross-thread pair instead).
struct ModeFacts {
  LockModel locks;
  IrqModel irq;
  std::map<std::string, std::vector<SitePair>> unordered;  // model name -> pairs
  // Load-load pairs the dataflow reclassified as dependency-ordered under
  // each model — the would-be witnesses the dep chains neutralized.
  std::map<std::string, std::vector<SitePair>> dep_discharged;
};

ModeFacts ComputeModeFacts(const FileModel& fm, const DepInfo& deps, bool assume_fixed,
                           const std::vector<const MemoryModel*>& models) {
  ModeFacts facts;
  facts.locks = ComputeLockModel(fm, assume_fixed);
  facts.irq = ComputeIrqModel(fm, assume_fixed);
  for (const MemoryModel* m : models) {
    const std::set<std::pair<int, int>> dep_ordered = DepOrderedPairs(deps, *m);
    std::set<std::pair<int, int>> discharged;
    DataflowOptions opts;
    opts.assume_fixed = assume_fixed;
    opts.model = m;
    opts.suppress_locked = false;
    opts.dep_ordered = &dep_ordered;
    opts.dep_discharged = &discharged;
    facts.unordered[m->name()] = UnorderedPairs(fm, opts);
    std::vector<SitePair>& dd = facts.dep_discharged[m->name()];
    for (const auto& [a, b] : discharged) {
      dd.push_back(SitePair{a, b, PairClass::kLoadLoad});
    }
  }
  return facts;
}

// Every (canonical location, kind) a function touches, ghost sites included
// — the cross-thread half of the protocol-relevance check below. Closed over
// same-file callees (syscall entry points reach protocol flags through
// helpers: rds' xmit bit-lock lives in AcquireInXmit/ReleaseInXmit, not in
// the Sendmsg/LoopXmit bodies the race endpoints sit in).
using FnAccessMap = std::map<std::string, std::set<std::pair<std::string, bool>>>;

void CollectCallees(const std::vector<Stmt>& body, std::set<std::string>* out) {
  for (const Stmt& s : body) {
    if (s.kind == Stmt::Kind::kOp && s.op.kind == Op::Kind::kCall) {
      out->insert(s.op.callee);
    }
    CollectCallees(s.body, out);
    CollectCallees(s.else_body, out);
  }
}

FnAccessMap BuildFnAccessMap(const FileModel& fm) {
  FnAccessMap out;
  for (const AccessSite& s : fm.sites) {
    out[s.function].insert({CanonTarget(s.expr), s.is_store});
  }
  std::map<std::string, std::set<std::string>> callees;
  for (const Function& fn : fm.functions) {
    CollectCallees(fn.body, &callees[fn.name]);
  }
  // Transitive closure by iteration: bounded by the call-graph depth, and
  // convergent for recursive cycles (the union is monotone).
  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& [caller, cs] : callees) {
      std::set<std::pair<std::string, bool>>& mine = out[caller];
      const std::size_t before = mine.size();
      for (const std::string& callee : cs) {
        auto it = out.find(callee);
        if (it != out.end() && &it->second != &mine) {
          mine.insert(it->second.begin(), it->second.end());
        }
      }
      changed = changed || mine.size() != before;
    }
  }
  return out;
}

// One protocol-break witness: an unordered same-thread pair, tagged with
// whether the planted fix flags order it (`gated`). The fixed-form witness
// set drops the residual pairs (unordered in both modes — the audit's
// baselined noise, e.g. two init stores ahead of one fence): counting them
// would leave every race "racy even when fixed" through brokenness the
// documented fix was never about.
struct Witness {
  SitePair pair;
  bool gated = false;
};

std::string ProtocolPairId(const FileModel& fm, const SitePair& p) {
  std::string out = SiteIdentity(fm.sites[static_cast<std::size_t>(p.first)]);
  out += '|';
  out += SiteIdentity(fm.sites[static_cast<std::size_t>(p.second)]);
  out += '|';
  out += PairClassName(p.cls);
  return out;
}

std::set<std::string> ProtocolPairIds(const FileModel& fm, const std::vector<SitePair>& pairs) {
  std::set<std::string> out;
  for (const SitePair& p : pairs) {
    out.insert(ProtocolPairId(fm, p));
  }
  return out;
}

// Witnesses for the buggy form: every unordered pair, tagged gated when the
// fixed form orders it. Witnesses for the fixed form: only pairs the fixes
// *introduce* (ordinarily none — fixes add barriers).
std::vector<Witness> BuildWitnesses(const FileModel& fm, const std::vector<SitePair>& pairs,
                                    const std::set<std::string>& other_mode_ids,
                                    bool buggy_mode) {
  std::vector<Witness> out;
  for (const SitePair& p : pairs) {
    const bool in_other = other_mode_ids.count(ProtocolPairId(fm, p)) != 0;
    if (buggy_mode) {
      out.push_back(Witness{p, /*gated=*/!in_other});
    } else if (!in_other) {
      out.push_back(Witness{p, false});
    }
  }
  return out;
}

struct BreakResult {
  bool racy = false;
  bool via_gated = false;  // some break witness is ordered by the fix flags
};

// The matched-protocol raciness test for the cross-thread conflicting pair
// (sites i, j) under one (model, fix mode): the pair is racy iff some
// unordered same-thread pair P witnesses a protocol break that the opposite
// thread can observe. The shapes:
//
//   message passing   writer pair (X[S], F[S]) unordered — X's store can
//                     float past the flag publish — observable iff the
//                     other thread *loads* F; dually, reader pair
//                     (F[L], X[L]) unordered — X's load satisfied before
//                     the flag observe — observable iff the other thread
//                     *stores* F.
//   store buffering   pair (X[S], F[L]) unordered — the load can be
//                     satisfied from before the store drains — observable
//                     iff the other thread conflicts the same way (stores
//                     F / loads X), which the access-map test covers.
//
// Uniformly: an unordered pair with the race endpoint E at either position
// is a break iff the opposite endpoint's function accesses the *other*
// location of P with the opposite kind. Pairs failing that test — e.g. two
// init stores both ahead of the same fence, or a head/tail load pair where
// the other thread never stores tail — are mutual reorderings no
// cross-thread observer can distinguish, which is exactly what keeps the
// fixed forms clean.
BreakResult MatchedBreak(const FileModel& fm, const std::vector<Witness>& witnesses,
                         const FnAccessMap& fn_access, int i, int j) {
  const std::string& fn_i = fm.sites[static_cast<std::size_t>(i)].function;
  const std::string& fn_j = fm.sites[static_cast<std::size_t>(j)].function;
  auto observed = [&](const std::string& opposite_fn, int other_site) {
    const AccessSite& other = fm.sites[static_cast<std::size_t>(other_site)];
    auto it = fn_access.find(opposite_fn);
    return it != fn_access.end() &&
           it->second.count({CanonTarget(other.expr), !other.is_store}) != 0;
  };
  BreakResult out;
  for (const Witness& w : witnesses) {
    const SitePair& p = w.pair;
    const bool matched = (p.first == i && observed(fn_j, p.second)) ||
                         (p.first == j && observed(fn_i, p.second)) ||
                         (p.second == i && observed(fn_j, p.first)) ||
                         (p.second == j && observed(fn_i, p.first));
    if (matched) {
      out.racy = true;
      if (w.gated) {
        out.via_gated = true;
        return out;  // strongest answer; no need to keep scanning
      }
    }
  }
  return out;
}

// Aggregation of every concrete occurrence pair sharing one line-free
// identity (the same expression pair may occur on several line pairs).
struct Agg {
  AccessSite a;
  AccessSite b;
  bool write_write = false;
  bool any_live = false;         // some occurrence reachable in some mode
  bool any_live_buggy = false;
  bool all_locked_buggy = true;  // over live buggy occurrences
  bool gated_witness = false;    // some break goes through a fix-gated pair
  bool dep_ordered = false;      // a dep chain neutralized a would-be break
  bool irq = false;              // same-CPU hardirq x process pair
  bool irq_racy_buggy = false;   // some buggy occurrence has irqs enabled
  bool irq_racy_fixed = false;
  LockSet sample_locks;
  std::set<std::string> racy_buggy;  // model names
  std::set<std::string> racy_fixed;
};

// Same-CPU interrupt pair test: exactly one endpoint runs only in hardirq
// context and the other is process-reachable. Returns the process-side
// site index through `process_site` when it is one.
bool IsIrqPair(const IrqModel& irq, int i, int j, int* process_site) {
  const IrqSiteInfo& a = irq.sites[static_cast<std::size_t>(i)];
  const IrqSiteInfo& b = irq.sites[static_cast<std::size_t>(j)];
  const bool a_hard = a.context == IrqContext::kHardirq;
  const bool b_hard = b.context == IrqContext::kHardirq;
  if (a_hard == b_hard) {
    return false;  // both handler-side, or an ordinary cross-thread pair
  }
  *process_site = a_hard ? j : i;
  return true;
}

// Canonical orientation: store side first; ties (write-write or symmetric)
// break on the site identity so the pair identity is stable.
void Orient(const AccessSite& x, const AccessSite& y, AccessSite* first, AccessSite* second) {
  if (x.is_store != y.is_store) {
    *first = x.is_store ? x : y;
    *second = x.is_store ? y : x;
    return;
  }
  if (SiteIdentity(x) <= SiteIdentity(y)) {
    *first = x;
    *second = y;
  } else {
    *first = y;
    *second = x;
  }
}

std::string PairIdentity(const AccessSite& first, const AccessSite& second, bool ww) {
  std::string out = SiteIdentity(first);
  out += " <-> ";
  out += SiteIdentity(second);
  out += ww ? " W-W" : " W-R";
  return out;
}

bool Intersects(const LockSet& a, const LockSet& b, LockSet* common) {
  LockSet both;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::inserter(both, both.begin()));
  if (both.empty()) {
    return false;
  }
  if (common != nullptr) {
    *common = std::move(both);
  }
  return true;
}

bool RacePairLess(const RacePair& a, const RacePair& b) {
  if (a.first.file != b.first.file) {
    return a.first.file < b.first.file;
  }
  if (a.first.line != b.first.line) {
    return a.first.line < b.first.line;
  }
  if (a.second.line != b.second.line) {
    return a.second.line < b.second.line;
  }
  return a.Identity() < b.Identity();
}

}  // namespace

std::string RacePair::Identity() const {
  return PairIdentity(first, second, write_write);
}

RaceReport RunRaceAnalysis(const std::vector<SourceFile>& files) {
  return RunRaceAnalysis(files, MemoryModel::All());
}

RaceReport RunRaceAnalysis(const std::vector<SourceFile>& files,
                           const std::vector<const MemoryModel*>& models) {
  RaceReport report;
  for (const MemoryModel* m : models) {
    report.models.push_back(m->name());
  }
  std::vector<RacePair> gated;
  std::vector<RacePair> residual;
  std::set<std::string> seen;  // identity dedup across files (paths collide only on reparse)

  for (const SourceFile& src : files) {
    FileModel fm = ParseFile(src.path, src.contents);
    if (fm.functions.empty() && fm.sites.empty()) {
      continue;
    }
    report.files_scanned += 1;
    report.sites += static_cast<int>(fm.sites.size());

    const DepInfo deps = RecoverDeps(fm);
    const ModeFacts buggy = ComputeModeFacts(fm, deps, /*assume_fixed=*/false, models);
    const ModeFacts fixed = ComputeModeFacts(fm, deps, /*assume_fixed=*/true, models);
    const FnAccessMap fn_access = BuildFnAccessMap(fm);
    std::map<std::string, std::vector<Witness>> wit_buggy;
    std::map<std::string, std::vector<Witness>> wit_fixed;
    // Dep-discharged pairs, replayed through the same matched-protocol test:
    // a conflicting pair whose only would-be break was neutralized by a
    // dependency chain earns the dep-ordered verdict (vs plain ordered).
    std::map<std::string, std::vector<Witness>> wit_dep;
    for (const MemoryModel* m : models) {
      const std::vector<SitePair>& pb = buggy.unordered.at(m->name());
      const std::vector<SitePair>& pf = fixed.unordered.at(m->name());
      wit_buggy[m->name()] = BuildWitnesses(fm, pb, ProtocolPairIds(fm, pf), true);
      wit_fixed[m->name()] = BuildWitnesses(fm, pf, ProtocolPairIds(fm, pb), false);
      std::vector<Witness>& wd = wit_dep[m->name()];
      for (const ModeFacts* facts : {&buggy, &fixed}) {
        for (const SitePair& p : facts->dep_discharged.at(m->name())) {
          wd.push_back(Witness{p, false});
        }
      }
    }

    // Conflicting-pair enumeration: same canonical target, >= 1 store.
    std::map<std::string, std::vector<int>> by_target;
    for (std::size_t i = 0; i < fm.sites.size(); ++i) {
      by_target[CanonTarget(fm.sites[i].expr)].push_back(static_cast<int>(i));
    }
    std::map<std::string, Agg> aggs;
    for (const auto& [target, indices] : by_target) {
      for (std::size_t x = 0; x < indices.size(); ++x) {
        for (std::size_t y = x + 1; y < indices.size(); ++y) {
          int i = indices[x];
          int j = indices[y];
          const AccessSite& si = fm.sites[static_cast<std::size_t>(i)];
          const AccessSite& sj = fm.sites[static_cast<std::size_t>(j)];
          if (!si.is_store && !sj.is_store) {
            continue;  // load/load never conflicts
          }
          AccessSite first;
          AccessSite second;
          Orient(si, sj, &first, &second);
          const bool ww = si.is_store && sj.is_store;
          Agg& agg = aggs[PairIdentity(first, second, ww)];
          if (!agg.any_live) {
            agg.a = first;
            agg.b = second;
            agg.write_write = ww;
          }
          for (int mode = 0; mode < 2; ++mode) {
            const ModeFacts& facts = mode == 0 ? buggy : fixed;
            auto hi = facts.locks.must_hold.find(i);
            auto hj = facts.locks.must_hold.find(j);
            if (hi == facts.locks.must_hold.end() || hj == facts.locks.must_hold.end()) {
              continue;  // an endpoint is unreachable under this fix mode
            }
            agg.any_live = true;
            int process_site = -1;
            if (IsIrqPair(facts.irq, i, j, &process_site)) {
              // Same-CPU pair: the cross-thread matched-break test does not
              // apply (a shared spinlock cannot serialize against this CPU's
              // own handler — that shape is the self-deadlock rule's job).
              // The verdict is purely whether the process endpoint runs with
              // interrupts masked.
              agg.irq = true;
              if (mode == 0) {
                agg.any_live_buggy = true;
              }
              const bool masked =
                  facts.irq.sites[static_cast<std::size_t>(process_site)].must_irqs_off;
              if (!masked) {
                (mode == 0 ? agg.irq_racy_buggy : agg.irq_racy_fixed) = true;
              }
              continue;
            }
            LockSet common;
            const bool locked = Intersects(hi->second, hj->second, &common);
            if (mode == 0) {
              agg.any_live_buggy = true;
              if (locked) {
                if (agg.sample_locks.empty()) {
                  agg.sample_locks = std::move(common);
                }
              } else {
                agg.all_locked_buggy = false;
              }
            }
            if (locked) {
              continue;  // the two critical sections serialize
            }
            for (const MemoryModel* m : models) {
              const std::vector<Witness>& wit =
                  mode == 0 ? wit_buggy.at(m->name()) : wit_fixed.at(m->name());
              BreakResult br = MatchedBreak(fm, wit, fn_access, i, j);
              if (br.racy) {
                (mode == 0 ? agg.racy_buggy : agg.racy_fixed).insert(m->name());
              }
              if (mode == 0 && br.via_gated) {
                agg.gated_witness = true;
              }
              if (MatchedBreak(fm, wit_dep.at(m->name()), fn_access, i, j).racy) {
                agg.dep_ordered = true;
              }
            }
          }
        }
      }
    }

    FileRaceStats stats;
    stats.file = fm.path;
    stats.sites = static_cast<int>(fm.sites.size());
    for (const std::string& m : report.models) {
      stats.gated_by_model[m] = 0;
      stats.residual_by_model[m] = 0;
    }
    for (auto& [identity, agg] : aggs) {
      if (!agg.any_live) {
        continue;  // dead under both fix assumptions
      }
      stats.conflicting += 1;
      if (agg.irq) {
        // Same-CPU interrupt pair: model-independent verdict. An irq-racy
        // form is racy under *every* backend (the interrupt interleaving
        // needs no memory-model relaxation), so the per-model matrix counts
        // it in every column.
        if (!agg.irq_racy_buggy && !agg.irq_racy_fixed) {
          stats.irq_masked += 1;
          continue;
        }
        RacePair pair;
        pair.first = agg.a;
        pair.second = agg.b;
        pair.write_write = agg.write_write;
        pair.irq = true;
        pair.irq_racy_buggy = agg.irq_racy_buggy;
        pair.irq_racy_fixed = agg.irq_racy_fixed;
        if (agg.irq_racy_buggy) {
          pair.racy_models = report.models;
        }
        if (agg.irq_racy_fixed) {
          pair.racy_fixed_models = report.models;
        }
        pair.fix_gated = agg.irq_racy_buggy && !agg.irq_racy_fixed;
        for (const std::string& m : report.models) {
          (pair.fix_gated ? stats.gated_by_model : stats.residual_by_model)[m] += 1;
        }
        if (!seen.insert(identity).second) {
          continue;
        }
        if (pair.fix_gated) {
          gated.push_back(std::move(pair));
        } else {
          residual.push_back(std::move(pair));
        }
        continue;
      }
      const bool racy_somewhere = !agg.racy_buggy.empty() || !agg.racy_fixed.empty();
      if (!racy_somewhere) {
        if (agg.any_live_buggy && agg.all_locked_buggy) {
          stats.locked += 1;
        } else if (agg.dep_ordered) {
          stats.dep_ordered += 1;
        } else {
          stats.ordered += 1;
        }
        continue;
      }
      RacePair pair;
      pair.first = agg.a;
      pair.second = agg.b;
      pair.write_write = agg.write_write;
      pair.racy_models.assign(agg.racy_buggy.begin(), agg.racy_buggy.end());
      pair.racy_fixed_models.assign(agg.racy_fixed.begin(), agg.racy_fixed.end());
      pair.fix_gated =
          !agg.racy_buggy.empty() && agg.racy_fixed.empty() && agg.gated_witness;
      pair.dep_ordered = agg.dep_ordered;
      pair.sample_locks = agg.sample_locks;
      for (const std::string& m : report.models) {
        if (agg.racy_buggy.count(m) != 0 || agg.racy_fixed.count(m) != 0) {
          (pair.fix_gated ? stats.gated_by_model : stats.residual_by_model)[m] += 1;
        }
      }
      if (!seen.insert(identity).second) {
        continue;
      }
      if (pair.fix_gated) {
        gated.push_back(std::move(pair));
      } else {
        residual.push_back(std::move(pair));
      }
    }

    stats.deadlocks = static_cast<int>(buggy.locks.cycles.size());
    for (const DeadlockCycle& cycle : buggy.locks.cycles) {
      report.deadlocks.push_back(FileDeadlock{fm.path, cycle});
    }
    const std::vector<IrqDeadlockCandidate> irq_dl = IrqDeadlockCandidates(buggy.irq);
    stats.irq_deadlocks = static_cast<int>(irq_dl.size());
    for (const IrqDeadlockCandidate& cand : irq_dl) {
      report.irq_deadlocks.push_back(FileIrqDeadlock{fm.path, cand});
    }
    report.conflicting += stats.conflicting;
    report.locked += stats.locked;
    report.ordered += stats.ordered;
    report.dep_ordered += stats.dep_ordered;
    report.irq_masked += stats.irq_masked;
    report.files.push_back(std::move(stats));
  }

  std::sort(gated.begin(), gated.end(), RacePairLess);
  std::sort(residual.begin(), residual.end(), RacePairLess);
  report.gated = static_cast<int>(gated.size());
  report.residual = static_cast<int>(residual.size());
  report.races = std::move(gated);
  report.races.insert(report.races.end(), residual.begin(), residual.end());
  return report;
}

std::set<std::string> RacyIdentities(const std::vector<SourceFile>& files,
                                     const MemoryModel* model, bool assume_fixed) {
  std::set<std::string> out;
  const std::vector<const MemoryModel*> models = {model};
  for (const SourceFile& src : files) {
    FileModel fm = ParseFile(src.path, src.contents);
    if (fm.functions.empty() && fm.sites.empty()) {
      continue;
    }
    const DepInfo deps = RecoverDeps(fm);
    const ModeFacts mode_facts = ComputeModeFacts(fm, deps, assume_fixed, models);
    const ModeFacts other_facts = ComputeModeFacts(fm, deps, !assume_fixed, models);
    const std::vector<Witness> witnesses = BuildWitnesses(
        fm, mode_facts.unordered.at(model->name()),
        ProtocolPairIds(fm, other_facts.unordered.at(model->name())),
        /*buggy_mode=*/!assume_fixed);
    const LockModel& locks = mode_facts.locks;
    const FnAccessMap fn_access = BuildFnAccessMap(fm);
    std::map<std::string, std::vector<int>> by_target;
    for (std::size_t i = 0; i < fm.sites.size(); ++i) {
      by_target[CanonTarget(fm.sites[i].expr)].push_back(static_cast<int>(i));
    }
    for (const auto& [target, indices] : by_target) {
      for (std::size_t x = 0; x < indices.size(); ++x) {
        for (std::size_t y = x + 1; y < indices.size(); ++y) {
          int i = indices[x];
          int j = indices[y];
          const AccessSite& si = fm.sites[static_cast<std::size_t>(i)];
          const AccessSite& sj = fm.sites[static_cast<std::size_t>(j)];
          if (!si.is_store && !sj.is_store) {
            continue;
          }
          auto hi = locks.must_hold.find(i);
          auto hj = locks.must_hold.find(j);
          if (hi == locks.must_hold.end() || hj == locks.must_hold.end()) {
            continue;
          }
          int process_site = -1;
          if (IsIrqPair(mode_facts.irq, i, j, &process_site)) {
            // Same-CPU irq pair: the verdict is interleaving-based (no lock
            // intersect, no cross-thread protocol break) and model-free.
            if (!mode_facts.irq.sites[static_cast<std::size_t>(process_site)].must_irqs_off) {
              AccessSite first;
              AccessSite second;
              Orient(si, sj, &first, &second);
              out.insert(PairIdentity(first, second, si.is_store && sj.is_store));
            }
            continue;
          }
          if (Intersects(hi->second, hj->second, nullptr)) {
            continue;
          }
          if (!MatchedBreak(fm, witnesses, fn_access, i, j).racy) {
            continue;
          }
          AccessSite first;
          AccessSite second;
          Orient(si, sj, &first, &second);
          out.insert(PairIdentity(first, second, si.is_store && sj.is_store));
        }
      }
    }
  }
  return out;
}

std::string FormatRaceText(const RaceReport& report, const std::string& focus_model) {
  std::ostringstream out;
  out << "== model-aware static race & deadlock analysis ==\n";
  out << "files: " << report.files_scanned << "  sites: " << report.sites
      << "  conflicting pairs: " << report.conflicting << "\n";
  out << "locked: " << report.locked << "  barrier-ordered: " << report.ordered
      << "  dep-ordered: " << report.dep_ordered << "  irq-masked: " << report.irq_masked
      << "  fix-gated races: " << report.gated << "  residual races: " << report.residual
      << "\n\n";
  out << "per-model race matrix (fix-gated/residual):\n";
  for (const std::string& m : report.models) {
    int g = 0;
    int r = 0;
    for (const FileRaceStats& f : report.files) {
      g += f.gated_by_model.count(m) != 0 ? f.gated_by_model.at(m) : 0;
      r += f.residual_by_model.count(m) != 0 ? f.residual_by_model.at(m) : 0;
    }
    out << "  " << m << ": " << g << "/" << r << "\n";
  }
  auto print = [&](const RacePair& p) {
    out << "  [" << (p.write_write ? "W-W" : "W-R") << "]" << (p.irq ? " [IRQ]" : "") << " "
        << p.first.file << ":" << p.first.line << " " << p.first.function << " " << p.first.expr
        << (p.first.is_store ? " (store)" : " (load)") << "  <->  line " << p.second.line << " "
        << p.second.function << " " << p.second.expr
        << (p.second.is_store ? " (store)" : " (load)");
    if (p.irq) {
      out << "  verdict: " << (p.irq_racy_buggy ? "irq-racy" : "irq-masked")
          << " (fixed: " << (p.irq_racy_fixed ? "irq-racy" : "irq-masked") << ")";
      out << "\n";
      return;
    }
    out << "  racy under:";
    for (const std::string& m : p.racy_models) {
      out << " " << m;
    }
    if (!p.racy_fixed_models.empty()) {
      out << "  (fixed form:";
      for (const std::string& m : p.racy_fixed_models) {
        out << " " << m;
      }
      out << ")";
    }
    if (p.dep_ordered) {
      out << "  [dep-ordered when fixed]";
    }
    out << "\n";
  };
  auto listed = [&](const RacePair& p) {
    if (focus_model.empty()) {
      return true;
    }
    for (const std::string& m : p.racy_models) {
      if (m == focus_model) {
        return true;
      }
    }
    for (const std::string& m : p.racy_fixed_models) {
      if (m == focus_model) {
        return true;
      }
    }
    return false;
  };
  bool any_gated = false;
  for (const RacePair& p : report.races) {
    if (p.fix_gated && listed(p)) {
      if (!any_gated) {
        out << "\n-- fix-gated races"
            << (focus_model.empty() ? "" : " under " + focus_model) << " --\n";
        any_gated = true;
      }
      print(p);
    }
  }
  bool any_residual = false;
  for (const RacePair& p : report.races) {
    if (!p.fix_gated && listed(p)) {
      if (!any_residual) {
        out << "\n-- residual races"
            << (focus_model.empty() ? "" : " under " + focus_model) << " --\n";
        any_residual = true;
      }
      print(p);
    }
  }
  out << "\n-- deadlock candidates --\n";
  if (report.deadlocks.empty()) {
    out << "  none\n";
  }
  for (const FileDeadlock& d : report.deadlocks) {
    out << "  " << d.file << ":";
    for (const std::string& l : d.cycle.locks) {
      out << " " << l;
    }
    out << "\n";
    for (const LockOrderEdge& e : d.cycle.edges) {
      out << "    " << e.held << " -> " << e.acquired << " (" << e.function << ":" << e.line
          << ")\n";
    }
  }
  out << "\n-- irq self-deadlock candidates --\n";
  if (report.irq_deadlocks.empty()) {
    out << "  none\n";
  }
  for (const FileIrqDeadlock& d : report.irq_deadlocks) {
    out << "  " << d.file << ": " << d.candidate.lock_id << " taken in hardirq ("
        << d.candidate.hardirq_function << ":" << d.candidate.hardirq_line
        << ") and process-side with irqs on (" << d.candidate.process_function << ":"
        << d.candidate.process_line << ")\n";
  }
  out << "\nper-subsystem:\n";
  for (const FileRaceStats& f : report.files) {
    out << "  " << f.file << ": sites=" << f.sites << " conflicting=" << f.conflicting
        << " locked=" << f.locked << " ordered=" << f.ordered << " dep-ordered=" << f.dep_ordered
        << " irq-masked=" << f.irq_masked << " deadlocks=" << f.deadlocks
        << " irq-deadlocks=" << f.irq_deadlocks << "\n";
  }
  return out.str();
}

std::string RaceReportJson(const RaceReport& report) {
  std::ostringstream out;
  auto site = [&](const AccessSite& s) {
    std::ostringstream j;
    j << "{\"file\":\"" << JsonEscape(s.file) << "\",\"function\":\"" << JsonEscape(s.function)
      << "\",\"expr\":\"" << JsonEscape(s.expr) << "\",\"line\":" << s.line << ",\"kind\":\""
      << (s.is_store ? "store" : "load") << "\"}";
    return j.str();
  };
  auto names = [&](const std::vector<std::string>& ms) {
    std::ostringstream j;
    j << "[";
    for (std::size_t i = 0; i < ms.size(); ++i) {
      j << "\"" << JsonEscape(ms[i]) << "\"" << (i + 1 < ms.size() ? "," : "");
    }
    j << "]";
    return j.str();
  };
  out << "{\n";
  out << "  \"models\": " << names(report.models) << ",\n";
  out << "  \"files\": " << report.files_scanned << ",\n";
  out << "  \"sites\": " << report.sites << ",\n";
  out << "  \"conflicting\": " << report.conflicting << ",\n";
  out << "  \"locked\": " << report.locked << ",\n";
  out << "  \"ordered\": " << report.ordered << ",\n";
  out << "  \"dep_ordered\": " << report.dep_ordered << ",\n";
  out << "  \"irq_masked\": " << report.irq_masked << ",\n";
  out << "  \"gated_races\": " << report.gated << ",\n";
  out << "  \"residual_races\": " << report.residual << ",\n";
  out << "  \"races\": [\n";
  for (std::size_t i = 0; i < report.races.size(); ++i) {
    const RacePair& p = report.races[i];
    out << "    {\"identity\":\"" << JsonEscape(p.Identity()) << "\",\"write_write\":"
        << (p.write_write ? "true" : "false") << ",\"fix_gated\":"
        << (p.fix_gated ? "true" : "false") << ",\"dep_ordered\":"
        << (p.dep_ordered ? "true" : "false") << ",\"irq\":" << (p.irq ? "true" : "false");
    if (p.irq) {
      out << ",\"irq_verdict\":\"" << (p.irq_racy_buggy ? "irq-racy" : "irq-masked")
          << "\",\"irq_verdict_fixed\":\"" << (p.irq_racy_fixed ? "irq-racy" : "irq-masked")
          << "\"";
    }
    out << ",\"racy_models\":" << names(p.racy_models)
        << ",\"racy_fixed_models\":" << names(p.racy_fixed_models)
        << ",\"first\":" << site(p.first) << ",\"second\":" << site(p.second) << "}"
        << (i + 1 < report.races.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"deadlocks\": [\n";
  for (std::size_t i = 0; i < report.deadlocks.size(); ++i) {
    const FileDeadlock& d = report.deadlocks[i];
    out << "    {\"file\":\"" << JsonEscape(d.file) << "\",\"locks\":" << names(d.cycle.locks)
        << ",\"edges\":[";
    for (std::size_t e = 0; e < d.cycle.edges.size(); ++e) {
      const LockOrderEdge& edge = d.cycle.edges[e];
      out << "{\"held\":\"" << JsonEscape(edge.held) << "\",\"acquired\":\""
          << JsonEscape(edge.acquired) << "\",\"function\":\"" << JsonEscape(edge.function)
          << "\",\"line\":" << edge.line << "}" << (e + 1 < d.cycle.edges.size() ? "," : "");
    }
    out << "]}" << (i + 1 < report.deadlocks.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"irq_deadlocks\": [\n";
  for (std::size_t i = 0; i < report.irq_deadlocks.size(); ++i) {
    const FileIrqDeadlock& d = report.irq_deadlocks[i];
    out << "    {\"file\":\"" << JsonEscape(d.file) << "\",\"lock\":\""
        << JsonEscape(d.candidate.lock_id) << "\",\"hardirq_function\":\""
        << JsonEscape(d.candidate.hardirq_function)
        << "\",\"hardirq_line\":" << d.candidate.hardirq_line << ",\"process_function\":\""
        << JsonEscape(d.candidate.process_function)
        << "\",\"process_line\":" << d.candidate.process_line << "}"
        << (i + 1 < report.irq_deadlocks.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  out << "  \"subsystems\": [\n";
  for (std::size_t i = 0; i < report.files.size(); ++i) {
    const FileRaceStats& f = report.files[i];
    out << "    {\"file\":\"" << JsonEscape(f.file) << "\",\"sites\":" << f.sites
        << ",\"conflicting\":" << f.conflicting << ",\"locked\":" << f.locked
        << ",\"ordered\":" << f.ordered << ",\"dep_ordered\":" << f.dep_ordered
        << ",\"irq_masked\":" << f.irq_masked << ",\"deadlocks\":" << f.deadlocks
        << ",\"irq_deadlocks\":" << f.irq_deadlocks << ",\"gated\":{";
    bool first = true;
    for (const auto& [m, count] : f.gated_by_model) {
      out << (first ? "" : ",") << "\"" << JsonEscape(m) << "\":" << count;
      first = false;
    }
    out << "},\"residual\":{";
    first = true;
    for (const auto& [m, count] : f.residual_by_model) {
      out << (first ? "" : ",") << "\"" << JsonEscape(m) << "\":" << count;
      first = false;
    }
    out << "}}" << (i + 1 < report.files.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return out.str();
}

std::string RaceBaselineMatrix(const RaceReport& report) {
  std::ostringstream out;
  for (const std::string& m : report.models) {
    for (const FileRaceStats& f : report.files) {
      int g = f.gated_by_model.count(m) != 0 ? f.gated_by_model.at(m) : 0;
      int r = f.residual_by_model.count(m) != 0 ? f.residual_by_model.at(m) : 0;
      out << m << "|" << f.file << "|" << g << "|" << r << "\n";
    }
  }
  return out.str();
}

}  // namespace ozz::analysis::srcmodel
