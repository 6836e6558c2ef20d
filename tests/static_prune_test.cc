// Soundness regression suite for the static ordering pre-filter
// (src/analysis): pruning provably-ordered hints must never lose a bug.
// Every Table 3/4 scenario is hunted with pruning ON and OFF under the same
// seed and budget; both runs must surface the same crash. A second set of
// tests pins the effectiveness claims: the analyzer proves a meaningful
// fraction of candidate pairs on fixed-form kernels, prunes actual hints on
// the lock-heavy subsystems, and never prunes the hint that triggers a known
// bug.
#include <gtest/gtest.h>

#include <string>

#include "src/analysis/report.h"
#include "src/fuzz/fuzzer.h"
#include "src/fuzz/profile.h"
#include "tests/scenarios.h"

namespace ozz::fuzz {
namespace {

class StaticPruneTest : public ::testing::TestWithParam<Scenario> {
 protected:
  CampaignResult Hunt(bool prune) const {
    const Scenario& s = GetParam();
    FuzzerOptions options;
    options.seed = 99;
    options.max_mti_runs = 3000;
    options.stop_after_bugs = 1;
    // Both tiers together: the soundness claim covers the whole pipeline.
    options.hints.static_prune = prune;
    options.hints.axiomatic_prune = prune;
    if (s.pre_fixed != nullptr) {
      options.kernel_config.fixed.insert(s.pre_fixed);
    }
    options.kernel_config.percpu_migration_hack = s.migration_hack;
    Fuzzer fuzzer(options);
    return fuzzer.RunProg(SeedProgramFor(fuzzer.table(), s.seed));
  }
};

TEST_P(StaticPruneTest, BugSurvivesPruning) {
  const Scenario& s = GetParam();
  CampaignResult with_prune = Hunt(/*prune=*/true);
  CampaignResult without_prune = Hunt(/*prune=*/false);
  ASSERT_EQ(without_prune.bugs.size(), 1u) << "baseline (no pruning) lost " << s.name;
  ASSERT_EQ(with_prune.bugs.size(), 1u)
      << "pruning lost scenario " << s.name << " (pruned "
      << with_prune.hint_stats.hints_pruned() << " of " << with_prune.hint_stats.hints_generated
      << " hints)";
  EXPECT_EQ(with_prune.bugs[0].report.title, without_prune.bugs[0].report.title);
  EXPECT_NE(with_prune.bugs[0].report.title.find(s.crash_needle), std::string::npos);
  // Pruning must never invent hints.
  EXPECT_LE(with_prune.hint_stats.hints_pruned(), with_prune.hint_stats.hints_generated);
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, StaticPruneTest, ::testing::ValuesIn(kBugScenarios),
                         [](const ::testing::TestParamInfo<Scenario>& param_info) {
                           return std::string(param_info.param.name);
                         });

// Effectiveness on fixed-form kernels: with every barrier patch applied the
// analyzer must prove a substantial share of the candidate reorder pairs
// (the ISSUE acceptance floor is 30%). Aggregated across the fixed forms of
// the seed subsystems with known barrier fixes.
TEST(StaticPruneEffectiveness, FixedFormsProveThirtyPercent) {
  const char* kFixedSeeds[] = {"watch_queue", "rds", "vlan", "fs", "nbd", "unix", "smc", "vmci"};
  analysis::PairStats total;
  for (const char* seed_name : kFixedSeeds) {
    osk::KernelConfig config;
    // Apply every fix key so each subsystem runs its patched form.
    for (const Scenario& s : kBugScenarios) {
      config.fixed.insert(s.fix_key);
      if (s.pre_fixed != nullptr) {
        config.fixed.insert(s.pre_fixed);
      }
    }
    osk::Kernel kernel(config);
    osk::InstallDefaultSubsystems(kernel);
    Prog seed = SeedProgramFor(kernel.table(), seed_name);
    ASSERT_FALSE(seed.calls.empty()) << seed_name;
    ProgProfile profile = ProfileProg(seed, config);
    ASSERT_FALSE(profile.crashed) << seed_name << ": " << profile.crash.title;
    for (std::size_t a = 0; a < profile.calls.size(); ++a) {
      for (std::size_t b = 0; b < profile.calls.size(); ++b) {
        if (a == b) {
          continue;
        }
        analysis::PairAnalysis pa(profile.calls[a].trace, profile.calls[b].trace);
        total.Add(pa.ComputeStats());
      }
    }
  }
  ASSERT_GT(total.candidates(), 0u);
  double fraction = static_cast<double>(total.proven()) / static_cast<double>(total.candidates());
  EXPECT_GE(fraction, 0.30) << total.proven() << " of " << total.candidates() << " proven";
}

// The pre-filter must actually fire: on the RDS pair the loop_xmit side is
// fully proven (bit-lock + RMW no-ops), so pruning removes hints there while
// the triggering sendmsg-side suffix hint {data_len, data_ptr} survives.
TEST(StaticPruneEffectiveness, RdsLoopXmitSideFullyPruned) {
  osk::Kernel kernel;
  osk::InstallDefaultSubsystems(kernel);
  Prog seed = SeedProgramFor(kernel.table(), "rds");
  ProgProfile profile = ProfileProg(seed, {});
  ASSERT_GE(profile.calls.size(), 2u);
  const oemu::Trace& sendmsg = profile.calls[0].trace;
  const oemu::Trace& xmit = profile.calls[1].trace;

  HintOptions no_prune;
  no_prune.static_prune = false;
  no_prune.axiomatic_prune = false;
  HintOptions prune;

  // Observer side (loop_xmit reorders): every candidate is proven, so the
  // pre-filter drops every hint.
  HintStats stats;
  std::vector<SchedHint> xmit_hints = ComputeHints(xmit, sendmsg, prune, &stats);
  EXPECT_TRUE(xmit_hints.empty());
  EXPECT_GT(stats.hints_pruned(), 0u);
  EXPECT_EQ(stats.hints_pruned(), stats.hints_generated);

  // Reorder side (sendmsg): the triggering hint — both data stores delayed
  // past the relaxed clear_bit — must survive.
  std::vector<SchedHint> send_hints = ComputeHints(sendmsg, xmit, prune);
  bool trigger_present = false;
  for (const SchedHint& h : send_hints) {
    if (h.store_test && h.reorder.size() == 2) {
      trigger_present = true;
    }
  }
  EXPECT_TRUE(trigger_present) << "the RDS-triggering hint was pruned";
  // And pruning only ever removes hints relative to the unpruned set.
  EXPECT_LE(send_hints.size(), ComputeHints(sendmsg, xmit, no_prune).size());
}

}  // namespace
}  // namespace ozz::fuzz
