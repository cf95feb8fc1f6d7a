// Standalone driver for the fuzz harnesses (verify/fuzz.h and
// verify/recovery_fuzz.h).
//
//   fuzz_plans [--seeds N] [--start S] [--out FILE] [--no-mutations]
//              [--fault-steps K] [--recovery]
//
// Default mode runs seeds [S, S+N) through the differential plan-verifier
// harness (fuzzOnce). --recovery runs the crash-point recovery harness
// (fuzzRecoveryOnce) instead: every seed journals a scripted scenario,
// then recovers from a crash at every record boundary and torn offset.
//
// On the first failing seed, prints the failure, writes the seed (and
// failure text) to FILE so CI can upload it as an artifact, and exits
// non-zero. Reproduce a failure with
//   fuzz_plans [--recovery] --start <seed> --seeds 1
//
// In the default mode a sweep of >= 20 seeds also fails if any mutation
// injector never found an eligible site across the whole sweep — a
// wedged injector would silently stop testing its invariant. Every fault
// step also checks the failover batch's scoped audit against a full audit
// and injects each mutation inside the batch's scope (verify/fuzz.h);
// --fault-steps raises the number of steps per seed.
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "verify/fuzz.h"
#include "verify/recovery_fuzz.h"

namespace {

int runRecovery(std::uint64_t start, std::uint64_t seeds,
                const std::string& out_file) {
  long ops = 0, records = 0, cuts = 0, torn = 0, audits = 0, compared = 0;
  long mutations = 0, rejected = 0, failed_closed = 0, mut_clean = 0;
  long ckpt_mut = 0, ckpt_fc = 0, ckpt_clean = 0;
  long defrag_ops = 0, migrate_records = 0;
  for (std::uint64_t seed = start; seed < start + seeds; ++seed) {
    const auto outcome = clickinc::verify::fuzzRecoveryOnce(seed);
    ops += outcome.ops;
    records += outcome.records;
    cuts += outcome.cuts;
    torn += outcome.torn_cuts;
    audits += outcome.audits;
    compared += outcome.compared;
    mutations += outcome.mutations;
    rejected += outcome.mutations_rejected;
    failed_closed += outcome.mutations_failed_closed;
    mut_clean += outcome.mutations_clean;
    ckpt_mut += outcome.ckpt_mutations;
    ckpt_fc += outcome.ckpt_failed_closed;
    ckpt_clean += outcome.ckpt_clean;
    defrag_ops += outcome.defrag_ops;
    migrate_records += outcome.migrate_records;
    if (!outcome.ok) {
      std::cerr << "FAIL seed " << seed << ": " << outcome.failure << "\n"
                << "reproduce: fuzz_plans --recovery --start " << seed
                << " --seeds 1\n";
      if (!out_file.empty()) {
        std::ofstream f(out_file);
        f << "mode=recovery\nseed=" << seed << "\n"
          << outcome.failure << "\n";
      }
      return 1;
    }
  }
  std::cout << seeds << " recovery seeds clean: " << ops << " ops, "
            << records << " journal records, " << cuts
            << " crash points (" << torn << " torn), " << audits
            << " clean post-recovery audits, " << compared
            << " bit-identical prefix matches; " << mutations
            << " byte mutations (" << rejected << " rejected by framing, "
            << failed_closed << " failed closed, " << mut_clean
            << " recovered clean)\n"
            << "  checkpoint-file mutations: " << ckpt_mut << " ("
            << ckpt_fc << " failed closed, " << ckpt_clean
            << " recovered clean)\n"
            << "  defrag coverage: " << defrag_ops << " scripted passes, "
            << migrate_records << " migrate/migrate-abort records\n";
  // Starvation gates mirroring the default mode: a sweep long enough to
  // expect coverage must actually exercise the checkpoint-payload
  // injectors and land cuts inside migration runs.
  if (seeds >= 20 && (ckpt_mut == 0 || migrate_records == 0)) {
    std::cerr << "FAIL: recovery sweep starved ("
              << (ckpt_mut == 0 ? "no checkpoint-payload mutation sites"
                                : "no migrate records journaled")
              << " across the sweep)\n";
    if (!out_file.empty()) {
      std::ofstream f(out_file);
      f << "mode=recovery\nstarved sweep across seeds [" << start << ", "
        << start + seeds << ")\n";
    }
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seeds = 50;
  std::uint64_t start = 1;
  std::string out_file;
  bool recovery = false;
  clickinc::verify::FuzzOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seeds") {
      seeds = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--start") {
      start = std::strtoull(next(), nullptr, 10);
    } else if (arg == "--out") {
      out_file = next();
    } else if (arg == "--no-mutations") {
      opts.mutations = false;
    } else if (arg == "--fault-steps") {
      opts.fault_steps = static_cast<int>(std::strtol(next(), nullptr, 10));
    } else if (arg == "--recovery") {
      recovery = true;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return 2;
    }
  }

  if (recovery) return runRecovery(start, seeds, out_file);

  long checkpoints = 0, fired = 0, skipped = 0, checks = 0, deployed = 0;
  long scoped_batches = 0;
  long fired_by[clickinc::verify::kNumMutations] = {};
  long skipped_by[clickinc::verify::kNumMutations] = {};
  long scoped_fired_by[clickinc::verify::kNumMutations] = {};
  for (std::uint64_t seed = start; seed < start + seeds; ++seed) {
    const auto outcome = clickinc::verify::fuzzOnce(seed, opts);
    checkpoints += outcome.checkpoints;
    fired += outcome.mutations_fired;
    skipped += outcome.mutations_skipped;
    checks += outcome.checks;
    deployed += outcome.tenants_deployed;
    scoped_batches += outcome.scoped_batches;
    for (int m = 0; m < clickinc::verify::kNumMutations; ++m) {
      fired_by[m] += outcome.fired_by[m];
      skipped_by[m] += outcome.skipped_by[m];
      scoped_fired_by[m] += outcome.scoped_fired_by[m];
    }
    if (!outcome.ok) {
      std::cerr << "FAIL seed " << seed << ": " << outcome.failure << "\n"
                << "reproduce: fuzz_plans --fault-steps "
                << opts.fault_steps << " --start " << seed
                << " --seeds 1\n";
      if (!out_file.empty()) {
        std::ofstream f(out_file);
        f << "seed=" << seed << "\n" << outcome.failure << "\n";
      }
      return 1;
    }
  }
  std::cout << seeds << " seeds clean: " << checkpoints
            << " clean audits, " << deployed << " tenants deployed, "
            << fired << " mutations detected (" << skipped
            << " skipped for lack of an eligible site), " << checks
            << " verifier checks total; " << scoped_batches
            << " failover batches moved a tenant, and every batch's "
               "scoped audit matched a full audit\n";
  bool starved = false;
  for (int m = 0; m < clickinc::verify::kNumMutations; ++m) {
    std::cout << "  " << clickinc::verify::toString(
                             static_cast<clickinc::verify::Mutation>(m))
              << ": " << fired_by[m] << " detected, " << skipped_by[m]
              << " skipped; " << scoped_fired_by[m]
              << " detected inside a failover batch's scope\n";
    if (opts.mutations && seeds >= 20 && fired_by[m] == 0) starved = true;
  }
  if (starved) {
    std::cerr << "FAIL: a mutation injector found zero eligible sites "
                 "across the sweep (its invariant went untested)\n";
    if (!out_file.empty()) {
      std::ofstream f(out_file);
      f << "starved mutation injector across seeds [" << start << ", "
        << start + seeds << ")\n";
    }
    return 1;
  }
  return 0;
}
