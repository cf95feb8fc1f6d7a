// Mutation injectors for the differential fuzz harness: each one corrupts
// a verify::Snapshot copy in a way that violates exactly one verifier
// invariant class, so the fuzzer can assert both directions — real
// pipeline output verifies clean (no false positives), injected
// corruption is detected (no false negatives).
//
// Injectors never touch the service or the borrowed topology; they edit
// the snapshot's owned program/plan/ledger copies. Each returns a
// description of what it corrupted, or nullopt when the snapshot has no
// eligible site (e.g. kReplicaDivergence needs a replicated assignment).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "verify/verifier.h"

namespace clickinc::verify {

enum class Mutation : std::uint8_t {
  // Renames one tenant's deployed state object to another tenant's state
  // name on a shared device -> kTenantIsolation (slot-collision).
  kSlotCollision = 0,
  // Quadruplicates one assignment's instruction list on every replica
  // (claims inflate, ledger does not) -> kOccupancySoundness (over-claim
  // or occupancy-drift, whichever the budget admits).
  kOverClaim,
  // Drops the tail instruction from ONE replica of a replicated
  // assignment -> kReplicaConsistency (replica-divergence).
  kReplicaDivergence,
  // Rewrites an adjacent instruction pair into a fusable pair whose first
  // sub-op writes the shared predicate, and flips the snapshot's
  // plan options to the test-only guard-skip knob so the peephole
  // actually emits the corrupt record -> kIrWellFormed (pred-clobber).
  kPredClobber,
};
inline constexpr int kNumMutations = 4;

const char* toString(Mutation m);

// The invariant class the mutation is designed to trip. Collateral
// violations of other classes are possible (e.g. kPredClobber perturbs
// instruction demands and therefore drifts the ledger); the fuzzer
// asserts the *target* class fires.
Invariant targetInvariant(Mutation m);

// Applies `m` to *snap at a seed-chosen eligible site. Returns what was
// corrupted, or nullopt (snapshot unchanged) when no site qualifies.
// `scope` narrows the eligible sites to those a verify with the same
// options audits: the corrupted placement's tenant in scope_users and its
// device in scope_devices (a renamed state's owner and device, for
// kSlotCollision). With both unset every site qualifies, and the choice
// is the same as without a scope.
std::optional<std::string> injectMutation(Snapshot* snap, Mutation m,
                                          std::uint64_t seed,
                                          const VerifyOptions& scope = {});

}  // namespace clickinc::verify
