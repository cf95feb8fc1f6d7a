// ClickIncService: the One-Big-INC façade (paper §3, Fig. 2/3).
//
// Tenants submit a SubmitRequest (template | source | compiled IR, plus a
// traffic spec); the service admits each one against live state, under
// the service lock, in one pass: parse -> lower -> block DAG -> tree-DP
// placement (§5) -> claim resources -> synthesize per-device programs (§6)
// -> deploy onto the emulated network -> verify -> journal.
//
// submit() runs that pass on the caller's thread. submitAsync() queues
// the request onto one FIFO served by one worker thread that runs the
// same pass, so tickets resolve in submit order with the ids and plans a
// sequence of submit() calls would produce. submitAll() is that sequence
// for a batch. Failures are structured ServiceErrors (core/api.h).
// Removal is annotation-driven and lazy by default. See docs/service.md
// for the lifecycle and error taxonomy.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/api.h"
#include "durable/journal.h"
#include "durable/serialize.h"
#include "emu/emulator.h"
#include "emu/fault.h"
#include "modules/profile.h"
#include "modules/templates.h"
#include "place/treedp.h"
#include "scale/domains.h"
#include "synth/synthesizer.h"
#include "topo/ec.h"
#include "util/thread_pool.h"

namespace clickinc::core {

// Handle of one queued asynchronous submission. Copyable;
// every copy refers to the same eventual SubmitResult. The result is
// produced exactly once; get() blocks until it is ready.
class SubmissionTicket {
 public:
  enum class Status { kInvalid, kPending, kReady };

  SubmissionTicket() = default;

  bool valid() const { return fut_.valid(); }
  Status status() const {
    if (!fut_.valid()) return Status::kInvalid;
    return fut_.wait_for(std::chrono::seconds(0)) == std::future_status::ready
               ? Status::kReady
               : Status::kPending;
  }
  bool done() const { return status() == Status::kReady; }
  void wait() const {
    if (fut_.valid()) fut_.wait();
  }
  // Blocks until the submission committed (or failed) and returns its
  // result; valid across repeated calls and across ticket copies.
  const SubmitResult& get() const { return fut_.get(); }

 private:
  friend class ClickIncService;
  explicit SubmissionTicket(std::shared_future<SubmitResult> fut)
      : fut_(std::move(fut)) {}

  std::shared_future<SubmitResult> fut_;
};

class ClickIncService {
 public:
  explicit ClickIncService(topo::Topology topo, std::uint64_t seed = 42);
  ~ClickIncService();  // runs every queued submitAsync() request first
  ClickIncService(const ClickIncService&) = delete;
  ClickIncService& operator=(const ClickIncService&) = delete;

  // Synchronous submission: the whole admission under the service lock,
  // wrapped in the retry policy. Never throws for tenant-caused failures —
  // inspect result.error.
  SubmitResult submit(SubmitRequest req);

  // Asynchronous submission: queues the request onto one FIFO served by
  // one lazily started worker thread, which runs exactly what submit()
  // runs. Tickets therefore resolve in submit order with the results a
  // sequence of submit() calls would give. A request still queued when
  // recover() runs fails with kUnavailable (retryable) instead.
  SubmissionTicket submitAsync(SubmitRequest req);

  // Batch submission: submits each request in order, one attempt each
  // (no retry), so results equal the same sequence of single-attempt
  // submits.
  std::vector<SubmitResult> submitAll(std::vector<SubmitRequest> requests);

  // Runs every submitAsync() request queued so far, then joins the
  // worker (the next submitAsync() starts a new one).
  void waitForAsync();

  // Removes a user program (lazy per §6 unless eager requested). Unknown
  // ids yield ErrorCode::kUnknownUser instead of silently succeeding. A
  // queued submitAsync() request has no id until the worker commits it,
  // so removing the id it will get returns kUnknownUser.
  RemoveResult remove(int user_id, bool lazy = true);

  // --- failure-domain runtime (docs/failures.md) ---

  // Service-wide retry policy for retryable submission failures
  // (kResourceExhausted / kUnavailable). A request's own policy
  // (req.retry.max_attempts > 0) takes precedence. Backoff is simulated
  // deterministically — attempts reacquire the lock immediately and the
  // schedule is charged to SubmitResult::backoff_ms — so retried
  // submissions stay reproducible under test. submitAll() never retries.
  void setRetryPolicy(RetryPolicy policy);
  RetryPolicy retryPolicy();
  void setFailoverPolicy(FailoverPolicy policy);
  FailoverPolicy failoverPolicy();

  // Health transitions + failover, all under the service lock: apply the
  // transition to the topology, then re-place every affected tenant
  // against the degraded topology (make-before-break; see
  // docs/failures.md#failover-lifecycle). Healing a node reboots it:
  // occupancy, device program, and emulator state come back fresh.
  FailoverReport failNode(int node);
  FailoverReport drainNode(int node);
  FailoverReport healNode(int node);
  FailoverReport failLink(int a, int b);
  FailoverReport healLink(int a, int b);

  // Applies one FaultInjector action (kNone is a no-op) and handles the
  // resulting failure events. Lock-safe against concurrent submits.
  FailoverReport applyFault(const emu::FaultAction& action);

  // Seeded chaos driving: armFaultInjector binds (or re-seeds) an
  // injector over this service's topology; each stepFault() draws one
  // action, applies it, and runs the failover pipeline under the lock.
  void armFaultInjector(std::uint64_t seed, emu::FaultOptions opts = {});
  FailoverReport stepFault();

  // Handles any topology failure events not yet seen by the failover
  // pipeline (no-op when the log is fully processed).
  FailoverReport processFailures();

  // --- defragmentation (docs/defrag.md) ---

  // One compaction pass under the service lock: score fragmentation over
  // the live ledger, pick victim tenants on hot devices, re-place each
  // against an evacuation what-if snapshot, and swap plans
  // make-before-break (write-ahead journaled; commit-gate verified; old
  // plan restored on any failure). Deterministic: same state + options =>
  // same migrations at any concurrency() setting.
  DefragReport defragment(const defrag::DefragOptions& opts = {});

  // Reactive targeted compaction: when policy.reactive is on, a
  // kResourceExhausted submission whose failure diagnoses as stranded
  // capacity triggers one defragment(policy.options) pass and a single
  // re-place before the failure is returned.
  void setDefragPolicy(DefragPolicy policy);
  DefragPolicy defragPolicy();

  // Test hook: the (n+1)-th emulator deploy from now throws a synthetic
  // SynthesisError, exercising the rollback/restore paths. Single-shot.
  void injectDeployFailureAfter(int n);

  // Test hook: the async worker invokes it for each queued request just
  // before it takes the service lock — a deterministic window for racing
  // remove() or recover() against a queued submission. Called without
  // the service lock held. Pass nullptr to clear.
  void setCompileGate(std::function<void()> gate);

  // --- durability (docs/recovery.md) ---

  // Attaches a write-ahead journal: every state-changing operation
  // (commit, abort, remove, health transition, failover batch,
  // checkpoint) appends a CRC-checked record to `sink` before the
  // in-memory state it describes becomes observable. Fresh-service only —
  // the service must hold no deployments and no health history, and the
  // sink must be empty or magic-only (to attach to a journal with
  // records, recover() from it instead). The sink is borrowed, not owned,
  // and must outlive the attachment.
  void attachJournal(durable::JournalSink* sink);
  void detachJournal();
  bool journalAttached();

  // Appends a kCheckpoint record carrying the whole durable core (tenant
  // programs/plans, occupancy ledger, health + watermarks, flap-damping
  // state). Must be called at an operation boundary: a journal must be
  // attached and every failure event processed. recover() replays from
  // the latest checkpoint instead of from the journal's beginning.
  void checkpoint();

  // Rebuilds the service from `sink`'s journal: reset to empty, restore
  // the latest checkpoint (if any), replay the clean record suffix
  // (re-synthesizing snippets and re-deploying deterministically), then
  // run a full verifier audit. A torn tail from a crash mid-append is
  // discarded (the sink is truncated to the clean prefix). On success the
  // journal is attached to `sink` and the epoch is bumped: submitAsync()
  // requests queued before the recovery refuse to commit (kUnavailable,
  // retryable). On any failure the service is left empty
  // with no journal attached and the report carries a structured
  // kRecovery error — never a silently-wrong service. Fault injectors and
  // policies are not journaled; re-arm them after recovery.
  RecoveryReport recover(durable::JournalSink* sink);

  // Bumped by every recover() call (success or failure). submitAsync()
  // requests carry the epoch they were queued under.
  std::uint64_t epoch();

  // --- plan verification (docs/verification.md) ---

  // When each stage runs the static plan verifier (verify/verifier.h).
  // at_commit: every successful deploy is verified (scoped to the new
  // tenant + its devices) before registration; a violation fails the
  // submission with ErrorCode::kVerification and rolls it back.
  // at_failover: every failover report covering processed events carries a
  // full audit in FailoverReport::verify.
  struct VerifyPolicy {
    bool at_commit = true;
    bool at_failover = true;
  };
  void setVerifyPolicy(VerifyPolicy policy);
  VerifyPolicy verifyPolicy();

  // On-demand full audit of every live deployment against the live
  // occupancy ledger (all four invariants, no scoping).
  verify::VerifyReport verifyDeployments();

  // Audit scoped to one pod domain: cross-tenant checks over the pod's
  // devices, per-tenant checks over the tenants whose plans touch them.
  // Requires domain sharding; an out-of-range pod audits everything.
  verify::VerifyReport verifyDomain(int pod);

  // Owning copy of the verifier's inputs (programs, plans, ledger, plan
  // options) for offline inspection / mutation fuzzing. The topology
  // pointer borrows from this service.
  verify::Snapshot verifySnapshot();

  // Pool size for the parallel parts of one admission: placements run the
  // worker-pool tree DP, and synthesis builds per-device programs in
  // parallel. Admissions themselves stay one at a time; the emulator
  // stays single-threaded. 1 (the default) is strictly sequential; 0
  // resolves to the hardware thread count. Results are bit-identical
  // across settings — parallelism changes wall-clock, never plans or
  // packets. Runs queued async submissions first and swaps the pool under
  // the service lock.
  void setConcurrency(int threads);
  int concurrency() const { return concurrency_; }
  util::ThreadPool* threadPool() { return pool_.get(); }

  // --- placement domains (docs/scale.md) ---

  // Indexes devices and traffic by pod (scale::DomainIndex). A submission
  // whose traffic stays inside one pod averages the adaptive-weight ratio
  // over its pod's devices only; cross-pod traffic uses the service-wide
  // ratio. The index also serves verifyDomain(). Runs queued async
  // submissions first, like setConcurrency.
  void setDomainSharding(bool on);
  bool domainSharding();
  // The live index, or nullptr when sharding is off.
  const scale::DomainIndex* domainIndex() const { return domains_.get(); }

  const topo::Topology& topology() const { return topo_; }
  emu::Emulator& emulator() { return emu_; }
  place::OccupancyMap& occupancy() { return occ_; }
  const modules::ModuleLibrary& library() const { return lib_; }
  synth::DeviceProgram& deviceProgram(int node);

  // The placement arena shared by every commit-stage placement: reuses
  // DP-table allocations between trials and carries the occupancy-keyed
  // intra-placement memo, so identical templates from different users
  // (Table 3/6 scenarios) skip repeated placeCompact searches. Cumulative
  // cache statistics are accumulated in placementStats().
  place::PlacementArena& placementArena() { return arena_; }
  const place::PlacementStats& placementStats() const {
    return cumulative_stats_;
  }

  // The compiled-execution-plan cache shared by every deployment: the
  // emulator compiles each deployed segment once (per content
  // fingerprint), so replicated snippets and identical templates from
  // different users skip the IR decode entirely — the execution-side
  // analogue of the placement arena above.
  ir::ExecPlanCache& execPlanCache() { return plan_cache_; }
  const ir::ExecPlanCache& execPlanCache() const { return plan_cache_; }

  struct Deployed {
    std::shared_ptr<ir::IrProgram> prog;
    place::PlacementPlan plan;
    topo::TrafficSpec traffic;
    // Placement options of the original submission, kept so failover
    // re-placement honours them (pool is re-resolved, never stored).
    place::PlacementOptions options;
  };
  const std::map<int, Deployed>& deployments() const { return deployed_; }

  // Pods whose traffic traverses any of `devices`.
  std::set<int> podsCrossing(const std::set<int>& devices) const;

 private:
  // One queued submitAsync() request and the epoch it was queued under.
  struct AsyncJob {
    SubmitRequest req;
    std::uint64_t epoch = 0;
    std::promise<SubmitResult> done;
  };

  // Frontend compile of a request's payload for a given user id (the id
  // seeds program / state-prefix names). Throws lang errors. A kProgram
  // payload is *moved out* of the request.
  ir::IrProgram compileFrontend(SubmitRequest& req, int user) const;

  // One admission attempt under the lock: compile, place, commit.
  SubmitResult submitLocked(SubmitRequest& req);

  // submitLocked wrapped in the retry policy, shared by submit() and the
  // async worker. With `queued_epoch` set, each attempt first checks it
  // against the live epoch and fails kUnavailable if recover() ran since.
  SubmitResult submitWithRetry(SubmitRequest& req,
                               std::optional<std::uint64_t> queued_epoch);

  // The async worker: serves the FIFO until it is empty and a
  // waitForAsync() is draining it.
  void asyncWorkerLoop();

  RetryPolicy effectivePolicy(const SubmitRequest& req);

  // Claims resources, deploys, registers the user. On deploy failure the
  // partial deployment is rolled back and *result carries the error.
  void commitAndDeployLocked(SubmitResult* result,
                             const std::shared_ptr<ir::IrProgram>& prog,
                             const topo::TrafficSpec& traffic,
                             const place::PlacementOptions& options);
  void rollbackDeployLocked(int user, const std::shared_ptr<ir::IrProgram>& prog,
                            const place::PlacementPlan& plan);

  // `skip_assignments` (aligned with plan.assignments, nullptr = none)
  // omits pinned segments during failover redeploys.
  void deployPlan(int user, const std::shared_ptr<ir::IrProgram>& prog,
                  const place::PlacementPlan& plan, Impact* impact,
                  const std::vector<char>* skip_assignments = nullptr);

  // --- failover internals (lock held) ---

  // Drains unprocessed FailureEvents from the topology log: journals
  // them, applies flap damping, wipes dead / rebooted devices, finds
  // affected tenants, re-places each.
  FailoverReport handleEventsLocked();
  // Device death or reboot: fresh occupancy, no device program, no
  // emulator entries or state.
  void wipeDeviceLocked(int node);
  // Erases the exec plans no deployment holds any more (a removed
  // tenant's, a swap's replaced segments'). Skipped while replaying:
  // recover() redeploys the journal's tenants from plans the emulator
  // reset let go, then prunes once.
  void releaseUnusedPlansLocked();
  // Re-places one affected tenant against the degraded topology. `eff` is
  // the effective health view (flap-damped heals masked out).
  TenantRecovery recoverTenantLocked(int user, const topo::HealthView& eff);

  // --- make-before-break swap core (lock held) ---
  //
  // Shared by failover re-placement (recoverTenantLocked) and the
  // defragmentation executor: `old`'s surviving claims are already
  // released and `new_plan` is committed + deployed segment-by-segment
  // with unchanged segments pinned; on any failure the old plan is
  // restored (or, if the restore deploy also fails, the tenant is
  // dropped). The caller owns journaling and deployed_ registration of
  // the *success* path; failure paths update deployed_ here.
  struct SwapResult {
    bool swapped = false;    // new plan live; deployed_[user] updated
    bool restored = false;   // !swapped: old plan live again
    // !swapped && !restored: tenant dropped, claims released
    int segments_pinned = 0;
    int segments_replaced = 0;
    ServiceError error;      // set when !swapped
  };
  SwapResult swapPlanLocked(int user, const Deployed& old,
                            const place::PlacementPlan& new_plan,
                            bool incremental,
                            const std::function<bool(int)>& surviving,
                            Stage stage);

  // Migration step shared by the live defrag executor and kMigrate /
  // kMigrateAbort replay: release the old plan's claims, then
  // swapPlanLocked the new plan in (incremental, all devices surviving).
  // Bit-identical occupancy arithmetic on both paths by construction.
  SwapResult applyMigrationLocked(int user,
                                  const place::PlacementPlan& new_plan,
                                  Stage stage);

  // The defragment() body (lock held); also the reactive path's bounded
  // in-submission compaction step.
  DefragReport defragmentLocked(const defrag::DefragOptions& opts);

  // Reactive retry after a stranded kResourceExhausted: one defragment
  // pass + one re-place. True iff result->plan became feasible.
  bool reactiveCompactionLocked(SubmitResult* result,
                                const ir::IrProgram& prog,
                                const topo::TrafficSpec& traffic,
                                const place::PlacementOptions& options);

  // Live deployments as scorer/planner views (borrowed plans).
  std::vector<defrag::TenantPlanView> tenantViewsLocked() const;

  // --- durability internals (lock held; docs/recovery.md) ---

  // Appends one record; no-op when no journal is attached or a replay is
  // in progress.
  void journalAppendLocked(durable::RecordType type,
                           std::span<const std::uint8_t> payload);
  // Write-ahead of the failover batch: journals every failure-log event
  // past the journaled watermark as a kHealth record.
  void journalHealthLocked();
  // Live health with flap-deferred heals masked back to their pre-heal
  // state — the view failover re-placement must plan against.
  topo::HealthView effectiveHealthLocked() const;
  // Everything back to the post-construction state (journal detached,
  // injector cleared; queued submitAsync() requests are left alone).
  void resetStateLocked();
  // The state-mutating tail of remove() after lookup; `it` points into
  // deployed_.
  void doRemoveLocked(std::map<int, Deployed>::iterator it, int user_id,
                      bool lazy, RemoveResult* out);
  durable::CheckpointRecord buildCheckpointLocked();
  void restoreCheckpointLocked(const durable::CheckpointRecord& cp);
  void applyRecordLocked(const durable::RecordRef& rec);

  // Runs the plan verifier over the given deployments view (lock held —
  // the verifier borrows live programs/plans/ledger).
  verify::VerifyReport auditLocked(const verify::VerifyOptions& opts);

  // --- placement-domain internals (lock held; docs/scale.md) ---

  // Domain of a request's traffic: its pod when sharding is on and every
  // endpoint shares one pod, else scale::kCrossDomain.
  int requestDomainLocked(const topo::TrafficSpec& traffic) const;
  // Pod device list for the adaptive-ratio scope; nullptr on the escape
  // path (service-wide ratio).
  const std::vector<int>* domainDevicesOrNull(int domain) const;

  topo::Topology topo_;
  modules::ModuleLibrary lib_;
  synth::BaseProgram base_;
  place::OccupancyMap occ_;
  ir::ExecPlanCache plan_cache_;  // must outlive emu_ (emulator keeps a ptr)
  emu::Emulator emu_;
  std::map<int, std::unique_ptr<synth::DeviceProgram>> device_programs_;
  std::map<int, Deployed> deployed_;
  place::PlacementArena arena_;
  place::PlacementStats cumulative_stats_;
  std::unique_ptr<util::ThreadPool> pool_;  // set by setConcurrency(>1)
  int concurrency_ = 1;
  int next_user_ = 1;

  // Serializes every admission and every mutation of the shared state
  // above (occupancy, deployments, device programs, emulator, arena).
  std::mutex mu_;

  // Pod index for the adaptive-ratio scope and verifyDomain (guarded by
  // mu_); nullptr means sharding is off.
  std::unique_ptr<scale::DomainIndex> domains_;

  // Failure-domain runtime state (all guarded by mu_).
  RetryPolicy retry_policy_;        // max_attempts <= 1: no retry
  FailoverPolicy failover_policy_;
  std::uint64_t processed_health_version_ = 0;  // failure-log watermark
  std::unique_ptr<emu::FaultInjector> injector_;
  int inject_deploy_fail_ = -1;     // test hook countdown, -1 = off
  VerifyPolicy verify_policy_;
  DefragPolicy defrag_policy_;      // reactive targeted compaction (off)

  // Durability state (guarded by mu_). The sink is borrowed; null means
  // journaling is off. `replaying_` suppresses journal appends and the
  // commit/failover verify gates while recover() re-applies records.
  durable::JournalSink* journal_ = nullptr;
  std::uint64_t journal_seq_ = 0;
  std::uint64_t journaled_health_version_ = 0;  // kHealth write watermark
  bool replaying_ = false;
  // Written under mu_; read without it by submitAsync() so queueing never
  // waits for a running admission.
  std::atomic<std::uint64_t> epoch_ = 0;
  // Flap-damping state (FailoverPolicy::flap_window; docs/failures.md).
  // Keyed by durable::entityKey; serialized into checkpoints.
  std::map<std::uint64_t, durable::DeferredHeal> deferred_heals_;
  std::map<std::uint64_t, std::uint64_t> last_disturb_;

  std::function<void()> compile_gate_;  // test hook; guarded by mu_

  // The async FIFO and its one worker (guarded by async_mu_). The worker
  // leaves its loop once the queue is empty and a waitForAsync() is
  // draining (async_drainers_ > 0); waitForAsync() then joins it.
  std::mutex async_mu_;
  std::condition_variable async_cv_;
  std::deque<AsyncJob> async_queue_;
  int async_drainers_ = 0;
  bool worker_running_ = false;
  std::thread worker_;
};

}  // namespace clickinc::core
