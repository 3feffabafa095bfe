// Tenant-facing submission API types (paper §3: INC as a service).
//
// A submission is one tagged SubmitRequest — a provider template with
// parameter overrides, user-written ClickINC source, or an already
// compiled IR program — plus the tenant's traffic spec and placement
// options. The service runs it through a two-stage pipeline:
//
//   compile  parse -> lower -> block DAG -> tree-DP placement. Pure with
//            respect to service state (works on an occupancy snapshot),
//            so independent tenants compile concurrently.
//   commit   serialized, in request order: validate the candidate plan
//            against current occupancy (re-placing at most once on a
//            conflict — optimistic concurrency), claim resources,
//            synthesize per-device programs, deploy to the emulator.
//
// Every failure is a structured ServiceError{code, stage, detail} threaded
// up from the frontend / placer / synthesizer, so callers and tests can
// assert on causes instead of string-matching. See docs/service.md.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "defrag/defrag.h"
#include "ir/program.h"
#include "lang/lower.h"
#include "place/treedp.h"
#include "topo/ec.h"
#include "verify/verifier.h"

namespace clickinc::core {

// What went wrong. kResourceExhausted is the placement-level distinction
// that matters operationally: the program is placeable in principle but
// not under current occupancy (retry after removals), whereas kInfeasible
// is structural (unsupported opcode on every path device, stateful segment
// on partial traffic, no programmable device) and retrying cannot help.
enum class ErrorCode {
  kOk = 0,
  kParseError,         // lexing / parsing / semantic error in the source
  kLowerError,         // frontend lowering failure (e.g. unbounded loop)
  kUnknownTemplate,    // template name not in the module library
  kInfeasible,         // structurally unplaceable on this topology/traffic
  kResourceExhausted,  // unplaceable under current device occupancy
  kUnknownUser,        // remove() of an id with no active deployment
  kDeployFailed,       // synthesis / emulator deployment failure
  kUnavailable,        // transient: required element down/draining right now
  kVerification,       // committed plan failed the static plan verifier
  kRecovery,           // journal replay / checkpoint restore failed
  kInternal,           // invariant violation inside ClickINC
};

// Which pipeline stage reported the error.
enum class Stage {
  kNone = 0,
  kCompile,  // parse -> lower -> block DAG -> speculative placement
  kCommit,   // occupancy validation + resource claim (serialized)
  kDeploy,   // synthesis + emulator deployment
  kRemove,   // remove() path
  kFailover, // failover re-placement path (applyFault, processFailures)
  kRecovery, // recover() journal replay / checkpoint restore path
  kDefrag,   // defragment() migration path
};

const char* toString(ErrorCode code);
const char* toString(Stage stage);

struct ServiceError {
  ErrorCode code = ErrorCode::kOk;
  Stage stage = Stage::kNone;
  std::string detail;
  // Hint: the same request may succeed if resubmitted later (occupancy
  // conflicts, transient unavailability). Structural errors never set it.
  bool retryable = false;
  // On kResourceExhausted: the fabric's aggregate free capacity could have
  // fit the whole program's demand, i.e. the failure is fragmentation
  // (stranded capacity — defragment() may help), not true exhaustion.
  // See docs/defrag.md.
  bool stranded = false;

  bool ok() const { return code == ErrorCode::kOk; }
  // One-line human-readable form: "[commit] ResourceExhausted: ...".
  std::string message() const;
};

// Bounded retry with deterministic exponential backoff for retryable
// submission failures (kResourceExhausted / kUnavailable, and commit-stage
// occupancy conflicts surfacing as either). Delays are a pure function of
// (policy, attempt) — jitter comes from hashing jitter_seed with the
// attempt number, never from a wall clock — so retry schedules are
// reproducible in tests.
struct RetryPolicy {
  // Total attempt budget. On a SubmitRequest, 0 means "use the service-wide
  // policy"; at the service level 0 and 1 both mean no retry.
  int max_attempts = 0;
  double base_ms = 1.0;          // delay before the 2nd attempt
  double multiplier = 2.0;       // exponential growth per attempt
  double max_ms = 64.0;          // cap on any single delay
  std::uint64_t jitter_seed = 0; // 0 = no jitter (exact exponential)

  // Backoff before attempt `attempt` (2-based: the delay after the first
  // failure is delayMs(2)). Pure; safe to call concurrently.
  double delayMs(int attempt) const;
};

// One tenant submission: exactly one payload (selected by `kind`) plus the
// traffic spec and placement options. Use the from*() factories.
struct SubmitRequest {
  enum class Kind { kTemplate, kSource, kProgram };
  Kind kind = Kind::kTemplate;

  // kTemplate: a provider template with parameter overrides.
  std::string template_name;
  std::map<std::string, std::uint64_t> params;

  // kSource: user-written ClickINC source (may instantiate templates).
  std::string source;
  lang::HeaderSpec header;
  std::map<std::string, std::uint64_t> constants;

  // kProgram: an already-compiled IR program (name chosen by the caller).
  ir::IrProgram program;

  topo::TrafficSpec traffic;
  place::PlacementOptions options;  // options.pool is borrowed, not owned
  RetryPolicy retry;                // max_attempts == 0 -> service default

  static SubmitRequest fromTemplate(
      std::string name, std::map<std::string, std::uint64_t> params,
      topo::TrafficSpec traffic, place::PlacementOptions options = {});
  static SubmitRequest fromSource(
      std::string source, lang::HeaderSpec header,
      std::map<std::string, std::uint64_t> constants,
      topo::TrafficSpec traffic, place::PlacementOptions options = {});
  static SubmitRequest fromProgram(ir::IrProgram program,
                                   topo::TrafficSpec traffic,
                                   place::PlacementOptions options = {});
};

// Who/what a deployment step touched (Table 6 accounting).
struct Impact {
  std::set<int> affected_devices;  // executables changed
  std::set<int> affected_users;    // co-resident INC programs
  std::set<int> affected_pods;     // pods whose traffic crosses the devices
};

struct SubmitResult {
  int user_id = -1;     // assigned at commit; the would-be id on failure
  bool ok = false;
  ServiceError error;   // code == kOk iff ok
  place::PlacementPlan plan;
  Impact impact;
  // The commit stage discarded the speculative plan and re-placed against
  // live occupancy or health (an earlier commit or a failure changed it).
  // At most one re-place happens per submission.
  bool recompiled = false;
  // Retry accounting: how many attempts ran and the total deterministic
  // backoff the policy charged between them (simulated — no wall clock).
  int attempts = 1;
  double backoff_ms = 0;
  // Migrations performed by the reactive targeted-compaction retry
  // (DefragPolicy::reactive) before this submission's final placement
  // attempt. 0 when the reactive path did not run or moved nothing.
  int compaction_migrations = 0;
  // Commit-stage verifier output for this submission (scoped to the new
  // tenant and the devices its plan touches). Populated when the service's
  // VerifyPolicy::at_commit is on; a non-clean report fails the submission
  // with ErrorCode::kVerification and rolls the deployment back.
  verify::VerifyReport verify;
};

struct RemoveResult {
  bool ok = false;
  ServiceError error;
  Impact impact;
};

// --- failover (docs/failures.md) ---

// Knobs for the failover pipeline's re-placement of tenants hit by a
// failure (a tenant no switch placement fits degrades to server-only).
struct FailoverPolicy {
  // Flap damping: a heal whose entity was disturbed within the last
  // `flap_window` health-version ticks is deferred — the upgrade /
  // re-placement back onto it waits until the entity stays quiet past the
  // window (versions advance only with new events, so damping is
  // deterministic and replayable). 0 disables damping entirely
  // (bit-identical legacy behavior). See docs/failures.md.
  std::uint64_t flap_window = 0;
};

// What happened to one tenant during failover.
enum class RecoveryOutcome {
  kPinned,      // deployment untouched (failure outside its footprint)
  kReplaced,    // re-placed (fully or incrementally) and redeployed
  kServerOnly,  // degraded to server-only placement
  kInfeasible,  // swap and restore of the old plan both failed: dropped
};

const char* toString(RecoveryOutcome outcome);

struct TenantRecovery {
  int user_id = -1;
  RecoveryOutcome outcome = RecoveryOutcome::kPinned;
  ServiceError error;        // set when the swap failed
  int segments_replaced = 0; // assignments that moved or were re-synthesized
  int segments_pinned = 0;   // assignments kept in place (incremental mode)
};

// Result of processing one FailureEvent (or a heal) end to end.
struct FailoverReport {
  std::uint64_t health_version = 0;  // topology version this report covers
  int blast_radius_devices = 0;      // devices losing claims to the event
  std::vector<TenantRecovery> tenants;  // affected tenants, ascending id
  // Full-audit verifier output over the post-failover state (every tenant,
  // every device). Populated when VerifyPolicy::at_failover is on and the
  // report covered at least one processed event.
  verify::VerifyReport verify;
  // Heal reactions deferred by FailoverPolicy::flap_window in this batch.
  int damped_events = 0;

  int replacedCount() const;
  int infeasibleCount() const;
};

// --- durability (docs/recovery.md) ---

// Result of ClickIncService::recover(): rebuild from the journal's latest
// checkpoint plus replay of the clean record suffix. On failure the service
// is left empty (no tenants, no journal attached) rather than half-replayed.
struct RecoveryReport {
  bool ok = false;
  ServiceError error;                 // code == kRecovery iff !ok
  std::uint64_t journal_bytes = 0;    // raw sink size scanned
  std::uint64_t records_total = 0;    // clean records found
  std::uint64_t records_replayed = 0; // records applied after the checkpoint
  bool torn_tail = false;             // trailing garbage was discarded
  bool from_checkpoint = false;       // a kCheckpoint record anchored replay
  int tenants_restored = 0;           // deployments live after recovery
  // recover() found health events newer than the last completed failover
  // batch (crash between kHealth and kFailover) and re-ran the batch.
  bool completed_failover = false;
  // Full post-recovery audit (every tenant, every device). A non-clean
  // audit fails recovery; this is the report either way.
  verify::VerifyReport verify;
};

// --- defragmentation (docs/defrag.md) ---

// When the reactive path is on, a kResourceExhausted submission whose
// failure diagnoses as stranded capacity triggers one bounded
// defragmentation pass (with `options`) and a single re-place against the
// compacted ledger before the failure is returned. Off by default: the
// explicit defragment() API and the churn-driver cadence are unaffected.
struct DefragPolicy {
  bool reactive = false;
  defrag::DefragOptions options;
};

// What happened to one victim tenant during a defragmentation pass.
enum class MigrationOutcome {
  kMigrated,    // new plan deployed, old plan torn down
  kSkipped,     // no better placement found; deployment untouched
  kRolledBack,  // swap failed or verify gate fired; old plan restored
  kDropped,     // swap AND restore failed; tenant removed (journaled)
};

const char* toString(MigrationOutcome outcome);

struct MigrationRecord {
  int user_id = -1;
  MigrationOutcome outcome = MigrationOutcome::kSkipped;
  ServiceError error;          // set for kRolledBack / kDropped causes
  std::vector<int> evacuated;  // hot devices the migration vacated
  int segments_replaced = 0;
  int segments_pinned = 0;
};

// Result of one ClickIncService::defragment() pass.
struct DefragReport {
  bool ok = false;      // no migration ended kDropped
  ServiceError error;   // the drop's cause when !ok
  defrag::FragReport before;  // fragmentation at pass start
  defrag::FragReport after;   // fragmentation after the batch
  std::vector<MigrationRecord> migrations;  // victim order
  int migrated = 0;
  int skipped = 0;
  int rolled_back = 0;
  int dropped = 0;
  // Emulator drop-counter delta across the pass, split by reason — the
  // zero-loss accounting: a make-before-break pass must not add drops.
  std::uint64_t drops_before = 0;
  std::uint64_t drops_after = 0;
};

}  // namespace clickinc::core
