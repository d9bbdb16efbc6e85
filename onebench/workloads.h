// The benchmark's three workloads against the real ShardRouter /
// EditService stack, and the single-threaded replay that splits the
// writer's time into stages for the traced run. See README.md.

#ifndef ONEBENCH_WORKLOADS_H_
#define ONEBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "accounting.h"
#include "core/oneedit.h"

namespace onebench {

/// The world every workload shares: the politicians dataset at this seed
/// (966 facts, 60 counterfactual cases) on the GPT-2-XL-sim model.
inline constexpr uint64_t kWorldSeed = 2024;
/// Timed set-ups per run, before and after the measured window; setup_s
/// reports their median.
inline constexpr int kSetupsBefore = 4;
inline constexpr int kSetupsAfter = 3;
/// Length of the windows a timed run is split into (see Windows).
inline constexpr double kWindowSeconds = 2.5;

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for WALs and checkpoints (removed afterwards).
  std::string workdir;
};

/// Wall time of the set-up calls of one fleet build.
struct SetupSample {
  double dataset_s = 0.0;
  double pretrain_s = 0.0;
  double service_s = 0.0;
  double total_s = 0.0;
};

/// What one measured phase of a workload observed.
struct PhaseResult {
  // Reads (closed-loop clients): latency in us, windowed by completion.
  Windows reads;
  uint64_t read_errors = 0;
  uint64_t accuracy_checked = 0;
  uint64_t accuracy_correct = 0;
  // Traced reads: per-call times of route, pin and ask.
  Histogram route_us, pin_us, ask_us;

  // Edits: latency in ms, windowed by ack time (one window per burst on
  // bulk_memit).
  Windows edits;
  std::map<Outcome, uint64_t> outcomes;
  uint64_t edits_applied = 0;
  Histogram submit_block_ms;  // traced: time inside Submit
  Histogram late_ms;          // open loop: submit time − due time
  std::string first_error;    // first non-OK edit status
  /// Edits in submit order with their cross-shard flag — the replay input.
  std::vector<oneedit::EditRequest> requests;
  std::vector<bool> cross_shard;

  // Statistics tickers summed over the phase's services, and router counts.
  uint64_t submitted = 0, batches = 0, rollbacks = 0, quarantined = 0;
  uint64_t cache_hits = 0, accepted = 0, cross_txns = 0;

  /// Correctness violations (an acknowledged edit missing from the shard
  /// that applied it, a read error, ...). Any entry fails the run.
  std::vector<std::string> violations;

  std::vector<SetupSample> setups;

  uint64_t edit_failures() const;
  uint64_t edit_count() const;
};

/// Per-stage times of the single-threaded writer replay.
struct ReplayResult {
  Histogram interpret_us, log_2pc_ms, log_batch_ms, edit_batch_ms,
      validate_ms, checkpoint_ms, publish_ms, batch_total_ms;
  uint64_t checkpoints = 0;
  uint64_t journal_bytes = 0;
  uint64_t edits = 0;
  std::vector<std::string> violations;
};

/// Busy client threads each workload runs (the shard writers come on top).
int ClientThreads(const std::string& workload);

bool KnownWorkload(const std::string& workload);

/// Runs `workload` for `seconds` of measurement. `phase` names the scratch
/// subdirectory; `traced` switches the clients to per-call timing.
PhaseResult RunPhase(const RunConfig& config, const std::string& phase,
                     double seconds, bool traced);

/// Re-runs `phase.requests` through the writer's calls, in its order, on a
/// standalone one-shard world, with batches of `batch_size`.
ReplayResult Replay(const RunConfig& config,
                    const std::vector<oneedit::EditRequest>& requests,
                    const std::vector<bool>& cross_shard, size_t batch_size);

}  // namespace onebench

#endif  // ONEBENCH_WORKLOADS_H_
