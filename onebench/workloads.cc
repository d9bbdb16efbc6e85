#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <thread>
#include <tuple>
#include <unordered_set>
#include <utility>

#include "data/dataset.h"
#include "durability/manager.h"
#include "model/language_model.h"
#include "model/model_config.h"
#include "nlp/utterance_generator.h"
#include "serving/edit_service.h"
#include "serving/self_healing.h"
#include "serving/snapshot.h"
#include "shard/shard_router.h"

namespace onebench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using oneedit::Dataset;
using oneedit::Decode;
using oneedit::EditingMethodKind;
using oneedit::EditRequest;
using oneedit::EditResult;
using oneedit::LanguageModel;
using oneedit::NamedTriple;
using oneedit::OneEditConfig;
using oneedit::OneEditSystem;
using oneedit::Statistics;
using oneedit::StatusOr;
using oneedit::Ticker;
using oneedit::Vocab;
using oneedit::durability::DurabilityManager;
using oneedit::durability::DurabilityOptions;
using oneedit::serving::EditService;
using oneedit::serving::EditServiceOptions;
using oneedit::serving::Snapshot;
using oneedit::shard::ShardRouter;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "onebench: %s\n", what.c_str());
  std::exit(1);
}

/// How a workload's fleet is built and driven.
struct WorkloadSpec {
  size_t shards = 1;
  EditingMethodKind method = EditingMethodKind::kGrace;
  size_t max_batch_size = 16;
  bool router = false;
  int readers = 0;
  int editors = 0;
};

WorkloadSpec SpecFor(const std::string& workload) {
  if (workload == "read_zipf") {
    return {2, EditingMethodKind::kGrace, 16, true, 3, 0};
  }
  if (workload == "edit_stream") {
    return {2, EditingMethodKind::kGrace, 16, true, 1, 8};
  }
  return {1, EditingMethodKind::kMemit, 32, false, 1, 1};
}

/// Zipf exponent of read_zipf's slot popularity.
constexpr double kZipfExponent = 0.99;
/// edit_stream's open-loop arrival rate (edits per second, all editors).
constexpr double kStreamRate = 100.0;
/// Slots precomputed per read client (the sequence wraps).
constexpr size_t kReadSequence = 1 << 16;
/// bulk_memit runs round(seconds / this) bursts (about 9 s each at the
/// baseline on a 4-core host).
constexpr double kNominalBurstSeconds = 8.0;

oneedit::DatasetOptions WorldOptions() {
  oneedit::DatasetOptions options;
  options.seed = kWorldSeed;
  return options;
}

OneEditConfig ConfigFor(EditingMethodKind method) {
  OneEditConfig config;
  config.method = method;
  return config;
}

/// One shard: its own world (dataset + pretrained model), WAL and service.
struct ShardWorld {
  explicit ShardWorld(SetupSample* sample)
      : started(Clock::now()),
        dataset(oneedit::BuildAmericanPoliticians(WorldOptions())) {
    const Clock::time_point built = Clock::now();
    sample->dataset_s += Seconds(started, built);
    model = std::make_unique<LanguageModel>(oneedit::Gpt2XlSimConfig(),
                                            dataset.vocab);
    model->Pretrain(dataset.pretrain_facts);
    sample->pretrain_s += Seconds(built, Clock::now());
  }

  Clock::time_point started;
  Dataset dataset;
  std::unique_ptr<LanguageModel> model;
  std::unique_ptr<DurabilityManager> durability;
  std::unique_ptr<EditService> service;
};

struct Fleet {
  const Vocab& vocab() const { return shards[0]->dataset.vocab; }
  const Dataset& dataset() const { return shards[0]->dataset; }
  EditService& service(size_t i) const { return *shards[i]->service; }

  std::vector<std::unique_ptr<ShardWorld>> shards;
  std::unique_ptr<ShardRouter> router;  // declared last: destroyed first
};

std::unique_ptr<Fleet> BuildFleet(const WorkloadSpec& spec,
                                  const std::string& dir,
                                  SetupSample* sample) {
  const Clock::time_point start = Clock::now();
  auto fleet = std::make_unique<Fleet>();
  for (size_t i = 0; i < spec.shards; ++i) {
    auto world = std::make_unique<ShardWorld>(sample);
    const Clock::time_point service_start = Clock::now();
    DurabilityOptions durability;
    durability.dir = dir + "/shard-" + std::to_string(i);
    auto opened = DurabilityManager::Open(durability);
    if (!opened.ok()) Die("open WAL: " + opened.status().ToString());
    world->durability = std::move(opened).value();
    EditServiceOptions options;
    options.max_batch_size = spec.max_batch_size;
    options.durability = world->durability.get();
    auto created = EditService::Create(&world->dataset.kg, world->model.get(),
                                       ConfigFor(spec.method), options);
    if (!created.ok()) Die("create service: " + created.status().ToString());
    world->service = std::move(created).value();
    sample->service_s += Seconds(service_start, Clock::now());
    fleet->shards.push_back(std::move(world));
  }
  if (spec.router) {
    const Clock::time_point router_start = Clock::now();
    oneedit::shard::ShardRouterOptions options;
    options.vocab = &fleet->vocab();
    std::vector<oneedit::shard::ShardSpec> specs;
    for (size_t i = 0; i < spec.shards; ++i) {
      specs.push_back({"shard-" + std::to_string(i), &fleet->service(i),
                       fleet->shards[i]->durability.get(), 1.0});
    }
    fleet->router = std::make_unique<ShardRouter>(std::move(specs), options);
    sample->service_s += Seconds(router_start, Clock::now());
  }
  sample->total_s = Seconds(start, Clock::now());
  return fleet;
}

/// Builds the fleet `repeats` times (timing each into `out->setups`) and
/// keeps the last one.
std::unique_ptr<Fleet> SetUp(const WorkloadSpec& spec, const std::string& dir,
                             int repeats, PhaseResult* out) {
  std::unique_ptr<Fleet> fleet;
  for (int i = 0; i < repeats; ++i) {
    fleet.reset();
    fs::remove_all(dir);
    fs::create_directories(dir);
    SetupSample sample;
    fleet = BuildFleet(spec, dir, &sample);
    out->setups.push_back(sample);
  }
  return fleet;
}

void CountTickers(const Fleet& fleet, PhaseResult* out) {
  for (size_t i = 0; i < fleet.shards.size(); ++i) {
    const Statistics& stats = fleet.service(i).statistics();
    out->submitted += stats.Get(Ticker::kServingSubmitted);
    out->batches += stats.Get(Ticker::kServingBatches);
    out->rollbacks += stats.Get(Ticker::kRollbackBatches);
    out->quarantined += stats.Get(Ticker::kQuarantinedEdits);
    out->cache_hits += stats.Get(Ticker::kCacheHits);
    out->accepted += stats.Get(Ticker::kEditsAccepted);
  }
  if (fleet.router != nullptr) {
    out->cross_txns += fleet.router->cross_shard_txns();
  }
}

bool SameEntity(const Vocab& vocab, const std::string& a,
                const std::string& b) {
  return vocab.Canonical(a) == vocab.Canonical(b);
}

// --- Reads -------------------------------------------------------------------

/// Windows of `window_s` seconds from `origin`; the last one takes the rest.
size_t WindowOf(Clock::time_point origin, Clock::time_point t,
                double window_s, size_t windows) {
  const double offset = std::max(0.0, Seconds(origin, t));
  return std::min(windows - 1, static_cast<size_t>(offset / window_s));
}

size_t WindowCount(double seconds) {
  return std::max<size_t>(
      1, static_cast<size_t>(std::lround(seconds / kWindowSeconds)));
}

/// Lengths of `windows` windows of `window_s` over `elapsed` seconds.
std::vector<double> WindowLengths(size_t windows, double window_s,
                                  double elapsed) {
  std::vector<double> lengths(windows, window_s);
  double before = 0.0;  // summed, not multiplied: window_s may be infinite
  for (size_t w = 0; w + 1 < windows; ++w) before += window_s;
  lengths.back() = std::max(elapsed - before, 1e-9);
  return lengths;
}

/// One closed-loop read client: route + pin + ask per slot until `stop`.
/// Traced clients time the three calls separately.
void ReadClient(const Fleet& fleet, const std::vector<size_t>& slots,
                bool traced, const std::atomic<bool>& stop,
                Clock::time_point origin, double window_s, PhaseResult* out) {
  const size_t windows = out->reads.histograms.size();
  const std::vector<NamedTriple>& facts = fleet.dataset().pretrain_facts;
  const Vocab& vocab = fleet.vocab();
  for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
    const NamedTriple& fact = facts[slots[i % slots.size()]];
    std::optional<StatusOr<Snapshot>> snapshot;
    std::optional<StatusOr<Decode>> decode;
    const Clock::time_point start = Clock::now();
    if (!traced) {
      snapshot.emplace(fleet.router != nullptr
                           ? fleet.router->GetSnapshot(fact.subject)
                           : fleet.service(0).GetSnapshot());
      if (snapshot->ok()) {
        decode.emplace((*snapshot)->Ask(fact.subject, fact.relation));
      }
      const Clock::time_point done = Clock::now();
      out->reads.histograms[WindowOf(origin, done, window_s, windows)].Add(
          Seconds(start, done) * 1e6);
    } else {
      size_t shard = 0;
      if (fleet.router != nullptr) shard = fleet.router->ShardFor(fact.subject);
      const Clock::time_point routed = Clock::now();
      snapshot.emplace(fleet.service(shard).GetSnapshot());
      const Clock::time_point pinned = Clock::now();
      if (snapshot->ok()) {
        decode.emplace((*snapshot)->Ask(fact.subject, fact.relation));
      }
      const Clock::time_point asked = Clock::now();
      if (fleet.router != nullptr) {
        out->route_us.Add(Seconds(start, routed) * 1e6);
      }
      out->pin_us.Add(Seconds(routed, pinned) * 1e6);
      out->ask_us.Add(Seconds(pinned, asked) * 1e6);
      out->reads.histograms[WindowOf(origin, asked, window_s, windows)].Add(
          Seconds(start, asked) * 1e6);
    }
    if (!decode.has_value() || !decode->ok()) {
      ++out->read_errors;
      continue;
    }
    const auto truth = (*snapshot)->KgObjectOf(fact.subject, fact.relation);
    if (truth.has_value()) {
      ++out->accuracy_checked;
      if (SameEntity(vocab, (*decode)->entity, *truth)) ++out->accuracy_correct;
    }
  }
}

/// Runs `clients` read clients until StopAndMerge; their latencies land in
/// `windows` windows of `window_s` seconds.
class ReadPool {
 public:
  ReadPool(const Fleet& fleet, int clients, uint64_t seed, uint64_t stream,
           bool traced, size_t windows, double window_s)
      : locals_(clients), window_s_(window_s), start_(Clock::now()) {
    for (PhaseResult& local : locals_) local.reads = Windows::Empty(windows);
    const size_t n = fleet.dataset().pretrain_facts.size();
    const ZipfSampler zipf(n, kZipfExponent);
    const std::vector<size_t> permutation = RankPermutation(n, kWorldSeed);
    for (int c = 0; c < clients; ++c) {
      std::vector<size_t> slots =
          ZipfSlots(zipf, permutation, seed, stream + c, kReadSequence);
      threads_.emplace_back([this, &fleet, c, traced,
                             slots = std::move(slots)] {
        ReadClient(fleet, slots, traced, stop_, start_, window_s_,
                   &locals_[c]);
      });
    }
  }

  void StopAndMerge(PhaseResult* out) {
    stop_.store(true);
    for (std::thread& thread : threads_) thread.join();
    Windows merged = Windows::Empty(locals_[0].reads.histograms.size());
    merged.seconds = WindowLengths(merged.histograms.size(), window_s_,
                                   Seconds(start_, Clock::now()));
    for (PhaseResult& local : locals_) {
      merged.MergeSamples(local.reads);
      out->route_us.Merge(local.route_us);
      out->pin_us.Merge(local.pin_us);
      out->ask_us.Merge(local.ask_us);
      out->read_errors += local.read_errors;
      out->accuracy_checked += local.accuracy_checked;
      out->accuracy_correct += local.accuracy_correct;
    }
    out->reads.Append(merged);
  }

 private:
  std::vector<PhaseResult> locals_;
  const double window_s_;
  const Clock::time_point start_;
  std::vector<std::thread> threads_;
  std::atomic<bool> stop_{false};
};

PhaseResult RunReadZipf(const RunConfig& config, const std::string& dir,
                        double seconds, bool traced) {
  const WorkloadSpec spec = SpecFor(config.workload);
  PhaseResult result;
  std::unique_ptr<Fleet> fleet = SetUp(spec, dir, kSetupsBefore, &result);
  const size_t windows = WindowCount(seconds);
  ReadPool pool(*fleet, spec.readers, config.seed, 0, traced, windows,
                seconds / windows);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  pool.StopAndMerge(&result);
  CountTickers(*fleet, &result);
  return result;
}

// --- edit_stream -------------------------------------------------------------

struct EditorLog {
  PhaseResult result;  // `requests` in submit order
  std::vector<Clock::time_point> submitted;
};

/// True when the router will run `triple` as a cross-shard 2PC edit (the
/// same test ShardRouter::Submit applies).
bool CrossShard(const Fleet& fleet,
                const std::unordered_set<std::string>& entities,
                const NamedTriple& triple) {
  const Vocab& vocab = fleet.vocab();
  return entities.count(vocab.Canonical(triple.object)) > 0 &&
         !vocab.InverseOf(triple.relation).empty() &&
         fleet.router->ShardFor(triple.subject) !=
             fleet.router->ShardFor(triple.object);
}

struct ScheduledOp {
  double due_s;  // offset from the stream's start
  StreamOp op;
};

/// One editor of the open-loop stream: submits each of its ops at its due
/// time (or as soon as its previous op finished, when that ran late); the
/// latency runs from the due time to the ack. After each ack the editor
/// checks that the applying shard holds the edit and reads its own write
/// back from the subject's shard.
void Editor(const Fleet& fleet, const std::vector<ScheduledOp>& ops,
            Clock::time_point start, double window_s, bool traced, int id,
            EditorLog* log) {
  const Dataset& dataset = fleet.dataset();
  const Vocab& vocab = fleet.vocab();
  const std::unordered_set<std::string> entities(vocab.entities.begin(),
                                                 vocab.entities.end());
  const std::string user = "editor-" + std::to_string(id);
  PhaseResult& out = log->result;
  for (const ScheduledOp& scheduled : ops) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(scheduled.due_s));
    std::this_thread::sleep_until(due);

    const StreamOp& op = scheduled.op;
    const oneedit::EditCase& edit_case = dataset.cases[op.case_index];
    NamedTriple triple = edit_case.edit;
    if (!op.to_new) triple.object = edit_case.old_object;
    EditRequest request = EditRequest::Edit(triple, user);
    if (op.utterance) {
      request = EditRequest::Utterance(
          oneedit::EditUtterance(triple, op.template_index), user);
    }
    const bool cross = !op.utterance && CrossShard(fleet, entities, triple);

    const Clock::time_point submit = Clock::now();
    out.late_ms.Add(Seconds(due, submit) * 1e3);
    auto future = fleet.router->Submit(request);
    const Clock::time_point returned = Clock::now();
    const StatusOr<EditResult> result = future.get();
    const Clock::time_point acked = Clock::now();
    out.edits
        .histograms[WindowOf(start, acked, window_s,
                             out.edits.histograms.size())]
        .Add(Seconds(due, acked) * 1e3);
    if (traced) out.submit_block_ms.Add(Seconds(submit, returned) * 1e3);
    log->submitted.push_back(submit);
    out.requests.push_back(request);
    out.cross_shard.push_back(cross);

    if (result.ok() && result->kind == EditResult::Kind::kEdited) {
      ++out.edits_applied;
      // The shard that applied the edit must hold it: the subject's shard,
      // or for an utterance the shard its text routed to.
      const NamedTriple& applied = result->plan().request;
      const size_t applying = fleet.router->ShardFor(
          op.utterance ? request.utterance : triple.subject);
      const auto snapshot = fleet.service(applying).GetSnapshot();
      if (!snapshot.ok() || !snapshot->KgContains(applied)) {
        out.violations.push_back("acknowledged edit (" + applied.subject +
                                 ", " + applied.relation + ", " +
                                 applied.object + ") missing from shard " +
                                 std::to_string(applying));
      }
      if (cross) {
        const NamedTriple reverse{applied.object,
                                  vocab.InverseOf(applied.relation),
                                  applied.subject};
        const size_t object_shard = fleet.router->ShardFor(applied.object);
        const auto object_snapshot = fleet.service(object_shard).GetSnapshot();
        if (!object_snapshot.ok() || !object_snapshot->KgContains(reverse)) {
          out.violations.push_back("acknowledged 2PC half (" +
                                   reverse.subject + ", " + reverse.relation +
                                   ", " + reverse.object +
                                   ") missing from shard " +
                                   std::to_string(object_shard));
        }
      }
    }
    std::optional<bool> ryw_hit;
    if (result.ok() && (result->applied() || result->no_op())) {
      const auto decode = fleet.router->Ask(triple.subject, triple.relation);
      ryw_hit = decode.ok() && SameEntity(vocab, decode->entity, triple.object);
    }
    ++out.outcomes[ClassifyEdit(result, ryw_hit)];
    if (!result.ok() && out.first_error.empty()) {
      out.first_error = result.status().ToString();
    }
  }
}

PhaseResult RunEditStream(const RunConfig& config, const std::string& dir,
                          double seconds, bool traced) {
  const WorkloadSpec spec = SpecFor(config.workload);
  PhaseResult result;
  std::unique_ptr<Fleet> fleet = SetUp(spec, dir, kSetupsBefore, &result);

  // One stream of ops due every 1/rate seconds, dealt to editors by case.
  // Editors own disjoint case groups (no shared entity), so one editor's
  // writes never race another's read-back checks, and a slow edit delays
  // only later edits of its own group.
  const std::vector<oneedit::EditCase>& cases = fleet->dataset().cases;
  std::vector<std::vector<std::string>> footprints;
  for (const oneedit::EditCase& edit_case : cases) {
    footprints.push_back({edit_case.edit.subject, edit_case.edit.object,
                          edit_case.old_object});
  }
  const auto groups = PartitionCases(footprints, spec.editors);
  std::vector<size_t> editor_of(cases.size());
  for (size_t e = 0; e < groups.size(); ++e) {
    for (size_t c : groups[e]) editor_of[c] = e;
  }
  std::vector<size_t> all_cases(cases.size());
  std::iota(all_cases.begin(), all_cases.end(), 0);
  const auto ops = StreamOps(all_cases, config.seed, 200,
                             static_cast<size_t>(seconds * kStreamRate));
  std::vector<std::vector<ScheduledOp>> schedules(groups.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    schedules[editor_of[ops[i].case_index]].push_back(
        {static_cast<double>(i) / kStreamRate, ops[i]});
  }

  const size_t windows = WindowCount(seconds);
  const double window_s = seconds / windows;
  ReadPool pool(*fleet, spec.readers, config.seed, 100, traced, windows,
                window_s);
  std::vector<EditorLog> logs(groups.size());
  for (EditorLog& log : logs) log.result.edits = Windows::Empty(windows);
  std::vector<std::thread> editors;
  const Clock::time_point start = Clock::now();
  for (size_t e = 0; e < groups.size(); ++e) {
    editors.emplace_back([&, e] {
      Editor(*fleet, schedules[e], start, window_s, traced,
             static_cast<int>(e), &logs[e]);
    });
  }
  for (std::thread& editor : editors) editor.join();
  result.edits = Windows::Empty(windows);
  result.edits.seconds =
      WindowLengths(windows, window_s, Seconds(start, Clock::now()));
  pool.StopAndMerge(&result);

  std::vector<std::tuple<Clock::time_point, EditRequest, bool>> order;
  for (EditorLog& log : logs) {
    PhaseResult& part = log.result;
    result.edits.MergeSamples(part.edits);
    result.submit_block_ms.Merge(part.submit_block_ms);
    result.late_ms.Merge(part.late_ms);
    if (result.first_error.empty()) result.first_error = part.first_error;
    for (const auto& [outcome, count] : part.outcomes) {
      result.outcomes[outcome] += count;
    }
    result.edits_applied += part.edits_applied;
    result.violations.insert(result.violations.end(), part.violations.begin(),
                             part.violations.end());
    for (size_t i = 0; i < log.submitted.size(); ++i) {
      order.emplace_back(log.submitted[i], std::move(part.requests[i]),
                         part.cross_shard[i]);
    }
  }
  std::stable_sort(order.begin(), order.end(),
                   [](const auto& a, const auto& b) {
                     return std::get<0>(a) < std::get<0>(b);
                   });
  for (auto& [when, request, cross] : order) {
    result.requests.push_back(std::move(request));
    result.cross_shard.push_back(cross);
  }
  for (size_t i = 0; i < fleet->shards.size(); ++i) fleet->service(i).Drain();
  CountTickers(*fleet, &result);
  return result;
}

// --- bulk_memit --------------------------------------------------------------

/// One burst: every case's counterfactual edit, then every restore, all
/// submitted at once in dataset order; latency runs from each submit to its
/// ack. Afterwards each case slot must hold the object of its last
/// applied-or-no-op request.
///
/// The order is fixed, not drawn from the seed: the self-healer's verdicts
/// depend on which edits share a batch, and per-seed orders moved ok_share
/// by 12% and op_p50_ms by 17% between seeds — more than the changes this
/// workload exists to show. The seed drives the concurrent reader.
void RunBurst(const Fleet& fleet, PhaseResult* out) {
  const Dataset& dataset = fleet.dataset();
  const Vocab& vocab = fleet.vocab();
  EditService& service = fleet.service(0);
  std::vector<EditRequest> requests;
  std::vector<size_t> case_of;
  for (size_t index = 0; index < dataset.cases.size(); ++index) {
    requests.push_back(EditRequest::Edit(dataset.cases[index].edit, "bulk"));
    case_of.push_back(index);
  }
  for (size_t index = 0; index < dataset.cases.size(); ++index) {
    NamedTriple restore = dataset.cases[index].edit;
    restore.object = dataset.cases[index].old_object;
    requests.push_back(EditRequest::Edit(restore, "bulk"));
    case_of.push_back(index);
  }

  const size_t n = requests.size();
  std::vector<Clock::time_point> submitted(n);
  std::vector<std::future<StatusOr<EditResult>>> futures;
  futures.reserve(n);
  const Clock::time_point start = Clock::now();
  auto submit = [&](size_t i) {
    submitted[i] = Clock::now();
    futures.push_back(service.Submit(requests[i]));
  };
  // The batches must not depend on thread timing: MEMIT's quarantines
  // depend on which edits share a batch, so a racing writer would make the
  // failure count differ between runs of one seed. The writer pops the
  // first edit alone and then waits for the exclusive lock held here while
  // the rest queue up; it then coalesces them into full batches.
  service.WithExclusive([&](OneEditSystem&) {
    submit(0);
    while (service.queue_depth() > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    for (size_t i = 1; i < n; ++i) submit(i);
  });
  // Poll so each ack is timed when it lands, not when a sequential get()
  // reaches it.
  std::vector<std::optional<StatusOr<EditResult>>> results(n);
  Windows burst = Windows::Empty(1);
  size_t pending = n;
  Clock::time_point last_ack = start;
  while (pending > 0) {
    for (size_t i = 0; i < n; ++i) {
      if (results[i].has_value() ||
          futures[i].wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready) {
        continue;
      }
      last_ack = Clock::now();
      results[i].emplace(futures[i].get());
      burst.histograms[0].Add(Seconds(submitted[i], last_ack) * 1e3);
      --pending;
    }
    if (pending > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  burst.seconds[0] = Seconds(start, last_ack);
  out->edits.Append(burst);

  std::vector<std::string> expected(dataset.cases.size());
  for (size_t c = 0; c < dataset.cases.size(); ++c) {
    expected[c] = dataset.cases[c].old_object;
  }
  for (size_t i = 0; i < n; ++i) {
    const StatusOr<EditResult>& result = *results[i];
    const Outcome outcome = ClassifyEdit(result, std::nullopt);
    ++out->outcomes[outcome];
    if (!result.ok() && out->first_error.empty()) {
      out->first_error = result.status().ToString();
    }
    if (result.ok() && result->kind == EditResult::Kind::kEdited) {
      ++out->edits_applied;
    }
    if (!IsFailure(outcome)) expected[case_of[i]] = requests[i].triple.object;
    out->requests.push_back(requests[i]);
    out->cross_shard.push_back(false);
  }
  const auto snapshot = service.GetSnapshot();
  if (!snapshot.ok()) Die("pin after burst: " + snapshot.status().ToString());
  for (size_t c = 0; c < dataset.cases.size(); ++c) {
    const NamedTriple& slot = dataset.cases[c].edit;
    const auto held = snapshot->KgObjectOf(slot.subject, slot.relation);
    if (!held.has_value() || !SameEntity(vocab, *held, expected[c])) {
      out->violations.push_back(
          "slot (" + slot.subject + ", " + slot.relation + ") holds '" +
          held.value_or("<none>") + "', last acknowledged write was '" +
          expected[c] + "'");
    }
  }
}

PhaseResult RunBulkMemit(const RunConfig& config, const std::string& dir,
                         double seconds, bool traced) {
  const WorkloadSpec spec = SpecFor(config.workload);
  PhaseResult result;
  std::unique_ptr<Fleet> fleet = SetUp(spec, dir, kSetupsBefore, &result);
  // A fixed number of whole bursts for the run length, not "until the time
  // is up": every version then does the same work, so sample counts and
  // peak RSS (which grows by about 20 MB per burst at the baseline) do not
  // move with edit speed.
  const uint64_t bursts = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::lround(seconds / kNominalBurstSeconds)));
  for (uint64_t burst = 0; burst < bursts; ++burst) {
    if (fleet == nullptr) fleet = SetUp(spec, dir, 1, &result);
    ReadPool pool(*fleet, spec.readers, config.seed, 300 + 16 * burst, traced,
                  1, std::numeric_limits<double>::infinity());
    RunBurst(*fleet, &result);
    pool.StopAndMerge(&result);
    fleet->service(0).Drain();
    CountTickers(*fleet, &result);
    fleet.reset();
  }
  return result;
}

// --- Replay ------------------------------------------------------------------

uint64_t FileBytes(const std::string& path) {
  std::error_code error;
  const uintmax_t size = fs::file_size(path, error);
  return error ? 0 : static_cast<uint64_t>(size);
}

/// Bytes the journal grew by: WAL appends, plus the checkpoint image and the
/// fresh WAL each time a checkpoint rotates it.
class JournalMeter {
 public:
  explicit JournalMeter(const DurabilityManager& manager)
      : manager_(manager), wal_(FileBytes(manager.wal_path())) {}

  void Observe(bool checkpointed) {
    const uint64_t wal = FileBytes(manager_.wal_path());
    if (checkpointed) {
      total_ += FileBytes(manager_.checkpoint_path()) + wal;
    } else if (wal >= wal_) {
      total_ += wal - wal_;
    }
    wal_ = wal;
  }
  uint64_t total() const { return total_; }

 private:
  const DurabilityManager& manager_;
  uint64_t wal_;
  uint64_t total_ = 0;
};

double MillisSince(Clock::time_point start) {
  return Seconds(start, Clock::now()) * 1e3;
}

}  // namespace

uint64_t PhaseResult::edit_failures() const {
  uint64_t failures = 0;
  for (const auto& [outcome, count] : outcomes) {
    if (IsFailure(outcome)) failures += count;
  }
  return failures;
}

uint64_t PhaseResult::edit_count() const {
  uint64_t total = 0;
  for (const auto& [outcome, count] : outcomes) total += count;
  return total;
}

int ClientThreads(const std::string& workload) {
  const WorkloadSpec spec = SpecFor(workload);
  return spec.readers + spec.editors;
}

bool KnownWorkload(const std::string& workload) {
  return workload == "read_zipf" || workload == "edit_stream" ||
         workload == "bulk_memit";
}

PhaseResult RunPhase(const RunConfig& config, const std::string& phase,
                     double seconds, bool traced) {
  const std::string dir = config.workdir + "/" + phase;
  PhaseResult result;
  if (config.workload == "read_zipf") {
    result = RunReadZipf(config, dir, seconds, traced);
  } else if (config.workload == "edit_stream") {
    result = RunEditStream(config, dir, seconds, traced);
  } else {
    result = RunBulkMemit(config, dir, seconds, traced);
  }
  // The other set-ups run after the workload, seconds away from the first
  // ones, so one episode of host contention cannot cover them all.
  SetUp(SpecFor(config.workload), dir, kSetupsAfter, &result);
  fs::remove_all(dir);
  return result;
}

ReplayResult Replay(const RunConfig& config,
                    const std::vector<EditRequest>& requests,
                    const std::vector<bool>& cross_shard, size_t batch_size) {
  const WorkloadSpec spec = SpecFor(config.workload);
  const std::string dir = config.workdir + "/replay";
  fs::remove_all(dir);
  ReplayResult out;

  Dataset dataset = oneedit::BuildAmericanPoliticians(WorldOptions());
  LanguageModel model(oneedit::Gpt2XlSimConfig(), dataset.vocab);
  model.Pretrain(dataset.pretrain_facts);
  auto created =
      OneEditSystem::Create(&dataset.kg, &model, ConfigFor(spec.method));
  if (!created.ok()) Die("replay system: " + created.status().ToString());
  OneEditSystem& system = **created;
  DurabilityOptions durability_options;
  durability_options.dir = dir;
  auto opened = DurabilityManager::Open(durability_options);
  if (!opened.ok()) Die("replay WAL: " + opened.status().ToString());
  DurabilityManager& durability = **opened;
  oneedit::serving::SnapshotHub hub;
  hub.Publish(system.SnapshotReadView(), 0);
  Statistics& stats = system.statistics();
  const EditingMethodKind method = spec.method;
  JournalMeter journal(durability);
  uint64_t next_txn = 1;

  batch_size = std::max<size_t>(batch_size, 1);
  for (size_t begin = 0; begin < requests.size(); begin += batch_size) {
    const size_t end = std::min(requests.size(), begin + batch_size);
    std::vector<EditRequest> batch(requests.begin() + begin,
                                   requests.begin() + end);
    double total_ms = 0.0;

    // The writer interprets utterances inside EditBatch; Interpret is const,
    // so timing it standalone leaves the system untouched.
    for (const EditRequest& request : batch) {
      if (request.op != EditRequest::Op::kUtterance) continue;
      const Clock::time_point start = Clock::now();
      (void)system.interpreter().Interpret(request.utterance);
      const double ms = MillisSince(start);
      out.interpret_us.Add(ms * 1e3);
      total_ms += ms;
    }
    // Cross-shard edits: the participant's prepare and the coordinator's
    // decision, both fsynced, before the tagged half is logged.
    std::vector<uint64_t> txns;
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!cross_shard[begin + i]) continue;
      batch[i].txn_id = next_txn++;
      txns.push_back(batch[i].txn_id);
      const Clock::time_point start = Clock::now();
      const oneedit::Status prepared =
          durability.LogPrepare(batch[i].txn_id, 0, batch[i], method, &stats);
      const oneedit::Status decided =
          durability.LogTxnDecision(batch[i].txn_id, true, method, &stats);
      const double ms = MillisSince(start);
      if (!prepared.ok() || !decided.ok()) {
        out.violations.push_back("replay 2PC markers failed");
      }
      out.log_2pc_ms.Add(ms);
      total_ms += ms;
      journal.Observe(false);
    }

    Clock::time_point start = Clock::now();
    if (!durability.LogBatch(batch, method, &stats).ok()) {
      out.violations.push_back("replay LogBatch failed");
    }
    double ms = MillisSince(start);
    out.log_batch_ms.Add(ms);
    total_ms += ms;
    journal.Observe(false);
    const uint64_t first_sequence = durability.next_sequence() - batch.size();

    // EditBatch alone, inside a transaction that is then undone, so the
    // validated apply below starts from the same state.
    OneEditSystem::BatchTxn txn = system.BeginBatchTxn();
    start = Clock::now();
    (void)system.EditBatch(batch);
    const double edit_batch_ms = MillisSince(start);
    if (!system.AbortBatchTxn(&txn).ok()) {
      out.violations.push_back("replay AbortBatchTxn failed");
    }
    out.edit_batch_ms.Add(edit_batch_ms);

    start = Clock::now();
    oneedit::serving::SelfHealer healer(&system,
                                        oneedit::serving::SelfHealOptions{});
    const oneedit::serving::HealedBatch healed =
        healer.ApplyValidated(batch, first_sequence);
    for (size_t index : healed.quarantined) {
      (void)durability.LogQuarantine(first_sequence + index,
                                     healed.quarantine_reason, method, &stats);
    }
    ms = MillisSince(start);
    out.validate_ms.Add(ms - edit_batch_ms);
    total_ms += ms;
    journal.Observe(false);

    const uint64_t checkpoints_before = stats.Get(Ticker::kCheckpoints);
    start = Clock::now();
    (void)durability.OnBatchApplied(system, batch.size(), &stats);
    ms = MillisSince(start);
    total_ms += ms;
    const bool checkpointed =
        stats.Get(Ticker::kCheckpoints) > checkpoints_before;
    if (checkpointed) {
      out.checkpoint_ms.Add(ms);
      ++out.checkpoints;
    }
    journal.Observe(checkpointed);
    for (uint64_t id : txns) durability.ForgetTxn(id);

    start = Clock::now();
    hub.Publish(system.SnapshotReadView(), durability.committed_sequence());
    ms = MillisSince(start);
    out.publish_ms.Add(ms);
    total_ms += ms;
    out.batch_total_ms.Add(total_ms);
  }
  out.edits = requests.size();
  out.journal_bytes = journal.total();
  hub.Stop();
  fs::remove_all(dir);
  return out;
}

}  // namespace onebench
