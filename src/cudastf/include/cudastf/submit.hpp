// The staged submission pipeline (DESIGN.md §13). Every construct — task,
// parallel_for, launch, host_launch — lowers its work to an op_desc and a
// small set of hooks, then drives the one shared round loop below
// (submit_pipeline::execute):
//
//   admission -> poison-cancel -> [plan -> re-route -> bind -> snapshot ->
//   acquire -> run every shard] per round -> finish (release)
//
// The cross-cutting engines attach at fixed stages of that core instead of
// being re-inlined per builder: overload admission + checkpoint recording
// (stage_admission), poison-cancel and retry/re-route (the round loop),
// integrity dual-execution (run_shard), deadline tracking and declared
// ordering (finish). What differs per construct is one policy row per
// op_kind in submit.cpp. A future engine touches submit.{hpp,cpp} only.
// The same stages are exposed publicly through submit_observer
// (ctx.observe()): per-op structured trace records and a Graphviz DOT
// exporter (ctx.dot_export(), CUDASTF_DOT_FILE) ship as observers.
#pragma once

#include <array>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "cudastf/context_state.hpp"
#include "cudastf/data.hpp"
#include "cudastf/error.hpp"
#include "cudastf/events.hpp"
#include "cudastf/places.hpp"
#include "cudastf/recover.hpp"

namespace cudastf {

/// The construct a submission was lowered from.
enum class op_kind : std::uint8_t { task, parallel_for, launch, host };

std::string_view op_kind_name(op_kind k);

/// Lowered description of one submission: what every builder reduces to
/// before entering the shared pipeline. Deps point into the builder frame
/// and stay valid for the lifetime of the submit_pipeline driving this op.
struct op_desc {
  op_kind kind = op_kind::task;
  const std::string* symbol = nullptr;
  const task_dep_untyped* const* deps = nullptr;
  std::size_t n_deps = 0;
  backend_iface::channel channel = backend_iface::channel::compute;
  double deadline = 0.0;  ///< per-op deadline, virtual seconds (0 = none)
  bool verified = false;  ///< dual-execution voting requested
  bool shed = false;      ///< shed instead of block at a full window
};

/// How an observed op terminated.
enum class op_status : std::uint8_t { ok, cancelled, failed };

/// One dependency as seen by observers.
struct op_dep_record {
  std::string data;           ///< logical data name
  std::uint64_t data_id = 0;  ///< stable identity of the logical data
  access_mode mode = access_mode::read;
  /// Resolved data place when the op completed; the requested place on
  /// cancelled/failed ops (resolution may not have happened).
  data_place place;
};

/// Structured trace record emitted once per submission, at its terminal
/// pipeline stage (completion, cancellation or failure recording).
struct op_record {
  std::uint64_t id = 0;  ///< per-context sequence number
  op_kind kind = op_kind::task;
  std::string symbol;
  std::vector<op_dep_record> deps;
  std::vector<int> devices;  ///< execution devices (-1 = host)
  op_status status = op_status::ok;
  /// Failure classification; meaningful when status == failed.
  failure_kind fail = failure_kind::submission_exception;
  /// Failure id recorded in the error report (0: none, or the failure
  /// escalated into an epoch restart instead of a recorded poison).
  std::uint64_t failure_id = 0;
  /// Upstream failure ids whose poison cancelled this op (cause chain).
  std::vector<std::uint64_t> cause_ids;
};

/// Public hook-point API (ctx.observe()): called once per submission with
/// its terminal record, under the context lock. Observers must outlive the
/// context or be detached with ctx.unobserve(). Observed submissions leave
/// the disarmed fast path (fast_path_submits() stops advancing).
class submit_observer {
 public:
  virtual ~submit_observer() = default;
  virtual void on_op(const op_record& rec) = 0;
};

/// Shipped observer: collects every op_record for inspection by tests and
/// tooling.
class trace_observer final : public submit_observer {
 public:
  void on_op(const op_record& rec) override { records_.push_back(rec); }
  const std::vector<op_record>& records() const { return records_; }
  void clear() { records_.clear(); }

 private:
  std::vector<op_record> records_;
};

/// Shipped observer: renders the lowered task graph as Graphviz DOT — one
/// node per submission (symbol, construct, devices, per-dep modes and
/// places), data-dependency edges (RAW/WAR) labeled with the logical data,
/// and red dashed cause-chain edges from a failed op to every op its poison
/// cancelled. The real CUDASTF exports the same view via CUDASTF_DOT_FILE;
/// here the env var arms an exporter at context creation and finalize()
/// writes the file.
class dot_exporter final : public submit_observer {
 public:
  void on_op(const op_record& rec) override;

  /// The accumulated graph as DOT text.
  std::string render() const;

  /// Renders into `path`; false when the file could not be written.
  bool write(const std::string& path) const;

  /// Path finalize() auto-writes to (the CUDASTF_DOT_FILE arming).
  void set_auto_path(std::string path) { auto_path_ = std::move(path); }
  const std::string& auto_path() const { return auto_path_; }

  std::size_t op_count() const { return ops_.size(); }

 private:
  struct edge {
    std::uint64_t from = 0;
    std::uint64_t to = 0;
    std::string label;
    bool poison = false;
  };

  void add_edge(std::uint64_t from, std::uint64_t to, std::string label,
                bool poison);

  std::vector<op_record> ops_;
  std::vector<edge> edges_;
  std::unordered_set<std::uint64_t> edge_seen_;  ///< (from<<32|to) dedup
  std::unordered_map<std::uint64_t, std::uint64_t> writer_;  ///< data -> op
  std::unordered_map<std::uint64_t, std::vector<std::uint64_t>>
      readers_;  ///< data -> readers since last write
  std::unordered_map<std::uint64_t, std::uint64_t>
      failure_op_;  ///< failure id -> op that recorded it
  std::string auto_path_;
};

}  // namespace cudastf

namespace cudastf::detail {

struct op_policy;  // one construct's row of the round-loop table

/// Per-submission callbacks a builder hands to the pipeline. Implemented by
/// a stack-allocated struct inside each builder (virtual dispatch, no
/// per-submission allocation), closing over the builder's typed dependency
/// tuple — the pipeline itself never sees the types.
struct op_hooks {
  virtual ~op_hooks() = default;

  /// Grid constructs only: restore the originally-requested data places
  /// (every round re-binds against the current survivors) and resolve the
  /// target devices.
  virtual std::vector<int> plan() { return {}; }

  /// Grid constructs only: re-bind affine places to a composite over
  /// `devices`.
  virtual void bind(const std::vector<int>& devices) { (void)devices; }

  /// Acquire every dependency for an execution led by `lead_device`,
  /// filling `resolved` and returning the merged readiness list.
  virtual event_list acquire(int lead_device) = 0;

  /// Submit shard `shard` of `n_shards` on `device` through
  /// pipeline.run_shard(). Called once per shard; the pipeline owns the
  /// shard loop and its failure handling.
  virtual void run(int device, std::size_t shard, std::size_t n_shards,
                   const event_list& ready, event_list& done) = 0;

  /// Release every dependency against the completion list.
  virtual void release(const event_list& done) = 0;

  /// Points at the per-dependency resolved places (filled by acquire).
  const data_place* resolved = nullptr;
};

/// One submission's trip through the staged core. Constructed under the
/// context lock; cheap when no observer is attached (a null check).
class submit_pipeline {
 public:
  submit_pipeline(context_state& st, const op_desc& op);
  ~submit_pipeline();

  submit_pipeline(const submit_pipeline&) = delete;
  submit_pipeline& operator=(const submit_pipeline&) = delete;

  /// Whether stage_admission wants the requeue closure (checkpoint log
  /// and/or deadline retry rung armed). When false the builder skips
  /// building the closure entirely — the disarmed path never copies itself.
  bool needs_requeue() const {
    return st_.ckpt != nullptr || st_.dl != nullptr || op_.deadline > 0.0;
  }

  /// Admission stage: arm the deadline monitor on first per-op deadline,
  /// apply overload admission (blocking or shedding), and append the
  /// requeue closure to the checkpoint log — all before anything is
  /// acquired or mutated, so a replay/retry re-enters the builder verbatim.
  void stage_admission(std::function<void()> requeue);

  /// Placement stage for ctx.task(): an explicit device, HEFT-style
  /// automatic placement, or the calling thread's current device. Host ops
  /// keep the default, the host "device" -1.
  void place(const exec_place& where);

  /// The one driver, for every construct: a task is the grid {placed
  /// device}, a host op the grid {-1}, a grid construct plans its own.
  /// Each round runs plan -> re-route -> bind -> snapshot -> acquire ->
  /// every shard -> finish; a failed round rolls back and either re-routes
  /// (next round), escalates, or records and rethrows, per the construct's
  /// policy row (submit.cpp).
  void execute(op_hooks& h);

  /// One backend submission for the shard on `device`: integrity-verified
  /// for tasks when armed, resilient (transient retry) on the fault-aware
  /// path, plain backend run otherwise. Appends the completion to `done`
  /// on success; a resilient failure is left for the round loop to handle.
  void run_shard(int device, const event_list& ready,
                 const std::function<void(cudasim::stream&)>& payload,
                 event_list& done);

 private:
  [[gnu::cold]] [[gnu::noinline]] void begin_record();
  void emit(op_status status, failure_kind fk, std::uint64_t fail_id,
            const int* devices, std::size_t ndev,
            std::vector<std::uint64_t> causes);

  /// Poison-cancel stage: true when an input was poisoned upstream and the
  /// op was cancelled (with its cause chain recorded).
  bool cancelled();

  /// Declared-ordering wait (task/host constructs only).
  void merge_order(event_list& ready);

  /// Terminal success stage: release, declared-ordering record, deadline
  /// tracking, observer emission.
  void finish(op_hooks& h, const op_policy& pol, const event_list& done,
              const int* devices, std::size_t ndev);

  /// The failed-round tail: guard the submitted work, roll back, unpin,
  /// quarantine a lost device, then re-route (true: run the next round),
  /// escalate, or record/emit per the policy row and rethrow `ex`. A null
  /// `ex` is a failed resilient shard (shard_) on `device`.
  [[gnu::cold]] [[gnu::noinline]] bool fail_round(
      const op_policy& pol, int round, std::exception_ptr ex, int device,
      const msi_snapshot& snap, event_list& done, const int* devs,
      std::size_t n);

  /// Record + poison without unpinning (the round loop rolls back first).
  [[gnu::cold]] [[gnu::noinline]] void hard_failure(failure_kind kind,
                                                    int device, int attempts,
                                                    const char* what);
  /// Escalation ladder: epoch restart when checkpointing is armed, else
  /// poison + record.
  [[gnu::cold]] [[gnu::noinline]] void escalate(failure_kind kind, int device,
                                                int attempts,
                                                const char* what);
  [[gnu::cold]] [[gnu::noinline]] void record_to_log(
      std::function<void()> requeue);
  bool wants_verified() const;

  context_state& st_;
  const op_desc& op_;
  const data_place* resolved_ = nullptr;
  int device_ = -1;                 ///< placement-stage device (place())
  bool aware_ = false;              ///< this trip is on the fault-aware path
  resilient_result shard_;          ///< last resilient shard's outcome
  std::function<void()> requeue_;   ///< deadline retry rung closure
  std::unique_ptr<op_record> rec_;  ///< non-null while observed
};

/// Builds the requeue closure stage_admission consumes: a copy of the
/// builder taken before submission mutates anything, re-invoked verbatim by
/// the checkpoint log on epoch restart and by the deadline retry rung.
/// Returns null for move-only bodies — they cannot be re-invoked and fall
/// back to poison-and-cancel on permanent failure.
template <class Builder, class Fn>
std::function<void()> make_requeue(const Builder& b, Fn& fn) {
  if constexpr (std::is_copy_constructible_v<std::decay_t<Fn>>) {
    return [self = b, fn]() mutable {
      auto copy = self;  // keep the closure reusable across restarts
      std::move(copy)->*fn;
    };
  } else {
    (void)b;
    (void)fn;
    return {};
  }
}

// --- typed lowering shared by every builder ---

/// The untyped view of a builder's dependency tuple: what op_desc::deps
/// points at.
template <class... Deps>
std::array<const task_dep_untyped*, sizeof...(Deps)> untyped_deps(
    const std::tuple<Deps...>& deps) {
  std::array<const task_dep_untyped*, sizeof...(Deps)> untyped{};
  std::size_t idx = 0;
  std::apply([&](const auto&... d) { ((untyped[idx++] = &d.untyped), ...); },
             deps);
  return untyped;
}

/// Acquires every dependency, returning the merged readiness list and the
/// resolved per-dependency places (Algorithm 2 applied per dependency).
template <class... Deps, std::size_t... I>
event_list acquire_all(context_state& st, int exec_device,
                       std::array<data_place, sizeof...(Deps)>& resolved,
                       const std::tuple<Deps...>& deps,
                       std::index_sequence<I...>) {
  event_list ready;
  ((resolved[I] = resolve_place(std::get<I>(deps).untyped.place, exec_device),
    st.events_pruned +=
    ready.merge(acquire_dep(st, std::get<I>(deps).untyped, resolved[I]))),
   ...);
  return ready;
}

template <class... Deps, std::size_t... I>
void release_all(context_state& st,
                 const std::array<data_place, sizeof...(Deps)>& resolved,
                 const std::tuple<Deps...>& deps, const event_list& done,
                 std::index_sequence<I...>) {
  (release_dep(st, std::get<I>(deps).untyped, resolved[I], done), ...);
}

/// Builds the tuple of typed views over the acquired instances.
template <class... Deps, std::size_t... I>
auto make_views(const std::array<data_place, sizeof...(Deps)>& resolved,
                const std::tuple<Deps...>& deps, std::index_sequence<I...>) {
  return std::make_tuple(std::get<I>(deps).make_view(
      std::get<I>(deps).untyped.data->find_instance(resolved[I])->ptr)...);
}

/// Devices targeted by an execution place (grid resolution).
std::vector<int> resolve_devices(const exec_place& where,
                                 cudasim::platform& plat);

/// Composite data place over `devices` with the default partitioner.
data_place default_composite(const std::vector<int>& devices);

/// Rebinds affine places to the composite default when running on a grid.
template <class... Deps, std::size_t... I>
void gridify_places(std::tuple<Deps...>& deps, const data_place& composite,
                    std::index_sequence<I...>) {
  ((std::get<I>(deps).untyped.place.is_affine()
        ? void(std::get<I>(deps).untyped.place = composite)
        : void()),
   ...);
}

/// The hooks every builder shares: acquire and release over the typed
/// dependency tuple, and the views a payload binds. Builders add run().
template <class... Deps>
struct typed_hooks : op_hooks {
  static constexpr auto seq = std::index_sequence_for<Deps...>{};

  typed_hooks(submit_pipeline& pipe_, context_state& st_,
              std::tuple<Deps...>& deps_)
      : pipe(pipe_), st(st_), deps(deps_) {
    resolved = res.data();
  }

  event_list acquire(int lead_device) override {
    return acquire_all(st, lead_device, res, deps, seq);
  }

  void release(const event_list& done) override {
    release_all(st, res, deps, done, seq);
  }

  auto views() const { return make_views(res, deps, seq); }

  submit_pipeline& pipe;
  context_state& st;
  std::tuple<Deps...>& deps;
  std::array<data_place, sizeof...(Deps)> res{};
};

/// Hooks of the grid constructs (parallel_for, launch): plan restores the
/// requested places and resolves `where`; bind moves affine places to a
/// composite when the grid spans several devices.
template <class... Deps>
struct grid_hooks : typed_hooks<Deps...> {
  grid_hooks(submit_pipeline& pipe_, context_state& st_,
             std::tuple<Deps...>& deps_, const exec_place& where_)
      : typed_hooks<Deps...>(pipe_, st_, deps_), where(where_) {
    std::size_t idx = 0;
    std::apply(
        [&](const auto&... d) { ((orig[idx++] = d.untyped.place), ...); },
        this->deps);
  }

  std::vector<int> plan() override {
    std::size_t idx = 0;
    std::apply([&](auto&... d) { ((d.untyped.place = orig[idx++]), ...); },
               this->deps);
    return resolve_devices(where, *this->st.plat);
  }

  void bind(const std::vector<int>& devices) override {
    if (devices.size() > 1) {
      gridify_places(this->deps, default_composite(devices), this->seq);
    }
  }

  const exec_place& where;
  std::array<data_place, sizeof...(Deps)> orig{};
};

/// CUDASTF_DOT_FILE arming (context creation) and flush (finalize).
void arm_env_dot(context_state& st);
void flush_env_dot(context_state& st);

}  // namespace cudastf::detail
