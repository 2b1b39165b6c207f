// The staged submission pipeline (DESIGN.md §13). Every construct — task,
// parallel_for, launch, host_launch — lowers its work to an op_desc and a
// small set of hooks, then drives the one shared core below:
//
//   admission -> plan/bind -> acquire -> pre-run -> run -> post-run -> release
//
// The cross-cutting engines attach at fixed stages of that core instead of
// being re-inlined per builder: overload admission + checkpoint recording
// (stage_admission), poison-cancel and retry/re-route (the execute_*
// drivers), integrity dual-execution (run_shard), deadline tracking and
// declared ordering (finish). A future engine touches submit.{hpp,cpp}
// only. The same stages are exposed publicly through submit_observer
// (ctx.observe()): per-op structured trace records and a Graphviz DOT
// exporter (ctx.dot_export(), CUDASTF_DOT_FILE) ship as observers.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
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

/// Per-submission callbacks a builder hands to the pipeline. Implemented by
/// a stack-allocated struct inside each builder (virtual dispatch, no
/// per-submission allocation), closing over the builder's typed dependency
/// tuple — the pipeline itself never sees the types.
struct op_hooks {
  virtual ~op_hooks() = default;

  /// Grid ops only: restore the originally-requested data places (retries
  /// re-bind against the current survivors) and resolve the target devices.
  virtual std::vector<int> plan() { return {}; }

  /// Grid ops only: re-bind affine places to a composite over `devices`.
  virtual void bind(const std::vector<int>& devices) { (void)devices; }

  /// Acquire every dependency for an execution led by `lead_device`,
  /// filling `resolved` and returning the merged readiness list.
  virtual event_list acquire(int lead_device) = 0;

  /// Submit the op's payload(s) over `devices`. Each shard goes through
  /// pipeline.run_shard(), which selects the plain / verified / resilient
  /// backend path. With rr == nullptr this is the plain path (failures
  /// throw); otherwise a shard failure is reported through *rr and
  /// *bad_device and the loop stops.
  virtual void run(const int* devices, std::size_t n_devices,
                   const event_list& ready, event_list& done,
                   resilient_result* rr, int* bad_device) = 0;

  /// Release every dependency against the completion list.
  virtual void release(const event_list& done) = 0;

  /// Points at the builder's resolved-place array (filled by acquire).
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

  /// Placement stage for single-device ops (explicit device, HEFT-style
  /// automatic placement, or the calling thread's current device).
  int choose_device(const exec_place& where);

  // --- drivers: one per construct shape ---

  /// ctx.task(): single device, retry/re-route when fault-aware.
  void execute_task(op_hooks& h, int device);

  /// parallel_for / launch on devices: plan -> bind -> sharded run, whole-
  /// submission retry over the surviving grid when fault-aware.
  void execute_grid(op_hooks& h);

  /// ctx.host_launch(): host channel, poison-cancel when fault-aware,
  /// escalate-don't-throw on typed failures.
  void execute_host_task(op_hooks& h);

  /// parallel_for on the host place: plain host-channel submission.
  void execute_host_shard(op_hooks& h);

  /// One backend submission for the shard on `device`: integrity-verified
  /// for tasks when armed, resilient when `rr` is non-null, plain backend
  /// run otherwise. Appends the completion to `done` on success.
  void run_shard(int device, const event_list& ready,
                 const std::function<void(cudasim::stream&)>& payload,
                 event_list& done, resilient_result* rr);

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
  void finish(op_hooks& h, const event_list& done, const int* devices,
              std::size_t ndev, bool resubmittable);

  void execute_plain(op_hooks& h, const int* devices, std::size_t ndev,
                     bool resubmittable);
  [[gnu::cold]] [[gnu::noinline]] void execute_task_resilient(op_hooks& h,
                                                              int device);
  [[gnu::cold]] [[gnu::noinline]] void execute_grid_resilient(op_hooks& h);

  /// Failure recording that keeps the poison (no restart): unpin + record.
  [[gnu::cold]] [[gnu::noinline]] void plain_failure(failure_kind kind,
                                                     int device,
                                                     const char* what);
  /// Record without unpinning (resilient paths roll back pins themselves).
  [[gnu::cold]] [[gnu::noinline]] void hard_failure(failure_kind kind,
                                                    int device, int attempts,
                                                    const char* what);
  /// Escalation ladder: epoch restart when checkpointing is armed, else
  /// poison + record.
  [[gnu::cold]] [[gnu::noinline]] void escalate(failure_kind kind, int device,
                                                int attempts,
                                                const char* what);
  /// Host-task typed-failure policy: unpin, quarantine a lost device,
  /// then rethrow (not fault-aware) or escalate (fault-aware).
  [[gnu::cold]] [[gnu::noinline]] void host_failure(bool aware,
                                                    failure_kind kind,
                                                    int device,
                                                    const char* what);
  void rollback(const msi_snapshot& snap);
  [[gnu::cold]] [[gnu::noinline]] void record_to_log(
      std::function<void()> requeue);
  bool wants_verified() const;

  context_state& st_;
  const op_desc& op_;
  const data_place* resolved_ = nullptr;
  std::function<void()> requeue_;      ///< deadline retry rung closure
  std::unique_ptr<op_record> rec_;     ///< non-null while observed
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

/// CUDASTF_DOT_FILE arming (context creation) and flush (finalize).
void arm_env_dot(context_state& st);
void flush_env_dot(context_state& st);

}  // namespace cudastf::detail
