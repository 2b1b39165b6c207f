// The simulated CUDA platform: a set of devices, their engines and memory
// pools, and the shared virtual timeline. Plays the role of the CUDA
// runtime + driver in this reproduction (see DESIGN.md §1).
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cudasim/des.hpp"
#include "cudasim/device.hpp"
#include "cudasim/fault.hpp"
#include "cudasim/stream.hpp"

namespace cudasim {

/// Memory kinds understood by memcpy_async.
enum class memcpy_kind : std::uint8_t {
  host_to_device,
  device_to_host,
  device_to_device,  ///< same device or peer-to-peer; platform inspects
  host_to_host,
};

/// A byte range the next kernel submission will write (integrity hinting:
/// an armed kernel_output bit flip lands inside a hinted range instead of
/// an arbitrary live allocation).
struct byte_span {
  void* ptr = nullptr;
  std::size_t len = 0;
};

/// Cost descriptor attached to a simulated kernel launch.
///
/// `bytes` is traffic served from the executing device's own memory;
/// `remote_bytes` crosses a peer link; `host_bytes` crosses the host link.
struct kernel_desc {
  std::string name = "kernel";
  double flops = 0.0;
  double bytes = 0.0;
  double remote_bytes = 0.0;
  double host_bytes = 0.0;
  double fixed_seconds = 0.0;  ///< extra fixed device time, if any
};

/// Per-device state: engines and the stream-ordered memory pool.
class device_state {
 public:
  explicit device_state(int index, device_desc desc);

  int index() const { return index_; }
  const device_desc& desc() const { return desc_; }

  engine& compute() { return compute_; }
  engine& copy_in() { return copy_in_; }
  engine& copy_out() { return copy_out_; }

  std::size_t pool_used() const { return pool_used_; }
  std::size_t pool_capacity() const { return desc_.mem_capacity; }
  /// Overrides the pool capacity (used by the Fig. 3 experiment).
  void set_pool_capacity(std::size_t bytes) { desc_.mem_capacity = bytes; }

  /// Fail-stop flag: once set the device accepts no new kernels, copies
  /// (except evacuating device-to-host reads) or allocations. Work already
  /// submitted still completes — the model is fail-stop *at submission*.
  bool failed() const { return failed_; }

  /// Bookkeeping for one live malloc_async/pool_reserve buffer. The
  /// allocation sequence number gives resident bit flips a deterministic
  /// victim order independent of hash-map iteration and pointer values.
  struct alloc_info {
    std::size_t bytes = 0;
    std::uint64_t seq = 0;
  };

 private:
  friend class platform;
  int index_;
  device_desc desc_;
  engine compute_{engine_kind::compute};
  engine copy_in_{engine_kind::copy_in};
  engine copy_out_{engine_kind::copy_out};
  std::size_t pool_used_ = 0;
  bool failed_ = false;
  /// Buffers handed out by malloc_async; maps base pointer -> info.
  std::unordered_map<void*, alloc_info> live_allocs_;
  std::uint64_t alloc_seq_ = 0;
};

/// Computes the modelled execution time of `k` on a device.
double kernel_cost_seconds(const device_desc& d, const kernel_desc& k);

/// The simulated machine. Thread-safe for submission: a single mutex
/// serializes the stateful API calls (mirroring the driver lock), while the
/// hottest per-task reads bypass it — current_device() and faults_armed()
/// are lock-free atomics, event registration takes its own registry mutex,
/// and event::query() reads atomic completion flags (DESIGN.md §11).
class platform {
 public:
  /// Builds a homogeneous machine of `num_devices` copies of `desc`.
  platform(int num_devices, const device_desc& desc);
  ~platform();

  platform(const platform&) = delete;
  platform& operator=(const platform&) = delete;

  int device_count() const { return static_cast<int>(devices_.size()); }
  device_state& device(int i);
  const device_state& device(int i) const;

  /// Current-device TLS emulation (cudaSetDevice / cudaGetDevice).
  void set_device(int i);
  int current_device() const;

  // --- asynchronous operations (stream-ordered) ---

  /// Launches a simulated kernel; `body` runs when the kernel completes in
  /// virtual time (it may be empty for timing-only runs).
  void launch_kernel(stream& s, const kernel_desc& k, std::function<void()> body,
                     bool graph_launched = false);

  void memcpy_async(void* dst, const void* src, std::size_t n, memcpy_kind kind,
                    stream& s);

  /// Peer copy between two devices (cudaMemcpyPeerAsync). Unlike the
  /// device_to_device kind of memcpy_async — which only charges the source
  /// device's copy_out engine — a cross-device peer copy occupies *both*
  /// endpoints: copy_out on `src_device` and copy_in on `dst_device` run in
  /// parallel for the link-transfer duration, and the operation completes
  /// when both have. This models real NVLink contention: a device cannot
  /// absorb two incoming transfers faster than one. Same-device calls fall
  /// back to plain device_to_device semantics.
  void memcpy_peer_async(void* dst, int dst_device, const void* src,
                         int src_device, std::size_t n, stream& s);

  /// Stream-ordered allocation from the device pool backing `s`.
  /// Returns nullptr when the pool capacity would be exceeded (the caller —
  /// e.g. CUDASTF's allocator — is expected to react, typically by evicting).
  void* malloc_async(std::size_t bytes, stream& s);
  void free_async(void* p, stream& s);

  void launch_host_func(stream& s, std::function<void()> fn, double cost = 0.0);

  // --- synchronization ---

  void stream_synchronize(stream& s);
  void synchronize();  ///< cudaDeviceSynchronize over the whole machine

  /// Virtual clock: largest completion time processed so far. Call
  /// synchronize() first for a quiescent reading.
  timepoint now() const { return tl_.now(); }

  /// When disabled, memcpy bodies become no-ops (timing-only runs at paper
  /// scale avoid faulting tens of GB of backing memory). Default: enabled.
  void set_copy_payloads(bool on) { copy_payloads_ = on; }
  bool copy_payloads() const { return copy_payloads_; }

  std::uint64_t ops_completed() const { return tl_.completed_count(); }

  // --- fault injection / failure model (see DESIGN.md §5) ---

  /// Installs (or replaces) the platform's fault injector. The platform
  /// owns it; pass nullptr to disarm.
  void set_fault_injector(std::shared_ptr<fault_injector> fi);
  /// Creates an injector if none is installed and returns it for scheduling.
  fault_injector& ensure_fault_injector();
  fault_injector* injector() const { return injector_.get(); }

  /// Marks a device as permanently failed (fail-stop at submission). Also
  /// fired by the injector on device_fail events. Idempotent.
  void fail_device(int dev);
  bool device_failed(int dev) const;

  /// True once an injector is installed or any device has failed. The
  /// submission paths skip all fault bookkeeping while this is false, so a
  /// fault-free platform pays one predictable branch per op. Lock-free, so
  /// the STF fast path can consult it without the driver lock.
  bool faults_armed() const {
    return faults_armed_.load(std::memory_order_acquire);
  }

  /// True exactly once after an injected alloc_fail made malloc_async
  /// return nullptr. Lets allocators distinguish the injected (transient,
  /// retryable) failure from genuine pool exhaustion — matching CUDA, where
  /// a cudaMallocAsync OOM is returned but not sticky.
  bool consume_injected_alloc_failure();

  /// Enqueues a pure delay of `seconds` virtual time on the stream (no
  /// engine occupancy). Used for exponential-backoff task retries.
  void stream_delay(stream& s, double seconds);

  // --- hang injection / recovery (fault_kind::stall, DESIGN.md §12) ---

  /// What cancel_stalled_op() tore out of the DES (found == false when no
  /// cancellable stalled op existed). `name` points at the timeline's
  /// interned string; `id` matches event::node_id() of events recorded on
  /// the op.
  struct stall_info {
    bool found = false;
    std::uint64_t id = 0;
    const char* name = "";
    int device = -1;
  };

  /// Cooperatively cancels one injected-stall victim: `prefer` (when it is
  /// itself a stalled op) else the oldest cancellable stalled op. The
  /// cancelled op's body is discarded, its engine un-wedged and its
  /// successors released (see timeline::cancel). Recovery layers decide
  /// what the administrative completion means for data validity.
  stall_info cancel_stalled_op(const op_node* prefer = nullptr);

  /// Bounded drain: completes every pending op with finish time <= t_limit.
  /// Returns how many completed. Never blocks on a wedged engine.
  std::size_t drain_window(timepoint t_limit);
  /// Completes the single earliest pending op; false when nothing pending.
  bool drain_one();
  /// Advances the virtual clock to at least t (deadline waits cost time).
  void advance_clock(timepoint t);
  /// Submitted-but-incomplete op count (deadline monitor's wedge check).
  std::uint64_t live_ops() const;
  /// Diagnostic passthrough to timeline::stuck_report() under the lock.
  std::string stuck_report() const;

  /// Declares the byte ranges the next kernel submissions will write, so an
  /// armed kernel_output bit flip corrupts genuine task output. Cleared with
  /// clear_output_hints(); without hints the flip falls back to a live
  /// allocation on the device. Only consulted while an injector is armed.
  void set_output_hints(std::vector<byte_span> spans);
  void clear_output_hints();

  /// DES nodes recycled through the timeline's slab pool (fast-path
  /// perf counter; see DESIGN.md "Host-side fast path").
  std::uint64_t nodes_pooled() const { return tl_.nodes_pooled(); }

  // --- internals shared with stream/event/graph (not for end users) ---

  /// Charges `bytes` against device `dev`'s pool and returns backing memory
  /// (nullptr if the capacity would be exceeded). Used by graph alloc nodes.
  void* pool_reserve(int dev, std::size_t bytes);
  /// Returns memory obtained from pool_reserve / malloc_async without
  /// stream ordering (immediate release).
  void pool_unreserve(int dev, void* p);

  /// Accounting-only variants used by the VMM layer, which supplies its own
  /// backing memory. pool_charge returns false if the capacity is exceeded.
  bool pool_charge(int dev, std::size_t bytes);
  void pool_discharge(int dev, std::size_t bytes);

  /// Engine + duration for a copy of `n` bytes of the given kind touching
  /// device `dev`. Shared by stream and graph submission paths.
  struct copy_plan {
    engine* eng;
    double seconds;
  };
  copy_plan plan_copy(int dev, std::size_t n, memcpy_kind kind);

  timeline& tl() { return tl_; }
  std::recursive_mutex& mutex() { return mu_; }
  engine& host_engine() { return host_engine_; }
  void register_stream(stream* s) { streams_.insert(s); }
  void unregister_stream(stream* s) { streams_.erase(s); }
  /// Drops the unchecked pointers to completed nodes (stream tails, stall
  /// victims) so timeline::gc() can recycle every retired node. Events need
  /// no sweep: they check the node's id. Called with mu_ held.
  void collect_handles();
  /// Bandwidth of host-to-host staging copies (checkpoint snapshots of
  /// host-resident data, eviction staging). Configurable so checkpoint
  /// overhead studies can model slow staging buffers in virtual time.
  double host_memcpy_bw() const { return host_memcpy_bw_; }
  void set_host_memcpy_bw(double bytes_per_second) {
    host_memcpy_bw_ = bytes_per_second;
  }

  /// Accounts one submission with the injector (if armed) and returns the
  /// injected status. Must be called with the platform mutex held; shared
  /// by the stream submission paths and graph_exec::launch.
  sim_status poll_faults_locked(op_category cat, int device);

  /// Hands over (and clears) the armed stall. Unlike flips, a pending stall
  /// is sticky across polls: one armed during stream capture (where no DES
  /// node exists yet) rides forward and lands on the next engine op created
  /// — e.g. the first kernel node lowered by graph_exec::launch. Shared
  /// with graph_exec; mu_ held.
  bool take_pending_stall(stall_request* out);

  /// Marks the (not yet submitted) node as the stall victim: a transient
  /// stall enlarges its duration, a permanent one wedges its engine until
  /// cancelled. Tracked in stalled_ops_ for cancel_stalled_op(). mu_ held.
  void apply_stall_locked(op_node* n, const stall_request& sr);

 private:
  /// Bounds simulator memory: once too many live ops accumulate, drain the
  /// timeline (virtual timestamps are unaffected — everything submitted is
  /// fully determined) and reclaim nodes. Called with mu_ held.
  void maybe_drain_locked();

  /// Corrupts one byte of a deterministically chosen live allocation on the
  /// request's device, immediately (at-rest aging needs no stream ordering,
  /// and deferring would race the deferred std::free bodies). mu_ held.
  void apply_resident_flip_locked(const flip_request& fr);

  /// Hands over (and clears) the flip armed by the last poll. Each
  /// submission path consumes or drops it before returning so a flip armed
  /// on a refused op never leaks into a later one.
  bool take_pending_flip(flip_request* out);

  std::vector<std::unique_ptr<device_state>> devices_;
  engine host_engine_{engine_kind::host};
  timeline tl_;
  mutable std::recursive_mutex mu_;
  /// Current device. Atomic so current_device() — consulted once per task on
  /// the submission fast path — never touches the driver lock.
  std::atomic<int> current_{0};
  bool copy_payloads_ = true;
  double host_memcpy_bw_ = 50.0e9;
  std::unordered_set<stream*> streams_;
  std::shared_ptr<fault_injector> injector_;
  bool alloc_fault_pending_ = false;
  std::atomic<bool> faults_armed_{false};
  bool any_device_failed_ = false;
  flip_request pending_flip_;
  stall_request pending_stall_;
  bool stall_pending_ = false;
  /// Live stall victims, in arming (= oldest-first) order. Pruned of done
  /// nodes in collect_handles() — before gc() can recycle them — and
  /// lazily in cancel_stalled_op().
  std::vector<op_node*> stalled_ops_;
  std::vector<byte_span> output_hints_;
};

inline bool event::query() const {
  // Lock-free. Both node loads are acquire, and the count is published
  // after `done`, so a `true` happens-after the completing store. make_node()
  // stores a recycled node's new id before resetting `done`, so reading the
  // reset flag implies reading the new id: the answer never flips back.
  if (node_ == nullptr) {
    return stream_uid_ != 0;  // recorded on an idle stream, or unrecorded
  }
  if (plat_->ops_completed() == stamp_) {
    return false;  // nothing completed since record: no node read at all
  }
  return node_->done.load(std::memory_order_acquire) ||
         node_->id.load(std::memory_order_acquire) != id_;
}

/// Flips one deterministic bit of `[p, p+len)` derived from `seed`.
void flip_payload_byte(void* p, std::size_t len, std::uint64_t seed);

/// Process-wide default platform management. Tests and benches typically
/// install their own platform for the duration of a scope.
platform& default_platform();
/// Replaces the default platform; returns the previous one (may be null).
std::shared_ptr<platform> set_default_platform(std::shared_ptr<platform> p);

/// RAII helper installing a fresh default platform for a scope.
class scoped_platform {
 public:
  scoped_platform(int num_devices, const device_desc& desc);
  ~scoped_platform();
  platform& get() { return *mine_; }

 private:
  std::shared_ptr<platform> mine_;
  std::shared_ptr<platform> previous_;
};

}  // namespace cudasim
