// Logical data (§II-A) and the asynchronous MSI coherency protocol (§IV-C).
//
// A logical_data identifies a piece of data that may have multiple coherent
// replicas (data instances) in distinct physical memories. Each instance
// carries a *future* MSI state plus two event lists saying when the
// instance can be read and when it can be modified — the protocol never
// blocks the submitting thread.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cudasim/cudasim.hpp"
#include "cudastf/backend.hpp"
#include "cudastf/events.hpp"
#include "cudastf/places.hpp"
#include "cudastf/shape.hpp"

namespace cudastf {

struct context_state;

/// Access modes of a task dependency.
enum class access_mode : std::uint8_t {
  read,   ///< concurrent with other readers
  write,  ///< full overwrite: previous contents need not be fetched
  rw,     ///< read-modify-write
};

inline bool mode_reads(access_mode m) { return m != access_mode::write; }
inline bool mode_writes(access_mode m) { return m != access_mode::read; }

/// The (future) coherency state of one data instance.
enum class msi_state : std::uint8_t { invalid, shared, modified };

/// One replica of a logical data object at a particular data place.
struct data_instance {
  data_place place = data_place::host();
  void* ptr = nullptr;
  std::unique_ptr<cudasim::vmm::reservation> resv;  ///< composite backing
  msi_state state = msi_state::invalid;
  bool allocated = false;
  bool user_owned = false;  ///< host memory owned by the application
  bool pinned = false;      ///< protected from eviction during a prologue
  /// Last acquire of a device instance, as a reading of its device's use
  /// clock (mem_engine.hpp); host and composite instances keep 0.
  std::uint64_t last_use = 0;
  /// The use before last (LRU-2 style): last_use - prev_use is the reuse
  /// interval the memory engine's scan-resistant victim scoring keys on.
  std::uint64_t prev_use = 0;
  /// Slot in the memory engine's per-device resident-instance index
  /// (mem_engine.hpp); not_resident while the instance has no device
  /// backing.
  static constexpr std::uint32_t not_resident = 0xffffffffu;
  std::uint32_t resident_pos = not_resident;
  /// Links in the memory engine's last_use-ordered victim lists
  /// (mem_engine.hpp); lru_class is 0 while the instance is in none.
  data_instance* lru_prev = nullptr;
  data_instance* lru_next = nullptr;
  std::uint8_t lru_class = 0;
  event_list readers;  ///< pending ops reading this instance
  event_list writer;   ///< pending op(s) writing this instance

  // --- transfer-planner bookkeeping (transfer.cpp, DESIGN.md §6) ---
  /// Contents generation (logical_data_impl::write_version) the last fill
  /// into this buffer delivers; a fill is only reusable while it matches.
  std::uint64_t fill_version = 0;
  /// A fill into the current backing buffer was issued and recorded below.
  bool fill_pending = false;
  /// Source of that fill: device index, -1 for host, -2 for none.
  int fill_src_device = -2;
  /// Hops from the broadcast root (0 = copied from a settled source).
  std::uint32_t fill_depth = 0;
  /// Estimated seconds until this instance is fully valid, measured at
  /// issue time — the routing score charges it when chaining off us.
  double fill_ready_cost = 0.0;
  /// Per-chunk completion events of the fill; a tree child whose chunking
  /// matches depends chunk-by-chunk instead of on the whole fill.
  std::vector<event_ptr> fill_chunks;
};

/// Reference checksum of a logical data's contents at one write_version
/// (integrity engine, DESIGN.md §10). Shared between the data and the
/// asynchronous checksum bodies that fill it in, so a body draining after
/// the data died writes into a still-live entry.
struct integrity_entry {
  std::uint64_t sum = 0;
  /// write_version the sum describes; a verification against a different
  /// version is meaningless (trust-on-first-use re-seeds instead).
  std::uint64_t version = 0;
  bool valid = false;
};

/// Type-erased core of logical_data<T>. All mutation happens under the
/// owning context's submission lock.
class logical_data_impl {
 public:
  logical_data_impl(std::shared_ptr<context_state> st,
                    std::vector<std::size_t> extents, std::size_t elem_size,
                    void* host_ptr, std::string name);
  ~logical_data_impl();

  logical_data_impl(const logical_data_impl&) = delete;
  logical_data_impl& operator=(const logical_data_impl&) = delete;

  std::size_t bytes() const { return bytes_; }
  std::size_t element_count() const { return elements_; }
  std::size_t elem_size() const { return elem_size_; }
  const std::vector<std::size_t>& extents() const { return extents_; }
  const std::string& name() const { return name_; }
  context_state& ctx() const { return *st_; }

  /// Instance bookkeeping (used by the task machinery and tests).
  data_instance& instance_at(const data_place& place);
  data_instance* find_instance(const data_place& place);
  std::size_t instance_count() const { return instances_.size(); }
  const std::vector<std::unique_ptr<data_instance>>& instances() const {
    return instances_;
  }

  // Task-level STF bookkeeping (RAW/WAR/WAW ordering, §II-B).
  event_list last_writer;
  event_list readers_since_write;

  /// Contents generation: bumped when a writing task's completion is
  /// recorded (release_dep). The transfer planner tags fills with it so a
  /// pending fill can only be joined while it still delivers the current
  /// contents (coalescing, DESIGN.md §6). Still 1 on shape-only data
  /// nothing has written yet.
  std::uint64_t write_version = 1;

  /// Failure id (error_report) that poisoned this data, 0 while healthy.
  /// A failed task poisons the data it would have written; dependents are
  /// cancelled instead of executed and write-back is skipped (§5).
  std::uint64_t poisoned_by = 0;

  /// Reference content checksum (integrity engine; null while disarmed).
  /// Computed asynchronously on the producing stream at write-release and
  /// consulted at every trust boundary.
  std::shared_ptr<integrity_entry> integ;
  /// Completion of the pending checksum computation; a verification must
  /// wait on it before trusting integ->sum.
  event_list integ_ready;

  /// Set while a prologue runs so the allocator will not evict our
  /// instances mid-acquire.
  void pin_all(bool pinned);

 private:
  friend struct context_state;
  std::shared_ptr<context_state> st_;
  std::vector<std::size_t> extents_;
  std::size_t elem_size_;
  std::size_t elements_;
  std::size_t bytes_;
  std::string name_;
  std::vector<std::unique_ptr<data_instance>> instances_;
};

using data_impl_ptr = std::shared_ptr<logical_data_impl>;

/// One dependency of a task: data + access mode + requested data place.
struct task_dep_untyped {
  data_impl_ptr data;
  access_mode mode = access_mode::read;
  data_place place = data_place::affine();
};

// --- core protocol operations (implemented in data.cpp) ---

/// Algorithm 2, per-dependency: enforce STF ordering, allocate the instance
/// at the resolved place, make it coherent for `mode`. Returns the events
/// that must complete before the task may start, with the instance left
/// pinned until release_dep().
event_list acquire_dep(context_state& st, const task_dep_untyped& dep,
                       const data_place& resolved);

/// Epilogue: records the task's completion events into the STF and
/// instance-level lists and unpins the instance.
void release_dep(context_state& st, const task_dep_untyped& dep,
                 const data_place& resolved, const event_list& done);

/// Ensures the host instance holds a valid copy (write-back); returns the
/// completion events of the copies issued (empty if already valid).
event_list write_back_host(context_state& st, logical_data_impl& d);

/// Resolves an affine data place against an execution device
/// (device index, or -1 for host execution).
data_place resolve_place(const data_place& requested, int exec_device);

/// Internal, exposed for the recovery engine (fault.cpp): picks the
/// instance to copy from — a modified copy if one exists, else any valid
/// (shared) copy; nullptr when no valid copy survives.
data_instance* pick_valid_source(logical_data_impl& d,
                                 const data_instance* exclude);

/// Internal, exposed for the recovery engine: issues the asynchronous
/// transfer making `dst` a valid copy of `src` (possibly as several
/// pipelined chunks; see transfer.cpp), retrying transient link faults in
/// fault-aware mode. Returns the completion events of every segment.
/// Throws detail::device_lost_error / detail::transfer_error on permanent
/// failure; a partial submission (some chunks accepted) is never retried
/// and also surfaces as transfer_error, with the accepted segments left
/// guarding src/dst.
event_list issue_copy(context_state& st, logical_data_impl& d,
                      data_instance& src, data_instance& dst);

/// HEFT-style device selection (§IX extension): picks the device with the
/// smallest estimated finish time = current estimated load + modelled
/// transfer cost of dependencies whose valid copy lives elsewhere, then
/// charges the chosen device with the task's estimated duration.
int pick_heft_device(context_state& st,
                     const task_dep_untyped* const* deps, std::size_t n_deps);

}  // namespace cudastf
