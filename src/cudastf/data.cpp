#include "cudastf/data.hpp"

#include <algorithm>
#include <new>
#include <stdexcept>

#include "cudastf/context_state.hpp"
#include "cudastf/error.hpp"
#include "cudastf/partition.hpp"
#include "cudastf/recover.hpp"
#include "cudastf/transfer.hpp"

namespace cudastf {

std::uint64_t data_place::key() const {
  switch (kind_) {
    case kind::affine:
      return 0xA;
    case kind::host:
      return 0xB;
    case kind::device:
      return 0x100 + static_cast<std::uint64_t>(dev_);
    case kind::composite: {
      std::uint64_t h = 0xC0C0 ^ comp_->partitioner_key;
      for (int d : comp_->devices) {
        h = h * 1099511628211ull + static_cast<std::uint64_t>(d) + 1;
      }
      return h;
    }
  }
  return 0;
}

data_place resolve_place(const data_place& requested, int exec_device) {
  if (!requested.is_affine()) {
    return requested;
  }
  return exec_device < 0 ? data_place::host() : data_place::device(exec_device);
}

logical_data_impl::logical_data_impl(std::shared_ptr<context_state> st,
                                     std::vector<std::size_t> extents,
                                     std::size_t elem_size, void* host_ptr,
                                     std::string name)
    : st_(std::move(st)), extents_(std::move(extents)), elem_size_(elem_size),
      name_(std::move(name)) {
  elements_ = 1;
  for (std::size_t e : extents_) {
    elements_ *= e;
  }
  bytes_ = elements_ * elem_size_;
  if (host_ptr != nullptr) {
    auto inst = std::make_unique<data_instance>();
    inst->place = data_place::host();
    inst->ptr = host_ptr;
    inst->allocated = true;
    inst->user_owned = true;
    inst->state = msi_state::modified;  // the only valid copy initially
    host_slot_ = inst.get();
    instances_.push_back(std::move(inst));
  }
}

data_instance& logical_data_impl::instance_at(const data_place& place) {
  if (data_instance* found = find_instance(place)) {
    return *found;
  }
  auto inst = std::make_unique<data_instance>();
  inst->place = place;
  data_instance& ref = *inst;
  instances_.push_back(std::move(inst));
  switch (place.type()) {
    case data_place::kind::host:
      host_slot_ = &ref;
      break;
    case data_place::kind::device: {
      const auto dev = static_cast<std::size_t>(place.device_index());
      if (dev >= device_slots_.size()) {
        device_slots_.resize(dev + 1, nullptr);
      }
      device_slots_[dev] = &ref;
      break;
    }
    case data_place::kind::affine:
    case data_place::kind::composite:
      break;
  }
  return ref;
}

data_instance* logical_data_impl::find_instance(const data_place& place) {
  switch (place.type()) {
    case data_place::kind::host:
      return host_slot_;
    case data_place::kind::device: {
      const auto dev = static_cast<std::size_t>(place.device_index());
      return dev < device_slots_.size() ? device_slots_[dev] : nullptr;
    }
    case data_place::kind::affine:
    case data_place::kind::composite:
      break;
  }
  for (auto& inst : instances_) {
    if (inst->place == place) {
      return inst.get();
    }
  }
  return nullptr;
}

void logical_data_impl::pin_all(bool pinned) {
  for (auto& inst : instances_) {
    inst->pinned = pinned;
  }
}

/// Picks the instance to copy from: a modified copy if one exists,
/// otherwise any valid (shared) copy.
data_instance* pick_valid_source(logical_data_impl& d,
                                 const data_instance* exclude) {
  data_instance* shared_src = nullptr;
  for (auto& inst : d.instances()) {
    if (inst.get() == exclude || inst->state == msi_state::invalid) {
      continue;
    }
    if (inst->state == msi_state::modified) {
      return inst.get();
    }
    shared_src = inst.get();
  }
  return shared_src;
}

// issue_copy and the copy-routing helpers live in transfer.cpp now
// (topology-aware transfer engine, DESIGN.md §6).

namespace {

/// Allocates backing for `inst` (device pool with eviction, plain host
/// memory, or a page-mapped VMM reservation for composite places). The
/// allocation event, if any, is recorded as the instance's writer.
void allocate_instance(context_state& st, logical_data_impl& d,
                       data_instance& inst) {
  event_list alloc_events;
  switch (inst.place.type()) {
    case data_place::kind::device:
      try {
        inst.ptr = st.alloc_with_eviction(inst.place.device_index(), d.bytes(),
                                          alloc_events);
      } catch (oom_error& e) {
        e.set_data_name(d.name());  // only this frame knows the logical data
        throw;
      }
      st.mem.on_resident(inst.place.device_index(), d, inst);
      break;
    case data_place::kind::host:
      inst.ptr = ::operator new(d.bytes());
      break;
    case data_place::kind::composite: {
      const composite_desc& comp = inst.place.composite_info();
      inst.resv = std::make_unique<cudasim::vmm::reservation>(*st.plat, d.bytes());
      map_pages_by_sampling(*inst.resv, d.element_count(), d.elem_size(),
                            *comp.part, comp.devices);
      inst.ptr = inst.resv->data();
      break;
    }
    case data_place::kind::affine:
      throw std::logic_error("cudastf: affine place must be resolved first");
  }
  inst.allocated = true;
  inst.writer.merge(alloc_events);
}

}  // namespace

event_list acquire_dep(context_state& st, const task_dep_untyped& dep,
                       const data_place& resolved) {
  logical_data_impl& d = *dep.data;
  event_list l;

  // enforce_stf: task-level ordering from data accesses (§II-B).
  st.events_pruned += l.merge(d.last_writer);
  if (mode_writes(dep.mode)) {
    st.events_pruned += l.merge(d.readers_since_write);
  }

  data_instance& inst = d.instance_at(resolved);
  inst.pinned = true;
  if (resolved.type() == data_place::kind::device) {
    // Only device instances are victims; each reads its device's clock.
    inst.prev_use = inst.last_use;
    inst.last_use = st.mem.tick(resolved.device_index());
    st.mem.on_use(inst);
  }

  // allocate: make sure the instance has backing at this place.
  if (!inst.allocated) {
    allocate_instance(st, d, inst);
  }

  // update: obtain a valid copy when the task reads. The transfer planner
  // (transfer.cpp) routes the fill: min-cost source, broadcast trees,
  // chunking, and coalescing onto an in-flight fill.
  if (mode_reads(dep.mode) && inst.state == msi_state::invalid) {
    if (!request_transfer(st, d, inst) && dep.mode == access_mode::read) {
      throw std::logic_error("cudastf: read of uninitialized logical data '" +
                             d.name() + "'");
    }
    // rw on never-written data proceeds on uninitialized contents.
  }

  // Trust boundary (integrity engine, DESIGN.md §10): a read-mode
  // dependency's bytes are verified against the reference checksum —
  // catching both at-rest corruption of an already valid replica and a
  // flipped payload of the fill just issued above.
  if (st.integ != nullptr && mode_reads(dep.mode)) [[unlikely]] {
    st.integ->verify_on_acquire(st, d, inst);
  }

  // Instance-level readiness: when the instance can be read / modified.
  st.events_pruned += l.merge(inst.writer);
  if (mode_writes(dep.mode)) {
    st.events_pruned += l.merge(inst.readers);
    for (auto& other : d.instances()) {
      if (other.get() != &inst) {
        other->state = msi_state::invalid;
        reset_fill_tracking(*other);  // their fills no longer deliver current contents
      }
    }
    inst.state = msi_state::modified;
    reset_fill_tracking(inst);
  }
  return l;
}

void release_dep(context_state& st, const task_dep_untyped& dep,
                 const data_place& resolved, const event_list& done) {
  logical_data_impl& d = *dep.data;
  data_instance* inst = d.find_instance(resolved);
  if (inst == nullptr) {
    throw std::logic_error("cudastf: release of unknown instance");
  }
  if (mode_writes(dep.mode)) {
    d.last_writer = done;
    d.readers_since_write.clear();
    inst->writer = done;
    inst->readers.clear();
    // New contents generation. Bumped on release — not acquire — so a
    // failed writing task (which never releases) leaves the version alone
    // and a retried fill can still coalesce onto the in-flight one.
    ++d.write_version;
    if (st.integ != nullptr) [[unlikely]] {
      st.integ->on_write_release(st, d, *inst, done);
    }
  } else {
    st.events_pruned += d.readers_since_write.merge(done);
    st.events_pruned += inst->readers.merge(done);
  }
  inst->pinned = false;
}

event_list write_back_host(context_state& st, logical_data_impl& d) {
  if (d.poisoned_by != 0) {
    return {};  // poisoned data is never written back (§5)
  }
  data_instance* host = d.find_instance(data_place::host());
  if (host == nullptr || !host->allocated) {
    return {};  // no original host location: nothing to write back
  }
  if (host->state != msi_state::invalid) {
    return {};
  }
  if (!request_transfer(st, d, *host)) {
    // No valid copy survives. Shape-only data no task ever wrote never had
    // contents; anything else lost them, and must not pass for written back.
    if (host->user_owned || d.write_version > 1) {
      d.poisoned_by =
          st.record_failure(failure_kind::data_lost, d.name(), -1, 1,
                            "write-back found no valid copy to write back");
      if (!st.report.failures.empty() &&
          st.report.failures.back().id == d.poisoned_by) {
        st.report.failures.back().poisoned.push_back(d.name());
      }
    }
    return {};
  }
  if (st.integ != nullptr) [[unlikely]] {
    // Last trust boundary before the bytes reach the application: a flip
    // on the write-back copy itself must not escape into the host backing.
    st.integ->verify_on_acquire(st, d, *host);
  }
  return host->writer;  // the fill's (possibly chunked) completion events
}

logical_data_impl::~logical_data_impl() {
  std::lock_guard lock(st_->mu);
  // Write back to the application's memory before device copies vanish. A
  // failing write-back is recorded as data_lost, never thrown (§5) — a
  // destructor must not propagate.
  try {
    event_list wb = write_back_host(*st_, *this);
    st_->dangling.merge(wb);
  } catch (const std::exception& e) {
    poisoned_by = st_->record_failure(
        failure_kind::data_lost, name_, -1, 1,
        std::string("write-back failed: ") + e.what());
  }
  for (auto& inst : instances_) {
    if (!inst->allocated || inst->user_owned) {
      continue;
    }
    if (inst->place.type() == data_place::kind::device) {
      // Dying data's blocks go straight back to the platform (recycling
      // them would tie cache lifetime to arbitrary destruction order);
      // the helper also drops the instance from the resident index.
      release_device_instance(*st_, *this, *inst, /*recycle=*/false);
      continue;
    }
    event_list deps;
    deps.merge(inst->readers);
    deps.merge(inst->writer);
    switch (inst->place.type()) {
      case data_place::kind::device:
        break;  // handled above
      case data_place::kind::host: {
        // Deferred host free: the host node's body releases the buffer when
        // every dependent operation has completed.
        void* p = inst->ptr;
        cudasim::platform* plat = st_->plat;
        const event ev = st_->backend->run(
            0, backend_iface::channel::host, deps,
            [plat, p](cudasim::stream& s) {
              plat->launch_host_func(s, [p] { ::operator delete(p); });
            },
            "host_free");
        st_->dangling.add(ev);
        break;
      }
      case data_place::kind::composite: {
        // Defer the reservation teardown to a host node body as well.
        auto shared_resv = std::shared_ptr<cudasim::vmm::reservation>(
            std::move(inst->resv));
        cudasim::platform* plat = st_->plat;
        const event ev = st_->backend->run(
            0, backend_iface::channel::host, deps,
            [plat, shared_resv](cudasim::stream& s) {
              plat->launch_host_func(s, [shared_resv] {});
            },
            "vmm_release");
        st_->dangling.add(ev);
        break;
      }
      case data_place::kind::affine:
        break;
    }
    inst->allocated = false;
    inst->ptr = nullptr;
  }
}

int pick_heft_device(context_state& st, const task_dep_untyped* const* deps,
                     std::size_t n_deps) {
  const int ndev = st.plat->device_count();
  if (st.heft_load.size() != static_cast<std::size_t>(ndev)) {
    st.heft_load.assign(static_cast<std::size_t>(ndev), 0.0);
  }
  int best = -1;
  double best_finish = 0.0;
  double best_work = 0.0;
  for (int d = 0; d < ndev; ++d) {
    if (st.device_blacklisted(d)) {
      continue;  // never place new work on a failed device
    }
    const cudasim::device_state& dev = st.plat->device(d);
    double transfer = 0.0;
    double ready = 0.0;  // when the inputs are estimated to be available
    double work = 5.0e-6;  // fixed per-task floor (launch latency scale)
    for (std::size_t i = 0; i < n_deps; ++i) {
      logical_data_impl& data = *deps[i]->data;
      const double bytes = static_cast<double>(data.bytes());
      work += bytes / dev.desc().hbm_bw;
      // Is a valid copy already resident on this device?
      data_instance* inst = data.find_instance(data_place::device(d));
      const bool local = inst != nullptr && inst->state != msi_state::invalid;
      if (!local) {
        // A valid copy on a healthy peer device arrives over the p2p link;
        // only host-resident data pays the (slower) host link. The copy can
        // only start once the holder's queued work has produced the data.
        int src_dev = -1;
        for (const auto& other : data.instances()) {
          if (other->state != msi_state::invalid && other->allocated &&
              other->place.type() == data_place::kind::device &&
              other->place.device_index() != d &&
              !st.device_blacklisted(other->place.device_index())) {
            src_dev = other->place.device_index();
            break;
          }
        }
        if (src_dev >= 0) {
          transfer += bytes / dev.desc().p2p_bw;
          ready = std::max(ready,
                           st.heft_load[static_cast<std::size_t>(src_dev)]);
        } else {
          transfer += bytes / dev.desc().host_link_bw;
        }
      }
    }
    // Earliest finish time: the task starts when both the device is free
    // and its inputs exist, then pays the fetch and the execution.
    const double finish =
        std::max(st.heft_load[static_cast<std::size_t>(d)], ready) + transfer +
        work;
    if (best < 0 || finish < best_finish) {
      best = d;
      best_finish = finish;
      // Only execution time is charged to the device: the transfer is a
      // one-time cost on the copy engine, not recurring compute load.
      best_work = work;
    }
  }
  if (best < 0) {
    return 0;  // all devices failed: the submission path reports it
  }
  st.heft_load[static_cast<std::size_t>(best)] += best_work;
  return best;
}

void context_state::sweep_registry() {
  std::erase_if(registry, [](const std::weak_ptr<logical_data_impl>& w) {
    return w.expired();
  });
}

// alloc_with_eviction and the eviction machinery live in mem_engine.cpp
// (out-of-core memory engine, DESIGN.md §9).

}  // namespace cudastf
