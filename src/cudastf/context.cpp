#include "cudastf/context.hpp"

#include <algorithm>
#include <stdexcept>

namespace cudastf {

namespace {

/// Longest run of yields between two tests of the owner word
/// (EXPERIMENTS.md, "Handoff-free context lock": the cap sweep).
constexpr unsigned max_yield_run = 256;

}  // namespace

void context_lock::wait(std::thread::id me) {
  for (unsigned run = 1;; run = std::min(2 * run, max_yield_run)) {
    for (unsigned i = 0; i < run; ++i) {
      std::this_thread::yield();
    }
    std::thread::id none;
    if (owner_.load(std::memory_order_relaxed) == none &&
        owner_.compare_exchange_weak(none, me, std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
      return;
    }
  }
}

namespace detail {

std::vector<int> resolve_devices(const exec_place& where,
                                 cudasim::platform& plat) {
  switch (where.type()) {
    case exec_place::kind::current_device:
      return {plat.current_device()};
    case exec_place::kind::device:
      if (where.device_index() >= plat.device_count()) {
        throw std::out_of_range("cudastf: execution place beyond device count");
      }
      return {where.device_index()};
    case exec_place::kind::grid: {
      if (where.wants_all_devices()) {
        std::vector<int> all(static_cast<std::size_t>(plat.device_count()));
        for (int i = 0; i < plat.device_count(); ++i) {
          all[static_cast<std::size_t>(i)] = i;
        }
        return all;
      }
      for (int d : where.grid_devices()) {
        if (d >= plat.device_count()) {
          throw std::out_of_range("cudastf: grid device beyond device count");
        }
      }
      return where.grid_devices();
    }
    case exec_place::kind::host:
      throw std::logic_error("cudastf: host place has no devices");
    case exec_place::kind::automatic:
      throw std::logic_error(
          "cudastf: automatic placement applies to task(); structured "
          "constructs take a device or grid place");
  }
  return {};
}

std::shared_ptr<const partitioner> default_partitioner() {
  static const auto p = std::make_shared<const blocked_partitioner>();
  return p;
}

data_place default_composite(const std::vector<int>& devices) {
  composite_desc desc;
  desc.devices = devices;
  desc.part = default_partitioner();
  desc.partitioner_key = desc.part->key();
  return data_place::composite(std::move(desc));
}

void add_dep_traffic(cudasim::kernel_desc& k, const task_dep_untyped& dep,
                     const data_place& resolved, double frac0, double frac1,
                     int device) {
  const double total = static_cast<double>(dep.data->bytes());
  const double want = (frac1 - frac0) * total;
  if (want <= 0) {
    return;
  }
  data_instance* inst = dep.data->find_instance(resolved);
  if (inst != nullptr && inst->resv) {
    const auto b0 = static_cast<std::size_t>(frac0 * total);
    const auto len = static_cast<std::size_t>(want);
    const auto split = inst->resv->classify(b0, std::min(len, inst->resv->size() - b0),
                                            device);
    k.bytes += split.local;
    k.remote_bytes += split.remote;
    return;
  }
  switch (resolved.type()) {
    case data_place::kind::device:
      if (resolved.device_index() == device) {
        k.bytes += want;
      } else {
        k.remote_bytes += want;
      }
      break;
    case data_place::kind::host:
      k.host_bytes += want;
      break;
    default:
      k.bytes += want;
      break;
  }
}

}  // namespace detail

data_impl_ptr context::register_impl(std::vector<std::size_t> extents,
                                     std::size_t elem_size, void* host_ptr,
                                     std::string name) {
  std::lock_guard lock(st_->mu);
  auto impl = std::make_shared<logical_data_impl>(
      st_, std::move(extents), elem_size, host_ptr, std::move(name));
  st_->registry.emplace_back(impl);
  if (st_->ckpt != nullptr) {
    st_->ckpt->on_register(impl);
  }
  if (st_->integ != nullptr) {
    // Seed the reference checksum from the settled host contents now, so a
    // corrupted first device fill cannot be adopted as truth (DESIGN.md §10).
    st_->integ->adopt(*st_, *impl);
  }
  if (st_->registry.size() % 256 == 0) {
    st_->sweep_registry();
  }
  return impl;
}

void context_state::declare_order(std::string before, std::string after) {
  // The new edge (before -> after) closes a cycle exactly when `before` is
  // already reachable from `after`. DFS over the declared edges, keeping
  // the path for the diagnostic.
  std::vector<std::string> path{after};
  const auto dfs = [&](const auto& self, const std::string& node) -> bool {
    if (node == before) {
      return true;
    }
    for (const auto& e : order_edges) {
      if (e.first != node) {
        continue;
      }
      // Declared edges are acyclic by induction, so no visited set is
      // needed: every DFS path is simple.
      path.push_back(e.second);
      if (self(self, e.second)) {
        return true;
      }
      path.pop_back();
    }
    return false;
  };
  if (before == after || dfs(dfs, after)) {
    // On success the path reads after -> ... -> before; prepending `before`
    // renders the full cycle the new edge would close.
    std::string msg = "cudastf: declared task-order cycle: '" + before + "'";
    for (const std::string& s : path) {
      msg += " -> '" + s + "'";
    }
    throw std::logic_error(msg);
  }
  order_edges.emplace_back(std::move(before), std::move(after));
}

event_list context_state::order_wait(std::string_view symbol) const {
  event_list out;
  for (const auto& e : order_edges) {
    if (e.second != symbol) {
      continue;
    }
    for (const auto& d : order_done) {
      if (d.first == e.first) {
        out.merge(d.second);
      }
    }
  }
  return out;
}

void context_state::order_record(std::string_view symbol,
                                 const event_list& done) {
  bool constrained = false;
  for (const auto& e : order_edges) {
    if (e.first == symbol) {
      constrained = true;
      break;
    }
  }
  if (!constrained) {
    return;
  }
  for (auto& d : order_done) {
    if (d.first == symbol) {
      d.second.prune_completed_entries();
      d.second.merge(done);
      return;
    }
  }
  order_done.emplace_back(std::string(symbol), done);
}

error_report context::finalize() {
  std::lock_guard lock(st_->mu);
  if (st_->dl != nullptr) [[unlikely]] {
    // Drain deadline (DESIGN.md §12): resolve tracked submissions — cancel,
    // retry, quarantine or restart wedged ones — before write-backs are
    // issued against their outputs. On the graph backend entries resolve
    // after the epoch flush below; settle again then.
    st_->dl->settle(false);
    st_->dl->epoch_restarted = false;
  }
  // Write every host-backed logical data back to its original location;
  // the copies overlap with remaining device work (§II-B). Poisoned data
  // is skipped inside write_back_host; a write-back that itself fails is
  // recorded as data_lost instead of crashing the epilogue (§5).
  for (int round = 0; round < 2; ++round) {
    event_list pending;
    for (auto& w : st_->registry) {
      if (auto d = w.lock()) {
        try {
          pending.merge(write_back_host(*st_, *d));
        } catch (const std::exception& e) {
          d->poisoned_by = st_->record_failure(
              failure_kind::data_lost, d->name(), -1, 1,
              std::string("write-back failed: ") + e.what());
        }
      }
    }
    pending.merge(st_->dangling);
    st_->dangling.clear();
    try {
      st_->backend->fence();
    } catch (const std::exception& e) {
      // The final epoch's launch was refused permanently (graph backend,
      // DESIGN.md §7). With a committed checkpoint the work is replayed on
      // the survivors and written back again; otherwise the loss is
      // recorded instead of crashing the epilogue.
      if (round == 0 && detail::try_epoch_restart(*st_, nullptr, 0)) {
        continue;
      }
      st_->record_failure(failure_kind::device_lost, "finalize", -1, 1,
                          std::string("final epoch refused: ") + e.what());
    }
    if (st_->dl != nullptr) [[unlikely]] {
      // The epoch is flushed now (graph backend entries are live in the
      // DES): resolve them, then wait with escalation instead of letting a
      // wedged write-back block forever.
      st_->dl->settle(false);
      st_->dl->wait(pending);
      if (round == 0 && st_->dl->epoch_restarted) {
        // Escalation restarted the epoch after this round's write-backs
        // were enqueued: the replayed results live only on the devices.
        // Loop once to issue the write-backs again.
        st_->dl->epoch_restarted = false;
        continue;
      }
    } else {
      st_->backend->wait(pending);
    }
    break;
  }
  // Epoch-end trim (DESIGN.md §9): recycled blocks go back to the
  // platform before the final drain, so pool accounting is exact and the
  // context leaves no cached memory behind.
  st_->mem.trim_all(*st_);
  if (st_->dl != nullptr) [[unlikely]] {
    st_->dl->settle(true);
  } else {
    st_->backend->wait_idle();
  }
  st_->sweep_registry();
  // CUDASTF_DOT_FILE arming (DESIGN.md §13): write the observed task graph
  // now that every submission has reached its terminal pipeline stage.
  detail::flush_env_dot(*st_);
  return st_->report;
}

}  // namespace cudastf
