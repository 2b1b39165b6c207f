// Integrity engine (DESIGN.md §10): reference checksums at write-release,
// verification at trust boundaries, replica repair, dual-execution voting
// and the background scrubber. See integrity.hpp for the model.
//
// Pipeline hook points (DESIGN.md §13): verify-on-acquire runs inside the
// acquire stage (detail::acquire_all) and dual-execution voting replaces
// the plain backend run inside submit_pipeline::run_shard when the op's
// verified flag (or verify_all_tasks) is set.
//
// Threading contract (DESIGN.md §11): checksum bookkeeping spans multiple
// logical data and the platform; everything here runs under the context
// mutex, keeping checksum identity (and thus deterministic-mode digests)
// independent of submitting thread count.
#include "cudastf/integrity.hpp"

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "cudastf/checkpoint.hpp"
#include "cudastf/context_state.hpp"
#include "cudastf/error.hpp"
#include "cudastf/transfer.hpp"

namespace cudastf {

namespace {

int instance_device(const data_instance& inst) {
  return inst.place.type() == data_place::kind::device
             ? inst.place.device_index()
             : -1;
}

void invalidate_replica(data_instance& inst) {
  inst.state = msi_state::invalid;
  reset_fill_tracking(inst);
}

}  // namespace

std::uint64_t integrity_checksum(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  std::uint64_t h = 14695981039346656037ull;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= b[i];
    h *= 1099511628211ull;
  }
  return h;
}

bool integrity_engine::armed_for(context_state& st,
                                 const logical_data_impl& d) const {
  // Timing-only runs move no real bytes, so checksums would compare
  // uninitialized storage; poisoned data is already past saving.
  return st.plat != nullptr && st.plat->copy_payloads() &&
         d.poisoned_by == 0 && d.bytes() > 0;
}

void integrity_engine::on_write_release(context_state& st,
                                        logical_data_impl& d,
                                        data_instance& inst,
                                        const event_list& done) {
  if (!cfg.checksums || !armed_for(st, d)) {
    return;
  }
  if (!inst.allocated || inst.ptr == nullptr) {
    return;
  }
  if (d.integ == nullptr) {
    d.integ = std::make_shared<integrity_entry>();
  }
  // The previous generation's sum is stale from here on; verifications
  // wait on integ_ready below before trusting the entry again.
  d.integ->valid = false;
  auto entry = d.integ;
  void* p = inst.ptr;
  const std::size_t n = d.bytes();
  const std::uint64_t ver = d.write_version;
  cudasim::platform* plat = st.plat;
  const event ev = st.backend->run(
      0, backend_iface::channel::host, done,
      [plat, entry, p, n, ver](cudasim::stream& s) {
        // The entry is shared: if the logical data dies before the body
        // drains, the write lands in a still-live orphan.
        plat->launch_host_func(s, [entry, p, n, ver] {
          entry->sum = integrity_checksum(p, n);
          entry->version = ver;
          entry->valid = true;
        });
      },
      "integrity_checksum");
  ++st.backend->mutable_stats().checksums_computed;
  d.integ_ready.clear();
  if (ev) {
    d.integ_ready.add(ev);
    // Membership in inst.readers makes frees wait for the checksum read;
    // membership in readers_since_write makes the next writer wait (WAR).
    inst.readers.add(ev);
    d.readers_since_write.add(std::move(ev));
  }
}

bool integrity_engine::verify_instance(context_state& st, logical_data_impl& d,
                                       data_instance& inst, const char* site) {
  (void)site;
  if (!cfg.checksums || !armed_for(st, d)) {
    return true;
  }
  if (!inst.allocated || inst.ptr == nullptr ||
      inst.state == msi_state::invalid) {
    return true;
  }
  event_list wait_on = inst.writer;
  wait_on.merge(d.integ_ready);
  st.backend->wait(wait_on);
  const std::uint64_t sum = integrity_checksum(inst.ptr, d.bytes());
  backend_stats& bs = st.backend->mutable_stats();
  if (d.integ == nullptr) {
    d.integ = std::make_shared<integrity_entry>();
  }
  integrity_entry& e = *d.integ;
  if (!e.valid || e.version != d.write_version) {
    // Trust-on-first-use: no reference for this generation — seed it from
    // the bytes at hand instead of flagging (not counted as verified).
    e.sum = sum;
    e.version = d.write_version;
    e.valid = true;
    return true;
  }
  if (sum == e.sum) {
    ++bs.checksums_verified;
    return true;
  }
  ++bs.checksum_mismatches;
  return false;
}

bool integrity_engine::handle_corruption(context_state& st,
                                         logical_data_impl& d,
                                         data_instance& inst,
                                         const char* site) {
  invalidate_replica(inst);
  if (!cfg.repair) {
    return false;
  }
  for (const auto& up : d.instances()) {
    data_instance& cand = *up;
    if (&cand == &inst || !cand.allocated ||
        cand.state == msi_state::invalid) {
      continue;
    }
    if (verify_instance(st, d, cand, site)) {
      ++st.backend->mutable_stats().replicas_repaired;
      return true;
    }
    invalidate_replica(cand);
  }
  return false;
}

void integrity_engine::verify_on_acquire(context_state& st,
                                         logical_data_impl& d,
                                         data_instance& inst) {
  if (!cfg.checksums || !armed_for(st, d) ||
      inst.state == msi_state::invalid) {
    return;  // never-written rw acquire: nothing to trust yet
  }
  const char* site = "task_acquire";
  for (int attempt = 0; attempt < 4; ++attempt) {
    if (inst.state == msi_state::invalid) {
      // A repair invalidated this replica: refill from the vetted sharer
      // (request_transfer re-verifies its source choice while armed).
      if (!request_transfer(st, d, inst)) {
        detail::throw_corruption(st, d, instance_device(inst), site);
      }
      site = "fill_refill";
    }
    if (verify_instance(st, d, inst, site)) {
      return;
    }
    if (!handle_corruption(st, d, inst, site)) {
      detail::throw_corruption(st, d, instance_device(inst), site);
    }
  }
  detail::throw_corruption(st, d, instance_device(inst), "task_acquire");
}

void integrity_engine::adopt(context_state& st, logical_data_impl& d) {
  if (!cfg.checksums || !armed_for(st, d) || d.integ != nullptr) {
    return;
  }
  data_instance* host = d.find_instance(data_place::host());
  if (host == nullptr || !host->allocated || host->ptr == nullptr ||
      host->state == msi_state::invalid) {
    return;
  }
  st.backend->wait(host->writer);
  d.integ = std::make_shared<integrity_entry>();
  d.integ->sum = integrity_checksum(host->ptr, d.bytes());
  d.integ->version = d.write_version;
  d.integ->valid = true;
  ++st.backend->mutable_stats().checksums_computed;
}

std::size_t integrity_engine::scrub(context_state& st) {
  ++st.backend->mutable_stats().scrub_passes;
  if (!cfg.checksums) {
    return 0;
  }
  std::size_t found = 0;
  // Snapshot the registry: an escalation below can restart the epoch,
  // which replays tasks and grows the registry mid-iteration.
  std::vector<data_impl_ptr> live;
  live.reserve(st.registry.size());
  for (auto& w : st.registry) {
    if (auto d = w.lock()) {
      live.push_back(std::move(d));
    }
  }
  for (const data_impl_ptr& d : live) {
    if (!armed_for(st, *d)) {
      continue;
    }
    for (const auto& up : d->instances()) {
      data_instance& inst = *up;
      if (!inst.allocated || inst.ptr == nullptr ||
          inst.state == msi_state::invalid) {
        continue;
      }
      if (verify_instance(st, *d, inst, "scrub")) {
        continue;
      }
      ++found;
      if (handle_corruption(st, *d, inst, "scrub")) {
        continue;
      }
      // Sole copy corrupt: escalate through the ladder — epoch restart
      // when checkpointing is armed, else the data is poisoned and its
      // dependents cancel. A restart replays into a fresh world, so the
      // pass ends here either way.
      task_dep_untyped dep;
      dep.data = d;
      dep.mode = access_mode::rw;
      const task_dep_untyped* dp = &dep;
      detail::fail_task_or_restart(
          st, &dp, 1, "scrub", failure_kind::data_corrupted,
          instance_device(inst), 1,
          "checksum mismatch at scrub (write_version " +
              std::to_string(d->write_version) +
              ") with no valid replica to repair from");
      return found;
    }
  }
  return found;
}

namespace detail {

void throw_corruption(context_state& st, logical_data_impl& d, int device,
                      const char* site) {
  const std::uint64_t id = st.record_failure(
      failure_kind::data_corrupted, d.name(), device, 1,
      std::string("checksum mismatch at ") + site + " (write_version " +
          std::to_string(d.write_version) +
          ") with no valid replica to repair from");
  if (d.poisoned_by == 0) {
    d.poisoned_by = id;
    if (!st.report.failures.empty() && st.report.failures.back().id == id) {
      st.report.failures.back().poisoned.push_back(d.name());
    }
  }
  throw corruption_error(d.name(), device, site, d.write_version);
}

event_list run_verified(context_state& st, int device, const event_list& ready,
                        const std::function<void(cudasim::stream&)>& payload,
                        std::string_view symbol,
                        const task_dep_untyped* const* deps, std::size_t n,
                        const data_place* resolved) {
  backend_stats& bs = st.backend->mutable_stats();
  // Inputs must be settled before the pre-images are readable; this also
  // settles every prior consumer of the written instances (ready carries
  // the STF ordering), so the rewinds below race nothing.
  st.backend->wait(ready);

  struct written {
    data_instance* inst;
    std::size_t bytes;
    std::unique_ptr<char[]> pre;
  };
  std::vector<written> wd;
  wd.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!mode_writes(deps[i]->mode)) {
      continue;
    }
    data_instance* inst = deps[i]->data->find_instance(resolved[i]);
    if (inst == nullptr || inst->ptr == nullptr) {
      continue;
    }
    written w{inst, deps[i]->data->bytes(),
              std::make_unique<char[]>(deps[i]->data->bytes())};
    std::memcpy(w.pre.get(), inst->ptr, w.bytes);
    wd.push_back(std::move(w));
  }

  auto exec = [&](const event_list& wait_first) {
    event_list done(st.backend->run(device, backend_iface::channel::compute,
                                    wait_first, payload, symbol));
    st.backend->wait(done);
    return done;
  };
  auto sums = [&] {
    std::vector<std::uint64_t> s;
    s.reserve(wd.size());
    for (const written& w : wd) {
      s.push_back(integrity_checksum(w.inst->ptr, w.bytes));
    }
    return s;
  };
  auto rewind = [&] {
    for (const written& w : wd) {
      std::memcpy(w.inst->ptr, w.pre.get(), w.bytes);
    }
  };

  event_list done = exec(ready);
  const std::vector<std::uint64_t> a = sums();
  rewind();
  done = exec(done);
  ++bs.verified_reexecutions;
  const std::vector<std::uint64_t> b = sums();
  if (a == b) {
    return done;
  }
  // The executions disagree: one of them absorbed a flip (or the body is
  // non-deterministic). A third run votes; its bytes are the ones left in
  // place, so a majority means the in-place result is the accepted one.
  ++bs.checksum_mismatches;
  rewind();
  done = exec(done);
  ++bs.verified_reexecutions;
  const std::vector<std::uint64_t> c = sums();
  if (c == a || c == b) {
    return done;
  }
  throw corruption_error(std::string(symbol), device, "dual_execution", 0);
}

output_hint_guard::output_hint_guard(context_state& st,
                                     const task_dep_untyped* const* deps,
                                     std::size_t n,
                                     const data_place* resolved) {
  // Hints only steer an injector's output flips; with a device failed but
  // no injector installed they are set and never read.
  if (st.plat == nullptr || !st.plat->faults_armed() ||
      !st.plat->copy_payloads()) {
    return;
  }
  std::vector<cudasim::byte_span> spans;
  spans.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (!mode_writes(deps[i]->mode)) {
      continue;
    }
    data_instance* inst = deps[i]->data->find_instance(resolved[i]);
    if (inst == nullptr || inst->ptr == nullptr) {
      continue;
    }
    spans.push_back({inst->ptr, deps[i]->data->bytes()});
  }
  if (spans.empty()) {
    return;
  }
  plat_ = st.plat;
  plat_->set_output_hints(std::move(spans));
}

output_hint_guard::~output_hint_guard() {
  if (plat_ != nullptr) {
    plat_->clear_output_hints();
  }
}

}  // namespace detail

}  // namespace cudastf
