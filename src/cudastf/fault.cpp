// Recovery engine behind the fault-aware submission path (DESIGN.md §5):
// failure recording with cause chains, data poisoning and cancellation,
// transient retry with virtual-time backoff, device blacklisting with
// host evacuation and deterministic re-routing.
//
// Pipeline hook points (DESIGN.md §13): poison-cancel runs as the
// pipeline's pre-acquire stage (cancel_if_poisoned); transient retry is
// the resilient run path (run_resilient) and re-route is
// filter_blacklisted, both driven by the one round loop
// (submit_pipeline::execute); recording and escalation form the failure
// ladder (fail_task / fail_task_or_restart) in submit.cpp.
#include <algorithm>
#include <limits>
#include <new>

#include "cudastf/context_state.hpp"
#include "cudastf/data.hpp"
#include "cudastf/error.hpp"
#include "cudastf/recover.hpp"
#include "cudastf/transfer.hpp"

namespace cudastf {

const char* failure_kind_name(failure_kind k) {
  switch (k) {
    case failure_kind::kernel_fault:
      return "kernel_fault";
    case failure_kind::link_error:
      return "link_error";
    case failure_kind::device_lost:
      return "device_lost";
    case failure_kind::out_of_memory:
      return "out_of_memory";
    case failure_kind::submission_exception:
      return "submission_exception";
    case failure_kind::data_lost:
      return "data_lost";
    case failure_kind::data_corrupted:
      return "data_corrupted";
    case failure_kind::cancelled:
      return "cancelled";
    case failure_kind::deadline_expired:
      return "deadline_expired";
  }
  return "unknown";
}

std::string error_report::to_string() const {
  if (ok()) {
    std::string out = "error_report: ok";
    if (tasks_retried + tasks_rerouted + alloc_retries + devices_blacklisted >
        0) {
      out += " (fully recovered: " + std::to_string(tasks_retried) +
             " retried, " + std::to_string(tasks_rerouted) + " re-routed, " +
             std::to_string(alloc_retries) + " alloc retries, " +
             std::to_string(devices_blacklisted) + " device(s) blacklisted)";
    }
    return out + "\n";
  }
  std::string out = "error_report: " + std::to_string(failures_total) +
                    " failure(s), " + std::to_string(tasks_cancelled) +
                    " cancelled, " + std::to_string(tasks_retried) +
                    " retried, " + std::to_string(tasks_rerouted) +
                    " re-routed, " + std::to_string(alloc_retries) +
                    " alloc retries, " + std::to_string(devices_blacklisted) +
                    " device(s) blacklisted\n";
  // Integrity failures (checksum mismatches that survived repair) carry
  // the data symbol, device, write_version and detection site in their
  // detail line; count them up front so a corruption storm is visible at a
  // glance.
  std::size_t corrupted = 0;
  for (const task_failure& f : failures) {
    if (f.kind == failure_kind::data_corrupted) {
      ++corrupted;
    }
  }
  if (corrupted > 0) {
    out += "  " + std::to_string(corrupted) +
           " data corruption(s) detected with no valid replica to repair "
           "from\n";
  }

  // Cause-chain tree: each failure hangs under its first recorded cause
  // (ids only ever point backwards, so the graph is a DAG and first-cause
  // parenting yields a forest). Roots are failures with no recorded cause.
  const std::size_t nf = failures.size();
  std::vector<std::vector<std::size_t>> children(nf);
  std::vector<char> is_root(nf, 1);
  for (std::size_t i = 0; i < nf; ++i) {
    if (failures[i].caused_by.empty()) {
      continue;
    }
    const std::uint64_t parent_id = failures[i].caused_by.front();
    for (std::size_t j = 0; j < i; ++j) {
      if (failures[j].id == parent_id) {
        children[j].push_back(i);
        is_root[i] = 0;
        break;
      }
    }
    // Parent beyond the recording cap: the failure renders as a root but
    // keeps its textual "(caused by #...)" pointer.
  }

  const auto render = [&](const auto& self, std::size_t i,
                          std::size_t depth) -> void {
    const task_failure& f = failures[i];
    std::string indent(2 + 2 * depth, ' ');
    out += indent;
    if (depth > 0) {
      out += "└─ ";
    }
    out += "#" + std::to_string(f.id) + " " + failure_kind_name(f.kind) +
           " '" + f.symbol + "'";
    if (f.device >= 0) {
      out += " on device " + std::to_string(f.device);
    }
    if (f.attempts > 1) {
      out += " after " + std::to_string(f.attempts) + " attempts";
    }
    if (!f.detail.empty()) {
      out += ": " + f.detail;
    }
    if (!f.caused_by.empty()) {
      out += " (caused by";
      for (std::uint64_t c : f.caused_by) {
        out += " #" + std::to_string(c);
      }
      out += ")";
    }
    out += "\n";
    if (!f.poisoned.empty()) {
      out += indent;
      if (depth > 0) {
        out += "   ";
      }
      out += "poisoned data:";
      for (const std::string& name : f.poisoned) {
        out += " '" + name + "'";
      }
      out += "\n";
    }
    for (std::size_t c : children[i]) {
      self(self, c, depth + 1);
    }
  };
  for (std::size_t i = 0; i < nf; ++i) {
    if (is_root[i]) {
      render(render, i, 0);
    }
  }
  if (failures_total > failures.size()) {
    out += "  ... " + std::to_string(failures_total - failures.size()) +
           " more not recorded (cap " +
           std::to_string(error_report::max_recorded) + ")\n";
  }
  return out;
}

oom_error::oom_error(int device, std::size_t requested, std::size_t pool_free)
    : device_(device), requested_(requested), pool_free_(pool_free) {
  what_ = "cudastf: device " + std::to_string(device) +
          " out of memory: requested " + std::to_string(requested) +
          " bytes with " + std::to_string(pool_free) +
          " bytes free in the pool and nothing evictable";
}

void oom_error::set_data_name(const std::string& name) {
  data_name_ = name;
  what_ += " (while allocating logical data '" + name + "')";
}

scratch_oom_error::scratch_oom_error(std::size_t requested, std::size_t used,
                                     std::size_t capacity)
    : requested_(requested), used_(used), capacity_(capacity) {
  what_ = "cudastf: launch scratchpad exhausted: requested " +
          std::to_string(requested) + " bytes with " + std::to_string(used) +
          " of " + std::to_string(capacity) + " bytes already in use";
}

namespace detail {

failure_kind kind_of(cudasim::sim_status s) {
  switch (s) {
    case cudasim::sim_status::error_out_of_memory:
      return failure_kind::out_of_memory;
    case cudasim::sim_status::error_link_transient:
      return failure_kind::link_error;
    case cudasim::sim_status::error_device_lost:
      return failure_kind::device_lost;
    case cudasim::sim_status::error_launch_failed:
    case cudasim::sim_status::success:
      break;
  }
  return failure_kind::kernel_fault;
}

}  // namespace detail

std::uint64_t context_state::record_failure(
    failure_kind kind, std::string symbol, int device, int attempts,
    std::string detail, std::vector<std::uint64_t> caused_by) {
  recovery_active = true;
  const std::uint64_t id = ++report.failures_total;
  if (report.failures.size() < error_report::max_recorded) {
    task_failure f;
    f.id = id;
    f.kind = kind;
    f.symbol = std::move(symbol);
    f.device = device;
    f.attempts = attempts;
    f.detail = std::move(detail);
    f.caused_by = std::move(caused_by);
    report.failures.push_back(std::move(f));
  }
  return id;
}

int context_state::reroute_device(int device) {
  const int ndev = plat->device_count();
  std::vector<int> survivors;
  for (int d = 0; d < ndev; ++d) {
    if (!device_blacklisted(d)) {
      survivors.push_back(d);
    }
  }
  if (survivors.empty()) {
    throw detail::device_lost_error(device);
  }
  const std::size_t i =
      device < 0 ? 0 : static_cast<std::size_t>(device) % survivors.size();
  return survivors[i];
}

void context_state::blacklist_device(int device) {
  if (plat == nullptr || device < 0 || device >= plat->device_count()) {
    return;
  }
  if (blacklisted.size() != static_cast<std::size_t>(plat->device_count())) {
    blacklisted.resize(static_cast<std::size_t>(plat->device_count()), 0);
  }
  if (blacklisted[static_cast<std::size_t>(device)] != 0) {
    return;
  }
  blacklisted[static_cast<std::size_t>(device)] = 1;
  recovery_active = true;
  ++report.devices_blacklisted;
  // Align the simulator: further submissions to the device are refused
  // (idempotent when the injector already failed it).
  plat->fail_device(device);

  // The dead device's cached blocks must never be handed out again; free
  // them now (stream-ordered frees stay allowed on a failed device).
  mem.trim_device(*this, device, std::numeric_limits<std::size_t>::max());

  // Evacuate sole copies while device-to-host transfers from the failed
  // device are still allowed (fail-stop grace, DESIGN.md §5), then drop
  // the dead instances so the allocator and coherency protocol never hand
  // them out again.
  sweep_registry();
  for (auto& w : registry) {
    auto d = w.lock();
    if (!d) {
      continue;
    }
    // Index loop with a raw pointer: instance_at(host) below may append to
    // the instance vector, invalidating references into it (the pointed-to
    // instances themselves never move).
    for (std::size_t i = 0; i < d->instance_count(); ++i) {
      data_instance* inst = d->instances()[i].get();
      if (!inst->allocated) {
        continue;
      }
      bool on_dead = false;
      bool device_kind = false;
      switch (inst->place.type()) {
        case data_place::kind::device:
          on_dead = inst->place.device_index() == device;
          device_kind = true;
          break;
        case data_place::kind::composite: {
          const auto& devs = inst->place.composite_info().devices;
          on_dead = std::find(devs.begin(), devs.end(), device) != devs.end();
          break;
        }
        default:
          break;
      }
      if (!on_dead) {
        continue;
      }
      // Trust boundary (integrity engine, DESIGN.md §10): the evacuated
      // bytes become the data's only copy — never persist corrupt ones.
      // A corrupt sole copy on a dead device is unrepairable: record the
      // corruption and skip the evacuation (the instance is torn down
      // below like any other dead replica).
      const bool sole = sole_copy(*d, *inst);
      if (integ != nullptr && sole && d->poisoned_by == 0) [[unlikely]] {
        if (!integ->verify_instance(*this, *d, *inst, "evacuation") &&
            !integ->handle_corruption(*this, *d, *inst, "evacuation")) {
          d->poisoned_by = record_failure(
              failure_kind::data_corrupted, d->name(), device, 1,
              "checksum mismatch at evacuation (write_version " +
                  std::to_string(d->write_version) +
                  ") with no valid replica to repair from");
          if (!report.failures.empty() &&
              report.failures.back().id == d->poisoned_by) {
            report.failures.back().poisoned.push_back(d->name());
          }
        }
      }
      if (sole && d->poisoned_by == 0) {
        // Only valid copy (modified, or the last shared replica) lives
        // (partly) on the dead device: stage it to host now. If even the
        // evacuation fails, the data is lost.
        try {
          data_instance& host = d->instance_at(data_place::host());
          if (!host.allocated) {
            host.ptr = alloc_host_staging(*this, d->bytes());
            host.allocated = true;
          }
          issue_copy(*this, *d, *inst, host);
          host.state = msi_state::modified;  // dead copy vanishes next
        } catch (const std::exception& e) {
          d->poisoned_by = record_failure(
              failure_kind::data_lost, d->name(), device, 1,
              std::string("evacuation from failed device failed: ") +
                  e.what());
        }
      }
      inst->state = msi_state::invalid;
      if (device_kind && !inst->user_owned) {
        // Never recycled: a failed device's blocks go back to the platform.
        release_device_instance(*this, *d, *inst, /*recycle=*/false);
      }
      // Composite reservations keep their mapping until the data dies;
      // invalidating the instance is enough to keep them unused.
    }
  }
}

namespace detail {

namespace {

// Attaches a poisoned-data name to the failure record `id` (when it made it
// under the recording cap) so to_string() can render failure → poisoned
// data → cancelled dependents.
void record_poisoned(context_state& st, std::uint64_t id,
                     const std::string& name) {
  if (!st.report.failures.empty() && st.report.failures.back().id == id) {
    st.report.failures.back().poisoned.push_back(name);
  }
}

}  // namespace

bool cancel_if_poisoned(context_state& st, const task_dep_untyped* const* deps,
                        std::size_t n, std::string_view symbol) {
  std::vector<std::uint64_t> causes;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t p = deps[i]->data->poisoned_by;
    if (p != 0 && std::find(causes.begin(), causes.end(), p) == causes.end()) {
      causes.push_back(p);
    }
  }
  if (causes.empty()) {
    return false;
  }
  ++st.report.tasks_cancelled;
  const std::uint64_t id = st.record_failure(
      failure_kind::cancelled, std::string(symbol), -1, 0,
      "not executed: input poisoned by upstream failure", std::move(causes));
  for (std::size_t i = 0; i < n; ++i) {
    if (mode_writes(deps[i]->mode) && deps[i]->data->poisoned_by == 0) {
      deps[i]->data->poisoned_by = id;
      record_poisoned(st, id, deps[i]->data->name());
    }
  }
  return true;
}

std::uint64_t fail_task(context_state& st, const task_dep_untyped* const* deps,
                        std::size_t n, std::string_view symbol,
                        failure_kind kind, int device, int attempts,
                        std::string detail) {
  const std::uint64_t id =
      st.record_failure(kind, std::string(symbol), device, attempts,
                        std::move(detail));
  for (std::size_t i = 0; i < n; ++i) {
    if (mode_writes(deps[i]->mode) && deps[i]->data->poisoned_by == 0) {
      deps[i]->data->poisoned_by = id;
      record_poisoned(st, id, deps[i]->data->name());
    }
  }
  return id;
}

void unpin_deps(const task_dep_untyped* const* deps, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    deps[i]->data->pin_all(false);
  }
}

void msi_snapshot::capture(const task_dep_untyped* const* deps,
                           std::size_t n) {
  entries_.clear();
  entries_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    logical_data_impl* d = deps[i]->data.get();
    const bool seen =
        std::any_of(entries_.begin(), entries_.end(),
                    [d](const entry& e) { return e.data == d; });
    if (seen) {
      continue;
    }
    entry e;
    e.data = d;
    for (const auto& inst : d->instances()) {
      e.states.emplace_back(inst.get(), inst->state);
    }
    entries_.push_back(std::move(e));
  }
}

void msi_snapshot::restore() const {
  for (const entry& e : entries_) {
    for (const auto& inst : e.data->instances()) {
      const auto it =
          std::find_if(e.states.begin(), e.states.end(),
                       [&](const auto& p) { return p.first == inst.get(); });
      // Instances created since the snapshot owe their contents to the
      // submission being rolled back: invalidate them (the buffer stays
      // allocated for reuse; a later acquire re-fills it).
      inst->state = it != e.states.end() ? it->second : msi_state::invalid;
    }
  }
}

bool filter_blacklisted(context_state& st, int* devices, std::size_t& n) {
  const auto dead = [&](int d) { return st.device_blacklisted(d); };
  if (std::none_of(devices, devices + n, dead)) {
    return false;
  }
  const std::vector<int> original(devices, devices + n);
  n = static_cast<std::size_t>(std::remove_if(devices, devices + n, dead) -
                               devices);
  if (n > 0) {
    return true;
  }
  // Every requested device failed: re-route each onto a survivor the same
  // deterministic way single-device submissions are re-routed.
  for (int d : original) {
    const int r = st.reroute_device(d);  // throws when nothing survives
    if (std::find(devices, devices + n, r) == devices + n) {
      devices[n++] = r;
    }
  }
  return true;
}

resilient_result run_resilient(
    context_state& st, int device, backend_iface::channel ch,
    const event_list& ready,
    const std::function<void(cudasim::stream&)>& payload,
    std::string_view symbol) {
  resilient_result r;
  run_result rr;
  double backoff = st.retry.backoff_seconds;
  std::function<void(cudasim::stream&)> wrapped = payload;
  for (r.attempts = 1;; ++r.attempts) {
    r.ev = st.backend->run(device, ch, ready, wrapped, symbol, &rr);
    r.status = rr.status;
    r.partial = rr.partial;
    if (rr.status == cudasim::sim_status::success || rr.partial ||
        !cudasim::status_transient(rr.status) ||
        r.attempts >= st.retry.max_attempts) {
      return r;
    }
    ++st.report.tasks_retried;
    const double b = backoff;
    backoff *= st.retry.backoff_multiplier;
    cudasim::platform* plat = st.plat;
    // Virtual-time exponential backoff: a pure marker node delays the
    // retried submission on its stream without occupying any engine.
    wrapped = [plat, b, &payload](cudasim::stream& s) {
      plat->stream_delay(s, b);
      payload(s);
    };
  }
}

void guard_partial(const task_dep_untyped* const* deps, std::size_t n,
                   const data_place* resolved, const event_list& evs) {
  for (std::size_t i = 0; i < n; ++i) {
    data_instance* inst = deps[i]->data->find_instance(resolved[i]);
    if (inst == nullptr) {
      continue;
    }
    for (const event& e : evs) {
      inst->readers.add(e);
    }
  }
}

}  // namespace detail

}  // namespace cudastf
