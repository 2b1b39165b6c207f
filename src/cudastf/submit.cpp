// The staged submission pipeline (DESIGN.md §13): shared drivers behind
// every construct. The bodies below are the former per-builder lowering of
// task.hpp / parallel_for.hpp / launch.hpp, unified — each engine attaches
// at exactly one stage here instead of being re-inlined per builder.
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "cudastf/checkpoint.hpp"
#include "cudastf/deadline.hpp"
#include "cudastf/integrity.hpp"
#include "cudastf/submit.hpp"

namespace cudastf {

std::string_view op_kind_name(op_kind k) {
  switch (k) {
    case op_kind::task:
      return "task";
    case op_kind::parallel_for:
      return "parallel_for";
    case op_kind::launch:
      return "launch";
    case op_kind::host:
      return "host";
  }
  return "?";
}

namespace {

std::string place_str(const data_place& p) {
  switch (p.type()) {
    case data_place::kind::affine:
      return "affine";
    case data_place::kind::host:
      return "host";
    case data_place::kind::device:
      return "dev" + std::to_string(p.device_index());
    case data_place::kind::composite: {
      std::string s = "composite{";
      const auto& devs = p.composite_info().devices;
      for (std::size_t i = 0; i < devs.size(); ++i) {
        if (i > 0) {
          s += ',';
        }
        s += std::to_string(devs[i]);
      }
      s += '}';
      return s;
    }
  }
  return "?";
}

std::string_view mode_str(access_mode m) {
  switch (m) {
    case access_mode::read:
      return "r";
    case access_mode::write:
      return "w";
    case access_mode::rw:
      return "rw";
  }
  return "?";
}

/// Escapes a string for use inside a double-quoted DOT attribute.
std::string dot_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out;
}

}  // namespace

// --- dot_exporter ---

void dot_exporter::add_edge(std::uint64_t from, std::uint64_t to,
                            std::string label, bool poison) {
  if (from == to) {
    return;
  }
  const std::uint64_t key =
      (from << 32) | (to & 0xffffffffull) | (poison ? 1ull << 63 : 0);
  if (!edge_seen_.insert(key).second) {
    return;
  }
  edges_.push_back({from, to, std::move(label), poison});
}

void dot_exporter::on_op(const op_record& rec) {
  // Data-dependency edges against the last writer / readers-since-write of
  // each dependency (RAW and WAR; WAW folds into RAW via the writer map).
  for (const op_dep_record& d : rec.deps) {
    if (d.data_id == 0) {
      continue;
    }
    if (mode_reads(d.mode)) {
      auto w = writer_.find(d.data_id);
      if (w != writer_.end()) {
        add_edge(w->second, rec.id, d.data, false);
      }
    }
    if (mode_writes(d.mode)) {
      auto w = writer_.find(d.data_id);
      if (w != writer_.end()) {
        add_edge(w->second, rec.id, d.data, false);
      }
      auto r = readers_.find(d.data_id);
      if (r != readers_.end()) {
        for (std::uint64_t reader : r->second) {
          add_edge(reader, rec.id, d.data, false);
        }
      }
    }
  }
  // Cause-chain poison edges: the op whose recorded failure poisoned an
  // input of this (cancelled) op.
  for (std::uint64_t cause : rec.cause_ids) {
    auto it = failure_op_.find(cause);
    if (it != failure_op_.end()) {
      add_edge(it->second, rec.id, "poison", true);
    }
  }
  // State updates after edge generation, so an rw dep orders against the
  // previous writer, not itself.
  for (const op_dep_record& d : rec.deps) {
    if (d.data_id == 0) {
      continue;
    }
    if (mode_writes(d.mode)) {
      writer_[d.data_id] = rec.id;
      readers_[d.data_id].clear();
    }
    if (mode_reads(d.mode) && !mode_writes(d.mode)) {
      readers_[d.data_id].push_back(rec.id);
    }
  }
  if (rec.failure_id != 0) {
    failure_op_[rec.failure_id] = rec.id;
  }
  ops_.push_back(rec);
}

std::string dot_exporter::render() const {
  std::ostringstream out;
  out << "digraph cudastf {\n";
  out << "  rankdir=LR;\n";
  out << "  node [shape=box, style=\"rounded,filled\", fillcolor=white, "
         "fontname=\"Helvetica\"];\n";
  for (const op_record& op : ops_) {
    std::string label(op_kind_name(op.kind));
    label += ": " + op.symbol;
    if (!op.devices.empty()) {
      label += "\n@";
      for (std::size_t i = 0; i < op.devices.size(); ++i) {
        if (i > 0) {
          label += ',';
        }
        label += op.devices[i] < 0 ? std::string("host")
                                   : "dev" + std::to_string(op.devices[i]);
      }
    }
    for (const op_dep_record& d : op.deps) {
      label += "\n" + d.data + "(" + std::string(mode_str(d.mode)) + "@" +
               place_str(d.place) + ")";
    }
    if (op.status == op_status::failed) {
      label += "\nFAILED: ";
      label += failure_kind_name(op.fail);
    } else if (op.status == op_status::cancelled) {
      label += "\ncancelled";
    }
    out << "  op" << op.id << " [label=\"" << dot_escape(label) << "\"";
    if (op.status == op_status::failed) {
      out << ", fillcolor=lightcoral";
    } else if (op.status == op_status::cancelled) {
      out << ", fillcolor=lightgray";
    }
    out << "];\n";
  }
  for (const edge& e : edges_) {
    out << "  op" << e.from << " -> op" << e.to << " [label=\""
        << dot_escape(e.label) << "\"";
    if (e.poison) {
      out << ", color=red, style=dashed";
    }
    out << "];\n";
  }
  out << "}\n";
  return out.str();
}

bool dot_exporter::write(const std::string& path) const {
  std::ofstream f(path);
  if (!f) {
    return false;
  }
  f << render();
  return static_cast<bool>(f);
}

namespace detail {

// --- pipeline construction / observation ---

submit_pipeline::submit_pipeline(context_state& st, const op_desc& op)
    : st_(st), op_(op) {
  if (!st.observers.empty()) [[unlikely]] {
    begin_record();
  }
}

submit_pipeline::~submit_pipeline() = default;

void submit_pipeline::begin_record() {
  rec_ = std::make_unique<op_record>();
  rec_->id = st_.next_op_id++;
  rec_->kind = op_.kind;
  rec_->symbol = *op_.symbol;
  rec_->deps.reserve(op_.n_deps);
  for (std::size_t i = 0; i < op_.n_deps; ++i) {
    const task_dep_untyped& d = *op_.deps[i];
    op_dep_record r;
    if (d.data != nullptr) {
      r.data = d.data->name();
      r.data_id = reinterpret_cast<std::uint64_t>(d.data.get());
    }
    r.mode = d.mode;
    r.place = d.place;
    rec_->deps.push_back(std::move(r));
  }
}

void submit_pipeline::emit(op_status status, failure_kind fk,
                           std::uint64_t fail_id, const int* devices,
                           std::size_t ndev,
                           std::vector<std::uint64_t> causes) {
  if (rec_ == nullptr) {
    return;
  }
  rec_->status = status;
  rec_->fail = fk;
  rec_->failure_id = fail_id;
  rec_->cause_ids = std::move(causes);
  if (devices != nullptr && ndev > 0) {
    rec_->devices.assign(devices, devices + ndev);
  }
  if (status == op_status::ok && resolved_ != nullptr) {
    for (std::size_t i = 0; i < rec_->deps.size(); ++i) {
      rec_->deps[i].place = resolved_[i];
    }
  }
  const std::unique_ptr<op_record> rec = std::move(rec_);  // emit once
  for (submit_observer* o : st_.observers) {
    o->on_op(*rec);
  }
}

// --- admission stage ---

void submit_pipeline::stage_admission(std::function<void()> requeue) {
  if (op_.deadline > 0.0) [[unlikely]] {
    st_.ensure_dl();  // op-armed deadline on a so-far-disarmed context
  }
  if (st_.dl != nullptr) [[unlikely]] {
    // Backpressure gate first — before anything is acquired or logged —
    // then keep the requeue closure for the deadline retry rung.
    detail::admit(st_, op_.deps, op_.n_deps, op_.shed);
    requeue_ = requeue;
  }
  if (st_.ckpt != nullptr) [[unlikely]] {
    record_to_log(std::move(requeue));
  }
}

void submit_pipeline::record_to_log(std::function<void()> requeue) {
  // Null requeue: a move-only body that cannot be replayed — it falls back
  // to poison-and-cancel on permanent failure, like before.
  if (!requeue || st_.ckpt->replaying()) {
    return;
  }
  std::vector<std::weak_ptr<logical_data_impl>> touched;
  touched.reserve(op_.n_deps);
  for (std::size_t i = 0; i < op_.n_deps; ++i) {
    touched.push_back(op_.deps[i]->data);
  }
  st_.ckpt->record(std::move(requeue), std::move(touched));
}

// --- placement stage ---

int submit_pipeline::choose_device(const exec_place& where) {
  switch (where.type()) {
    case exec_place::kind::device:
      return where.device_index();
    case exec_place::kind::automatic:
      return pick_heft_device(st_, op_.deps, op_.n_deps);
    default:
      return st_.plat->current_device();
  }
}

// --- shared stage helpers ---

bool submit_pipeline::wants_verified() const {
  // Dual-execution verification applies to plain tasks only; structured
  // constructs and host tasks never re-execute.
  return op_.kind == op_kind::task && st_.integ != nullptr &&
         (op_.verified || st_.integ->cfg.verify_all_tasks);
}

void submit_pipeline::merge_order(event_list& ready) {
  if (!st_.order_edges.empty()) [[unlikely]] {
    st_.events_pruned += ready.merge(st_.order_wait(*op_.symbol));
  }
}

bool submit_pipeline::cancelled() {
  std::vector<std::uint64_t> causes;
  if (rec_ != nullptr) [[unlikely]] {
    // Collect the upstream failure ids before the cancel consumes them
    // into the error report's cause chain.
    for (std::size_t i = 0; i < op_.n_deps; ++i) {
      const auto& d = op_.deps[i]->data;
      if (d == nullptr || d->poisoned_by == 0) {
        continue;
      }
      bool seen = false;
      for (std::uint64_t c : causes) {
        seen = seen || c == d->poisoned_by;
      }
      if (!seen) {
        causes.push_back(d->poisoned_by);
      }
    }
  }
  if (!detail::cancel_if_poisoned(st_, op_.deps, op_.n_deps, *op_.symbol)) {
    return false;
  }
  emit(op_status::cancelled, failure_kind::cancelled, 0, nullptr, 0,
       std::move(causes));
  return true;
}

void submit_pipeline::finish(op_hooks& h, const event_list& done,
                             const int* devices, std::size_t ndev,
                             bool resubmittable) {
  h.release(done);
  if ((op_.kind == op_kind::task || op_.kind == op_kind::host) &&
      !st_.order_edges.empty()) [[unlikely]] {
    st_.order_record(*op_.symbol, done);
  }
  if (st_.dl != nullptr) [[unlikely]] {
    // Host tasks and host shards skip the retry rung (resubmit = null),
    // escalating straight to restart/poison like a move-only body.
    detail::track_submission(st_, done, *op_.symbol,
                             ndev > 0 ? devices[0] : -1, op_.deadline, op_.deps,
                             op_.n_deps,
                             resubmittable ? std::move(requeue_)
                                           : std::function<void()>{});
  }
  emit(op_status::ok, failure_kind::submission_exception, 0, devices, ndev,
       {});
}

void submit_pipeline::rollback(const msi_snapshot& snap) {
  snap.restore();
  detail::unpin_deps(op_.deps, op_.n_deps);
}

// --- failure recording ---

void submit_pipeline::hard_failure(failure_kind kind, int device, int attempts,
                                   const char* what) {
  const std::uint64_t id = detail::fail_task(
      st_, op_.deps, op_.n_deps, *op_.symbol, kind, device, attempts, what);
  emit(op_status::failed, kind, id, &device, 1, {});
}

void submit_pipeline::plain_failure(failure_kind kind, int device,
                                    const char* what) {
  detail::unpin_deps(op_.deps, op_.n_deps);
  hard_failure(kind, device, 1, what);
}

void submit_pipeline::escalate(failure_kind kind, int device, int attempts,
                               const char* what) {
  const std::uint64_t id = detail::fail_task_or_restart(
      st_, op_.deps, op_.n_deps, *op_.symbol, kind, device, attempts, what);
  emit(op_status::failed, kind, id, &device, 1, {});
}

void submit_pipeline::host_failure(bool aware, failure_kind kind, int device,
                                   const char* what) {
  detail::unpin_deps(op_.deps, op_.n_deps);
  if (kind == failure_kind::device_lost) {
    st_.blacklist_device(device);
  }
  if (!aware) {
    hard_failure(kind, device, 1, what);
    throw;  // rethrows the exception being handled by the caller's catch
  }
  escalate(kind, device, 1, what);
}

// --- run stage ---

void submit_pipeline::run_shard(int device, const event_list& ready,
                                const std::function<void(cudasim::stream&)>&
                                    payload,
                                event_list& done, resilient_result* rr) {
  if (wants_verified()) [[unlikely]] {
    done.merge(detail::run_verified(st_, device, ready, payload, *op_.symbol,
                                    op_.deps, op_.n_deps, resolved_));
    if (rr != nullptr) {
      rr->status = cudasim::sim_status::success;
    }
    return;
  }
  if (rr == nullptr) {
    done.add(st_.backend->run(device, op_.channel, ready, payload,
                              *op_.symbol));
    return;
  }
  *rr = detail::run_resilient(st_, device, op_.channel, ready, payload,
                              *op_.symbol);
  if (rr->status == cudasim::sim_status::success) {
    done.add(rr->ev);
  }
}

// --- drivers ---

void submit_pipeline::execute_plain(op_hooks& h, const int* devices,
                                    std::size_t ndev, bool resubmittable) {
  resolved_ = h.resolved;
  event_list done;
  if (op_.kind == op_kind::task) {
    // Plain-task policy: failures record (unpin + poison) and rethrow; the
    // integrity-verified variant and release/track run inside the guarded
    // region so their exceptions record too.
    const int device = devices[0];
    try {
      event_list ready = h.acquire(device);
      merge_order(ready);
      h.run(devices, ndev, ready, done, nullptr, nullptr);
      finish(h, done, devices, ndev, resubmittable);
    } catch (const corruption_error& e) {
      plain_failure(failure_kind::data_corrupted, e.device, e.what());
      throw;
    } catch (const std::bad_alloc& e) {
      plain_failure(failure_kind::out_of_memory, device, e.what());
      throw;
    } catch (const std::exception& e) {
      plain_failure(failure_kind::submission_exception, device, e.what());
      throw;
    }
    return;
  }
  // Structured constructs (parallel_for / launch, incl. host shards): a
  // failed submission never reaches release (which normally unpins), so
  // drop the acquire-time pins and rethrow without recording a failure.
  try {
    event_list ready = h.acquire(devices[0]);
    h.run(devices, ndev, ready, done, nullptr, nullptr);
  } catch (...) {
    detail::unpin_deps(op_.deps, op_.n_deps);
    emit(op_status::failed, failure_kind::submission_exception, 0, devices,
         ndev, {});
    throw;
  }
  finish(h, done, devices, ndev, resubmittable);
}

void submit_pipeline::execute_task(op_hooks& h, int device) {
  if (!st_.fault_aware()) {
    execute_plain(h, &device, 1, true);
    // The disarmed fast path (ctx.fast_path_submits()): no engine armed
    // and no observer attached.
    if (st_.ckpt == nullptr && st_.integ == nullptr && st_.dl == nullptr &&
        st_.order_edges.empty() && st_.observers.empty()) {
      ++st_.fast_submits;
    }
    return;
  }
  execute_task_resilient(h, device);
}

void submit_pipeline::execute_task_resilient(op_hooks& h, int device) {
  resolved_ = h.resolved;
  if (cancelled()) {
    return;
  }
  const int ndev = st_.plat->device_count();
  for (int round = 0;; ++round) {
    if (st_.device_blacklisted(device)) {
      try {
        device = st_.reroute_device(device);
      } catch (const device_lost_error&) {
        escalate(failure_kind::device_lost, device, round + 1,
                 "no surviving device to re-route to");
        return;
      }
      ++st_.report.tasks_rerouted;
    }
    msi_snapshot snap;
    snap.capture(op_.deps, op_.n_deps);
    event_list ready;
    try {
      ready = h.acquire(device);
    } catch (const device_lost_error& e) {
      // A copy endpoint died mid-acquire: restore *before* quarantining so
      // evacuation sees the true pre-acquire coherency states.
      rollback(snap);
      st_.blacklist_device(e.device);
      if (round < ndev) {
        continue;
      }
      escalate(failure_kind::device_lost, e.device, round + 1,
               "device lost during data acquire");
      return;
    } catch (const transfer_error& e) {
      rollback(snap);
      escalate(failure_kind::link_error, device, round + 1, e.what());
      return;
    } catch (const corruption_error& e) {
      // Checksum mismatch with no valid replica (integrity engine, §10):
      // escalate — epoch restart when checkpointing is armed, else the
      // poison placed at detection time stands.
      rollback(snap);
      escalate(failure_kind::data_corrupted, e.device, round + 1, e.what());
      return;
    } catch (const std::bad_alloc& e) {
      rollback(snap);
      escalate(failure_kind::out_of_memory, device, round + 1, e.what());
      return;
    }
    merge_order(ready);
    resilient_result r;
    event_list done;
    try {
      // Declare the written byte ranges while the submission is in flight
      // so an armed kernel_output flip corrupts genuine output (§10).
      output_hint_guard hints(st_, op_.deps, op_.n_deps, h.resolved);
      h.run(&device, 1, ready, done, &r, nullptr);
    } catch (const corruption_error& e) {
      rollback(snap);
      escalate(failure_kind::data_corrupted, e.device, round + 1, e.what());
      return;
    } catch (const std::exception& e) {
      rollback(snap);
      hard_failure(failure_kind::submission_exception, device, round + 1,
                   e.what());
      throw;
    }
    if (r.status == cudasim::sim_status::success) {
      finish(h, done, &device, 1, true);
      return;
    }
    rollback(snap);
    const bool lost = r.status == cudasim::sim_status::error_device_lost;
    if (lost) {
      st_.blacklist_device(device);
    }
    if (lost && !r.partial && round < ndev) {
      continue;  // re-routed at the top of the loop
    }
    if (r.partial) {
      // The executed prefix still references the instances: its event must
      // gate their deferred destruction.
      guard_partial(op_.deps, op_.n_deps, h.resolved,
                    event_list(std::move(r.ev)));
    }
    escalate(kind_of(r.status), device, r.attempts + round,
             cudasim::status_name(r.status));
    return;
  }
}

void submit_pipeline::execute_grid(op_hooks& h) {
  if (st_.fault_aware()) {
    execute_grid_resilient(h);
    return;
  }
  const std::vector<int> devices = h.plan();
  h.bind(devices);
  execute_plain(h, devices.data(), devices.size(), true);
}

void submit_pipeline::execute_grid_resilient(op_hooks& h) {
  resolved_ = h.resolved;
  if (cancelled()) {
    return;
  }
  const int max_rounds = st_.plat->device_count() + 1;
  for (int round = 0; round < max_rounds; ++round) {
    // plan() restores the originally-requested places, so every retry
    // re-binds against the current survivors.
    std::vector<int> devices;
    try {
      devices = h.plan();
      filter_blacklisted(st_, devices);
    } catch (const device_lost_error&) {
      escalate(failure_kind::device_lost, -1, round + 1,
               "no surviving device to re-route to");
      return;
    }
    if (round > 0) {
      ++st_.report.tasks_rerouted;
    }
    h.bind(devices);
    msi_snapshot snap;
    snap.capture(op_.deps, op_.n_deps);
    event_list ready;
    try {
      ready = h.acquire(devices.front());
    } catch (const device_lost_error& e) {
      rollback(snap);
      st_.blacklist_device(e.device);
      continue;
    } catch (const transfer_error& e) {
      rollback(snap);
      escalate(failure_kind::link_error, devices.front(), round + 1, e.what());
      return;
    } catch (const corruption_error& e) {
      rollback(snap);
      escalate(failure_kind::data_corrupted, e.device, round + 1, e.what());
      return;
    } catch (const std::bad_alloc& e) {
      rollback(snap);
      escalate(failure_kind::out_of_memory, devices.front(), round + 1,
               e.what());
      return;
    }
    // Publish the written spans to the fault injector so a scheduled
    // kernel_output flip lands in real task output (§10).
    output_hint_guard hints(st_, op_.deps, op_.n_deps, h.resolved);
    event_list done;
    resilient_result bad;
    int bad_device = -1;
    h.run(devices.data(), devices.size(), ready, done, &bad, &bad_device);
    if (bad_device < 0) {
      finish(h, done, devices.data(), devices.size(), true);
      return;
    }
    // Order anything already submitted (and a partial prefix) before any
    // retry copies and before deferred frees.
    if (bad.ev) {
      done.add(std::move(bad.ev));
    }
    guard_partial(op_.deps, op_.n_deps, h.resolved, done);
    rollback(snap);
    const bool lost = bad.status == cudasim::sim_status::error_device_lost;
    if (lost) {
      st_.blacklist_device(bad_device);
      if (!bad.partial) {
        continue;
      }
    }
    escalate(kind_of(bad.status), bad_device, bad.attempts + round,
             cudasim::status_name(bad.status));
    return;
  }
  escalate(failure_kind::device_lost, -1, max_rounds,
           "retries exhausted after repeated device losses");
}

void submit_pipeline::execute_host_task(op_hooks& h) {
  resolved_ = h.resolved;
  const bool aware = st_.fault_aware();
  if (aware && cancelled()) {
    return;
  }
  const int host_dev = -1;
  event_list done;
  try {
    // Host tasks gather their inputs to the host; device-to-host copies
    // remain allowed even from a failed device (evacuation grace), so a
    // device loss rarely reaches this acquire.
    event_list ready = h.acquire(-1);
    merge_order(ready);
    h.run(&host_dev, 1, ready, done, nullptr, nullptr);
    finish(h, done, &host_dev, 1, false);
  } catch (const device_lost_error& e) {
    host_failure(aware, failure_kind::device_lost, e.device,
                 "device lost during host-task acquire");
  } catch (const transfer_error& e) {
    host_failure(aware, failure_kind::link_error, -1, e.what());
  } catch (const corruption_error& e) {
    host_failure(aware, failure_kind::data_corrupted, e.device, e.what());
  } catch (const std::bad_alloc& e) {
    host_failure(aware, failure_kind::out_of_memory, -1, e.what());
  } catch (const std::exception& e) {
    plain_failure(failure_kind::submission_exception, -1, e.what());
    throw;
  }
}

void submit_pipeline::execute_host_shard(op_hooks& h) {
  const int host_dev = -1;
  execute_plain(h, &host_dev, 1, false);
}

// --- CUDASTF_DOT_FILE ---

void arm_env_dot(context_state& st) {
  const char* path = std::getenv("CUDASTF_DOT_FILE");
  if (path == nullptr || *path == '\0') {
    return;
  }
  st.dot = std::make_unique<dot_exporter>();
  st.dot->set_auto_path(path);
  st.observers.push_back(st.dot.get());
}

void flush_env_dot(context_state& st) {
  if (st.dot != nullptr && !st.dot->auto_path().empty()) {
    st.dot->write(st.dot->auto_path());
  }
}

}  // namespace detail

}  // namespace cudastf
