#include "cudasim/des.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace cudasim {

timeline::~timeline() {
  for (op_node* slab : slabs_) {
    delete[] slab;
  }
}

const char* timeline::intern(std::string_view name) {
  auto it = names_.find(name);
  if (it == names_.end()) {
    it = names_.emplace(name).first;
  }
  return it->c_str();
}

op_node* timeline::make_node(std::string_view name, int device, engine* eng,
                             double duration, task_fn body) {
  op_node* node = nullptr;
  if (!free_.empty()) {
    node = free_.back();
    free_.pop_back();
    ++pooled_;
    // The new id is published before `done` resets, so a lock-free
    // event::query() that reads the reset flag also reads the new id and
    // keeps reporting the recorded incarnation complete; event::record()
    // relies on the release store of the id itself.
    node->id.store(next_id_++, std::memory_order_release);
    node->done.store(false, std::memory_order_release);
    node->unmet = 0;
    node->submitted = false;
    node->t_ready = 0.0;
    node->t_start = 0.0;
    node->t_end = 0.0;
  } else {
    if (slab_used_ == slab_nodes) {
      slabs_.push_back(new op_node[slab_nodes]);
      slab_used_ = 0;
    }
    node = &slabs_.back()[slab_used_++];
    node->id.store(next_id_++, std::memory_order_relaxed);
  }
  node->name = intern(name);
  node->device = device;
  node->eng = eng;
  node->duration = duration;
  node->body = std::move(body);
  node->real_work = eng != nullptr;
  // Hang-recovery state must reset on recycle like everything else.
  node->stalled = false;
  node->stall_permanent = false;
  node->cancelled = false;
  node->t_submit = 0.0;
  return node;
}

void timeline::add_dep(op_node* pred, op_node* succ) {
  if (pred == nullptr || pred->done.load(std::memory_order_relaxed) ||
      pred == succ) {
    return;
  }
  assert(!succ->submitted && "dependencies must be wired before submit()");
  pred->succs.push_back(succ);
  ++succ->unmet;
}

void timeline::submit(op_node* node) {
  assert(!node->submitted);
  node->submitted = true;
  node->t_submit = now_;
  ++live_;
  if (node->unmet == 0) {
    on_ready(node, now_);
  }
}

void timeline::abandon(op_node* node) {
  if (node == nullptr || node->submitted) {
    return;
  }
  node->body.reset();
  node->eng = nullptr;
  node->duration = 0.0;
  node->real_work = false;
  // Successor edges wired *from* this node would decrement unmet counters of
  // nodes that may never learn about it; submission paths wire successors
  // only after submit(), so an abandoned node has none. Incoming edges (from
  // stream tails) are fine: completing the marker resolves them.
  node->succs.clear();
  ++abandoned_;
  submit(node);
}

void timeline::on_ready(op_node* node, timepoint t) {
  node->t_ready = t;
  if (node->eng == nullptr) {
    // Pure marker: completes instantly once ready.
    node->t_start = t;
    node->t_end = t + node->duration;
    events_.push({node->t_end, next_seq_++, node});
    return;
  }
  node->eng->ready_fifo_.push_back(node);
  if (node->eng->idle()) {
    start_on_engine(node->eng, t);
  }
}

void timeline::start_on_engine(engine* eng, timepoint t) {
  if (eng->ready_fifo_.empty()) {
    return;
  }
  op_node* node = eng->ready_fifo_.front();
  eng->ready_fifo_.pop_front();
  eng->running_ = node;
  node->t_start = std::max(t, eng->busy_until_);
  if (node->stall_permanent) {
    // Injected permanent hang: the op wedges its engine forever and no
    // completion event is scheduled. A plain drain() exits through the
    // live-operations watchdog below; recovery must cancel() the node.
    node->t_end = std::numeric_limits<timepoint>::infinity();
    eng->busy_until_ = node->t_end;
    return;
  }
  node->t_end = node->t_start + node->duration;
  eng->busy_until_ = node->t_end;
  events_.push({node->t_end, next_seq_++, node});
}

void timeline::complete(op_node* node) {
  // Release so a lock-free event::query() acquiring `done` also observes the
  // node's final timestamps.
  node->done.store(true, std::memory_order_release);
  now_ = std::max(now_, node->t_end);
  // Published after `done` (single writer, under the driver lock).
  completed_.store(completed_.load(std::memory_order_relaxed) + 1,
                   std::memory_order_release);
  --live_;
  if (node->body) {
    // Run (and release) the payload in completion order so numerical side
    // effects observe a valid topological order of the DAG.
    task_fn body = std::move(node->body);
    body();
  }
  if (node->eng != nullptr) {
    node->eng->running_ = nullptr;
    start_on_engine(node->eng, node->t_end);
  }
  for (op_node* succ : node->succs) {
    assert(succ->unmet > 0);
    if (--succ->unmet == 0 && succ->submitted) {
      on_ready(succ, node->t_end);
    }
  }
  node->succs.clear();
  retired_.push_back(node);
}

void timeline::drain() {
  while (!events_.empty()) {
    pending_event ev = events_.top();
    events_.pop();
    if (ev.node->done.load(std::memory_order_relaxed)) {
      continue;  // stale event of a cancelled node
    }
    complete(ev.node);
  }
  if (live_ != 0) {
    throw std::logic_error(
        "cudasim: drain() left live operations behind — a submitted op "
        "depends on a node that was never submitted (dependency cycle or "
        "forgotten submit), or an operation is permanently stalled" +
        stuck_report());
  }
}

std::string timeline::stuck_report() const {
  // Walk the slabs directly: every live node sits in a slab, fresh slab
  // nodes default-initialize submitted=false, and recycled pool nodes keep
  // done=true, so "submitted && !done" identifies exactly the stuck set.
  // Sorted oldest-first by submission time so the report leads with the
  // actual wedged predecessor, not whatever slab order happened to yield —
  // the deadline poison's cause chain quotes these lines verbatim.
  static constexpr std::size_t max_lines = 8;
  std::vector<const op_node*> stuck;
  for (std::size_t si = 0; si < slabs_.size(); ++si) {
    const std::size_t count =
        si + 1 == slabs_.size() ? slab_used_ : slab_nodes;
    for (std::size_t ni = 0; ni < count; ++ni) {
      const op_node& n = slabs_[si][ni];
      if (n.submitted && !n.done.load(std::memory_order_relaxed)) {
        stuck.push_back(&n);
      }
    }
  }
  if (stuck.empty()) {
    return {};
  }
  std::sort(stuck.begin(), stuck.end(),
            [](const op_node* a, const op_node* b) {
              if (a->t_submit != b->t_submit) {
                return a->t_submit < b->t_submit;
              }
              return a->id.load(std::memory_order_relaxed) <
                     b->id.load(std::memory_order_relaxed);
            });
  std::string out =
      "\nstuck operations (" + std::to_string(stuck.size()) +
      ", oldest first):";
  const std::size_t shown = std::min(stuck.size(), max_lines);
  for (std::size_t i = 0; i < shown; ++i) {
    const op_node& n = *stuck[i];
    out += "\n  #";
    out += std::to_string(n.id.load(std::memory_order_relaxed));
    out += " '";
    out += n.name;
    out += "'";
    if (n.device >= 0) {
      out += " device ";
      out += std::to_string(n.device);
    }
    switch (n.eng != nullptr ? n.eng->kind() : engine_kind::none) {
      case engine_kind::compute:
        out += " [compute]";
        break;
      case engine_kind::copy_in:
        out += " [copy_in]";
        break;
      case engine_kind::copy_out:
        out += " [copy_out]";
        break;
      case engine_kind::host:
        out += " [host]";
        break;
      case engine_kind::none:
        break;
    }
    out += " age " + std::to_string(now_ - n.t_submit) + "s";
    if (n.stall_permanent) {
      out += " [stalled: permanent]";
    } else if (n.stalled) {
      out += " [stalled: transient]";
    }
    if (n.unmet > 0) {
      out += " waiting on " + std::to_string(n.unmet) +
             " unfinished predecessor(s)";
    } else if (n.eng != nullptr && n.eng->running_ == &n) {
      out += " occupying its engine";
    } else {
      out += " ready but never scheduled";
    }
  }
  if (stuck.size() > shown) {
    out += "\n  ... and " + std::to_string(stuck.size() - shown) + " more";
  }
  return out;
}

void timeline::gc() {
  // Nothing in the DAG points backwards at a completed node once its
  // successor list has been cleared, and platform::collect_handles() has
  // dropped the unchecked external pointers. Events keep the node's id and
  // read a recycled node as complete.
  free_.insert(free_.end(), retired_.begin(), retired_.end());
  retired_.clear();
}

void timeline::drain_until(const op_node* node) {
  while (!node->done.load(std::memory_order_relaxed)) {
    if (events_.empty()) {
      throw std::logic_error(
          "cudasim: waiting on an operation that can never complete "
          "(missing submit, dependency cycle, or a permanently stalled "
          "predecessor)" +
          stuck_report());
    }
    pending_event ev = events_.top();
    events_.pop();
    if (ev.node->done.load(std::memory_order_relaxed)) {
      continue;  // stale event of a cancelled node
    }
    complete(ev.node);
  }
}

std::size_t timeline::drain_until_time(timepoint t) {
  std::size_t completed = 0;
  while (!events_.empty() && events_.top().time <= t) {
    pending_event ev = events_.top();
    events_.pop();
    if (ev.node->done.load(std::memory_order_relaxed)) {
      continue;  // stale event of a cancelled node
    }
    complete(ev.node);
    ++completed;
  }
  return completed;
}

bool timeline::drain_one() {
  while (!events_.empty()) {
    pending_event ev = events_.top();
    events_.pop();
    if (ev.node->done.load(std::memory_order_relaxed)) {
      continue;  // stale event of a cancelled node
    }
    complete(ev.node);
    return true;
  }
  return false;
}

bool timeline::cancel(op_node* node) {
  if (node == nullptr || !node->submitted ||
      node->done.load(std::memory_order_relaxed) || node->unmet != 0) {
    return false;
  }
  node->body.reset();  // the payload must not run
  node->cancelled = true;
  engine* eng = node->eng;
  if (eng != nullptr && eng->running_ == node) {
    // Fix busy_until_ BEFORE complete(): complete() restarts the engine via
    // start_on_engine(), which reads busy_until_ to place the next op.
    node->t_end = std::max(now_, node->t_start);
    eng->busy_until_ = node->t_end;
  } else if (eng != nullptr) {
    auto& fifo = eng->ready_fifo_;
    const auto it = std::find(fifo.begin(), fifo.end(), node);
    if (it != fifo.end()) {
      fifo.erase(it);
    }
    node->t_end = std::max(now_, node->t_ready);
  } else {
    node->t_end = std::max(now_, node->t_ready);
  }
  complete(node);
  return true;
}

}  // namespace cudasim
