#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace perfbench::trace {

namespace detail {
std::atomic<bool> armed{false};
}  // namespace detail

namespace {

struct thread_buffer {
  std::uint32_t thread = 0;
  std::vector<span_record> spans;
  std::uint32_t current = no_parent;  ///< innermost open span
};

// Buffers outlive their threads (parallel_submit workers exit before the
// repetition's spans are collected), so the registry owns them.
std::mutex registry_mu;
std::vector<std::unique_ptr<thread_buffer>> registry;  // guarded by registry_mu
thread_local thread_buffer* tls = nullptr;

thread_buffer& local() {
  if (tls == nullptr) {
    std::lock_guard g(registry_mu);
    auto buf = std::make_unique<thread_buffer>();
    buf->thread = static_cast<std::uint32_t>(registry.size());
    tls = buf.get();
    registry.push_back(std::move(buf));
  }
  return *tls;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool per_call_layer(layer l) {
  return l == layer::cudastf_task || l == layer::cudasim_launch ||
         l == layer::cudastf_fence;
}

}  // namespace

const char* layer_name(layer l) {
  switch (l) {
    case layer::setup: return "setup";
    case layer::app: return "app";
    case layer::cudastf_register: return "cudastf.register";
    case layer::cudastf_task: return "cudastf.task";
    case layer::cudastf_fence: return "cudastf.fence";
    case layer::cudasim_launch: return "cudasim.launch";
    case layer::payload: return "payload";
    case layer::cudasim_drain: return "cudasim.drain";
    case layer::cudastf_finalize: return "cudastf.finalize";
    case layer::count: break;
  }
  return "?";
}

std::uint32_t detail::open(layer l) {
  thread_buffer& b = local();
  const auto idx = static_cast<std::uint32_t>(b.spans.size());
  b.spans.push_back({now_ns(), 0, b.current, l});
  b.current = idx;
  return idx;
}

void detail::close(std::uint32_t idx) {
  thread_buffer& b = *tls;
  b.spans[idx].end_ns = now_ns();
  b.current = b.spans[idx].parent;
}

void arm(bool on) { detail::armed.store(on, std::memory_order_relaxed); }

std::vector<thread_spans> collect() {
  std::lock_guard g(registry_mu);
  std::vector<thread_spans> out;
  for (auto& buf : registry) {
    if (!buf->spans.empty()) {
      // Copy rather than move: the buffer keeps its capacity, so later
      // traced repetitions do not pay for regrowing it.
      out.push_back({buf->thread, buf->spans});
      buf->spans.clear();
    }
  }
  return out;
}

layer_stats analyse(const std::vector<thread_spans>& threads) {
  layer_stats st;
  for (const thread_spans& t : threads) {
    std::vector<std::int64_t> child_ns(t.spans.size(), 0);
    for (const span_record& s : t.spans) {
      if (s.parent != no_parent) {
        child_ns[s.parent] += s.end_ns - s.start_ns;
      }
    }
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const span_record& s = t.spans[i];
      const auto li = static_cast<std::size_t>(s.l);
      const std::int64_t dur = s.end_ns - s.start_ns;
      const std::int64_t self = dur - child_ns[i];
      st.total_s[li] += static_cast<double>(dur) * 1e-9;
      st.self_s[li] += static_cast<double>(self) * 1e-9;
      ++st.spans[li];
      if (per_call_layer(s.l)) {
        st.self_us[li].push_back(static_cast<double>(self) * 1e-3);
      }
    }
  }
  return st;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<thread_spans>& threads,
                        std::size_t max_spans, const std::string& meta) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) {
    return false;
  }
  std::int64_t t0 = INT64_MAX;
  std::size_t total = 0;
  for (const thread_spans& t : threads) {
    total += t.spans.size();
    if (!t.spans.empty()) {
      t0 = std::min(t0, t.spans.front().start_ns);
    }
  }
  std::fprintf(f.get(), "{\"traceEvents\": [\n");
  std::size_t written = 0;
  for (const thread_spans& t : threads) {
    for (std::size_t i = 0; i < t.spans.size() && written < max_spans; ++i) {
      const span_record& s = t.spans[i];
      std::fprintf(f.get(),
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %zu, \"parent\": %lld}}",
                   written == 0 ? "" : ",\n", layer_name(s.l), t.thread,
                   static_cast<double>(s.start_ns - t0) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                   s.parent == no_parent ? -1LL
                                         : static_cast<long long>(s.parent));
      ++written;
    }
  }
  std::fprintf(f.get(),
               "\n], \"otherData\": {\"spans_recorded\": %zu, "
               "\"spans_written\": %zu, \"run\": %s}}\n",
               total, written, meta.c_str());
  return std::ferror(f.get()) == 0;
}

}  // namespace perfbench::trace
