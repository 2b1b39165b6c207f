// The repository benchmark: runs one workload for a fixed wall-clock budget
// and prints one JSON result line (last line of stdout).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-dir DIR]
//
// Each run first executes the workload's compute-on check instance, then a
// warm-up repetition, then repetitions until S seconds have passed (at
// least min_reps). Every repetition builds its inputs from the seed, so
// setup_s is measured in each one and reported as a median.
//
// --trace 0 reports the end-to-end metrics, from untraced repetitions:
//   tasks_per_s  STF submissions / host seconds from the first submission
//                to the return of ctx.finalize()          (median of reps)
//   sim_time_s   simulated makespan, platform.now() after finalize
//   setup_s      host seconds before the first submission (median of reps)
//   peak_rss_mb  peak resident memory after the check instance and the
//                warm-up repetition
// and carries task_fail_ratio as failed / attempted: tasks finalize's
// error_report records as failed or cancelled, over tasks submitted.
//
// --trace 1 alternates untraced and traced repetitions. Traced ones record
// spans around every call the benchmark makes into a layer (trace.hpp) and
// give the per-layer metrics below; the untraced ones give the tracing
// overhead. The last traced repetition's spans are written to
// DIR/<workload>.trace.json. Layer metric -> what it should move:
//   app.submit_s              workload submission call(s): tasks_per_s, all
//   cudastf.task_us.p50/.p99  ctx.task()->*body minus nested launch/payload:
//                             tasks_per_s on taskgraph(-mt)
//   cudastf.register_s        ctx.logical_data calls: setup_s
//   cudastf.deps_wired_per_task, cudastf.events_pruned_per_task:
//                             tasks_per_s on taskgraph
//   cudastf.fast_path_ratio   fast_path_submits / tasks: tasks_per_s on
//                             taskgraph-mt
//   cudasim.launch_us.p50/.p99, cudasim.ops_per_task, cudasim.nodes_pooled:
//                             tasks_per_s on taskgraph(-mt) and fhe-dot
//   payload_s                 the benchmark's own kernel functors: should
//                             not move on taskgraph
//   cudasim.drain_s           platform().synchronize() before finalize:
//                             tasks_per_s on fhe-dot and cholesky-ooc
//   cudastf.finalize_s        write-back and teardown
//   cudastf.fence_us.p50/.p99, graph.*: tasks_per_s and sim_time_s on
//                             weather-graph
//   mem.*                     tasks_per_s and sim_time_s on cholesky-ooc
//   xfer.*                    sim_time_s on cholesky-ooc
//   <layer>.self_s            span time minus child spans, per layer
// A layer a workload does not reach reports 0.
//
// Output is checked in every repetition outside the timed region (see each
// workload), and on single-threaded workloads sim_time_s and the op, mem,
// xfer and graph counters must repeat exactly across repetitions: a
// mismatch makes the run incorrect rather than noisy. A line before the
// result carries the host fingerprint (nproc, compiler, build type, seed);
// compare results only between equal fingerprints.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "trace.hpp"

namespace {

using namespace perfbench;
using trace::layer;

constexpr int min_reps = 3;  // per kind (untraced, traced) after warm-up
constexpr std::size_t max_trace_file_spans = 100000;

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

double counter(const rep_result& r, const std::string& name) {
  for (const auto& [k, v] : r.counters) {
    if (k == name) {
      return v;
    }
  }
  return 0.0;
}

/// Values that must repeat exactly on a single-threaded workload.
bool must_repeat(const std::string& name) {
  return name == "cudasim.ops" || name.rfind("mem.", 0) == 0 ||
         name.rfind("xfer.", 0) == 0 || name.rfind("graph.", 0) == 0;
}

std::string determinism_error(const rep_result& ref, const rep_result& r) {
  if (r.sim_time_s != ref.sim_time_s) {
    return "sim_time_s changed between repetitions";
  }
  if (r.tasks != ref.tasks) {
    return "task count changed between repetitions";
  }
  for (const auto& [k, v] : ref.counters) {
    if (must_repeat(k) && counter(r, k) != v) {
      return k + " changed between repetitions";
    }
  }
  return "";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct metric {
  std::string name;
  double value;
  const char* unit;
};

std::string metrics_json(const std::vector<metric>& ms) {
  std::string out = "{";
  char buf[64];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    // A failed run can leave a ratio without samples; JSON has no NaN.
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(ms[i].value) ? ms[i].value : 0.0);
    out += (i == 0 ? "" : ", ") + json_string(ms[i].name) +
           ": {\"value\": " + buf + ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double tasks_per_s(const rep_result& r) {
  return static_cast<double>(r.tasks) / r.run_s;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-dir DIR]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::string trace_dir = ".";
  std::uint64_t seed = 0;
  double budget_s = 0.0;
  int traced = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* val = argv[i + 1];
    if (std::strcmp(key, "--workload") == 0) {
      name = val;
    } else if (std::strcmp(key, "--seed") == 0) {
      seed = std::strtoull(val, nullptr, 10);
    } else if (std::strcmp(key, "--seconds") == 0) {
      budget_s = std::strtod(val, nullptr);
    } else if (std::strcmp(key, "--trace") == 0) {
      traced = std::atoi(val);
    } else if (std::strcmp(key, "--trace-dir") == 0) {
      trace_dir = val;
    } else {
      return usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || name.empty() || !(budget_s > 0.0) ||
      (traced != 0 && traced != 1)) {
    return usage(argv[0]);
  }

  const workload table[] = {taskgraph_workload(), taskgraph_mt_workload(),
                            cholesky_ooc_workload(), fhe_dot_workload(),
                            weather_graph_workload()};
  const workload* w = nullptr;
  for (const workload& cand : table) {
    if (name == cand.name) {
      w = &cand;
    }
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", name.c_str());
    return 2;
  }

  char fingerprint[512];
  std::snprintf(fingerprint, sizeof fingerprint,
                "{\"nproc\": %u, \"compiler\": \"%s\", \"build_type\": "
                "\"%s\", \"seed\": %llu, \"workload\": \"%s\"}",
                std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE, static_cast<unsigned long long>(seed),
                w->name);

  std::vector<std::string> errors;
  auto report_error = [&errors](std::string e) {
    if (std::find(errors.begin(), errors.end(), e) == errors.end()) {
      errors.push_back(std::move(e));
    }
  };
  try {
    if (std::string err = w->check(seed); !err.empty()) {
      report_error("check: " + err);
    }
  } catch (const std::exception& e) {
    report_error(std::string("check threw: ") + e.what());
  }

  // A repetition that throws is reported as an error and ends the run.
  auto run_rep = [&](rep_result& out) {
    try {
      out = w->rep(seed);
      return true;
    } catch (const std::exception& e) {
      report_error(std::string("repetition threw: ") + e.what());
      return false;
    }
  };

  // Warm-up: fills allocator and page caches; it is the reference for the
  // determinism check but is not timed.
  const auto t_window = clock::now();
  rep_result warm;
  bool healthy = run_rep(warm);
  // Peak memory of the check instance plus one repetition: later
  // repetitions reuse freed memory, so the figure does not depend on how
  // many of them fit the time budget.
  const double rss_mb = peak_rss_mb();
  std::vector<rep_result> plain, with_trace;
  std::vector<trace::layer_stats> layer_reps;
  std::vector<trace::thread_spans> last_spans;
  std::uint64_t attempted = warm.tasks;
  std::uint64_t failed = warm.failed;
  if (!warm.output_error.empty()) {
    report_error("warm-up: " + warm.output_error);
  }

  for (int i = 0; healthy; ++i) {
    const bool arm = traced == 1 && i % 2 == 1;
    const bool enough = plain.size() >= min_reps &&
                        (traced == 0 || with_trace.size() >= min_reps);
    if (enough && seconds_since(t_window) >= budget_s) {
      break;
    }
    trace::arm(arm);
    rep_result r;
    healthy = run_rep(r);
    trace::arm(false);
    if (arm) {
      last_spans = trace::collect();
      layer_reps.push_back(trace::analyse(last_spans));
    }
    if (!healthy) {
      break;
    }
    attempted += r.tasks;
    failed += r.failed;
    if (!r.output_error.empty()) {
      report_error(r.output_error);
    }
    if (w->deterministic) {
      if (std::string err = determinism_error(warm, r); !err.empty()) {
        report_error(err);
      }
    }
    (arm ? with_trace : plain).push_back(std::move(r));
  }
  if (failed != 0) {
    report_error("finalize reported failed or cancelled tasks");
  }

  auto med = [](const std::vector<rep_result>& reps, auto get) {
    std::vector<double> v;
    for (const rep_result& r : reps) {
      v.push_back(get(r));
    }
    return median(std::move(v));
  };

  std::vector<metric> ms;
  std::string samples = "{";
  if (traced == 0) {
    ms.push_back({"tasks_per_s", med(plain, tasks_per_s), "1/s"});
    ms.push_back({"sim_time_s",
                  med(plain, [](const rep_result& r) { return r.sim_time_s; }),
                  "s"});
    ms.push_back({"setup_s",
                  med(plain, [](const rep_result& r) { return r.setup_s; }),
                  "s"});
    ms.push_back({"peak_rss_mb", rss_mb, "MB"});
  } else {
    std::vector<rep_result> all = plain;
    all.insert(all.end(), with_trace.begin(), with_trace.end());
    auto cmed = [&](const char* c) {
      return med(all, [c](const rep_result& r) { return counter(r, c); });
    };
    auto per_task = [&](const char* c) {
      return med(all, [c](const rep_result& r) {
        return counter(r, c) / static_cast<double>(r.tasks);
      });
    };
    auto lmed = [&](auto get) {
      std::vector<double> v;
      for (const trace::layer_stats& st : layer_reps) {
        v.push_back(get(st));
      }
      return median(std::move(v));
    };
    auto total = [&](layer l) {
      return lmed([l](const trace::layer_stats& st) {
        return st.total_s[static_cast<std::size_t>(l)];
      });
    };
    auto pct = [&](layer l, double q) {
      return lmed([l, q](const trace::layer_stats& st) {
        return percentile(st.self_us[static_cast<std::size_t>(l)], q);
      });
    };
    // Sample counts behind the percentiles, for the line before the result.
    for (layer l : {layer::cudastf_task, layer::cudasim_launch,
                    layer::cudastf_fence}) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "%s\"%s\": %.0f",
                    samples.size() > 1 ? ", " : "", trace::layer_name(l),
                    lmed([l](const trace::layer_stats& st) {
                      return static_cast<double>(
                          st.spans[static_cast<std::size_t>(l)]);
                    }));
      samples += buf;
    }

    ms.push_back({"app.submit_s", total(layer::app), "s"});
    ms.push_back({"cudastf.task_us.p50", pct(layer::cudastf_task, 0.50), "us"});
    ms.push_back({"cudastf.task_us.p99", pct(layer::cudastf_task, 0.99), "us"});
    ms.push_back({"cudastf.register_s", total(layer::cudastf_register), "s"});
    ms.push_back({"cudastf.deps_wired_per_task",
                  per_task("cudastf.deps_wired"), "count"});
    ms.push_back({"cudastf.events_pruned_per_task",
                  per_task("cudastf.events_pruned"), "count"});
    ms.push_back({"cudastf.fast_path_ratio",
                  per_task("cudastf.fast_path_submits"), "ratio"});
    ms.push_back({"cudasim.launch_us.p50", pct(layer::cudasim_launch, 0.50),
                  "us"});
    ms.push_back({"cudasim.launch_us.p99", pct(layer::cudasim_launch, 0.99),
                  "us"});
    ms.push_back({"cudasim.ops_per_task", per_task("cudasim.ops"), "count"});
    ms.push_back({"cudasim.nodes_pooled", cmed("cudasim.nodes_pooled"),
                  "count"});
    ms.push_back({"payload_s", total(layer::payload), "s"});
    ms.push_back({"cudasim.drain_s", total(layer::cudasim_drain), "s"});
    ms.push_back({"cudastf.finalize_s", total(layer::cudastf_finalize), "s"});
    ms.push_back({"cudastf.fence_us.p50", pct(layer::cudastf_fence, 0.50),
                  "us"});
    ms.push_back({"cudastf.fence_us.p99", pct(layer::cudastf_fence, 0.99),
                  "us"});
    ms.push_back({"graph.instantiations", cmed("graph.instantiations"),
                  "count"});
    ms.push_back({"graph.updates", cmed("graph.updates"), "count"});
    ms.push_back({"graph.launches", cmed("graph.launches"), "count"});
    ms.push_back({"graph.update_ratio",
                  med(all,
                      [](const rep_result& r) {
                        const double l = counter(r, "graph.launches");
                        return l > 0 ? counter(r, "graph.updates") / l : 0.0;
                      }),
                  "ratio"});
    for (const char* c :
         {"mem.evictions", "mem.alloc_cache_hits", "mem.clean_drops",
          "mem.writebacks_avoided", "mem.prefetch_refills"}) {
      ms.push_back({c, cmed(c), "count"});
    }
    ms.push_back({"mem.evictions_per_task", per_task("mem.evictions"),
                  "count"});
    ms.push_back({"mem.host_staging_bytes", cmed("mem.host_staging_bytes"),
                  "B"});
    ms.push_back({"xfer.p2p_bytes", cmed("xfer.p2p_bytes"), "B"});
    ms.push_back({"xfer.host_link_bytes", cmed("xfer.host_link_bytes"), "B"});
    for (const char* c : {"xfer.copies_coalesced", "xfer.broadcast_fanout",
                          "xfer.chunks_issued"}) {
      ms.push_back({c, cmed(c), "count"});
    }
    for (std::size_t l = 0; l < trace::layer_count; ++l) {
      ms.push_back({std::string(trace::layer_name(static_cast<layer>(l))) +
                        ".self_s",
                    lmed([l](const trace::layer_stats& st) {
                      return st.self_s[l];
                    }),
                    "s"});
    }
    const double plain_tps = med(plain, tasks_per_s);
    const double traced_tps = med(with_trace, tasks_per_s);
    ms.push_back({"tasks_per_s.untraced", plain_tps, "1/s"});
    ms.push_back({"tasks_per_s.traced", traced_tps, "1/s"});
    ms.push_back({"trace.overhead_pct", (plain_tps / traced_tps - 1.0) * 100.0,
                  "%"});

    const std::string path = trace_dir + "/" + w->name + ".trace.json";
    if (!trace::write_chrome_trace(path, last_spans, max_trace_file_spans,
                                   fingerprint)) {
      report_error("could not write " + path);
    }
  }

  samples += "}";
  std::string rep_tps = "[";
  for (std::size_t i = 0; i < plain.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.0f", i == 0 ? "" : ", ",
                  tasks_per_s(plain[i]));
    rep_tps += buf;
  }
  rep_tps += "]";
  std::string err_json = "[";
  for (std::size_t i = 0; i < errors.size(); ++i) {
    err_json += (i == 0 ? "" : ", ") + json_string(errors[i]);
    std::fprintf(stderr, "perfbench: %s: %s\n", w->name, errors[i].c_str());
  }
  err_json += "]";
  std::printf("{\"fingerprint\": %s, \"reps\": {\"untraced\": %zu, "
              "\"traced\": %zu}, \"untraced_tasks_per_s\": %s, "
              "\"span_samples\": %s, \"errors\": %s}\n",
              fingerprint, plain.size(), with_trace.size(), rep_tps.c_str(),
              samples.c_str(), err_json.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics_json(ms).c_str());
  return 0;
}
