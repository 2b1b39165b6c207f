// The context lock (DESIGN.md §11): recursive across the nested structural
// path, mutually exclusive with a happens-before edge from each unlock to
// the next lock, released when a submission throws, and never strands a
// waiter — unlock wakes nobody, so every waiter must find the lock free on
// its own. scripts/tier1.sh --tsan runs this suite under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cudastf/context_state.hpp"
#include "cudastf/cudastf.hpp"

namespace {

using namespace cudastf;
using namespace std::chrono_literals;

TEST(ContextLock, NestedLocksReleaseAtTheOutermostUnlock) {
  context_lock mu;
  mu.lock();
  mu.lock();
  mu.lock();
  std::atomic<bool> entered{false};
  std::thread other([&] {
    std::lock_guard lock(mu);
    entered.store(true);
  });
  for (int depth = 3; depth > 0; --depth) {
    std::this_thread::sleep_for(5ms);
    EXPECT_FALSE(entered.load()) << "depth " << depth;
    mu.unlock();
  }
  other.join();
  EXPECT_TRUE(entered.load());
}

// submission -> epoch restart -> replay -> task: each replayed task takes
// the lock once more inside the outer submission, which must neither
// deadlock nor let another thread in. A thread asking for the lock from
// the first replayed task gets it once the outer submission has returned.
// (Depth accounting itself: NestedLocksReleaseAtTheOutermostUnlock.)
TEST(ContextLock, RestartReplayTaskHoldsTheLockToTheOuterSubmission) {
  cudasim::scoped_platform sp(2, cudasim::test_desc());
  cudasim::platform& p = sp.get();
  auto& fi = p.ensure_fault_injector();
  context ctx(p);
  ctx.set_retry_policy({.max_attempts = 1});
  ctx.enable_checkpointing();
  std::vector<double> y(64, 0.0);
  auto ly = ctx.logical_data(y.data(), y.size(), "y");
  int inits = 0;
  std::atomic<bool> entered{false};
  std::thread watcher;
  ctx.task(exec_place::device(0), ly.rw()).set_symbol("init") ->*
      [&](cudasim::stream& s, slice<double> dy) {
        if (++inits == 2) {  // the replay
          watcher = std::thread([&] {
            ctx.set_retry_policy({.max_attempts = 1});
            entered.store(true);
          });
          std::this_thread::sleep_for(5ms);
          EXPECT_FALSE(entered.load());
        }
        p.launch_kernel(s, {.name = "init"}, [=] {
          for (std::size_t i = 0; i < dy.size(); ++i) {
            dy(i) = double(i) + 1.0;
          }
        });
      };
  // Device 0 fail-stops between the two kernels of the next task: the
  // partial submission escalates to an epoch restart, which replays both
  // tasks on the surviving device from inside this submission.
  fi.schedule({.kind = cudasim::fault_kind::device_fail,
               .device = 0,
               .at_op = fi.ops_seen() + 2});
  int two_steps = 0;
  ctx.task(exec_place::device(0), ly.rw()).set_symbol("two_step") ->*
      [&](cudasim::stream& s, slice<double> dy) {
        if (++two_steps == 2) {  // the replay, after init's has unwound
          std::this_thread::sleep_for(5ms);
          EXPECT_FALSE(entered.load());
        }
        p.launch_kernel(s, {.name = "step_a"}, [=] {
          for (std::size_t i = 0; i < dy.size(); ++i) {
            dy(i) += 1.0;
          }
        });
        p.launch_kernel(s, {.name = "step_b"}, [=] {
          for (std::size_t i = 0; i < dy.size(); ++i) {
            dy(i) *= 2.0;
          }
        });
      };
  ASSERT_EQ(inits, 2);
  ASSERT_EQ(two_steps, 2);
  watcher.join();
  EXPECT_TRUE(entered.load());
  EXPECT_EQ(ctx.stats().rollbacks, 1u);
  EXPECT_EQ(ctx.stats().tasks_replayed, 2u);
  const error_report rep = ctx.finalize();
  EXPECT_TRUE(rep.ok()) << rep.to_string();
  for (std::size_t i = 0; i < y.size(); ++i) {
    ASSERT_EQ(y[i], (double(i) + 2.0) * 2.0) << i;
  }
}

// A plain counter under the lock: the exact total shows mutual exclusion,
// and TSan sees the happens-before edge from each unlock to the next lock.
// Every eighth section nests a second acquisition.
void count_under_lock(int n_threads) {
  constexpr int iters = 20000;
  context_lock mu;
  std::uint64_t counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < n_threads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < iters; ++i) {
        std::lock_guard lock(mu);
        if (i % 8 == 0) {
          std::lock_guard nested(mu);
          ++counter;
        } else {
          ++counter;
        }
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  EXPECT_EQ(counter, std::uint64_t{iters} * std::uint64_t(n_threads));
}

TEST(ContextLock, MutualExclusionFourThreads) { count_under_lock(4); }
TEST(ContextLock, MutualExclusionEightThreads) { count_under_lock(8); }

// A submission whose body throws leaves the lock free: another thread's
// submission goes through afterwards. (A leaked lock hangs the join; the
// suite's timeout reports it.)
TEST(ContextLock, ThrowingSubmissionReleasesTheLock) {
  cudasim::scoped_platform sp(1, cudasim::test_desc());
  context ctx(sp.get());
  std::vector<double> x(16, 1.0), y(16, 1.0);
  auto lx = ctx.logical_data(x.data(), x.size(), "x");
  auto ly = ctx.logical_data(y.data(), y.size(), "y");
  EXPECT_THROW(ctx.task(lx.rw())->*
                   [](cudasim::stream&, slice<double>) {
                     throw std::runtime_error("body failed");
                   },
               std::runtime_error);
  bool ran = false;
  std::thread other([&] {
    ctx.task(ly.rw())->*[&ran](cudasim::stream&, slice<double>) {
      ran = true;
    };
  });
  other.join();
  EXPECT_TRUE(ran);
  // The failed submission is reported; the other one is not affected.
  const error_report rep = ctx.finalize();
  ASSERT_EQ(rep.failures.size(), 1u) << rep.to_string();
  EXPECT_EQ(rep.failures.front().kind, failure_kind::submission_exception);
}

// Three submitters queue behind a task whose body blocks for a few
// milliseconds; once it returns, each of them gets the lock and submits.
TEST(ContextLock, WaitersBehindABlockingHolderAllFinish) {
  cudasim::scoped_platform sp(1, cudasim::test_desc());
  context ctx(sp.get());
  constexpr int waiters = 3;
  std::vector<double> hold(16, 0.0);
  std::vector<std::vector<double>> mine(waiters, std::vector<double>(16, 0.0));
  auto lhold = ctx.logical_data(hold.data(), hold.size(), "hold");
  std::vector<logical_data<slice<double>>> lmine;
  for (auto& v : mine) {
    lmine.push_back(ctx.logical_data(v.data(), v.size(), "mine"));
  }
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> done{0};
    std::vector<std::thread> threads;
    ctx.task(lhold.rw())->*[&](cudasim::stream&, slice<double>) {
      for (int w = 0; w < waiters; ++w) {
        threads.emplace_back([&, w] {
          ctx.task(lmine[w].rw())->*[](cudasim::stream&, slice<double>) {};
          done.fetch_add(1);
        });
      }
      std::this_thread::sleep_for(3ms);
      EXPECT_EQ(done.load(), 0) << "round " << round;
    };
    for (std::thread& th : threads) {
      th.join();
    }
    EXPECT_EQ(done.load(), waiters) << "round " << round;
  }
  EXPECT_EQ(ctx.fast_path_submits(), 5u * (1 + waiters));
  EXPECT_TRUE(ctx.finalize().ok());
}

}  // namespace
