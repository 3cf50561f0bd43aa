#include "sim/sharded_simulator.hpp"

#include <algorithm>
#include <chrono>

#include "util/assert.hpp"

namespace bcp::sim {

namespace {

/// How long a waiter spins before it parks. Back-to-back windows hand off
/// within a microsecond, and the coordinator's gap between windows (the
/// barrier hook: membership batches, route refreshes) runs to a few
/// hundred microseconds; a waiter that parked through those would put a
/// futex wake-up on the critical path of every window (a 50 µs budget
/// parked in 2 of 3 windows of a 2,500-node churn run and cost ~20% wall
/// time). Longer waits — setup imbalance, media builds, metric
/// collection, slow hooks — park and free the core.
constexpr std::chrono::microseconds kSpinBudget{1000};

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Hardware threads, read once per process: the query reads system files
/// on every call, and every scenario run builds an engine.
int hardware_threads() {
  static const int hw =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return hw;
}

}  // namespace

ShardedSimulator::ShardedSimulator(Params params) {
  BCP_REQUIRE(params.shards >= 1);
  BCP_REQUIRE(params.window > 0);
  shards_ = params.shards;
  window_ = params.window;
  threads_ = params.threads > 0
                 ? params.threads
                 : std::min(hardware_threads(), std::max(1, shards_ / 2));
  // More workers than ceil(shards/2) can never be simultaneously busy: a
  // parity phase exposes at most that many shards.
  threads_ = std::min(threads_, (shards_ + 1) / 2);
  sims_.reserve(static_cast<std::size_t>(shards_));
  for (int s = 0; s < shards_; ++s)
    sims_.push_back(std::make_unique<Simulator>());
  drains_.resize(static_cast<std::size_t>(shards_));
  // The caller is worker 0; spawn the rest.
  workers_.reserve(static_cast<std::size_t>(threads_ - 1));
  for (int w = 1; w < threads_; ++w)
    workers_.emplace_back([this, w] { worker_loop(w); });
}

ShardedSimulator::~ShardedSimulator() {
  if (workers_.empty()) return;
  Job exit;
  exit.kind = Job::kExit;
  job_ = exit;
  job_epoch_.fetch_add(1);
  wake();
  for (auto& t : workers_) t.join();
}

void ShardedSimulator::set_drain(int s, DrainHook hook) {
  BCP_REQUIRE(s >= 0 && s < shards_);
  drains_[static_cast<std::size_t>(s)] = std::move(hook);
}

template <typename Pred>
void ShardedSimulator::await(Pred&& ready) {
  if (ready()) return;
  const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
  for (unsigned i = 1;; ++i) {
    cpu_relax();
    if (ready()) return;
    // Read the clock only every 64 spins (a few µs).
    if (i % 64 == 0 && std::chrono::steady_clock::now() >= deadline) break;
  }
  std::unique_lock<std::mutex> lock(park_mutex_);
  parked_.fetch_add(1);
  park_cv_.wait(lock, ready);
  parked_.fetch_sub(1);
}

void ShardedSimulator::wake() {
  if (parked_.load() == 0) return;
  // A parker holds the mutex from its increment until it sleeps, so once
  // we get the mutex it is either asleep (and hears the notify) or has
  // not yet made its final check (and sees the new state).
  { const std::lock_guard<std::mutex> lock(park_mutex_); }
  park_cv_.notify_all();
}

void ShardedSimulator::worker_loop(int worker) {
  std::uint64_t seen = 0;
  for (;;) {
    await([&] { return job_epoch_.load() != seen; });
    ++seen;
    if (job_.kind == Job::kExit) return;  // dtor joins; no done signal needed
    run_share(worker, job_);
    done_count_.fetch_add(1);
    wake();
  }
}

void ShardedSimulator::record_error() {
  const std::lock_guard<std::mutex> lock(error_mutex_);
  if (!first_error_) first_error_ = std::current_exception();
  failed_.store(true);
}

void ShardedSimulator::run_phase(int worker, int parity, const Job& job) {
  for (int s = 2 * worker + parity; s < shards_; s += 2 * threads_) {
    auto& drain = drains_[static_cast<std::size_t>(s)];
    if (drain) drain(job.window);
    sims_[static_cast<std::size_t>(s)]->run_until(job.end);
  }
}

void ShardedSimulator::run_all(int worker,
                               const std::function<void(int)>& fn) {
  for (int s = 2 * worker; s < shards_; s += 2 * threads_) {
    fn(s);
    if (s + 1 < shards_) fn(s + 1);
  }
}

void ShardedSimulator::arrive_and_wait() {
  // The sense cannot flip before this thread arrives, so reading it first
  // is race-free. The last arrival resets the count, then flips the sense.
  const std::uint32_t sense = barrier_sense_.load();
  if (barrier_count_.fetch_add(1) + 1 == threads_) {
    barrier_count_.store(0, std::memory_order_relaxed);
    barrier_sense_.store(sense + 1);
    wake();
  } else {
    await([&] { return barrier_sense_.load() != sense; });
  }
}

void ShardedSimulator::run_share(int worker, const Job& job) {
  const auto guarded = [this](auto&& body) {
    try {
      body();
    } catch (...) {
      record_error();
    }
  };
  if (job.kind == Job::kAll) {
    guarded([&] { run_all(worker, *job.fn); });
    return;
  }
  guarded([&] { run_phase(worker, 0, job); });
  arrive_and_wait();
  if (!failed_.load()) guarded([&] { run_phase(worker, 1, job); });
}

void ShardedSimulator::dispatch(const Job& job) {
  if (workers_.empty()) {
    if (job.kind == Job::kAll) {
      run_all(0, *job.fn);
    } else {
      run_phase(0, 0, job);
      run_phase(0, 1, job);
    }
    return;
  }
  job_ = job;
  done_count_.store(0, std::memory_order_relaxed);
  job_epoch_.fetch_add(1);
  wake();
  run_share(0, job_);
  const int others = threads_ - 1;
  await([&] { return done_count_.load() == others; });
  if (!failed_.load()) return;
  std::exception_ptr err;
  {
    const std::lock_guard<std::mutex> lock(error_mutex_);
    std::swap(err, first_error_);
    failed_.store(false);
  }
  std::rethrow_exception(err);
}

void ShardedSimulator::for_each_shard(const std::function<void(int)>& fn) {
  Job job;
  job.kind = Job::kAll;
  job.fn = &fn;
  dispatch(job);
}

void ShardedSimulator::step_window(util::Seconds end) {
  Job job;
  job.kind = Job::kWindow;
  job.window = window_index_;
  job.end = end;
  dispatch(job);
  if (barrier_hook_) barrier_hook_(window_index_, end);
  ++window_index_;
  time_ = end;
}

void ShardedSimulator::run(util::Seconds horizon) {
  BCP_REQUIRE(horizon >= time_);
  while (time_ < horizon) {
    const util::Seconds end = std::min(
        horizon, window_ * static_cast<double>(window_index_ + 1));
    // A shard clock can only be behind the grid when a previous run()
    // ended off-grid; the max keeps run_until monotonic.
    step_window(std::max(end, time_));
  }
  // Settlement: boundary frames emitted during the last window (and the
  // reactions they trigger) still cross; a second round catches the
  // reactions' own boundary frames. Anything later stays undelivered in
  // the mailboxes, exactly like frames still on the air at the horizon.
  step_window(horizon);
  step_window(horizon);
}

std::uint64_t ShardedSimulator::total_processed() const {
  std::uint64_t total = 0;
  for (const auto& s : sims_) total += s->processed_count();
  return total;
}

}  // namespace bcp::sim
