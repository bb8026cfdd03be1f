// Load generator for bench_forkbase.
//
// Each of the S senders owns a connection, a disjoint key partition and
// a seeded op stream. In an open-loop step every sender also draws an
// independent Poisson arrival stream at rate/S (together a Poisson
// stream at `rate`); it sleeps until its next arrival is due and issues
// one synchronous call, and arrivals that fall due while it is busy
// queue behind it. Latency is measured from the INTENDED send time, so a
// stall is charged to every op it delays (no coordinated omission). Lag
// is how late a sender started an op it was free to start: the
// generator's own lateness, reported so a step where the generator, not
// the system, fell behind can be flagged. In a closed-loop step every
// sender issues its next op as soon as the previous one returns, which
// measures the rate at which an open-loop backlog starts to grow.

#ifndef FORKBASE_PERFBENCH_LOADGEN_H_
#define FORKBASE_PERFBENCH_LOADGEN_H_

#include <sys/prctl.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "instrument.h"
#include "latency_histogram.h"
#include "util/random.h"

namespace fb {
namespace perf {

enum OpKind : int { kRead = 0, kWrite = 1, kNumKinds = 2 };

// One sender's share of a workload: its connection, its keys and its
// seeded op stream. Used by one thread at a time.
class Sender {
 public:
  virtual ~Sender() = default;
  // Draws the next operation and runs it synchronously. Returns its
  // kind; *ok is false when the call failed.
  virtual OpKind Issue(bool* ok) = 0;
  // Verifies the answer of the last successful Issue() (untimed).
  virtual void Check() {}
  // This sender's share of an open-loop step's rate, relative to the
  // other senders' weights.
  virtual double weight() const { return 1; }
};

struct StepResult {
  double seconds = 0;
  uint64_t offered = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;     // calls that returned an error
  uint64_t abandoned = 0;  // arrivals never issued: the sender fell behind
  LatencyHistogram latency[kNumKinds];  // intended send -> reply
  LatencyHistogram call[kNumKinds];     // call start -> reply
  LatencyHistogram lag;

  void Merge(const StepResult& o) {
    offered += o.offered;
    completed += o.completed;
    failed += o.failed;
    abandoned += o.abandoned;
    for (int k = 0; k < kNumKinds; ++k) {
      latency[k].Merge(o.latency[k]);
      call[k].Merge(o.call[k]);
    }
    lag.Merge(o.lag);
  }
};

inline uint64_t MixSeed(uint64_t a, uint64_t b, uint64_t c) {
  uint64_t z = a * 0x9e3779b97f4a7c15ULL ^ (b + 0x632be59bd9b4e019ULL) *
                                              0xbf58476d1ce4e5b9ULL ^
               (c + 1) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  z *= 0xd6e8feb86469ea6dULL;
  return z ^ (z >> 29);
}

inline void SleepUntilNs(int64_t t_ns) {
  timespec ts{};
  ts.tv_sec = t_ns / 1000000000;
  ts.tv_nsec = t_ns % 1000000000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

// Runs one step of `seconds`: open loop at `rate` ops/s, or closed loop
// when `rate` is 0. `stream` names the arrival schedule: the same (seed,
// stream) replays the same arrival times. An open-loop sender that falls
// more than `abort_late_s` behind its schedule abandons the rest of the
// step, so an overloaded system or a stalled host cannot stretch the
// run; its unissued arrivals count as abandoned, not failed.
inline std::unique_ptr<StepResult> RunStep(const std::vector<Sender*>& senders,
                                           double rate, double seconds,
                                           uint64_t seed, uint64_t stream,
                                           double abort_late_s) {
  const size_t n = senders.size();
  const bool open_loop = rate > 0;
  double total_weight = 0;
  for (const Sender* s : senders) total_weight += s->weight();
  const int64_t abort_ns = static_cast<int64_t>(abort_late_s * 1e9);
  const int64_t t0 = NowNs() + 2000000;  // every sender starts on schedule
  const int64_t t_end = t0 + static_cast<int64_t>(seconds * 1e9);

  std::vector<std::unique_ptr<StepResult>> shards(n);
  std::vector<std::thread> threads;
  for (size_t s = 0; s < n; ++s) {
    shards[s] = std::make_unique<StepResult>();
    threads.emplace_back([&, s] {
      // Default timer slack (50 us) would dominate sub-100 us ops.
      prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
      StepResult& r = *shards[s];
      Rng rng(MixSeed(seed, stream, s));
      const double mean_gap_ns =
          open_loop ? 1e9 * total_weight / (rate * senders[s]->weight()) : 0;
      auto next_gap = [&] {
        return static_cast<int64_t>(-std::log1p(-rng.NextDouble()) *
                                    mean_gap_ns);
      };
      int64_t free_ns = t0;
      int64_t due = t0 + next_gap();
      for (; due < t_end; due += next_gap()) {
        int64_t now = NowNs();
        if (!open_loop) due = std::max(now, t0);
        ++r.offered;
        if (now - due > abort_ns) {
          ++r.abandoned;
          break;
        }
        if (now < due) {
          SleepUntilNs(due);
          now = NowNs();
        }
        r.lag.Record(static_cast<uint64_t>(now - std::max(due, free_ns)));
        bool ok = true;
        OpKind kind;
        int64_t end;
        {
          ScopedSpan op("loadgen.op", due);
          kind = senders[s]->Issue(&ok);
          end = NowNs();
        }
        free_ns = end;
        if (!ok) {
          ++r.failed;
          continue;
        }
        ++r.completed;
        r.latency[kind].Record(static_cast<uint64_t>(end - due));
        r.call[kind].Record(static_cast<uint64_t>(end - now));
        senders[s]->Check();
      }
      // Arrivals left unissued by an abort.
      if (open_loop) {
        for (due += next_gap(); due < t_end; due += next_gap()) {
          ++r.offered;
          ++r.abandoned;
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  auto total = std::make_unique<StepResult>();
  total->seconds = seconds;
  for (const auto& shard : shards) total->Merge(*shard);
  return total;
}

}  // namespace perf
}  // namespace fb

#endif  // FORKBASE_PERFBENCH_LOADGEN_H_
