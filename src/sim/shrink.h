// Shrinker: delta-debugging minimization of fault schedules.
//
// The chaos-soak harness finds failures under hundreds of injected wire faults;
// a reproducer that size is useless for debugging. BasicShrinker implements
// ddmin (Zeller & Hildebrandt, "Simplifying and Isolating Failure-Inducing
// Input"): given a failing schedule and a predicate that re-runs the
// deterministic simulation under a candidate subset (FaultPlan::script, or
// cluster::Topology::ApplyMachineSchedule for machine faults), it returns a
// 1-minimal subsequence — removing any single remaining event makes the
// failure vanish. Every probe is a full deterministic re-run, so the result
// replays byte-for-byte from its printed seed line (sim::FormatFaultSchedule).
//
// Shrinker minimizes fault schedules of every layer; the event type stays a
// template parameter so other replayable scripts (the noisy-neighbor soak's
// flood ops) minimize through the same machinery.
#ifndef EXO_SIM_SHRINK_H_
#define EXO_SIM_SHRINK_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

#include "sim/fault.h"

namespace exo::sim {

template <typename Event>
class BasicShrinker {
 public:
  using Schedule = std::vector<Event>;
  // Returns true when the simulation still fails under `candidate`. Must be
  // deterministic (same candidate, same verdict) — every probe is a fresh run.
  using Predicate = std::function<bool(const Schedule&)>;

  explicit BasicShrinker(Predicate still_fails) : still_fails_(std::move(still_fails)) {}

  // ddmin: requires still_fails(input); returns a 1-minimal failing subsequence
  // (event order — consultation index order — is preserved throughout).
  Schedule Minimize(Schedule input) {
    probes_ = 0;
    if (input.empty()) {
      return input;
    }

    size_t granularity = 2;
    while (input.size() >= 2) {
      const size_t n = input.size();
      granularity = std::min(granularity, n);
      const size_t chunk = (n + granularity - 1) / granularity;
      bool reduced = false;

      // Try each complement (input minus one chunk): success keeps the failure
      // with fewer events and restarts at coarse granularity on the smaller input.
      for (size_t lo = 0; lo < n; lo += chunk) {
        const size_t hi = std::min(lo + chunk, n);
        Schedule candidate = WithoutChunk(input, lo, hi);
        if (!candidate.empty() && Fails(candidate)) {
          input = std::move(candidate);
          granularity = std::max<size_t>(2, granularity - 1);
          reduced = true;
          break;
        }
      }
      if (reduced) {
        continue;
      }
      // Try each chunk alone (classic ddmin "reduce to subset").
      if (granularity > 2) {
        bool subset_fails = false;
        for (size_t lo = 0; lo < n; lo += chunk) {
          const size_t hi = std::min(lo + chunk, n);
          Schedule candidate(input.begin() + static_cast<long>(lo),
                             input.begin() + static_cast<long>(hi));
          if (candidate.size() < input.size() && Fails(candidate)) {
            input = std::move(candidate);
            granularity = 2;
            subset_fails = true;
            break;
          }
        }
        if (subset_fails) {
          continue;
        }
      }
      if (granularity >= n) {
        break;  // single-event granularity exhausted: input is 1-minimal
      }
      granularity = std::min(n, granularity * 2);
    }
    return input;
  }

  // Number of predicate probes the last Minimize spent.
  uint64_t probes() const { return probes_; }

 private:
  // The subset of `s` excluding the chunk [lo, hi).
  static Schedule WithoutChunk(const Schedule& s, size_t lo, size_t hi) {
    Schedule out;
    out.reserve(s.size() - (hi - lo));
    for (size_t i = 0; i < s.size(); ++i) {
      if (i < lo || i >= hi) {
        out.push_back(s[i]);
      }
    }
    return out;
  }

  bool Fails(const Schedule& s) {
    ++probes_;
    return still_fails_(s);
  }

  Predicate still_fails_;
  uint64_t probes_ = 0;
};

using Shrinker = BasicShrinker<FaultEvent>;

}  // namespace exo::sim

#endif  // EXO_SIM_SHRINK_H_
