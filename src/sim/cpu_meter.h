// CpuMeter: models one CPU's occupancy for event-driven (non-fiber) code.
//
// Protocol stacks and servers in the HTTP experiments are I/O-driven: work arrives
// with packets, consumes CPU, and emits packets. Instead of advancing the global
// clock (which would serialize unrelated machines), each operation occupies this
// machine's CPU from max(now, busy_until) for its cost; its effects are scheduled at
// the completion time. Utilization (busy/elapsed) is how the paper reports Cheetah's
// 30% idle CPU at 100-KB documents (Sec. 7.3).
#ifndef EXO_SIM_CPU_METER_H_
#define EXO_SIM_CPU_METER_H_

#include "sim/engine.h"
#include "trace/trace.h"

namespace exo::sim {

class CpuMeter {
 public:
  explicit CpuMeter(Engine* engine) : engine_(engine) {}

  // Occupies the CPU for `cost` cycles; returns the completion time.
  Cycles Occupy(Cycles cost) {
    Cycles start = engine_->now() > busy_until_ ? engine_->now() : busy_until_;
    busy_until_ = start + cost;
    total_busy_ += cost;
    if (tracer_ != nullptr && tracer_->enabled(trace::Category::kSched) && cost > 0) {
      // Occupancy windows are serialized (start >= previous busy_until), so
      // these spans never overlap on the track.
      tracer_->Begin(trace::Category::kSched, trace_track_, "busy", start, cost);
      tracer_->End(trace::Category::kSched, trace_track_, "busy", busy_until_, cost);
    }
    return busy_until_;
  }

  // Attaches a tracer; each Occupy emits a `sched` busy span onto `track`.
  void SetTracer(trace::Tracer* tracer, uint32_t track) {
    tracer_ = tracer;
    trace_track_ = track;
  }

  Cycles busy_until() const { return busy_until_; }
  Cycles total_busy() const { return total_busy_; }

  // Fraction of [since, now] the CPU spent busy (clamped to 1).
  double Utilization(Cycles since) const {
    Cycles elapsed = engine_->now() - since;
    if (elapsed == 0) {
      return 0.0;
    }
    double u = static_cast<double>(total_busy_) / static_cast<double>(elapsed);
    return u > 1.0 ? 1.0 : u;
  }

 private:
  Engine* engine_;
  Cycles busy_until_ = 0;
  Cycles total_busy_ = 0;
  trace::Tracer* tracer_ = nullptr;
  uint32_t trace_track_ = 0;
};

}  // namespace exo::sim

#endif  // EXO_SIM_CPU_METER_H_
