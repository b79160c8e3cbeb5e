#include "wt/sim/simulator.h"

#include <utility>

#include "wt/common/macros.h"
#include "wt/obs/metrics.h"
#include "wt/obs/trace.h"
#include "wt/obs/wallclock.h"

namespace wt {

EventHandle Simulator::Schedule(SimTime delay, EventFn fn, int32_t priority) {
  WT_CHECK(delay >= SimTime::Zero()) << "negative delay";
  // int64-nanosecond time covers ~292 years; an overflowing sum or a
  // saturated conversion means the event lies beyond the clock's range —
  // it "never" happens, so it is not queued at all (the handle is inert).
  // Overflow must be detected without relying on signed wraparound (UB).
  int64_t sum = 0;
  if (__builtin_add_overflow(now_.nanos(), delay.nanos(), &sum) ||
      sum == INT64_MAX) {
    return EventHandle();
  }
  return queue_.Push(SimTime(sum), std::move(fn), priority);
}

EventHandle Simulator::ScheduleAt(SimTime t, EventFn fn, int32_t priority) {
  WT_CHECK(t >= now_) << "scheduling into the past";
  if (t == SimTime::Max()) return EventHandle();  // beyond the clock: never
  return queue_.Push(t, std::move(fn), priority);
}

bool Simulator::Step() {
  if (queue_.Empty()) return false;
  // Depth is sampled before the pop (queue_.RawSize() counts this event).
  if (obs_attached_) {
    const int64_t depth = static_cast<int64_t>(queue_.RawSize());
    if (depth > obs_depth_local_) obs_depth_local_ = depth;
  }
  auto ev = queue_.Pop();
  WT_DCHECK(ev.time >= now_);
  now_ = ev.time;
  ++events_processed_;
  ev.fn();
  return true;
}

void Simulator::Run() {
  stopped_ = false;
  if (!obs_attached_) {
    while (!stopped_ && Step()) {
    }
    return;
  }
  const SimTime sim0 = now_;
  const int64_t ev0 = events_processed_;
  const int64_t wall0 = obs::WallNanos();
  while (!stopped_ && Step()) {
  }
  FlushObs(sim0, ev0, obs::WallNanos() - wall0);
}

void Simulator::RunUntil(SimTime t_end) {
  stopped_ = false;
  WT_CHECK(t_end >= now_);
  if (!obs_attached_) {
    while (!stopped_ && !queue_.Empty() && queue_.PeekTime() <= t_end) {
      Step();
    }
    if (now_ < t_end) now_ = t_end;
    return;
  }
  const SimTime sim0 = now_;
  const int64_t ev0 = events_processed_;
  const int64_t wall0 = obs::WallNanos();
  while (!stopped_ && !queue_.Empty() && queue_.PeekTime() <= t_end) {
    Step();
  }
  if (now_ < t_end) now_ = t_end;
  FlushObs(sim0, ev0, obs::WallNanos() - wall0);
}

void Simulator::AttachDefaultObs() {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  const bool metrics_on = reg.enabled();
  const bool trace_on = obs::TraceEmitter::Default().active();
  obs_attached_ = metrics_on || trace_on;
  obs_depth_local_ = 0;
  if (metrics_on) {
    obs_events_ = reg.GetCounter("sim.events");
    obs_sim_ns_ = reg.GetCounter("sim.simulated_ns");
    obs_wall_ns_ = reg.GetCounter("sim.wall_ns");
    obs_depth_hw_ = reg.GetGauge("sim.queue_depth_high_water");
  } else {
    obs_events_ = nullptr;
    obs_sim_ns_ = nullptr;
    obs_wall_ns_ = nullptr;
    obs_depth_hw_ = nullptr;
  }
}

void Simulator::FlushObs(SimTime sim_start, int64_t events_start,
                         int64_t wall_ns) {
  const int64_t events = events_processed_ - events_start;
  if (obs_events_ != nullptr) {
    obs_events_->Add(events);
    obs_sim_ns_->Add(now_.nanos() - sim_start.nanos());
    obs_wall_ns_->Add(wall_ns);
    obs_depth_hw_->UpdateMax(obs_depth_local_);
  }
  obs::TraceEmitter& trace = obs::TraceEmitter::Default();
  if (trace.active()) {
    trace.CounterValue("sim", "sim.events", events);
    trace.CounterValue("sim", "sim.queue_depth_high_water",
                       obs_depth_local_);
  }
}

}  // namespace wt
