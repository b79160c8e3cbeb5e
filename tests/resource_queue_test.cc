// Tests for the FCFS resource queue used by the performance simulation.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "wt/obs/metrics.h"
#include "wt/workload/resource_queue.h"

namespace wt {
namespace {

TEST(ResourceQueueTest, SingleServerSerializes) {
  Simulator sim;
  ResourceQueue q(&sim, 1, "disk");
  std::vector<double> done;
  for (int i = 0; i < 3; ++i) {
    q.Submit(1.0, [&] { done.push_back(sim.Now().seconds()); });
  }
  EXPECT_EQ(q.busy_servers(), 1);
  EXPECT_EQ(q.queue_length(), 2u);
  sim.Run();
  ASSERT_EQ(done.size(), 3u);
  EXPECT_NEAR(done[0], 1.0, 1e-9);
  EXPECT_NEAR(done[1], 2.0, 1e-9);
  EXPECT_NEAR(done[2], 3.0, 1e-9);
  EXPECT_EQ(q.completed(), 3);
}

TEST(ResourceQueueTest, MultiServerRunsConcurrently) {
  Simulator sim;
  ResourceQueue q(&sim, 3, "cpu");
  std::vector<double> done;
  for (int i = 0; i < 3; ++i) {
    q.Submit(1.0, [&] { done.push_back(sim.Now().seconds()); });
  }
  sim.Run();
  for (double t : done) EXPECT_NEAR(t, 1.0, 1e-9);
}

TEST(ResourceQueueTest, FcfsOrder) {
  Simulator sim;
  ResourceQueue q(&sim, 1, "disk");
  std::vector<int> order;
  q.Submit(1.0, [&] { order.push_back(0); });
  q.Submit(0.1, [&] { order.push_back(1); });  // short job still waits
  q.Submit(0.1, [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

// Waiting jobs live in a ring that starts at 8 slots and doubles when full.
// Draining part of it moves the head, so later submissions wrap around the
// end, and the last refill grows the ring while it is wrapped.
TEST(ResourceQueueTest, FcfsOrderSurvivesRingGrowthAndWrapAround) {
  Simulator sim;
  ResourceQueue q(&sim, 1, "disk");
  std::vector<int> order;
  std::vector<double> done_at;
  int next_id = 0;
  auto submit = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const int id = next_id++;
      q.Submit(1.0, [&, id] {
        order.push_back(id);
        done_at.push_back(sim.Now().seconds());
      });
    }
  };
  submit(10);  // one in service, 9 waiting: the ring grows past 8
  EXPECT_EQ(q.queue_length(), 9u);
  sim.RunUntil(SimTime::Seconds(6.5));  // 6 done, 3 waiting
  EXPECT_EQ(q.queue_length(), 3u);
  submit(12);  // 15 waiting: wraps around the end of the ring
  EXPECT_EQ(q.queue_length(), 15u);
  sim.RunUntil(SimTime::Seconds(12.5));  // 12 done, 9 waiting
  EXPECT_EQ(q.queue_length(), 9u);
  submit(10);  // 19 waiting: the wrapped ring grows
  EXPECT_EQ(q.queue_length(), 19u);
  sim.Run();

  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(order[static_cast<size_t>(i)], i);
    EXPECT_NEAR(done_at[static_cast<size_t>(i)], i + 1.0, 1e-9);
  }
  EXPECT_EQ(q.queue_length(), 0u);
  EXPECT_EQ(q.completed(), 32);
}

// Servers finish in service-time order, not submit order, and a job that
// waited takes over whichever server freed first; every callback must
// still fire once, for its own job, at its own completion time.
TEST(ResourceQueueTest, MultiServerCompletionsArriveOutOfSubmitOrder) {
  Simulator sim;
  ResourceQueue q(&sim, 2, "cpu");
  std::vector<int> order;
  std::vector<double> done_at;
  const double service[] = {3.0, 1.0, 0.5, 2.0, 0.25};
  for (int id = 0; id < 5; ++id) {
    q.Submit(service[id], [&, id] {
      order.push_back(id);
      done_at.push_back(sim.Now().seconds());
    });
  }
  EXPECT_EQ(q.busy_servers(), 2);
  EXPECT_EQ(q.queue_length(), 3u);
  sim.Run();
  // Job 0 holds one server for [0, 3). The other serves 1 over [0, 1),
  // 2 over [1, 1.5) and 3 over [1.5, 3.5); 4 waits for job 0's server and
  // runs over [3, 3.25).
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0, 4, 3}));
  const std::vector<double> expected = {1.0, 1.5, 3.0, 3.25, 3.5};
  ASSERT_EQ(done_at.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(done_at[i], expected[i], 1e-9) << "completion " << i;
  }
  EXPECT_EQ(q.busy_servers(), 0);
}

// The queue owns a job's callback until it fires, then destroys it: a
// shared_ptr captured by a running or waiting job is released right after
// that job's completion, not when the queue or the simulator goes away.
TEST(ResourceQueueTest, OnDoneCapturesAreDestroyedOnceFired) {
  Simulator sim;
  ResourceQueue q(&sim, 1, "nic");
  auto token = std::make_shared<int>(0);
  q.Submit(1.0, [token] { ++*token; });  // in service
  q.Submit(1.0, [token] { ++*token; });  // waiting
  EXPECT_EQ(token.use_count(), 3);
  sim.RunUntil(SimTime::Seconds(1.5));
  EXPECT_EQ(*token, 1);
  EXPECT_EQ(token.use_count(), 2);
  sim.Run();
  EXPECT_EQ(*token, 2);
  EXPECT_EQ(token.use_count(), 1);
}

// A callback may submit to its own queue: the slot it fired from is
// already free for the new job.
TEST(ResourceQueueTest, OnDoneMayResubmitToSameQueue) {
  Simulator sim;
  ResourceQueue q(&sim, 1, "disk");
  int remaining = 5;
  std::vector<double> done_at;
  struct Chain {
    ResourceQueue* q;
    Simulator* sim;
    int* remaining;
    std::vector<double>* done_at;
    void operator()() const {
      done_at->push_back(sim->Now().seconds());
      if (--*remaining > 0) q->Submit(1.0, *this);
    }
  };
  q.Submit(1.0, Chain{&q, &sim, &remaining, &done_at});
  sim.Run();
  EXPECT_EQ(done_at, (std::vector<double>{1.0, 2.0, 3.0, 4.0, 5.0}));
  EXPECT_EQ(q.completed(), 5);
}

TEST(ResourceQueueTest, UtilizationTracksLoad) {
  Simulator sim;
  ResourceQueue q(&sim, 1, "disk");
  q.Submit(3.0, nullptr);
  sim.Run();
  // Busy 3 s of 3 s.
  EXPECT_NEAR(q.Utilization(sim.Now()), 1.0, 1e-9);
  // Idle 3 more seconds: utilization halves.
  EXPECT_NEAR(q.Utilization(SimTime::Seconds(6.0)), 0.5, 1e-9);
}

TEST(ResourceQueueTest, MeanQueueLength) {
  Simulator sim;
  ResourceQueue q(&sim, 1, "disk");
  q.Submit(1.0, nullptr);
  q.Submit(1.0, nullptr);  // waits 1 s
  sim.Run();
  // One waiter for 1 s over a 2 s horizon = 0.5.
  EXPECT_NEAR(q.MeanQueueLength(sim.Now()), 0.5, 1e-9);
}

TEST(ResourceQueueTest, PerfFactorStretchesService) {
  Simulator sim;
  ResourceQueue q(&sim, 1, "nic");
  q.SetPerfFactor(0.1);
  double done_at = -1;
  q.Submit(1.0, [&] { done_at = sim.Now().seconds(); });
  sim.Run();
  EXPECT_NEAR(done_at, 10.0, 1e-9);
}

TEST(ResourceQueueTest, PerfRestoredMidStream) {
  Simulator sim;
  ResourceQueue q(&sim, 1, "nic");
  q.SetPerfFactor(0.5);
  std::vector<double> done;
  q.Submit(1.0, [&] { done.push_back(sim.Now().seconds()); });  // 2 s
  sim.Schedule(SimTime::Seconds(2.0), [&] {
    q.SetPerfFactor(1.0);
    q.Submit(1.0, [&] { done.push_back(sim.Now().seconds()); });  // 1 s
  });
  sim.Run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 2.0, 1e-9);
  EXPECT_NEAR(done[1], 3.0, 1e-9);
}

TEST(ResourceQueueTest, ZeroServiceCompletesImmediately) {
  Simulator sim;
  ResourceQueue q(&sim, 1, "cpu");
  int completed = 0;
  for (int i = 0; i < 100; ++i) q.Submit(0.0, [&] { ++completed; });
  sim.Run();
  EXPECT_EQ(completed, 100);
  EXPECT_DOUBLE_EQ(sim.Now().seconds(), 0.0);
}

TEST(ResourceQueueTest, WaitTimesFlushToMetricsOnDestruction) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  reg.ResetValues();
  reg.set_enabled(true);
  {
    Simulator sim;
    ResourceQueue q(&sim, 1, "disk");
    // Three 1 s jobs on one server: waits of 0, 1, and 2 simulated seconds.
    for (int i = 0; i < 3; ++i) q.Submit(1.0, [] {});
    sim.Run();
  }  // dtor merges the local histogram into "rq.wait_ms"
  const obs::MetricsSnapshot snap = reg.Snapshot();
  reg.set_enabled(false);

  const obs::MetricsSnapshotEntry* wait = snap.Find("rq.wait_ms");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->value, 3);
  // Simulated milliseconds: mean of {0, 1000, 2000} at bucket resolution.
  EXPECT_NEAR(wait->mean, 1000.0, 1000.0 * 0.04);
  EXPECT_NEAR(wait->max, 2000.0, 2000.0 * 0.04);
  reg.ResetValues();
}

TEST(ResourceQueueTest, WaitHistogramUntouchedWhenMetricsDisabled) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Default();
  reg.ResetValues();
  {
    Simulator sim;
    ResourceQueue q(&sim, 1, "disk");
    for (int i = 0; i < 3; ++i) q.Submit(1.0, [] {});
    sim.Run();
  }
  reg.set_enabled(true);
  const obs::MetricsSnapshot snap = reg.Snapshot();
  reg.set_enabled(false);
  const obs::MetricsSnapshotEntry* wait = snap.Find("rq.wait_ms");
  // Never observed, never paid: nothing recorded while disabled.
  if (wait != nullptr) {
    EXPECT_EQ(wait->value, 0);
  }
}

}  // namespace
}  // namespace wt
