#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace neo::sim {
namespace {

TEST(Simulator, StartsAtZero) {
    Simulator s;
    EXPECT_EQ(s.now(), 0);
    EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Simulator, EventsFireInTimeOrder) {
    Simulator s;
    std::vector<int> order;
    s.at(30, [&] { order.push_back(3); });
    s.at(10, [&] { order.push_back(1); });
    s.at(20, [&] { order.push_back(2); });
    s.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(s.now(), 30);
}

TEST(Simulator, SameTimestampFifoOrder) {
    Simulator s;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) s.at(5, [&order, i] { order.push_back(i); });
    s.run();
    for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, SameTimestampFifoOrderFromAnyLane) {
    // Per-lane sequence counters live in a NodeId-indexed table, with a map
    // for ids past its end; same-time events a node schedules run in the
    // order it scheduled them either way.
    for (NodeId owner : {NodeId{3}, NodeId{1'000}, NodeId{70'000}, NodeId{0xfffffff0u}}) {
        Simulator s;
        std::vector<int> order;
        s.at_node(1, owner, [&] {
            for (int i = 0; i < 10; ++i) s.at(5, [&order, i] { order.push_back(i); });
        });
        s.run();
        ASSERT_EQ(order.size(), 10u) << owner;
        for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i) << owner;
    }
}

TEST(Simulator, AfterSchedulesRelative) {
    Simulator s;
    Time fired = -1;
    s.at(100, [&] { s.after(50, [&] { fired = s.now(); }); });
    s.run();
    EXPECT_EQ(fired, 150);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
    Simulator s;
    int count = 0;
    std::function<void()> chain = [&] {
        if (++count < 5) s.after(10, chain);
    };
    s.after(10, chain);
    s.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(s.now(), 50);
}

TEST(Simulator, RunUntilStopsAtBoundary) {
    Simulator s;
    int fired = 0;
    s.at(10, [&] { ++fired; });
    s.at(20, [&] { ++fired; });
    s.at(30, [&] { ++fired; });
    s.run_until(20);
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(s.now(), 20);
    EXPECT_EQ(s.pending_events(), 1u);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
    Simulator s;
    s.run_until(1000);
    EXPECT_EQ(s.now(), 1000);
}

TEST(Simulator, EventAtBoundaryIncluded) {
    Simulator s;
    bool fired = false;
    s.at(100, [&] { fired = true; });
    s.run_until(100);
    EXPECT_TRUE(fired);
}

TEST(Simulator, StopHaltsRun) {
    Simulator s;
    int fired = 0;
    s.at(1, [&] {
        ++fired;
        s.stop();
    });
    s.at(2, [&] { ++fired; });
    s.run();
    EXPECT_EQ(fired, 1);
    // A subsequent run resumes.
    s.run();
    EXPECT_EQ(fired, 2);
}

TEST(Simulator, StepReturnsFalseWhenEmpty) {
    Simulator s;
    EXPECT_FALSE(s.step());
    s.at(0, [] {});
    EXPECT_TRUE(s.step());
    EXPECT_FALSE(s.step());
}

TEST(Simulator, ExecutedEventsCounter) {
    Simulator s;
    for (int i = 0; i < 7; ++i) s.at(i, [] {});
    s.run();
    EXPECT_EQ(s.executed_events(), 7u);
}

TEST(SimulatorDeath, SchedulingInPastAborts) {
    Simulator s;
    s.at(100, [] {});
    s.step();
    EXPECT_DEATH(s.at(50, [] {}), "cannot schedule an event in the past");
}

}  // namespace
}  // namespace neo::sim
