// EventHeap: pop order against a sorted reference, and the lifetime of the
// callbacks it keeps in its slab (run in place, destroyed exactly once,
// never run from a reused slot).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "sim/packet.hpp"
#include "sim/simulator.hpp"

namespace neo::sim {
namespace {

using detail::EventHeap;
using detail::EventKey;

using KeyTuple = std::tuple<Time, std::uint64_t, std::uint64_t>;

KeyTuple tuple_of(const EventKey& k) { return {k.t, k.lane, k.seq}; }

/// Counts how often a live callback carrying it was destroyed, in a counter
/// of its own (callbacks may be destroyed on PDES worker threads).
/// Moved-from probes do not count: only the destruction of the closure a
/// slot (or the caller) actually owns does.
struct Probe {
    std::atomic<int>* destroyed;
    bool live = true;

    explicit Probe(std::atomic<int>* d) : destroyed(d) {}
    Probe(Probe&& o) noexcept : destroyed(o.destroyed), live(o.live) { o.live = false; }
    Probe(const Probe&) = delete;
    ~Probe() {
        if (live) destroyed->fetch_add(1);
    }
};

int count_destroyed(const std::vector<std::atomic<int>>& counters) {
    int n = 0;
    for (const auto& c : counters) n += c.load() != 0;
    return n;
}

TEST(EventHeap, RandomInterleavedPopOrderMatchesSortedKeys) {
    EventHeap heap;
    std::set<KeyTuple> reference;
    Rng rng(2024);
    std::uint64_t next_seq = 0;
    std::size_t popped = 0;
    int last_run = -1;
    std::map<int, KeyTuple> key_of;  // callback id -> the key it was pushed with
    // Phases alternate push-heavy and pop-heavy, so the live count sweeps up
    // to 10^4 and back down; few times and lanes force ties on both.
    for (int phase = 0; phase < 6; ++phase) {
        const bool grow = phase % 2 == 0;
        for (int op = 0; op < 12'000; ++op) {
            const bool do_push =
                heap.empty() || (heap.size() < 10'000 && rng.uniform(4) < (grow ? 3u : 1u));
            if (do_push) {
                EventKey k{static_cast<Time>(rng.uniform(64)), rng.uniform(5), next_seq++};
                const int id = static_cast<int>(k.seq);
                key_of[id] = tuple_of(k);
                reference.insert(tuple_of(k));
                heap.push(k, static_cast<NodeId>(k.lane), [&last_run, id] { last_run = id; });
                continue;
            }
            ASSERT_FALSE(reference.empty());
            const KeyTuple expect = *reference.begin();
            reference.erase(reference.begin());
            ASSERT_EQ(tuple_of(heap.top_key()), expect);
            heap.pop_run([&](const EventKey& key, NodeId owner, EventFn& fn) {
                EXPECT_EQ(tuple_of(key), expect);
                EXPECT_EQ(owner, static_cast<NodeId>(key.lane));
                fn();
            });
            ASSERT_EQ(key_of.at(last_run), expect) << "callback of another event ran";
            ++popped;
        }
        EXPECT_EQ(heap.size(), reference.size());
    }
    EXPECT_GT(popped, 20'000u);
    while (!heap.empty()) {
        const KeyTuple expect = *reference.begin();
        reference.erase(reference.begin());
        heap.pop_run([&](const EventKey& key, NodeId, EventFn& fn) {
            EXPECT_EQ(tuple_of(key), expect);
            fn();
        });
        ASSERT_EQ(key_of.at(last_run), expect);
    }
    EXPECT_TRUE(reference.empty());
}

TEST(EventHeap, EveryClosureDestroyedExactlyOncePoppedOrPending) {
    constexpr int kEvents = 2'000;
    std::vector<std::atomic<int>> destroyed(kEvents);
    std::set<int> ran;
    {
        EventHeap heap;
        for (int i = 0; i < kEvents; ++i) {
            EventKey k{static_cast<Time>((i * 7919) % 97), 0, static_cast<std::uint64_t>(i)};
            heap.push(k, 0, [p = Probe(&destroyed[static_cast<std::size_t>(i)]), &ran, i] {
                ran.insert(i);
            });
        }
        for (int i = 0; i < kEvents / 2; ++i) {
            const int before = count_destroyed(destroyed);
            heap.pop_run([&](const EventKey&, NodeId, EventFn& fn) {
                fn();
                // Still in its slot while running: not destroyed yet.
                EXPECT_EQ(count_destroyed(destroyed), before);
            });
            // Destroyed as soon as pop_run returns.
            EXPECT_EQ(count_destroyed(destroyed), before + 1);
        }
        EXPECT_EQ(ran.size(), static_cast<std::size_t>(kEvents / 2));
    }  // the other half is still pending here
    for (int i = 0; i < kEvents; ++i) {
        EXPECT_EQ(destroyed[static_cast<std::size_t>(i)].load(), 1) << "closure " << i;
    }
}

TEST(EventHeap, PendingClosuresDestroyedOnceWithTheSimulator) {
    constexpr int kEvents = 600;
    for (unsigned threads : {1u, 2u}) {
        std::vector<std::atomic<int>> destroyed(kEvents);
        std::atomic<int> ran{0};
        {
            Simulator sim(threads);
            sim.set_lookahead(10);
            for (int i = 0; i < kEvents; ++i) {
                auto fire = [p = Probe(&destroyed[static_cast<std::size_t>(i)]), &ran] {
                    ran.fetch_add(1);
                };
                if (i % 3 == 0) {
                    sim.at(static_cast<Time>(i), std::move(fire));  // global queue
                } else {
                    sim.at_node(static_cast<Time>(i), static_cast<NodeId>(i % 5), std::move(fire));
                }
            }
            sim.run_until(kEvents / 2 - 1);
            EXPECT_EQ(ran.load(), kEvents / 2);
            EXPECT_EQ(count_destroyed(destroyed), kEvents / 2);
        }
        for (int i = 0; i < kEvents; ++i) {
            EXPECT_EQ(destroyed[static_cast<std::size_t>(i)].load(), 1)
                << "closure " << i << ", threads=" << threads;
        }
    }
}

TEST(EventHeap, CapturedPacketReleasedAtPop) {
    Simulator sim;
    Packet pkt{Bytes(64, 0x5a)};
    long during = 0;
    sim.at(10, [pkt, &during] { during = pkt.use_count(); });
    sim.at(20, [] {});
    EXPECT_EQ(pkt.use_count(), 2);
    ASSERT_TRUE(sim.step());
    EXPECT_EQ(during, 2);
    // The executed closure (and its refcount) is gone before the next event
    // runs, not when the queue drains.
    EXPECT_EQ(pkt.use_count(), 1);
    EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(EventHeap, ReusedSlotNeverRunsAStaleCallback) {
    EventHeap heap;
    std::vector<int> runs;
    std::uint64_t seq = 0;
    auto push = [&](Time t, int id) {
        heap.push(EventKey{t, 0, seq++}, 0, [&runs, id] { runs.push_back(id); });
    };
    auto pop = [&] {
        heap.pop_run([](const EventKey&, NodeId, EventFn& fn) { fn(); });
    };
    // Free and reuse slots many times over: every pop must run exactly the
    // callback pushed for the popped key.
    for (int round = 0; round < 1'000; ++round) {
        push(round, 2 * round);
        push(round, 2 * round + 1);
        pop();
        pop();
    }
    ASSERT_EQ(runs.size(), 2'000u);
    for (int i = 0; i < 2'000; ++i) EXPECT_EQ(runs[static_cast<std::size_t>(i)], i);
    EXPECT_TRUE(heap.empty());
}

TEST(EventHeap, RunningCallbackStaysPutWhilePushingGrowsTheSlab) {
    // A callback runs from its slot; pushing thousands of events from inside
    // it grows the slab by whole chunks, which must not move the running
    // closure (ASan would flag a use of a relocated capture).
    EventHeap heap;
    std::uint64_t seq = 0;
    int inner_runs = 0;
    auto big = std::make_shared<std::vector<int>>(1'000, 7);
    heap.push(EventKey{0, 0, seq++}, 0, [] {});
    heap.pop_run([](const EventKey&, NodeId, EventFn& fn) { fn(); });  // frees slot 0
    heap.push(EventKey{1, 0, seq++}, 0, [&heap, &seq, &inner_runs, big] {
        for (int i = 0; i < 5'000; ++i) {
            heap.push(EventKey{2, 0, seq++}, 0, [&inner_runs] { ++inner_runs; });
        }
        EXPECT_EQ(big->size(), 1'000u);
        EXPECT_EQ((*big)[999], 7);
    });
    heap.pop_run([](const EventKey&, NodeId, EventFn& fn) { fn(); });
    EXPECT_EQ(big.use_count(), 1);
    EXPECT_EQ(heap.size(), 5'000u);
    while (!heap.empty()) heap.pop_run([](const EventKey&, NodeId, EventFn& fn) { fn(); });
    EXPECT_EQ(inner_runs, 5'000);
}

}  // namespace
}  // namespace neo::sim
