#include "stat/collector.hpp"

#include <gtest/gtest.h>

#include <span>
#include <thread>
#include <vector>

#include "stat/curve.hpp"
#include "support/rng.hpp"

namespace slimsim::stat {
namespace {

TEST(Collector, DrainRequiresCompleteRounds) {
    SampleCollector c(3);
    BernoulliSummary s;
    c.push(0, true);
    c.push(1, true);
    EXPECT_EQ(c.drain_rounds(s), 0u); // worker 2 has not delivered yet
    c.push(2, false);
    EXPECT_EQ(c.drain_rounds(s), 3u);
    EXPECT_EQ(s.count, 3u);
    EXPECT_EQ(s.successes, 2u);
}

TEST(Collector, DrainConsumesMultipleRounds) {
    SampleCollector c(2);
    for (int i = 0; i < 5; ++i) c.push(0, true);
    for (int i = 0; i < 3; ++i) c.push(1, false);
    BernoulliSummary s;
    EXPECT_EQ(c.drain_rounds(s), 6u); // 3 complete rounds
    EXPECT_EQ(c.buffered(), 2u);      // 2 leftover from worker 0
}

TEST(Collector, MaxRoundsLimitsConsumption) {
    SampleCollector c(2);
    for (int i = 0; i < 4; ++i) {
        c.push(0, true);
        c.push(1, true);
    }
    BernoulliSummary s;
    EXPECT_EQ(c.drain_rounds(s, 1), 2u);
    EXPECT_EQ(c.drain_rounds(s, 2), 4u);
    EXPECT_EQ(c.buffered(), 2u);
}

TEST(Collector, RoundRobinOrderIsPerWorkerFifo) {
    SampleCollector c(2);
    c.push(0, true);
    c.push(1, false);
    c.push(0, false);
    c.push(1, true);
    BernoulliSummary s;
    c.drain_rounds(s);
    EXPECT_EQ(s.count, 4u);
    EXPECT_EQ(s.successes, 2u);
}

TEST(Collector, ThreadSafety) {
    // Block producers of varying block sizes (single pushes included)
    // against a predicate-draining consumer; the TSan CI job runs this.
    SampleCollector c(4);
    std::vector<std::thread> threads;
    constexpr int kPerWorker = 10000;
    for (std::size_t w = 0; w < 4; ++w) {
        threads.emplace_back([&c, w] {
            Rng rng(w + 1);
            std::vector<TaggedSample> block;
            int sent = 0;
            std::size_t size = 1;
            while (sent < kPerWorker) {
                block.clear();
                for (std::size_t i = 0; i < size && sent < kPerWorker; ++i, ++sent) {
                    block.push_back(TaggedSample{rng.bernoulli(0.5), 0, 0.0, 1});
                }
                if (block.size() == 1) {
                    c.push(w, block.front());
                } else {
                    c.push_block(w, block);
                }
                size = size % 97 + 1;
            }
        });
    }
    BernoulliSummary s;
    std::uint64_t steps = 0;
    std::size_t consumed = 0;
    while (consumed < 4 * kPerWorker) {
        consumed += c.drain_rounds(s, nullptr, [] { return false; }, &steps);
    }
    for (auto& t : threads) t.join();
    EXPECT_EQ(s.count, 4u * kPerWorker);
    EXPECT_EQ(steps, 4u * kPerWorker);
    EXPECT_NEAR(s.mean(), 0.5, 0.02);
    const telemetry::CollectorStats st = c.stats();
    EXPECT_EQ(st.rounds, static_cast<std::uint64_t>(kPerWorker));
    EXPECT_EQ(st.accepted, 4u * kPerWorker);
    EXPECT_EQ(st.discarded, 0u);
}

TEST(Collector, PushBlockKeepsPerWorkerFifo) {
    // Step counts tag each sample with its position: worker 0 sends
    // 1..5 in two blocks, worker 1 sends 10..50 one at a time and as a
    // block. Round r must pair the r-th sample of each worker.
    SampleCollector c(2);
    const std::vector<TaggedSample> a{{true, 0, 0.0, 1}, {true, 0, 0.0, 2}, {true, 0, 0.0, 3}};
    const std::vector<TaggedSample> b{{true, 0, 0.0, 4}, {true, 0, 0.0, 5}};
    c.push_block(0, a);
    c.push(1, TaggedSample{false, 0, 0.0, 10});
    c.push_block(0, b);
    c.push_block(1, std::vector<TaggedSample>{
                        {false, 0, 0.0, 20}, {false, 0, 0.0, 30}, {false, 0, 0.0, 40}});
    c.push_block(1, std::span<const TaggedSample>{}); // empty blocks are no-ops
    c.push(1, TaggedSample{false, 0, 0.0, 50});
    EXPECT_EQ(c.buffered(), 10u);

    BernoulliSummary s;
    std::uint64_t steps = 0;
    std::vector<std::uint64_t> per_round;
    std::uint64_t before = 0;
    EXPECT_EQ(c.drain_rounds(
                  s, nullptr,
                  [&] {
                      per_round.push_back(steps - before);
                      before = steps;
                      return false;
                  },
                  &steps),
              10u);
    EXPECT_EQ(per_round, (std::vector<std::uint64_t>{11, 22, 33, 44, 55}));
    EXPECT_EQ(s.successes, 5u);
}

TEST(Collector, PredicateDrainStopsAfterTheExactRound) {
    // Five rounds buffered; done() turns true once 7 samples are in, i.e.
    // after round 3 (9 samples). Rounds 4 and 5 stay buffered for the next
    // call, and the accumulators are up to date when done() runs.
    SampleCollector c(3);
    for (std::size_t w = 0; w < 3; ++w) {
        std::vector<TaggedSample> block;
        for (int r = 0; r < 5; ++r) {
            block.push_back(TaggedSample{r % 2 == 0, static_cast<std::uint8_t>(w), 0.0, 2});
        }
        c.push_block(w, block);
    }
    BernoulliSummary s;
    std::vector<std::uint64_t> tags;
    std::uint64_t steps = 0;
    std::size_t calls = 0;
    const auto n = c.drain_rounds(
        s, &tags,
        [&] {
            ++calls;
            EXPECT_EQ(steps, 2 * s.count);
            EXPECT_EQ(tags.size(), 3u);
            return s.count >= 7;
        },
        &steps);
    EXPECT_EQ(n, 9u);
    EXPECT_EQ(calls, 3u);
    EXPECT_EQ(s.count, 9u);
    EXPECT_EQ(s.successes, 6u); // rounds 1 and 3 succeed
    EXPECT_EQ(tags, (std::vector<std::uint64_t>{3, 3, 3}));
    EXPECT_EQ(c.buffered(), 6u);
    EXPECT_EQ(c.consumed_per_worker(), (std::vector<std::uint64_t>{3, 3, 3}));

    // done() true at once still consumes exactly one round.
    EXPECT_EQ(c.drain_rounds(s, nullptr, [] { return true; }), 3u);
    EXPECT_EQ(c.drain_rounds(s, nullptr, [] { return false; }), 3u);
    EXPECT_EQ(c.drain_rounds(s, nullptr, [] { return true; }), 0u); // nothing left
    EXPECT_EQ(s.count, 15u);
}

TEST(Collector, MaxRoundsWrapperMatchesTheOldSemantics) {
    SampleCollector c(2);
    for (int i = 0; i < 5; ++i) {
        c.push(0, true);
        c.push(1, false);
    }
    BernoulliSummary s;
    EXPECT_EQ(c.drain_rounds(s, 0), 0u); // zero rounds asked, none taken
    EXPECT_EQ(c.drain_rounds(s, 2), 4u);
    EXPECT_EQ(c.drain_rounds(s, 1), 2u);
    EXPECT_EQ(c.drain_rounds(s), 4u); // the rest
    EXPECT_EQ(c.drain_rounds(s, 1), 0u);
    EXPECT_EQ(s.count, 10u);
    EXPECT_EQ(s.successes, 5u);
}

TEST(Collector, BufferedSamplesKeepEveryField) {
    // The buffers store a packed record; every field must come back intact
    // at its extremes, and step counts beyond 55 bits saturate.
    SampleCollector c(1);
    const std::uint64_t big = (std::uint64_t{1} << 55) - 1;
    c.push(0, TaggedSample{true, 255, 0.25, big});
    c.push(0, TaggedSample{false, 0, 3.5, 0});
    c.push(0, TaggedSample{false, 7, 1.0, ~std::uint64_t{0}});
    BernoulliSummary s;
    CurveSummary curve({0.5, 4.0});
    std::vector<std::uint64_t> tags;
    std::uint64_t steps = 0;
    EXPECT_EQ(c.drain_ordered(s, &curve, &tags, [] { return false; }, &steps), 3u);
    EXPECT_EQ(s.successes, 1u);
    EXPECT_EQ(steps, 2 * big);
    ASSERT_EQ(tags.size(), 256u);
    EXPECT_EQ(tags[255], 1u);
    EXPECT_EQ(tags[7], 1u);
    EXPECT_EQ(tags[0], 1u);
    EXPECT_EQ(curve.successes(0), 1u); // the success at t = 0.25
    EXPECT_EQ(curve.successes(1), 1u);
}

TEST(Collector, StatsStayConsistentAcrossDrainModes) {
    SampleCollector c(2);
    c.push_block(0, std::vector<TaggedSample>(4, TaggedSample{true}));
    c.push_block(1, std::vector<TaggedSample>(3, TaggedSample{false}));
    EXPECT_EQ(c.stats().max_buffered, 7u);
    BernoulliSummary s;
    EXPECT_EQ(c.drain_rounds(s, nullptr, [] { return false; }), 6u);
    telemetry::CollectorStats st = c.stats();
    EXPECT_EQ(st.rounds, 3u);
    EXPECT_EQ(st.accepted, 6u);
    EXPECT_EQ(st.discarded, 1u); // worker 0's fourth sample
    EXPECT_EQ(st.max_buffered, 7u);

    // Ordered draining counts a round each time the cursor wraps.
    c.push(1, TaggedSample{true});
    c.push(0, TaggedSample{true});
    EXPECT_EQ(c.drain_ordered(s, nullptr, nullptr, [] { return false; }), 3u);
    st = c.stats();
    EXPECT_EQ(st.accepted, 9u);
    EXPECT_EQ(st.rounds, 4u); // w0,w1 completes round 4; w0's extra is mid-round
    EXPECT_EQ(st.accepted, s.count);
    EXPECT_EQ(st.discarded, 0u);
}

TEST(Collector, RoundRobinEliminatesSpeedBias) {
    // Two workers sample the same Bernoulli(0.5) stream, but worker 1 only
    // delivers its *successes* early (simulating "fast paths finish first"
    // outcome-speed correlation). With first-come consumption, stopping
    // after 1000 samples is biased toward successes; with round-robin it is
    // not.
    Rng rng(77);
    const int target = 1000;

    // Build per-worker streams: worker 0 normal, worker 1 delivers failures
    // late (after all successes).
    std::vector<char> w0;
    std::vector<char> w1_success, w1_failure;
    for (int i = 0; i < 4000; ++i) {
        w0.push_back(rng.bernoulli(0.5) ? 1 : 0);
        const bool b = rng.bernoulli(0.5);
        (b ? w1_success : w1_failure).push_back(b ? 1 : 0);
    }

    // First-come: every sample counts as it arrives, so all of worker 1's
    // early (success-only) deliveries count.
    {
        BernoulliSummary s;
        std::size_t i0 = 0, i1 = 0;
        while (s.count < target) {
            // Worker 1 "races ahead" with successes.
            if (i1 < w1_success.size()) s.add(w1_success[i1++] != 0);
            if (i1 < w1_success.size()) s.add(w1_success[i1++] != 0);
            if (i0 < w0.size()) s.add(w0[i0++] != 0);
        }
        EXPECT_GT(s.mean(), 0.6); // visibly biased
    }

    // Round-robin: one sample per worker per round; worker 1's stream must
    // be consumed in its true order, so we emulate its true order here.
    {
        SampleCollector c(2);
        BernoulliSummary s;
        Rng r2(78);
        std::size_t i0 = 0;
        while (s.count < target) {
            if (i0 < w0.size()) c.push(0, w0[i0++] != 0);
            c.push(1, r2.bernoulli(0.5));
            c.drain_rounds(s);
        }
        EXPECT_NEAR(s.mean(), 0.5, 0.06);
    }
}

TEST(Collector, OrderedDrainConsumesGlobalOrderAndStopsMidRound) {
    // Three workers, two buffered samples each. done() after 4 samples: the
    // accepted prefix is (w0,r0),(w1,r0),(w2,r0),(w0,r1) — it ends mid-round.
    SampleCollector c(3);
    for (std::size_t w = 0; w < 3; ++w) {
        c.push(w, TaggedSample{w == 0, 0, 1.0});
        c.push(w, TaggedSample{true, 0, 3.0});
    }
    BernoulliSummary s;
    CurveSummary curve({2.0, 4.0});
    const auto n = c.drain_ordered(s, &curve, nullptr, [&] { return s.count >= 4; });
    EXPECT_EQ(n, 4u);
    EXPECT_EQ(s.count, 4u);
    EXPECT_EQ(s.successes, 2u); // w0 round 0 (true@1.0) + w0 round 1 (true@3.0)
    EXPECT_EQ(curve.successes(0), 1u);
    EXPECT_EQ(curve.successes(1), 2u);
    EXPECT_EQ(c.buffered(), 2u); // w1/w2 round-1 samples stay buffered
}

TEST(Collector, OrderedDrainResumesMidRoundAcrossCalls) {
    // The cursor persists: after stopping mid-round at worker 1, the next
    // call must continue with worker 1, never re-serve worker 0.
    SampleCollector c(2);
    c.push(0, TaggedSample{true, 0, 1.0});
    c.push(1, TaggedSample{false, 0, 1.0});
    BernoulliSummary s;
    CurveSummary curve({2.0});
    EXPECT_EQ(c.drain_ordered(s, &curve, nullptr, [&] { return s.count >= 1; }), 1u);
    EXPECT_EQ(s.successes, 1u); // worker 0's sample
    EXPECT_EQ(c.drain_ordered(s, &curve, nullptr, [] { return false; }), 1u);
    EXPECT_EQ(s.count, 2u);
    EXPECT_EQ(s.successes, 1u); // worker 1's failure, not a re-read of worker 0
    // A gap in the next-in-order worker stalls the drain even if others have
    // samples buffered (global order is sample r of w0, w1, then r+1 ...).
    c.push(1, TaggedSample{true, 0, 1.0});
    EXPECT_EQ(c.drain_ordered(s, &curve, nullptr, [] { return false; }), 0u);
    EXPECT_EQ(c.buffered(), 1u);
    c.push(0, TaggedSample{true, 0, 1.0});
    EXPECT_EQ(c.drain_ordered(s, &curve, nullptr, [] { return false; }), 2u);
    EXPECT_EQ(s.count, 4u);
}

} // namespace
} // namespace slimsim::stat
