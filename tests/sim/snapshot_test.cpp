// Differential snapshot/restore tests for the simulator core.
//
// The contract under test (Simulator::snapshot/restore, backed by
// EventQueue::Snapshot): a snapshot taken at any instant, restored onto the
// SAME simulator object, replays the remaining schedule bit-identically --
// same firing times, same FIFO order among equal times, same IDs honoured
// by cancel(). The randomized differential drives events through every
// queue tier (sparse due list, all wheel levels, the far-future heap) and
// across the top-level 2^36-tick window boundary where far-heap refills
// kick in. The StateIoTest cases at the end pin the sim/state_io.hpp
// archives that the components' state() visitors stream through.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "sim/random.hpp"
#include "sim/state_io.hpp"

namespace rthv::sim {
namespace {

// One observed callback firing: virtual time plus the event's identity
// marker. Bit-identical replay means bit-identical logs.
struct Fired {
  std::int64_t ns;
  std::uint64_t marker;
  bool operator==(const Fired&) const = default;
};

// The wheels cover 2^36 ticks of 2^13 ns = 2^49 ns past the frontier;
// anything scheduled beyond that from t=0 lands in the far heap.
constexpr std::int64_t kWheelSpanNs = std::int64_t{1} << 49;

/// Schedules a randomized event population across all queue tiers and
/// returns the ids. Every callback appends (now, marker) to `log`; every
/// fourth one also chains a follow-up event (exercises scheduling from
/// inside a restored callback clone).
std::vector<EventId> populate(Simulator& s, std::vector<Fired>& log,
                              Xoshiro256& rng, std::size_t count) {
  std::vector<EventId> ids;
  ids.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t marker = rng.next();
    TimePoint t;
    switch (i % 4) {
      case 0:  // near: level-0 buckets / sparse due list
        t = TimePoint::at_us(
            static_cast<std::int64_t>(rng.uniform_int(1, 2'000)));
        break;
      case 1:  // mid: upper wheel levels (milliseconds to minutes)
        t = TimePoint::at_us(
            static_cast<std::int64_t>(rng.uniform_int(2'000, 60'000'000)));
        break;
      case 2:  // far: beyond the wheels' 2^49 ns span
        t = TimePoint::at_ns(
            kWheelSpanNs +
            static_cast<std::int64_t>(rng.uniform_int(0, std::uint64_t{1} << 48)));
        break;
      default: {  // near, and chains a follow-up when it fires
        t = TimePoint::at_us(
            static_cast<std::int64_t>(rng.uniform_int(1, 2'000)));
        const auto delay = Duration::us(
            static_cast<std::int64_t>(rng.uniform_int(1, 500)));
        ids.push_back(s.schedule_at(t, [&s, &log, marker, delay] {
          log.push_back({s.now().count_ns(), marker});
          s.schedule_after(delay, [&s, &log, marker] {
            log.push_back({s.now().count_ns(), ~marker});
          });
        }));
        continue;
      }
    }
    ids.push_back(s.schedule_at(
        t, [&s, &log, marker] { log.push_back({s.now().count_ns(), marker}); }));
  }
  return ids;
}

/// The core differential: populate, run partway, snapshot, finish recording
/// a reference log, then restore and finish twice more. All three suffix
/// logs must be bit-identical, and clocks/counters must round-trip.
void run_differential(std::uint64_t seed) {
  Simulator s;
  std::vector<Fired> log;
  Xoshiro256 rng(seed);
  auto ids = populate(s, log, rng, 120);

  // Cancel a random subset before the split so freelist state is non-trivial.
  for (const auto& id : ids) {
    if (rng.uniform_int(0, 9) == 0) s.cancel(id);
  }

  // Snapshot at a seed-dependent arbitrary instant mid-run.
  s.run_until(TimePoint::at_us(
      static_cast<std::int64_t>(rng.uniform_int(100, 5'000))));
  const auto snap = s.snapshot();
  const auto now_at_snap = s.now();
  const auto executed_at_snap = s.executed_events();
  const auto pending_at_snap = s.pending_events();

  log.clear();
  s.run();
  const std::vector<Fired> reference = log;
  const auto end_clock = s.now();
  const auto end_executed = s.executed_events();

  for (int round = 0; round < 2; ++round) {
    s.restore(snap);
    EXPECT_EQ(s.now(), now_at_snap);
    EXPECT_EQ(s.executed_events(), executed_at_snap);
    EXPECT_EQ(s.pending_events(), pending_at_snap);
    log.clear();
    s.run();
    EXPECT_EQ(log, reference) << "seed " << seed << " round " << round
                              << ": replay diverged from the first run";
    EXPECT_EQ(s.now(), end_clock);
    EXPECT_EQ(s.executed_events(), end_executed);
  }
}

TEST(SimulatorSnapshotTest, RandomizedDifferentialAcrossAllTiers) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) run_differential(seed);
}

TEST(SimulatorSnapshotTest, RoundTripAcrossTopLevelWindowBoundary) {
  // Events straddling the frontier's aligned 2^36-tick window: the ones
  // beyond it sit in the far heap at snapshot time and must be refilled
  // into the wheels identically on every replay.
  Simulator s;
  std::vector<Fired> log;
  const std::int64_t boundary = kWheelSpanNs;
  const std::array<std::int64_t, 6> times = {
      boundary - 10'000'000, boundary - 8'192,     boundary,
      boundary + 8'192,      boundary + 10'000'000, 2 * boundary + 12'345,
  };
  std::uint64_t marker = 0;
  for (const auto t : times) {
    ++marker;
    s.schedule_at(TimePoint::at_ns(t), [&s, &log, marker] {
      log.push_back({s.now().count_ns(), marker});
    });
  }

  // Snapshot while the frontier is still far below the boundary.
  s.run_until(TimePoint::at_us(100));
  const auto snap = s.snapshot();

  log.clear();
  s.run();
  const std::vector<Fired> reference = log;
  ASSERT_EQ(reference.size(), times.size());

  s.restore(snap);
  log.clear();
  s.run();
  EXPECT_EQ(log, reference);
}

TEST(SimulatorSnapshotTest, CancelStaysValidAfterRestore) {
  // EventIds from before the snapshot keep working after a restore: the
  // node generations round-trip, so a cancel lands on the same event.
  Simulator s;
  bool fired = false;
  const auto id =
      s.schedule_at(TimePoint::at_us(10), [&fired] { fired = true; });
  const auto snap = s.snapshot();

  ASSERT_TRUE(s.cancel(id));
  s.run();
  EXPECT_FALSE(fired);

  s.restore(snap);
  s.run();
  EXPECT_TRUE(fired) << "restore must revive the cancelled event";

  fired = false;
  s.restore(snap);
  EXPECT_TRUE(s.cancel(id)) << "the id must target the restored event again";
  s.run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorSnapshotTest, HeapStoredCallbacksAreClonedNotAliased) {
  // A capture larger than the inline buffer forces heap storage; the
  // snapshot must deep-copy it so running the original does not corrupt
  // the saved copy.
  Simulator s;
  std::array<std::uint64_t, 16> payload{};
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = i * 7 + 1;
  std::vector<std::uint64_t> sums;
  s.schedule_at(TimePoint::at_us(5), [payload, &sums] {
    std::uint64_t sum = 0;
    for (const auto v : payload) sum += v;
    sums.push_back(sum);
  });

  const auto snap = s.snapshot();
  s.run();
  s.restore(snap);
  s.run();
  ASSERT_EQ(sums.size(), 2u);
  EXPECT_EQ(sums[0], sums[1]);
}

TEST(SimulatorSnapshotTest, NonCopyableCallbackMakesSnapshotThrow) {
  // Move-only callables schedule fine but cannot be checkpointed; the
  // failure must be a loud logic_error at snapshot time, not a silent
  // shallow copy.
  Simulator s;
  auto owned = std::make_unique<int>(42);
  s.schedule_at(TimePoint::at_us(1), [p = std::move(owned)] { (void)*p; });
  EXPECT_THROW((void)s.snapshot(), std::logic_error);
  s.run();  // still runnable: the queue itself is unharmed
  EXPECT_TRUE(s.idle());
}

TEST(SimulatorSnapshotTest, SnapshotOfRestoredStateIsEquivalent) {
  // snapshot -> restore -> snapshot must describe the same future:
  // replaying either snapshot yields the same log.
  Simulator s;
  std::vector<Fired> log;
  Xoshiro256 rng(99);
  populate(s, log, rng, 40);
  s.run_until(TimePoint::at_us(500));

  const auto first = s.snapshot();
  s.restore(first);
  const auto second = s.snapshot();

  s.restore(first);
  log.clear();
  s.run();
  const auto from_first = log;

  s.restore(second);
  log.clear();
  s.run();
  EXPECT_EQ(log, from_first);
}

// --- state_io archives -------------------------------------------------------

// One state() visited by both archives: every vocabulary call round-trips.
struct ArchiveProbe {
  std::uint32_t narrow = 0;
  bool flag = false;
  TimePoint at;
  std::vector<std::int64_t> vec;
  std::deque<std::uint64_t> ring;
  std::array<std::uint16_t, 3> span{};
  std::optional<Duration> maybe;
  std::size_t slots = 2;

  template <class Ar>
  void state(Ar& ar) {
    ar(narrow, flag, at);
    ar.vec(vec);
    ar.vec(ring);
    ar.span(span.data(), span.size());
    ar.opt(maybe);
    ar.expect(slots, "probe slot count");
  }
};

TEST(StateIoTest, OneStateFunctionRoundTripsEveryVocabularyCall) {
  ArchiveProbe a;
  a.narrow = 0xFFFF'FFFFu;
  a.flag = true;
  a.at = TimePoint::at_us(7);
  a.vec = {-1, 2, 3};
  a.ring = {4, 5};
  a.span = {6, 7, 8};
  a.maybe = Duration::ns(9);
  const std::vector<std::uint64_t> words = save_words(a);
  // Sub-word fields occupy zero-padded words: the narrow field reads back
  // as the word 0xFFFF'FFFF, a bool as 1.
  EXPECT_EQ(words[0], 0xFFFF'FFFFu);
  EXPECT_EQ(words[1], 1u);

  ArchiveProbe b;
  b.maybe.reset();
  b.vec = {42};
  load_words(words, b, "ArchiveProbe");
  EXPECT_EQ(b.narrow, a.narrow);
  EXPECT_EQ(b.flag, a.flag);
  EXPECT_EQ(b.at, a.at);
  EXPECT_EQ(b.vec, a.vec);
  EXPECT_EQ(b.ring, a.ring);
  EXPECT_EQ(b.span, a.span);
  EXPECT_EQ(b.maybe, a.maybe);
}

TEST(StateIoTest, ExpectMismatchAndLeftoverWordsThrowLogicError) {
  ArchiveProbe a;
  std::vector<std::uint64_t> words = save_words(a);
  ArchiveProbe other;
  other.slots = 3;
  EXPECT_THROW(load_words(words, other, "ArchiveProbe"), std::logic_error);
  words.push_back(0);
  ArchiveProbe same;
  EXPECT_THROW(load_words(words, same, "ArchiveProbe"), std::logic_error);
}

TEST(StateIoTest, TruncatedStreamThrowsOutOfRange) {
  ArchiveProbe a;
  a.vec = {1, 2, 3};
  std::vector<std::uint64_t> words = save_words(a);
  words.resize(4);
  ArchiveProbe b;
  EXPECT_THROW(load_words(words, b, "ArchiveProbe"), std::out_of_range);
}

TEST(StateIoTest, VectorCountBeyondStreamThrowsBeforeResizing) {
  // A corrupted length word larger than max_size(): the reader must reject
  // it against the words left instead of handing it to resize().
  const std::vector<std::uint64_t> words{std::numeric_limits<std::uint64_t>::max()};
  StateReader r(words);
  std::vector<std::uint64_t> v;
  EXPECT_THROW(r.vec(v), std::out_of_range);
  EXPECT_TRUE(v.empty());
}

}  // namespace
}  // namespace rthv::sim
