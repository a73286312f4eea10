// Seeded snapshot-coverage fixtures. Each intentional violation carries a
// `rthv-lint-expect:` annotation; the classes without annotations prove the
// rule stays quiet on covered, waived, helper-inlined and #if-guarded
// members, and on post-load fix-ups that make no archive call.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace fix {

// Minimal stand-in for sim::StateWriter / sim::StateReader: both archives
// visit the same state() function.
struct Archive {
  static constexpr bool kLoading = true;
  template <class... Ts>
  void operator()(Ts&... /*fields*/) {}
  void expect(std::uint64_t /*n*/, const char* /*what*/) {}
};

// A data member the state() visitor never references.
class Missed {
 public:
  template <class Ar>
  void state(Ar& ar) {
    ar(a_, b_);
  }

 private:
  std::uint64_t a_ = 0;
  std::uint64_t b_ = 0;
  std::uint64_t forgotten_ = 0;  // rthv-lint-expect: snapshot-coverage
};

// The writer/reader order mismatch the old paired code allowed cannot be
// written any more: one function lists the members once, for both
// directions. Nothing to report.
class OneVisitorOneOrder {
 public:
  template <class Ar>
  void state(Ar& ar) {
    ar(x_, y_);
  }

 private:
  std::uint64_t x_ = 0;
  std::uint64_t y_ = 0;
};

// A transient waiver without a reason is itself a violation.
class EmptyReason {
 public:
  template <class Ar>
  void state(Ar& ar) {
    ar(kept_);
  }

 private:
  std::uint64_t kept_ = 0;
  std::uint64_t cache_ = 0;  // lint: transient()  rthv-lint-expect: snapshot-coverage
};

// An archive call inside a load-only branch: the reader consumes a word the
// writer never emitted.
class LoadOnlyArchiveCall {
 public:
  template <class Ar>
  void state(Ar& ar) {
    ar(size_);
    if constexpr (Ar::kLoading) {
      ar(extra_);  // rthv-lint-expect: snapshot-coverage
    }
  }

 private:
  std::uint64_t size_ = 0;
  std::uint64_t extra_ = 0;
};

// Clean: helper-method bodies are inlined into the coverage analysis, a
// post-load fix-up without archive calls is allowed, a reasoned transient
// waiver excludes wiring, template members and an #if-guarded member
// round-trip normally, and a reference member is exempt by type.
class CleanHelper {
 public:
  template <class Ar>
  void state(Ar& ar) {
    counters(ar);
    ar.expect(pairs_.size(), "pair count");
    if constexpr (Ar::kLoading) {
      cursor_ = 0;
    }
#if defined(FIX_EXTRA)
    ar(extra_);
#endif
  }

 private:
  template <class Ar>
  void counters(Ar& ar) {
    ar(count_);
  }

  std::uint64_t count_ = 0;
  std::vector<std::pair<int, int>> pairs_;
  std::uint64_t cursor_ = 0;
  void (*hook_)() = nullptr;  // lint: transient(owner wiring, re-established at assembly)
  Archive& sink_;
#if defined(FIX_EXTRA)
  std::uint64_t extra_ = 0;
#endif

 public:
  explicit CleanHelper(Archive& sink) : sink_(sink) {}
};

// The visitor is defined out of line (see snapshot_fixtures.cpp); the
// member missed there is still reported here, at its declaration.
class OutOfLine {
 public:
  template <class Ar>
  void state(Ar& ar);

 private:
  std::uint64_t covered_ = 0;
  std::uint64_t skipped_ = 0;  // rthv-lint-expect: snapshot-coverage
};

// Whole-object snapshot()/restore() pair (the event queue / simulator
// shape, no word stream): a member must appear in both bodies.
class WholeObjectPair {
 public:
  struct Snapshot {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
  };
  [[nodiscard]] Snapshot snapshot() const { return Snapshot{a_, b_}; }
  void restore(const Snapshot& s) { a_ = s.a; }

 private:
  std::uint64_t a_ = 0;
  std::uint64_t b_ = 0;  // rthv-lint-expect: snapshot-coverage
};

}  // namespace fix
