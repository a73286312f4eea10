// Flat word-stream checkpoint archives.
//
// Snapshots are consumed by the process that produced them (fork-and-mutate
// hunting, warm-start pools, differential replay tests), never persisted
// across builds, so the format is deliberately dumb: a vector of 64-bit
// words, PODs memcpy'd into zeroed 8-byte units.
//
// Every checkpointed component declares its state once, in the cereal /
// Boost.Serialization style:
//
//   template <class Ar>
//   void state(Ar& ar) {
//     ar(count_, last_);            // trivially copyable fields, in order
//     ar.vec(history_);             // length-prefixed POD sequence
//     ar.expect(slots_.size(), "slot count");  // structural, never restored
//     for (auto& s : slots_) ar(s);  // nested components visit their state()
//   }
//
// StateWriter and StateReader both visit that one function, so the writer
// and the reader cannot disagree on order or coverage. Direction-specific
// code inside state() is limited to post-load fix-ups under
// `if constexpr (Ar::kLoading)` that make no archive call.
//
// The vocabulary (identical in both archives):
//   ar(x, ...)          trivially copyable x: ceil(sizeof(x)/8) words;
//                       a component with state(Ar&): visits it;
//                       a polymorphic component: its virtual visit(ar)
//                       entry (preferred when present), which forwards to
//                       the dynamic type's state().
//   ar.vec(c)           length word, then each POD of a vector/deque.
//   ar.span(p, n)       n PODs at p, no length word.
//   ar.opt(o)           presence word, then the POD when present.
//   ar.expect(n, what)  a structural count or presence word: the writer
//                       emits n, the reader throws std::logic_error naming
//                       `what` when the stream holds a different value.
//
// The reader checks everything it reads: an underrun (including a length
// word larger than the words left) throws std::out_of_range, and
// finish()/load_words() throw std::logic_error on unconsumed words, in
// every build mode.
#pragma once

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace rthv::sim {

namespace detail {
template <typename T>
inline constexpr std::size_t kWordsOf = (sizeof(T) + 7) / 8;

template <typename T>
void check_pod() {
  static_assert(std::is_trivially_copyable_v<T>,
                "archive: a field must be trivially copyable or define state(Ar&)");
}
}  // namespace detail

class StateWriter {
 public:
  static constexpr bool kLoading = false;

  /// The archive's entry point: takes const references and casts the
  /// constness away once here, so state() is one non-const function for
  /// both directions. Writer instantiations of state() only read.
  template <typename... Ts>
  void operator()(const Ts&... xs) {
    (visit(const_cast<Ts&>(xs)), ...);
  }

  template <typename C>
  void vec(const C& c) {
    words_.push_back(c.size());
    if constexpr (requires { c.data(); }) {
      span(c.data(), c.size());
    } else {
      for (const auto& e : c) pod(e);
    }
  }

  template <typename T>
  void span(const T* p, std::size_t n) {
    detail::check_pod<T>();
    if constexpr (sizeof(T) % 8 == 0) {
      // Word-multiple elements pack with no per-element padding, so the whole
      // span is one memcpy instead of a per-element word loop. Same stream
      // layout as the element-wise path; only the copy is batched.
      const std::size_t base = words_.size();
      words_.resize(base + n * (sizeof(T) / 8));
      if (n > 0) std::memcpy(words_.data() + base, p, n * sizeof(T));
    } else {
      for (std::size_t i = 0; i < n; ++i) pod(p[i]);
    }
  }

  template <typename T>
  void opt(const std::optional<T>& o) {
    words_.push_back(o.has_value() ? 1u : 0u);
    if (o) pod(*o);
  }

  void expect(std::uint64_t n, const char* /*what*/) { words_.push_back(n); }

  [[nodiscard]] std::vector<std::uint64_t> take() { return std::move(words_); }

 private:
  template <typename T>
  void visit(T& x) {
    if constexpr (requires { x.visit(*this); }) {
      x.visit(*this);
    } else if constexpr (requires { x.state(*this); }) {
      x.state(*this);
    } else {
      pod(x);
    }
  }

  template <typename T>
  void pod(const T& v) {
    detail::check_pod<T>();
    std::array<std::uint64_t, detail::kWordsOf<T>> tmp{};
    std::memcpy(tmp.data(), &v, sizeof(T));
    for (std::uint64_t w : tmp) words_.push_back(w);
  }

  std::vector<std::uint64_t> words_;
};

class StateReader {
 public:
  static constexpr bool kLoading = true;

  explicit StateReader(const std::vector<std::uint64_t>& words) : words_(&words) {}

  template <typename... Ts>
  void operator()(Ts&... xs) {
    (visit(xs), ...);
  }

  /// Bounds the length word by the words left before resizing, so a
  /// corrupted count throws instead of allocating.
  template <typename C>
  void vec(C& c) {
    using T = typename C::value_type;
    const std::uint64_t n = next();
    if (n > remaining() / detail::kWordsOf<T>) underrun();
    c.resize(static_cast<std::size_t>(n));
    if constexpr (requires { c.data(); }) {
      span(c.data(), c.size());
    } else {
      for (auto& e : c) pod(e);
    }
  }

  template <typename T>
  void span(T* p, std::size_t n) {
    detail::check_pod<T>();
    if constexpr (sizeof(T) % 8 == 0) {
      const std::size_t words = n * (sizeof(T) / 8);
      if (words > remaining()) underrun();
      if (n > 0) std::memcpy(static_cast<void*>(p), words_->data() + pos_, n * sizeof(T));
      pos_ += words;
    } else {
      for (std::size_t i = 0; i < n; ++i) pod(p[i]);
    }
  }

  template <typename T>
  void opt(std::optional<T>& o) {
    o.reset();
    if (next() != 0) pod(o.emplace());
  }

  void expect(std::uint64_t n, const char* what) {
    if (next() != n) {
      throw std::logic_error(std::string("snapshot restore: ") + what +
                             " differs from the snapshot's");
    }
  }

  /// Throws std::logic_error naming `what` unless every word was consumed:
  /// a stream longer than its reader is as wrong as a short one.
  void finish(const char* what) const {
    if (pos_ != words_->size()) {
      throw std::logic_error(std::string(what) + ": snapshot stream not fully consumed");
    }
  }

 private:
  template <typename T>
  void visit(T& x) {
    if constexpr (requires { x.visit(*this); }) {
      x.visit(*this);
    } else if constexpr (requires { x.state(*this); }) {
      x.state(*this);
    } else {
      pod(x);
    }
  }

  template <typename T>
  void pod(T& v) {
    detail::check_pod<T>();
    constexpr std::size_t kWords = detail::kWordsOf<T>;
    if (kWords > remaining()) underrun();
    // The void* cast silences -Wclass-memaccess for trivially copyable
    // types with user-provided constructors (Duration, TimePoint).
    std::memcpy(static_cast<void*>(&v), words_->data() + pos_, sizeof(T));
    pos_ += kWords;
  }

  std::uint64_t next() {
    if (pos_ >= words_->size()) underrun();
    return (*words_)[pos_++];
  }

  [[nodiscard]] std::size_t remaining() const { return words_->size() - pos_; }

  [[noreturn]] static void underrun() {
    throw std::out_of_range("StateReader: snapshot stream underrun");
  }

  const std::vector<std::uint64_t>* words_;
  std::size_t pos_ = 0;
};

/// Writes `x` (anything StateWriter's operator() accepts) to a fresh stream.
template <typename T>
[[nodiscard]] std::vector<std::uint64_t> save_words(const T& x) {
  StateWriter w;
  w(x);
  return w.take();
}

/// Restores `x` from a save_words() stream; throws std::logic_error naming
/// `what` when the stream is longer than x's state.
template <typename T>
void load_words(const std::vector<std::uint64_t>& words, T& x, const char* what) {
  StateReader r(words);
  r(x);
  r.finish(what);
}

}  // namespace rthv::sim
