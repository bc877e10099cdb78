// In-memory span recording for the traced benchmark runs.
//
// ulba_bench wraps each call it makes into a library layer in a
// span (name, start, end, parent). Spans stay in memory on their track (one
// track per rank or client thread) and are written out once, at the end, as
// Chrome trace_event JSON. A span's name is "<layer>.<call>"; the layer is
// the repository module the call enters (erosion, bsp, core, lb, runtime,
// opt, serve), and "cli.*" spans mark one whole operation.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string_view name;  ///< string literal: "<layer>.<call>"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index into the same track, -1 = top level

  [[nodiscard]] double seconds() const {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class Track {
 public:
  explicit Track(int id = 0) : id_(id) { spans_.reserve(1 << 14); }

  class Scope {
   public:
    Scope(Track& track, int index) : track_(&track), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { track_->close(index_); }

   private:
    Track* track_;
    int index_;
  };

  /// Open a span nested in the innermost open one; it closes with the Scope.
  [[nodiscard]] Scope open(std::string_view name) {
    const int index = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, now_ns(), 0, current_});
    current_ = index;
    return Scope(*this, index);
  }

  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  [[nodiscard]] const Span& back() const { return spans_.back(); }

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// Σ durations of the spans called exactly `name`, from span index `from`.
  [[nodiscard]] double total(std::string_view name,
                             std::size_t from = 0) const {
    double sum = 0.0;
    for (std::size_t i = from; i < spans_.size(); ++i)
      if (spans_[i].name == name) sum += spans_[i].seconds();
    return sum;
  }

  /// Σ self times (duration minus the child spans) of the spans called
  /// exactly `name`.
  [[nodiscard]] double self_total(std::string_view name) const {
    std::vector<double> children(spans_.size(), 0.0);
    for (const Span& s : spans_)
      if (s.parent >= 0)
        children[static_cast<std::size_t>(s.parent)] += s.seconds();
    double sum = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].name == name) sum += spans_[i].seconds() - children[i];
    return sum;
  }

  /// Time inside `cli.*` spans not covered by any layer span, in seconds.
  [[nodiscard]] double unattributed() const {
    double operation = 0.0, covered = 0.0;
    for (const Span& s : spans_) {
      if (s.name.starts_with("cli.")) {
        operation += s.seconds();
      } else if (s.parent < 0 ||
                 spans_[static_cast<std::size_t>(s.parent)].name.starts_with(
                     "cli.")) {
        covered += s.seconds();
      }
    }
    return operation - covered;
  }

 private:
  void close(int index) {
    Span& s = spans_[static_cast<std::size_t>(index)];
    s.end_ns = now_ns();
    current_ = s.parent;
  }

  int id_;
  int current_ = -1;
  std::vector<Span> spans_;
};

/// Write every track as Chrome trace_event JSON ("X" complete events).
void write_chrome_trace(const std::string& path,
                        const std::vector<const Track*>& tracks);

}  // namespace perfbench
