// In-memory span recorder for the benchmark's traced run.
//
// Spans are opened and closed by the benchmark's own code around its calls
// into each layer of the library (grid, nn, core, planner, analysis,
// linalg); nothing inside the library is instrumented. Every span records
// its parent (the innermost span open when it started) and the id of the
// spec it belongs to (-1 for set-up). Spans stay in memory until the run
// ends and are then written as Chrome trace-event JSON.
//
// Single-threaded: spans are only opened from the benchmark's main thread.
// A disabled recorder records nothing and costs one branch per span.
#pragma once

#include <chrono>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  long id = -1;
  long parent = -1;  ///< -1: top level
  long spec = -1;    ///< -1: set-up
  double start_us = 0.0;
  double end_us = 0.0;
  /// Numbers attached to the span (e.g. a result-struct split of its time).
  std::vector<std::pair<std::string, double>> args;

  double duration_ms() const { return (end_us - start_us) * 1e-3; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Closes its span on destruction. Open spans nest: a span opened while
  /// another is open becomes its child.
  class Scope {
   public:
    Scope(Tracer& tracer, std::string name, long spec);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Attaches a number to this span (no-op when tracing is off).
    void annotate(const std::string& key, double value);

   private:
    Tracer& tracer_;
    long id_ = -1;
  };

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Span duration minus the part of its interval its children cover.
  double self_ms(long id) const;

  /// Chrome trace-event JSON ("X" complete events, microsecond stamps).
  std::string chrome_json() const;

 private:
  double now_us() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<long> open_;  ///< stack of open span ids
};

}  // namespace perfbench
