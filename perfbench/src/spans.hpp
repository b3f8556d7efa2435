// In-memory span recorder for the benchmark's own calls into the
// simulator: each span has a name, a parent, and host start/end times.
// Spans are kept in memory and written out once, as Chrome-tracing JSON,
// when the run ends.
#pragma once

#include <chrono>
#include <cstddef>
#include <ostream>
#include <string>
#include <vector>

#include "telemetry/json_writer.hpp"

namespace perfbench {

class SpanRecorder {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr int kNoParent = -1;

  SpanRecorder() : origin_(Clock::now()) {}

  /// Open a span and return its id.
  int begin(std::string name, int parent = kNoParent) {
    spans_.push_back(Span{std::move(name), parent, Clock::now(), {}});
    return static_cast<int>(spans_.size() - 1);
  }
  /// Close span `id` and return its duration in seconds.
  double end(int id) {
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end = Clock::now();
    return seconds(id);
  }
  [[nodiscard]] double seconds(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return std::chrono::duration<double>(s.end - s.start).count();
  }

  /// Complete ("X") events on one track, timestamps in microseconds
  /// since the recorder was created; each event names its parent span.
  void write_chrome_json(std::ostream& out) const {
    mhrp::telemetry::JsonWriter json(out);
    json.begin_object();
    json.key("traceEvents");
    json.begin_array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      json.begin_object();
      json.key("name");
      json.value(s.name);
      json.key("ph");
      json.value("X");
      json.key("pid");
      json.value(1);
      json.key("tid");
      json.value(1);
      json.key("ts");
      json.value(micros(s.start));
      json.key("dur");
      json.value(micros(s.end) - micros(s.start));
      json.key("args");
      json.begin_object();
      json.key("id");
      json.value(static_cast<std::int64_t>(i));
      json.key("parent");
      json.value(s.parent);
      json.end_object();
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }

 private:
  struct Span {
    std::string name;
    int parent = kNoParent;
    Clock::time_point start;
    Clock::time_point end;
  };

  [[nodiscard]] double micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
