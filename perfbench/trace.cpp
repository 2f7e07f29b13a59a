#include "trace.hpp"

#include <algorithm>
#include <charconv>
#include <cstddef>

namespace perfbench {

namespace {

std::string number(double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out + "\"";
}

}  // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, std::string name, long spec)
    : tracer_(tracer) {
  if (!tracer_.enabled_) {
    return;
  }
  SpanRecord rec;
  rec.name = std::move(name);
  rec.id = static_cast<long>(tracer_.spans_.size());
  rec.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  rec.spec = spec;
  id_ = rec.id;
  tracer_.spans_.push_back(std::move(rec));
  tracer_.open_.push_back(id_);
  // Stamp last so the bookkeeping above is outside the span.
  tracer_.spans_.back().start_us = tracer_.now_us();
}

Tracer::Scope::~Scope() {
  if (id_ < 0) {
    return;
  }
  tracer_.spans_[static_cast<std::size_t>(id_)].end_us = tracer_.now_us();
  tracer_.open_.pop_back();
}

void Tracer::Scope::annotate(const std::string& key, double value) {
  if (id_ >= 0) {
    tracer_.spans_[static_cast<std::size_t>(id_)].args.emplace_back(key,
                                                                    value);
  }
}

double Tracer::self_ms(long id) const {
  const SpanRecord& span = spans_[static_cast<std::size_t>(id)];
  std::vector<std::pair<double, double>> kids;
  for (const SpanRecord& s : spans_) {
    if (s.parent == id) {
      kids.emplace_back(std::max(s.start_us, span.start_us),
                        std::min(s.end_us, span.end_us));
    }
  }
  std::sort(kids.begin(), kids.end());
  double covered = 0.0;
  double reach = span.start_us;
  for (const auto& [lo, hi] : kids) {
    const double from = std::max(lo, reach);
    if (hi > from) {
      covered += hi - from;
      reach = hi;
    }
  }
  return (span.end_us - span.start_us - covered) * 1e-3;
}

std::string Tracer::chrome_json() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out += i == 0 ? "\n" : ",\n";
    out += "{\"name\":" + quoted(s.name) + ",\"cat\":" +
           quoted(s.name.substr(0, s.name.find('.'))) +
           ",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" + number(s.start_us) +
           ",\"dur\":" + number(s.end_us - s.start_us) +
           ",\"args\":{\"span_id\":" + number(static_cast<double>(s.id)) +
           ",\"parent\":" + number(static_cast<double>(s.parent)) +
           ",\"spec\":" + number(static_cast<double>(s.spec)) +
           ",\"self_ms\":" + number(self_ms(s.id));
    for (const auto& [key, value] : s.args) {
      out += "," + quoted(key) + ":" + number(value);
    }
    out += "}}";
  }
  return out + "\n]}\n";
}

}  // namespace perfbench
