#include "trace.h"

#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

double NowS() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return t;
  // user nice system idle iowait irq softirq steal
  double field = 0.0;
  for (int i = 0; i < 8 && (in >> field); ++i) {
    t.total += field;
    if (i == 7) t.steal = field;
  }
  return t;
}

double StealShare(const CpuTimes& from, const CpuTimes& to) {
  const double total = to.total - from.total;
  return total > 0.0 ? (to.steal - from.steal) / total : 0.0;
}

int64_t Tracer::Begin(const std::string& name, int64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  if (span.request < 0 && span.parent >= 0) {
    span.request = spans_[static_cast<size_t>(span.parent)].request;
  }
  span.name = name;
  span.start_s = NowS();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::End(int64_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_s = NowS();
  // Spans close in LIFO order (ScopedSpan); tolerate a mismatch by
  // unwinding to the closed span.
  while (!open_.empty()) {
    const int64_t top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

bool Tracer::Write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "[" << s.id << "," << s.parent << "," << s.request << ","
        << JsonString(s.name) << "," << JsonNumber(s.start_s) << ","
        << JsonNumber(s.end_s) << "]" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  out.flush();
  return static_cast<bool>(out);
}

Tracer& GlobalTracer() {
  static Tracer tracer;
  return tracer;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += JsonString(key) + ": ";
}

JsonObject& JsonObject::Num(const std::string& key, double value) {
  Key(key);
  body_ += JsonNumber(value);
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += JsonString(value);
  return *this;
}

JsonObject& JsonObject::Nums(const std::string& key,
                             const std::vector<double>& values) {
  Key(key);
  body_ += "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) body_ += ",";
    body_ += JsonNumber(values[i]);
  }
  body_ += "]";
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

JsonObject& JsonObject::Map(const std::string& key,
                            const std::map<std::string, double>& values) {
  JsonObject inner;
  for (const auto& [k, v] : values) inner.Num(k, v);
  return Raw(key, inner.str());
}

}  // namespace perfbench
