#ifndef DYNAMICC_BENCH_BENCH_UTIL_H_
#define DYNAMICC_BENCH_BENCH_UTIL_H_

// Helpers shared by the serving benches (bench_sharded_throughput,
// bench_net_serving).

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

namespace dynamicc {
namespace bench {

/// Nearest-rank percentile (p in [0, 1]) of `values`, which it sorts in
/// place; 0 when empty.
inline double Percentile(std::vector<double>* values, double p) {
  if (values->empty()) return 0.0;
  std::sort(values->begin(), values->end());
  size_t index = static_cast<size_t>(p * (values->size() - 1) + 0.5);
  return (*values)[std::min(index, values->size() - 1)];
}

/// Minimal JSON emitter for benches whose output is consumed by plotting
/// or CI scripts (throughput sweeps). Handles comma placement; callers
/// keep Begin/End calls balanced. Only the types the benches need.
class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }

  JsonWriter& Key(const std::string& name) {
    MaybeComma();
    Append(name);
    out_ += ':';
    need_comma_ = false;
    return *this;
  }

  JsonWriter& Value(const std::string& text) {
    MaybeComma();
    Append(text);
    need_comma_ = true;
    return *this;
  }
  JsonWriter& Value(const char* text) { return Value(std::string(text)); }
  JsonWriter& Value(double number) {
    MaybeComma();
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.6g", number);
    out_ += buffer;
    need_comma_ = true;
    return *this;
  }
  JsonWriter& Value(size_t number) {
    MaybeComma();
    out_ += std::to_string(number);
    need_comma_ = true;
    return *this;
  }
  JsonWriter& Value(int number) {
    MaybeComma();
    out_ += std::to_string(number);
    need_comma_ = true;
    return *this;
  }
  JsonWriter& Value(bool flag) {
    MaybeComma();
    out_ += flag ? "true" : "false";
    need_comma_ = true;
    return *this;
  }

  const std::string& str() const { return out_; }

 private:
  JsonWriter& Open(char bracket) {
    MaybeComma();
    out_ += bracket;
    need_comma_ = false;
    return *this;
  }
  JsonWriter& Close(char bracket) {
    out_ += bracket;
    need_comma_ = true;
    return *this;
  }
  void MaybeComma() {
    if (need_comma_) out_ += ',';
  }
  void Append(const std::string& text) {
    out_ += '"';
    for (char c : text) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += c;
    }
    out_ += '"';
  }

  std::string out_;
  bool need_comma_ = false;
};

}  // namespace bench
}  // namespace dynamicc

#endif  // DYNAMICC_BENCH_BENCH_UTIL_H_
