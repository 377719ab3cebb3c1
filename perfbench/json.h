// Minimal flat JSON object writer for perfbench's one-line outputs.
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double value) {
    char buf[64];
    if (std::isfinite(value))
      std::snprintf(buf, sizeof(buf), "%.17g", value);
    else
      std::snprintf(buf, sizeof(buf), "null");
    return raw(key, buf);
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    return raw(key, quote(value));
  }
  /// `json` must already be valid JSON (an object, array or literal).
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "" : ",";
    body_ += quote(key) + ":" + json;
    return *this;
  }
  [[nodiscard]] std::string text() const { return "{" + body_ + "}"; }

  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out += '\\';
        out += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char esc[8];
        std::snprintf(esc, sizeof(esc), "\\u%04x", c);
        out += esc;
      } else {
        out += c;
      }
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

/// A JSON array of strings.
inline std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i)
    out += (i ? "," : "") + JsonObject::quote(items[i]);
  return out + "]";
}

}  // namespace perfbench
