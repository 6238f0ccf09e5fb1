// JSON string escaping shared by every hand-written JSON renderer.
#pragma once

#include <cstdio>
#include <string>
#include <string_view>

namespace flowdiff {

/// Escapes `text` for use inside a JSON string literal: quote, backslash,
/// \n, \r and \t get their short escapes, every other byte below 0x20 a
/// \u00XX escape, and all other bytes pass through unchanged.
inline std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace flowdiff
