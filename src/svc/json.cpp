#include "svc/json.hpp"

#include <cmath>
#include <cstdio>

#include "util/common.hpp"
#include "util/text.hpp"

namespace mps::svc {

bool Json::as_bool() const {
  MPS_ASSERT(kind_ == Kind::Bool);
  return bool_;
}

std::int64_t Json::as_int() const {
  const std::optional<std::int64_t> v = to_int();
  MPS_ASSERT(v.has_value());
  return *v;
}

std::optional<std::int64_t> Json::to_int() const {
  if (kind_ == Kind::Int) return int_;
  if (kind_ != Kind::Double || double_ != std::floor(double_)) return std::nullopt;
  // [-2^63, 2^63): both bounds are exact doubles; NaN and +-inf fail here.
  if (!(double_ >= -0x1p63 && double_ < 0x1p63)) return std::nullopt;
  return static_cast<std::int64_t>(double_);
}

double Json::as_double() const {
  if (kind_ == Kind::Int) return static_cast<double>(int_);
  MPS_ASSERT(kind_ == Kind::Double);
  return double_;
}

const std::string& Json::as_string() const {
  MPS_ASSERT(kind_ == Kind::String);
  return str_;
}

const std::vector<Json>& Json::items() const {
  MPS_ASSERT(kind_ == Kind::Array);
  return arr_;
}

void Json::push_back(Json v) {
  MPS_ASSERT(kind_ == Kind::Array);
  arr_.push_back(std::move(v));
}

const std::vector<std::pair<std::string, Json>>& Json::members() const {
  MPS_ASSERT(kind_ == Kind::Object);
  return obj_;
}

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

void Json::set(std::string key, Json v) {
  MPS_ASSERT(kind_ == Kind::Object);
  obj_.emplace_back(std::move(key), std::move(v));
}

std::int64_t Json::get_int(std::string_view key, std::int64_t fallback) const {
  const Json* v = find(key);
  return v != nullptr ? v->to_int().value_or(fallback) : fallback;
}

double Json::get_double(std::string_view key, double fallback) const {
  const Json* v = find(key);
  return v != nullptr && v->is_number() ? v->as_double() : fallback;
}

bool Json::get_bool(std::string_view key, bool fallback) const {
  const Json* v = find(key);
  return v != nullptr && v->kind() == Kind::Bool ? v->as_bool() : fallback;
}

std::string Json::get_string(std::string_view key, const std::string& fallback) const {
  const Json* v = find(key);
  return v != nullptr && v->is_string() ? v->as_string() : fallback;
}

namespace {

void dump_string(const std::string& s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\r': *out += "\\r"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += util::format("\\u%04x", c);
        } else {
          out->push_back(c);  // UTF-8 bytes pass through verbatim
        }
    }
  }
  out->push_back('"');
}

void dump_value(const Json& v, std::string* out) {
  switch (v.kind()) {
    case Json::Kind::Null: *out += "null"; break;
    case Json::Kind::Bool: *out += v.as_bool() ? "true" : "false"; break;
    case Json::Kind::Int: *out += std::to_string(v.as_int()); break;
    case Json::Kind::Double: {
      const double d = v.as_double();
      if (std::isfinite(d)) {
        std::string text = util::format("%.17g", d);
        // Keep the Double kind through a round trip: "5" would parse back
        // as an Int, so integral values must carry a decimal point.
        if (text.find_first_of(".eE") == std::string::npos) text += ".0";
        *out += text;
      } else {
        *out += "null";  // JSON has no Inf/NaN; artifacts never produce them
      }
      break;
    }
    case Json::Kind::String: dump_string(v.as_string(), out); break;
    case Json::Kind::Array: {
      out->push_back('[');
      bool first = true;
      for (const Json& item : v.items()) {
        if (!first) out->push_back(',');
        first = false;
        dump_value(item, out);
      }
      out->push_back(']');
      break;
    }
    case Json::Kind::Object: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : v.members()) {
        if (!first) out->push_back(',');
        first = false;
        dump_string(key, out);
        out->push_back(':');
        dump_value(value, out);
      }
      out->push_back('}');
      break;
    }
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json run() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw util::ParseError("JSON: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        return Json(true);
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        return Json(false);
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        return Json();
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.set(std::move(key), parse_value());
      skip_ws();
      const char next = peek();
      ++pos_;
      if (next == '}') return obj;
      if (next != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      const char next = peek();
      ++pos_;
      if (next == ']') return arr;
      if (next != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Encode as UTF-8.  Surrogate pairs are not combined — the
          // serializer only ever emits \u00xx for control characters.
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") fail("bad number");
    if (!is_double) {
      try {
        return Json(static_cast<std::int64_t>(std::stoll(token)));
      } catch (const std::exception&) {
        is_double = true;  // out of int64 range; fall through to double
      }
    }
    try {
      return Json(std::stod(token));
    } catch (const std::exception&) {
      fail("bad number '" + token + "'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string Json::dump() const {
  std::string out;
  dump_value(*this, &out);
  return out;
}

Json Json::parse(std::string_view text) { return Parser(text).run(); }

}  // namespace mps::svc
