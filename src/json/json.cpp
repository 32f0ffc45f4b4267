#include "json/json.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <iterator>

namespace gptc::json {

namespace {

const char* type_name(Json::Type t) {
  switch (t) {
    case Json::Type::Null: return "null";
    case Json::Type::Bool: return "bool";
    case Json::Type::Int: return "int";
    case Json::Type::Double: return "double";
    case Json::Type::String: return "string";
    case Json::Type::Array: return "array";
    case Json::Type::Object: return "object";
  }
  return "?";
}

[[noreturn]] void type_error(const char* want, Json::Type got) {
  throw JsonError(std::string("expected ") + want + ", got " +
                  type_name(got));
}

bool key_less(const Object::value_type& member, std::string_view key) {
  return std::string_view(member.first) < key;
}

}  // namespace

// ---------------------------------------------------------------------------
// Object

Object::Object(std::initializer_list<value_type> items) {
  items_.reserve(items.size());
  for (const auto& [key, value] : items)
    if (count(key) == 0) (*this)[key] = value;
}

Object::Object(std::vector<value_type> items) : items_(std::move(items)) {
  const auto not_ascending = [](const value_type& a, const value_type& b) {
    return !(a.first < b.first);
  };
  if (std::adjacent_find(items_.begin(), items_.end(), not_ascending) ==
      items_.end())
    return;
  // A stable sort leaves equal keys in input order, so the last of each run
  // is the one to keep.
  std::stable_sort(items_.begin(), items_.end(),
                   [](const value_type& a, const value_type& b) {
                     return a.first < b.first;
                   });
  auto out = items_.begin();
  for (auto it = items_.begin(); it != items_.end(); ++it) {
    const auto next = std::next(it);
    if (next != items_.end() && next->first == it->first) continue;
    if (out != it) *out = std::move(*it);
    ++out;
  }
  if (out == items_.end()) return;
  items_.erase(out, items_.end());
  items_.shrink_to_fit();
}

Object::const_iterator Object::find(std::string_view key) const {
  const auto it = std::lower_bound(items_.begin(), items_.end(), key, key_less);
  return it != items_.end() && it->first == key ? it : items_.end();
}

std::size_t Object::count(std::string_view key) const {
  return find(key) == end() ? 0 : 1;
}

Json& Object::operator[](std::string_view key) {
  const auto it = std::lower_bound(items_.begin(), items_.end(), key, key_less);
  if (it != items_.end() && it->first == key) return it->second;
  return items_.emplace(it, std::string(key), Json())->second;
}

void Object::shrink_to_fit() { items_.shrink_to_fit(); }

bool Object::operator==(const Object& other) const {
  return items_ == other.items_;
}

// ---------------------------------------------------------------------------
// Json

Json& Json::operator=(const Json& other) {
  auto tmp = other.value_;
  value_ = std::move(tmp);
  return *this;
}

Json& Json::operator=(Json&& other) {
  auto tmp = std::move(other.value_);
  value_ = std::move(tmp);
  return *this;
}

bool Json::as_bool() const {
  if (auto* b = std::get_if<bool>(&value_)) return *b;
  type_error("bool", type());
}

std::int64_t Json::as_int() const {
  if (auto* i = std::get_if<std::int64_t>(&value_)) return *i;
  if (auto* d = std::get_if<double>(&value_)) {
    if (std::nearbyint(*d) == *d && std::abs(*d) < 9.0e18)
      return static_cast<std::int64_t>(*d);
  }
  type_error("int", type());
}

double Json::as_double() const {
  if (auto* d = std::get_if<double>(&value_)) return *d;
  if (auto* i = std::get_if<std::int64_t>(&value_))
    return static_cast<double>(*i);
  type_error("number", type());
}

const std::string& Json::as_string() const {
  if (auto* s = std::get_if<std::string>(&value_)) return *s;
  type_error("string", type());
}

const Array& Json::as_array() const {
  if (auto* a = std::get_if<Array>(&value_)) return *a;
  type_error("array", type());
}

Array& Json::as_array() {
  if (auto* a = std::get_if<Array>(&value_)) return *a;
  type_error("array", type());
}

const Object& Json::as_object() const {
  if (auto* o = std::get_if<Object>(&value_)) return *o;
  type_error("object", type());
}

Object& Json::as_object() {
  if (auto* o = std::get_if<Object>(&value_)) return *o;
  type_error("object", type());
}

const Json& Json::at(const std::string& key) const {
  const auto& obj = as_object();
  auto it = obj.find(key);
  if (it == obj.end()) throw JsonError("missing key: " + key);
  return it->second;
}

Json& Json::operator[](const std::string& key) {
  if (is_null()) value_ = Object{};
  return as_object()[key];
}

const Json& Json::at(std::size_t index) const {
  const auto& arr = as_array();
  if (index >= arr.size()) throw JsonError("array index out of range");
  return arr[index];
}

bool Json::contains(const std::string& key) const {
  if (!is_object()) return false;
  return as_object().count(key) > 0;
}

Json Json::get_or(const std::string& key, Json fallback) const {
  if (!is_object()) return fallback;
  auto it = as_object().find(key);
  if (it == as_object().end() || it->second.is_null()) return fallback;
  return it->second;
}

std::size_t Json::size() const {
  if (is_array()) return as_array().size();
  if (is_object()) return as_object().size();
  return 0;
}

void Json::push_back(Json v) {
  if (is_null()) value_ = Array{};
  as_array().push_back(std::move(v));
}

bool Json::operator==(const Json& other) const {
  // Numeric cross-type comparison: 1 == 1.0.
  if (is_number() && other.is_number()) {
    if (is_int() && other.is_int())
      return std::get<std::int64_t>(value_) ==
             std::get<std::int64_t>(other.value_);
    return as_double() == other.as_double();
  }
  return value_ == other.value_;
}

// ---------------------------------------------------------------------------
// Writer

namespace {

/// True for the bytes a JSON string cannot hold raw: '"', '\\' and the
/// control characters below 0x20.
bool needs_escape(unsigned char c) { return c < 0x20 || c == '"' || c == '\\'; }

void write_escaped(const std::string& s, std::string& out) {
  out += '"';
  // Runs without escapes are appended in bulk, one append per run.
  std::size_t run = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (!needs_escape(c)) continue;
    out.append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      }
    }
  }
  out.append(s, run, s.size() - run);
  out += '"';
}

void write_int(std::int64_t v, std::string& out) {
  std::array<char, 24> buf{};
  const auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), v);
  (void)ec;  // 24 bytes hold every int64
  out.append(buf.data(), ptr);
}

void write_double(double d, std::string& out) {
  if (!std::isfinite(d)) {
    // JSON has no Inf/NaN; the database stores failed evaluations as null,
    // but guard serialization anyway.
    out += "null";
    return;
  }
  std::array<char, 32> buf{};
  auto [ptr, ec] = std::to_chars(buf.data(), buf.data() + buf.size(), d);
  (void)ec;
  std::string_view sv(buf.data(), static_cast<std::size_t>(ptr - buf.data()));
  out += sv;
  // Ensure a double stays a double on re-parse.
  if (sv.find_first_of(".eE") == std::string_view::npos) out += ".0";
}

void dump_impl(const Json& j, int indent, int depth, std::string& out) {
  const auto newline_pad = [&](int d) {
    if (indent >= 0) {
      out += '\n';
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  switch (j.type()) {
    case Json::Type::Null: out += "null"; break;
    case Json::Type::Bool: out += j.as_bool() ? "true" : "false"; break;
    case Json::Type::Int: write_int(j.as_int(), out); break;
    case Json::Type::Double: write_double(j.as_double(), out); break;
    case Json::Type::String: write_escaped(j.as_string(), out); break;
    case Json::Type::Array: {
      const auto& arr = j.as_array();
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i) out += ',';
        newline_pad(depth + 1);
        dump_impl(arr[i], indent, depth + 1, out);
      }
      newline_pad(depth);
      out += ']';
      break;
    }
    case Json::Type::Object: {
      const auto& obj = j.as_object();
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      bool first = true;
      for (const auto& [k, v] : obj) {
        if (!first) out += ',';
        first = false;
        newline_pad(depth + 1);
        write_escaped(k, out);
        out += indent >= 0 ? ": " : ":";
        dump_impl(v, indent, depth + 1, out);
      }
      newline_pad(depth);
      out += '}';
      break;
    }
  }
}

}  // namespace

std::string Json::dump(int indent) const {
  std::string out;
  dump_impl(*this, indent, 0, out);
  return out;
}

void Json::dump_to(std::string& out) const { dump_impl(*this, -1, 0, out); }

// ---------------------------------------------------------------------------
// Parser

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& msg) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw JsonError("JSON parse error at line " + std::to_string(line) +
                    ", column " + std::to_string(col) + ": " + msg);
  }

  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos_;
      else
        break;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (next() != c) fail(std::string("expected '") + c + "'");
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Json(Object());
    }
    // Members are appended in text order to a stack that nested objects
    // share; the finished object moves its slice into one exact-size
    // vector, and Object sorts it only if the keys came out of order.
    const auto base = static_cast<std::ptrdiff_t>(members_.size());
    while (true) {
      skip_ws();
      if (peek() != '"') fail("expected string key");
      std::string key = parse_string();
      skip_ws();
      expect(':');
      Json value = parse_value();
      members_.emplace_back(std::move(key), std::move(value));
      skip_ws();
      const char c = next();
      if (c == '}') break;
      if (c != ',') fail("expected ',' or '}' in object");
    }
    std::vector<Object::value_type> items(
        std::make_move_iterator(members_.begin() + base),
        std::make_move_iterator(members_.end()));
    members_.erase(members_.begin() + base, members_.end());
    return Json(Object(std::move(items)));
  }

  Json parse_array() {
    expect('[');
    Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(arr));
    }
    while (true) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = next();
      if (c == ']') break;
      if (c != ',') fail("expected ',' or ']' in array");
    }
    return Json(std::move(arr));
  }

  void append_utf8(std::uint32_t cp, std::string& out) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::uint32_t parse_hex4() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = next();
      v <<= 4;
      if (c >= '0' && c <= '9')
        v |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f')
        v |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F')
        v |= static_cast<std::uint32_t>(c - 'A' + 10);
      else
        fail("invalid \\u escape");
    }
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      // Runs without escapes are appended in bulk, one append per run.
      const std::size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\' &&
             static_cast<unsigned char>(text_[pos_]) >= 0x20)
        ++pos_;
      out.append(text_, run, pos_ - run);
      const char c = next();
      if (c == '"') break;
      if (c != '\\') fail("unescaped control character in string");
      const char e = next();
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t cp = parse_hex4();
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a low surrogate must follow.
            if (next() != '\\' || next() != 'u')
              fail("unpaired UTF-16 surrogate");
            const std::uint32_t lo = parse_hex4();
            if (lo < 0xDC00 || lo > 0xDFFF) fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            fail("unpaired UTF-16 surrogate");
          }
          append_utf8(cp, out);
          break;
        }
        default: fail("invalid escape character");
      }
    }
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_])))
      fail("invalid number");
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_double = true;
      ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        fail("digit expected after decimal point");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (pos_ >= text_.size() ||
          !std::isdigit(static_cast<unsigned char>(text_[pos_])))
        fail("digit expected in exponent");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_])))
        ++pos_;
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (!is_double) {
      std::int64_t iv = 0;
      auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), iv);
      if (ec == std::errc() && p == tok.data() + tok.size()) return Json(iv);
      // Integer overflow: fall through to double.
    }
    double dv = 0.0;
    auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), dv);
    if (ec != std::errc() || p != tok.data() + tok.size())
      fail("invalid number");
    return Json(dv);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::vector<Object::value_type> members_;  // open objects' members
};

}  // namespace

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

}  // namespace gptc::json
