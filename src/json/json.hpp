// Minimal-but-complete JSON value model, parser and writer.
//
// The crowd database stores every performance sample as a JSON document
// (matching the paper's MongoDB records), and the tuner's meta description
// is itself JSON, so the library carries its own implementation instead of
// an external dependency. The parser is a recursive-descent parser over the
// full RFC 8259 grammar (with \uXXXX escapes and surrogate pairs); the
// writer round-trips everything the parser accepts.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace gptc::json {

class Json;

/// A JSON object: its members in one vector, sorted by key (byte order) with
/// no key twice. Sorted keys make serialization deterministic, which the
/// database layer values more than insertion order; one exact-size vector
/// holds a small record's members in a single allocation, where a node-based
/// map paid one per key. Keys are probed with a string_view (binary search,
/// no temporary std::string per lookup on the query hot path).
///
/// It offers the map subset the code uses: find/count, operator[], iteration
/// over [key, value] and size/empty. Unlike std::map, inserting a key moves
/// the members after it, so references and iterators into an object do not
/// survive an insertion into it.
class Object {
 public:
  using value_type = std::pair<std::string, Json>;
  using const_iterator = std::vector<value_type>::const_iterator;

  Object() = default;
  /// Of two equal keys the first is kept, as std::map's constructor does.
  Object(std::initializer_list<value_type> items);
  /// Takes members in any order; of two equal keys the last is kept (the
  /// parser's duplicate-key rule). Keys already ascending, as the writer
  /// emits them, cost one comparison each and no reordering.
  explicit Object(std::vector<value_type> items);

  const_iterator begin() const;
  const_iterator end() const;
  std::size_t size() const;
  bool empty() const;

  const_iterator find(std::string_view key) const;
  std::size_t count(std::string_view key) const;
  /// The value at `key`, inserted as null at its sorted place when missing.
  Json& operator[](std::string_view key);

  /// Releases the capacity beyond size() that insertions left behind.
  void shrink_to_fit();

  bool operator==(const Object& other) const;

 private:
  std::vector<value_type> items_;
};

/// Thrown on parse errors (with 1-based line/column info in the message) and
/// on type mismatches in checked accessors.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A JSON value. Integers and doubles are kept distinct so that integer
/// tuning parameters survive a database round trip exactly.
class Json {
 public:
  // Member aliases (namespace-level spellings below): declared before the
  // Type enumerators so `Type::Array` never shadows the alias (-Wshadow).
  using Array = std::vector<Json>;
  using Object = json::Object;

  enum class Type { Null, Bool, Int, Double, String, Array, Object };

  Json() : value_(nullptr) {}
  Json(const Json&) = default;
  Json(Json&&) = default;
  /// Assignment is self-aliasing-safe: `doc = doc.at("child")` must work
  /// even though the right-hand side lives inside the left-hand side's
  /// storage (copy-and-swap). Defined out of line: inlined, gcc 12 reports
  /// the variant's moved-through temporary as maybe-uninitialized.
  Json& operator=(const Json& other);
  Json& operator=(Json&& other);
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(int i) : value_(static_cast<std::int64_t>(i)) {}
  Json(std::int64_t i) : value_(i) {}
  Json(std::size_t i) : value_(static_cast<std::int64_t>(i)) {}
  Json(double d) : value_(d) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(Array a) : value_(std::move(a)) {}
  Json(Object o) : value_(std::move(o)) {}

  static Json array(std::initializer_list<Json> items = {}) {
    return Json(Array(items));
  }
  static Json object(std::initializer_list<Object::value_type> items = {}) {
    return Json(Object(items));
  }

  Type type() const { return static_cast<Type>(value_.index()); }
  bool is_null() const { return type() == Type::Null; }
  bool is_bool() const { return type() == Type::Bool; }
  bool is_int() const { return type() == Type::Int; }
  bool is_double() const { return type() == Type::Double; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type() == Type::String; }
  bool is_array() const { return type() == Type::Array; }
  bool is_object() const { return type() == Type::Object; }

  /// Checked accessors: throw JsonError on type mismatch.
  bool as_bool() const;
  std::int64_t as_int() const;     // accepts Int, and Double with integral value
  double as_double() const;        // accepts Int and Double
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  /// Object element access. The const form throws JsonError if the key is
  /// missing; the mutable form inserts (like std::map) and converts a Null
  /// value to an Object first so documents can be built up incrementally.
  /// An insertion invalidates references to the object's other members.
  const Json& at(const std::string& key) const;
  Json& operator[](const std::string& key);

  /// Array element access with bounds checking.
  const Json& at(std::size_t index) const;

  /// True if this is an object containing `key`.
  bool contains(const std::string& key) const;

  /// Returns the value at `key` or `fallback` when missing/null.
  Json get_or(const std::string& key, Json fallback) const;

  /// Array/object element count; 0 for scalars.
  std::size_t size() const;

  void push_back(Json v);

  /// Structural equality. Int and Double compare equal when numerically
  /// equal (1 == 1.0), matching query semantics.
  bool operator==(const Json& other) const;

  /// Serializes. indent < 0 yields compact output; indent >= 0 pretty-prints
  /// with that many spaces per level.
  std::string dump(int indent = -1) const;

  /// Appends the compact serialization (dump()'s bytes) to `out`, so a
  /// caller can build a larger buffer without an intermediate string.
  void dump_to(std::string& out) const;

  /// Parses a complete JSON document; trailing non-whitespace is an error.
  static Json parse(std::string_view text);

 private:
  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      value_;
};

using Array = Json::Array;

// Defined here, where Json is complete.
inline Object::const_iterator Object::begin() const { return items_.begin(); }
inline Object::const_iterator Object::end() const { return items_.end(); }
inline std::size_t Object::size() const { return items_.size(); }
inline bool Object::empty() const { return items_.empty(); }

}  // namespace gptc::json
