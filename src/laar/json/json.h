#ifndef LAAR_JSON_JSON_H_
#define LAAR_JSON_JSON_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "laar/common/result.h"
#include "laar/common/status.h"

namespace laar::json {

class Value;

/// The elements of an array value. The header and the elements share one
/// allocation, so a `[pe, replica]` pair is one 40-byte allocation. Its size
/// is fixed by the owning `Value` (`Append`); elements are mutable in place.
class Array {
 public:
  Array(const Array&) = delete;
  Array& operator=(const Array&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Value* begin();
  Value* end();
  const Value* begin() const;
  const Value* end() const;
  Value& operator[](size_t i);
  const Value& operator[](size_t i) const;

 private:
  friend class Value;
  friend class Parser;

  Array() = default;
  /// An empty array with room for `capacity` elements.
  static Array* New(size_t capacity);
  /// Destroys the elements and frees the block.
  static void Delete(Array* array);
  /// Requires size() < capacity.
  void PushBack(Value&& value);
  Value* data();
  const Value* data() const;

  uint32_t size_ = 0;
  uint32_t capacity_ = 0;
};

/// The members of an object value, sorted by key in `std::map<std::string>`
/// order with unique keys.
using Object = std::vector<std::pair<std::string, Value>>;

/// A JSON document node (null / bool / number / string / array / object).
///
/// The paper's HAController is "customized with the path to a JSON file
/// describing the replica activation strategy" (§5.1); LAAR therefore ships
/// a small self-contained JSON model with a serializer and a strict
/// recursive-descent parser. Numbers are stored as doubles (JSON has a
/// single number type); integer accessors validate losslessness.
///
/// A value is 16 bytes: a type tag and a payload. Bools and numbers live in
/// the payload; strings, arrays and objects live out of line, owned by the
/// value (copy is deep, move is a 16-byte swap). An empty array or object
/// allocates nothing.
class Value {
 public:
  enum class Type : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  /// Constructs null.
  Value() : type_(Type::kNull), number_(0.0) {}
  Value(const Value& other);
  Value(Value&& other) noexcept : type_(other.type_) {
    std::memcpy(&number_, &other.number_, sizeof(number_));  // the whole payload
    other.type_ = Type::kNull;
  }
  Value& operator=(const Value& other);
  Value& operator=(Value&& other) noexcept;
  ~Value() {
    if (type_ >= Type::kString) Release();
  }

  static Value Null() { return Value(); }
  static Value Bool(bool b);
  static Value Number(double d);
  static Value Int(int64_t i);
  static Value String(std::string s);
  static Value MakeArray();
  static Value MakeObject();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Checked accessors; return an error status on type mismatch.
  Result<bool> AsBool() const;
  Result<double> AsDouble() const;
  Result<int64_t> AsInt() const;
  Result<std::string> AsString() const;

  /// Unchecked accessors. On another type they return false, 0, or a shared
  /// empty string, array or object, so readers may skip the type check.
  bool bool_value() const { return type_ == Type::kBool && bool_; }
  double number_value() const { return type_ == Type::kNumber ? number_ : 0.0; }
  const std::string& string_value() const;
  Array& array();
  const Array& array() const;
  const Object& object() const;

  /// Object field lookup; error when not an object or key absent.
  Result<const Value*> Get(std::string_view key) const;
  /// Object field lookup with a default when the key is absent.
  const Value& GetOr(std::string_view key, const Value& fallback) const;
  bool Has(std::string_view key) const;
  /// Object field lookup; null when not an object or key absent.
  const Value* Find(std::string_view key) const;
  Value* Find(std::string_view key);

  /// Object/array mutation. Null becomes an empty object (Set) or array
  /// (Append); on any other mismatched type the call does nothing (asserts
  /// in debug builds: callers build documents they control). Set replaces
  /// an existing key.
  void Set(std::string key, Value value);
  void Append(Value value);
  /// Removes `key`; returns whether it was present.
  bool Erase(std::string_view key);

  /// Serializes this value. `indent` < 0 means compact single-line output.
  std::string Dump(int indent = -1) const;

 private:
  friend class Parser;

  void Release();
  void DumpTo(std::string* out, int indent, int depth) const;

  Type type_;
  union {
    bool bool_;
    double number_;
    std::string* string_;
    Array* array_;    // null when empty
    Object* object_;  // null when empty
  };
};

inline Value* Array::data() { return reinterpret_cast<Value*>(this + 1); }
inline const Value* Array::data() const { return reinterpret_cast<const Value*>(this + 1); }
inline Value* Array::begin() { return data(); }
inline Value* Array::end() { return data() + size_; }
inline const Value* Array::begin() const { return data(); }
inline const Value* Array::end() const { return data() + size_; }
inline Value& Array::operator[](size_t i) { return data()[i]; }
inline const Value& Array::operator[](size_t i) const { return data()[i]; }

/// Parses a complete JSON document. Trailing non-whitespace is an error, as
/// are numbers that overflow a double. Duplicate object keys: the last wins.
Result<Value> Parse(std::string_view text);

/// Reads and parses a JSON file.
Result<Value> ParseFile(const std::string& path);

/// Writes `value` to `path` (pretty-printed with two-space indent).
Status WriteFile(const Value& value, const std::string& path);

}  // namespace laar::json

#endif  // LAAR_JSON_JSON_H_
