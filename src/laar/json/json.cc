#include "laar/json/json.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <new>
#include <sstream>

#include "laar/common/strings.h"

namespace laar::json {

static_assert(sizeof(Array) % alignof(Value) == 0, "elements follow the header");

namespace {

/// The index of the first member whose key is not below `key`, in
/// std::map<std::string, Value> key order, compared without a temporary.
size_t LowerBound(const Object& members, std::string_view key) {
  return static_cast<size_t>(
      std::lower_bound(members.begin(), members.end(), key,
                       [](const Object::value_type& member, std::string_view k) {
                         return std::string_view(member.first) < k;
                       }) -
      members.begin());
}

}  // namespace

Array* Array::New(size_t capacity) {
  if (capacity > std::numeric_limits<uint32_t>::max()) throw std::bad_alloc();
  Array* array = new (::operator new(sizeof(Array) + capacity * sizeof(Value))) Array();
  array->capacity_ = static_cast<uint32_t>(capacity);
  return array;
}

void Array::Delete(Array* array) {
  for (Value& element : *array) element.~Value();
  ::operator delete(array);
}

void Array::PushBack(Value&& value) {
  new (end()) Value(std::move(value));
  ++size_;
}

Value::Value(const Value& other) : type_(other.type_) {
  switch (type_) {
    case Type::kString:
      string_ = new std::string(*other.string_);
      return;
    case Type::kArray:
      array_ = nullptr;
      if (other.array_ != nullptr) {
        array_ = Array::New(other.array_->size());
        for (const Value& element : *other.array_) array_->PushBack(Value(element));
      }
      return;
    case Type::kObject:
      object_ = other.object_ == nullptr ? nullptr : new Object(*other.object_);
      return;
    default:
      std::memcpy(&number_, &other.number_, sizeof(number_));
  }
}

Value& Value::operator=(const Value& other) {
  if (this != &other) *this = Value(other);
  return *this;
}

Value& Value::operator=(Value&& other) noexcept {
  if (this != &other) {
    // `other` may live inside this value: detach it before releasing.
    Value taken(std::move(other));
    if (type_ >= Type::kString) Release();
    type_ = taken.type_;
    std::memcpy(&number_, &taken.number_, sizeof(number_));
    taken.type_ = Type::kNull;
  }
  return *this;
}

void Value::Release() {
  switch (type_) {
    case Type::kString:
      delete string_;
      break;
    case Type::kArray:
      if (array_ != nullptr) Array::Delete(array_);
      break;
    case Type::kObject:
      delete object_;
      break;
    default:
      break;
  }
  type_ = Type::kNull;
}

Value Value::Bool(bool b) {
  Value v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

Value Value::Number(double d) {
  Value v;
  v.type_ = Type::kNumber;
  v.number_ = d;
  return v;
}

Value Value::Int(int64_t i) { return Number(static_cast<double>(i)); }

Value Value::String(std::string s) {
  Value v;
  v.type_ = Type::kString;
  v.string_ = new std::string(std::move(s));
  return v;
}

Value Value::MakeArray() {
  Value v;
  v.type_ = Type::kArray;
  v.array_ = nullptr;
  return v;
}

Value Value::MakeObject() {
  Value v;
  v.type_ = Type::kObject;
  v.object_ = nullptr;
  return v;
}

Result<bool> Value::AsBool() const {
  if (!is_bool()) return Status::InvalidArgument("JSON value is not a bool");
  return bool_;
}

Result<double> Value::AsDouble() const {
  if (!is_number()) return Status::InvalidArgument("JSON value is not a number");
  return number_;
}

Result<int64_t> Value::AsInt() const {
  if (!is_number()) return Status::InvalidArgument("JSON value is not a number");
  const double rounded = std::nearbyint(number_);
  if (rounded != number_ || std::abs(number_) > 9.007199254740992e15) {
    return Status::InvalidArgument(StrFormat("JSON number %g is not an exact integer", number_));
  }
  return static_cast<int64_t>(rounded);
}

Result<std::string> Value::AsString() const {
  if (!is_string()) return Status::InvalidArgument("JSON value is not a string");
  return *string_;
}

const std::string& Value::string_value() const {
  static const std::string empty;
  return is_string() ? *string_ : empty;
}

Array& Value::array() {
  static Array empty;  // size 0 forever: Array cannot grow itself
  return is_array() && array_ != nullptr ? *array_ : empty;
}

const Array& Value::array() const { return const_cast<Value*>(this)->array(); }

const Object& Value::object() const {
  static const Object empty;
  return is_object() && object_ != nullptr ? *object_ : empty;
}

const Value* Value::Find(std::string_view key) const {
  const Object& members = object();
  const size_t i = LowerBound(members, key);
  return i < members.size() && members[i].first == key ? &members[i].second : nullptr;
}

Value* Value::Find(std::string_view key) {
  return const_cast<Value*>(static_cast<const Value*>(this)->Find(key));
}

Result<const Value*> Value::Get(std::string_view key) const {
  if (!is_object()) return Status::InvalidArgument("JSON value is not an object");
  const Value* found = Find(key);
  if (found == nullptr) {
    return Status::NotFound(StrFormat("missing JSON key '%.*s'",
                                      static_cast<int>(key.size()), key.data()));
  }
  return found;
}

const Value& Value::GetOr(std::string_view key, const Value& fallback) const {
  const Value* found = Find(key);
  return found == nullptr ? fallback : *found;
}

bool Value::Has(std::string_view key) const { return Find(key) != nullptr; }

void Value::Set(std::string key, Value value) {
  if (type_ == Type::kNull) *this = MakeObject();
  assert(is_object() && "Set on a non-object JSON value");
  if (!is_object()) return;
  if (object_ == nullptr) object_ = new Object();
  Object& members = *object_;
  // Builders often insert in key order: append without a search then.
  const size_t i = members.empty() || members.back().first < key
                       ? members.size()
                       : LowerBound(members, key);
  if (i < members.size() && members[i].first == key) {
    members[i].second = std::move(value);
  } else {
    members.emplace(members.begin() + static_cast<std::ptrdiff_t>(i), std::move(key),
                    std::move(value));
  }
}

void Value::Append(Value value) {
  if (type_ == Type::kNull) *this = MakeArray();
  assert(is_array() && "Append on a non-array JSON value");
  if (!is_array()) return;
  if (array_ == nullptr || array_->size_ == array_->capacity_) {
    Array* grown = Array::New(array_ == nullptr ? 2 : 2 * array_->size());
    if (array_ != nullptr) {
      for (Value& element : *array_) grown->PushBack(std::move(element));
      Array::Delete(array_);
    }
    array_ = grown;
  }
  array_->PushBack(std::move(value));
}

bool Value::Erase(std::string_view key) {
  if (Find(key) == nullptr) return false;
  object_->erase(object_->begin() + static_cast<std::ptrdiff_t>(LowerBound(*object_, key)));
  return true;
}

namespace {

void EscapeStringTo(const std::string& in, std::string* out) {
  out->push_back('"');
  for (char c : in) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void NumberTo(double d, std::string* out) {
  char buf[40];
  if (d == std::nearbyint(d) && std::abs(d) < 9.007199254740992e15) {
    // Same digits as "%lld".
    const auto end = std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(d)).ptr;
    out->append(buf, end);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    *out += buf;
  }
}

void Indent(std::string* out, int indent, int depth) {
  if (indent < 0) return;
  out->push_back('\n');
  out->append(static_cast<size_t>(indent * depth), ' ');
}

}  // namespace

void Value::DumpTo(std::string* out, int indent, int depth) const {
  switch (type_) {
    case Type::kNull:
      *out += "null";
      return;
    case Type::kBool:
      *out += bool_ ? "true" : "false";
      return;
    case Type::kNumber:
      NumberTo(number_, out);
      return;
    case Type::kString:
      EscapeStringTo(*string_, out);
      return;
    case Type::kArray: {
      const Array& elements = array();
      if (elements.empty()) {
        *out += "[]";
        return;
      }
      out->push_back('[');
      for (size_t i = 0; i < elements.size(); ++i) {
        if (i > 0) out->push_back(',');
        Indent(out, indent, depth + 1);
        elements[i].DumpTo(out, indent, depth + 1);
      }
      Indent(out, indent, depth);
      out->push_back(']');
      return;
    }
    case Type::kObject: {
      const Object& members = object();
      if (members.empty()) {
        *out += "{}";
        return;
      }
      out->push_back('{');
      bool first = true;
      for (const auto& [key, value] : members) {
        if (!first) out->push_back(',');
        first = false;
        Indent(out, indent, depth + 1);
        EscapeStringTo(key, out);
        *out += indent < 0 ? ":" : ": ";
        value.DumpTo(out, indent, depth + 1);
      }
      Indent(out, indent, depth);
      out->push_back('}');
      return;
    }
  }
}

std::string Value::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

/// Strict recursive-descent parser over the input string view. Containers
/// collect their elements on shared scratch stacks and are allocated once,
/// at their exact size, when they close.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Value> ParseDocument() {
    Value value;
    SkipWhitespace();
    if (!ParseValue(0, &value)) return error_;
    SkipWhitespace();
    if (pos_ != text_.size()) {
      Fail("trailing characters after JSON document");
      return error_;
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 200;

  bool Fail(const std::string& what) {
    error_ = Status::InvalidArgument(
        StrFormat("JSON parse error at offset %zu: %s", pos_, what.c_str()));
    return false;
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeLiteral(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  bool ParseValue(int depth, Value* out) {
    if (depth > kMaxDepth) return Fail("nesting too deep");
    if (pos_ >= text_.size()) return Fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{':
        return ParseObject(depth, out);
      case '[':
        return ParseArray(depth, out);
      case '"': {
        std::string s;
        if (!ParseString(&s)) return false;
        *out = Value::String(std::move(s));
        return true;
      }
      case 't':
        if (!ConsumeLiteral("true")) return Fail("invalid literal");
        *out = Value::Bool(true);
        return true;
      case 'f':
        if (!ConsumeLiteral("false")) return Fail("invalid literal");
        *out = Value::Bool(false);
        return true;
      case 'n':
        if (!ConsumeLiteral("null")) return Fail("invalid literal");
        *out = Value::Null();
        return true;
      default:
        return ParseNumber(out);
    }
  }

  bool ParseObject(int depth, Value* out) {
    Consume('{');
    const size_t base = members_.size();
    SkipWhitespace();
    if (!Consume('}')) {
      while (true) {
        SkipWhitespace();
        if (pos_ >= text_.size() || text_[pos_] != '"') return Fail("expected object key");
        std::string key;
        if (!ParseString(&key)) return false;
        SkipWhitespace();
        if (!Consume(':')) return Fail("expected ':' after object key");
        SkipWhitespace();
        Value value;
        if (!ParseValue(depth + 1, &value)) return false;
        members_.emplace_back(std::move(key), std::move(value));
        SkipWhitespace();
        if (Consume(',')) continue;
        if (Consume('}')) break;
        return Fail("expected ',' or '}' in object");
      }
    }
    *out = Value::MakeObject();
    const auto first = members_.begin() + static_cast<std::ptrdiff_t>(base);
    auto last = members_.end();
    if (first == last) return true;
    const auto key_less = [](const Object::value_type& a, const Object::value_type& b) {
      return a.first < b.first;
    };
    if (std::adjacent_find(first, last, [](const auto& a, const auto& b) {
          return !(a.first < b.first);
        }) != last) {
      // Out of order or duplicated: one stable sort, then keep the last
      // member of each run of equal keys.
      std::stable_sort(first, last, key_less);
      auto kept = first;
      for (auto run = first; run != last;) {
        auto next = run + 1;
        while (next != last && next->first == run->first) ++next;
        if (kept != next - 1) *kept = std::move(*(next - 1));
        ++kept;
        run = next;
      }
      last = kept;
    }
    out->object_ = new Object(std::make_move_iterator(first), std::make_move_iterator(last));
    members_.resize(base);
    return true;
  }

  bool ParseArray(int depth, Value* out) {
    Consume('[');
    const size_t base = elements_.size();
    SkipWhitespace();
    if (!Consume(']')) {
      while (true) {
        SkipWhitespace();
        Value value;
        if (!ParseValue(depth + 1, &value)) return false;
        elements_.push_back(std::move(value));
        SkipWhitespace();
        if (Consume(',')) continue;
        if (Consume(']')) break;
        return Fail("expected ',' or ']' in array");
      }
    }
    *out = Value::MakeArray();
    const size_t count = elements_.size() - base;
    if (count == 0) return true;
    out->array_ = Array::New(count);
    for (size_t i = base; i < elements_.size(); ++i) {
      out->array_->PushBack(std::move(elements_[i]));
    }
    elements_.resize(base);
    return true;
  }

  bool ParseString(std::string* out) {
    Consume('"');
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              return Fail("invalid \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported;
          // strategy files are ASCII in practice).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Fail("invalid escape character");
      }
    }
    return Fail("unterminated string");
  }

  bool ParseNumber(Value* out) {
    const size_t start = pos_;
    Consume('-');
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected a value");
    const std::string_view token = text_.substr(start, pos_ - start);
    // Up to 15 digits are exact in a double, so they convert as strtod would.
    const size_t digits = token.size() - (token[0] == '-' ? 1 : 0);
    if (digits >= 1 && digits <= 15 &&
        std::all_of(token.end() - digits, token.end(),
                    [](char c) { return c >= '0' && c <= '9'; })) {
      int64_t magnitude = 0;
      for (char c : token.substr(token.size() - digits)) magnitude = magnitude * 10 + (c - '0');
      const double value = static_cast<double>(magnitude);
      *out = Value::Number(token[0] == '-' ? -value : value);
      return true;
    }
    const std::string text(token);
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == nullptr || *end != '\0') return Fail("invalid number '" + text + "'");
    if (!std::isfinite(value)) {
      pos_ = start;
      return Fail("number '" + text + "' overflows a double");
    }
    *out = Value::Number(value);
    return true;
  }

  std::string_view text_;
  size_t pos_ = 0;
  Status error_;
  std::vector<Value> elements_;  // of the arrays being parsed, innermost last
  Object members_;               // of the objects being parsed, innermost last
};

Result<Value> Parse(std::string_view text) { return Parser(text).ParseDocument(); }

Result<Value> ParseFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IoError("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  Result<Value> parsed = Parse(buffer.str());
  if (!parsed.ok()) return parsed.status().WithContext(path);
  return parsed;
}

Status WriteFile(const Value& value, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IoError("cannot open " + path + " for writing");
  out << value.Dump(2) << '\n';
  if (!out.good()) return Status::IoError("failed writing " + path);
  return Status::OK();
}

}  // namespace laar::json
