//===- sampletrack/support/Json.h - JSON reader and writer ------*- C++ -*-===//
//
// Part of the SampleTrack project.
// SPDX-License-Identifier: Apache-2.0
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repo's one JSON reader and one JSON writer.
///
/// \ref JsonValue is a small recursive-descent parser producing an owning
/// DOM, for the repo's own documents: the bench files the perf gate diffs,
/// the documents the tests check and the run records the triaged client
/// reads. It favors simplicity over speed: strings are plain std::string
/// (\uXXXX escapes outside Latin-1 are replaced, not decoded), numbers are
/// double, object keys keep insertion order.
///
/// \ref JsonWriter writes every JSON document the library renders, and it
/// alone decides separators, layout, escaping and number format. Its two
/// layout rules:
///  - a *pretty* container puts one member per line, indented two spaces
///    per enclosing pretty container, and closes on its own line at its
///    parent's indent, so an empty one is "[", newline, indent, "]";
///  - an *inline* container stays on one line, {"a": 1, "b": 2}; an empty
///    one is "[]", and it adds no indent.
///
//===----------------------------------------------------------------------===//

#ifndef SAMPLETRACK_SUPPORT_JSON_H
#define SAMPLETRACK_SUPPORT_JSON_H

#include <charconv>
#include <concepts>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sampletrack {
namespace support {

/// One JSON value. Sum-type-by-enum; only the members matching \ref K are
/// meaningful.
class JsonValue {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind K = Kind::Null;
  bool Bool = false;
  double Number = 0;
  std::string Str;
  std::vector<JsonValue> Array;
  /// Insertion-ordered; duplicate keys keep the last value on lookup.
  std::vector<std::pair<std::string, JsonValue>> Object;

  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue *get(std::string_view Key) const;
  /// get() that also requires the member to be a number; \p Found reports
  /// presence.
  double getNumber(std::string_view Key, double Default = 0,
                   bool *Found = nullptr) const;
  /// get() that also requires the member to be a string.
  std::string getString(std::string_view Key,
                        std::string Default = "") const;

  /// Parses \p Text (one complete document; trailing garbage is an error).
  /// On failure returns false and, when \p Error is non-null, describes the
  /// problem with a byte offset.
  static bool parse(std::string_view Text, JsonValue &Out,
                    std::string *Error = nullptr);
  /// Reads and parses a file.
  static bool parseFile(const std::string &Path, JsonValue &Out,
                        std::string *Error = nullptr);
};

/// Streaming JSON writer (layout rules in the file comment). Strings are
/// always escaped; integers are exact; a double is written as Fixed or
/// General, and as 0 when it is not finite, so no document holds inf or
/// nan. There is no way to write a raw fragment. Closing the outermost
/// object ends the document with a newline.
///
///   JsonWriter W;
///   W.object().fields({{"runs", 2}, {"rate", JsonWriter::Fixed{0.5, 2}}});
///   W.key("ids").array(JsonWriter::Inline).value("a").end().end();
///   W.take(); // {\n  "runs": 2,\n  "rate": 0.50,\n  "ids": ["a"]\n}\n
class JsonWriter {
public:
  enum Layout { Pretty, Inline };
  /// A double with Decimals (0-17) digits after the point, as "%.Nf".
  struct Fixed {
    double V;
    int Decimals;
  };
  /// A double as "%g".
  struct General {
    double V;
  };
  /// One member for fields(): a key and anything value() takes. It refers
  /// to the value, so it lives no longer than the full expression.
  struct Member {
    template <typename T>
    Member(std::string_view Key, const T &V)
        : Key(Key), Val(&V), Put([](JsonWriter &W, const void *P) {
            W.value(*static_cast<const T *>(P));
          }) {}
    std::string_view Key;
    const void *Val;
    void (*Put)(JsonWriter &, const void *);
  };

  /// Opens an object / array as the next value: the document, an array
  /// element, or the member named by the preceding key().
  JsonWriter &object(Layout L = Pretty) { return open('{', '}', L); }
  JsonWriter &array(Layout L = Pretty) { return open('[', ']', L); }
  /// Closes the innermost open container.
  JsonWriter &end();
  /// Names the next value in the enclosing object.
  JsonWriter &key(std::string_view K);

  JsonWriter &value(std::string_view S);
  JsonWriter &value(const char *S) { return value(std::string_view(S)); }
  JsonWriter &value(bool B) { return scalar(B ? "true" : "false"); }
  template <std::integral T> JsonWriter &value(T V) {
    char Buf[24];
    return scalar({Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr});
  }
  JsonWriter &value(Fixed F);
  JsonWriter &value(General G);

  template <typename T> JsonWriter &field(std::string_view K, const T &V) {
    return key(K).value(V);
  }
  JsonWriter &fields(std::initializer_list<Member> Members) {
    for (const Member &M : Members)
      M.Put(key(M.Key), M.Val);
    return *this;
  }

  /// The finished text; every container must be closed.
  std::string take();

private:
  struct Frame {
    char Close;
    bool Pretty;
    bool Empty;
  };

  JsonWriter &open(char Open, char Close, Layout L);
  JsonWriter &scalar(std::string_view Text);
  /// Writes what goes before the next key or element: nothing after a key,
  /// else the comma and, in a pretty container, the newline and indent.
  void separate();

  std::string Out;
  std::vector<Frame> Stack;
  size_t PrettyDepth = 0;
  bool AfterKey = false;
};

} // namespace support
} // namespace sampletrack

#endif // SAMPLETRACK_SUPPORT_JSON_H
