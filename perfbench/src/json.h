// Minimal JSON reader for the server's response lines. The benchmark parses
// replies itself instead of using the program's JSONL layer, so a change to
// that layer cannot change how replies are checked.
#ifndef PERFBENCH_JSON_H_
#define PERFBENCH_JSON_H_

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Json> items;
  std::map<std::string, Json> fields;

  bool Has(const std::string& key) const { return fields.count(key) > 0; }
  const Json& operator[](const std::string& key) const {
    static const Json kNull;
    auto it = fields.find(key);
    return it == fields.end() ? kNull : it->second;
  }
  double Num(const std::string& key, double fallback = 0.0) const {
    const Json& v = (*this)[key];
    return v.type == Type::kNumber ? v.number : fallback;
  }
  bool Bool(const std::string& key) const {
    const Json& v = (*this)[key];
    return v.type == Type::kBool && v.boolean;
  }
  std::string Str(const std::string& key) const { return (*this)[key].text; }

  /// Parses one JSON document; returns false on malformed input.
  static bool Parse(const std::string& in, Json* out) {
    size_t pos = 0;
    if (!ParseValue(in, &pos, out)) return false;
    SkipSpace(in, &pos);
    return pos == in.size();
  }

 private:
  static void SkipSpace(const std::string& in, size_t* pos) {
    while (*pos < in.size() && (in[*pos] == ' ' || in[*pos] == '\n' ||
                                in[*pos] == '\t' || in[*pos] == '\r')) {
      ++*pos;
    }
  }
  static bool ParseString(const std::string& in, size_t* pos,
                          std::string* out) {
    if (*pos >= in.size() || in[*pos] != '"') return false;
    ++*pos;
    while (*pos < in.size() && in[*pos] != '"') {
      char c = in[(*pos)++];
      if (c == '\\') {
        if (*pos >= in.size()) return false;
        const char e = in[(*pos)++];
        switch (e) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u':
            if (*pos + 4 > in.size()) return false;
            c = static_cast<char>(std::strtol(in.substr(*pos, 4).c_str(),
                                              nullptr, 16));
            *pos += 4;
            break;
          default: c = e;
        }
      }
      out->push_back(c);
    }
    if (*pos >= in.size()) return false;
    ++*pos;
    return true;
  }
  static bool ParseValue(const std::string& in, size_t* pos, Json* out) {
    SkipSpace(in, pos);
    if (*pos >= in.size()) return false;
    const char c = in[*pos];
    if (c == '{') {
      out->type = Type::kObject;
      ++*pos;
      SkipSpace(in, pos);
      if (*pos < in.size() && in[*pos] == '}') return ++*pos, true;
      while (true) {
        SkipSpace(in, pos);
        std::string key;
        if (!ParseString(in, pos, &key)) return false;
        SkipSpace(in, pos);
        if (*pos >= in.size() || in[*pos] != ':') return false;
        ++*pos;
        if (!ParseValue(in, pos, &out->fields[key])) return false;
        SkipSpace(in, pos);
        if (*pos < in.size() && in[*pos] == ',') { ++*pos; continue; }
        if (*pos < in.size() && in[*pos] == '}') return ++*pos, true;
        return false;
      }
    }
    if (c == '[') {
      out->type = Type::kArray;
      ++*pos;
      SkipSpace(in, pos);
      if (*pos < in.size() && in[*pos] == ']') return ++*pos, true;
      while (true) {
        out->items.emplace_back();
        if (!ParseValue(in, pos, &out->items.back())) return false;
        SkipSpace(in, pos);
        if (*pos < in.size() && in[*pos] == ',') { ++*pos; continue; }
        if (*pos < in.size() && in[*pos] == ']') return ++*pos, true;
        return false;
      }
    }
    if (c == '"') {
      out->type = Type::kString;
      return ParseString(in, pos, &out->text);
    }
    if (in.compare(*pos, 4, "true") == 0) {
      out->type = Type::kBool;
      out->boolean = true;
      *pos += 4;
      return true;
    }
    if (in.compare(*pos, 5, "false") == 0) {
      out->type = Type::kBool;
      *pos += 5;
      return true;
    }
    if (in.compare(*pos, 4, "null") == 0) {
      *pos += 4;
      return true;
    }
    const char* begin = in.c_str() + *pos;
    char* end = nullptr;
    out->number = std::strtod(begin, &end);
    if (end == begin) return false;
    out->type = Type::kNumber;
    *pos += static_cast<size_t>(end - begin);
    return true;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_JSON_H_
