#include "flat_json.h"

#include <cstdlib>

namespace perfbench {

namespace {

class Flattener {
 public:
  Flattener(const std::string& text, std::map<std::string, double>* out)
      : text_(text), out_(out) {}

  bool Document() {
    if (!Value("")) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool String(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\') {
        if (++pos_ >= text_.size()) return false;
      }
      out->push_back(text_[pos_++]);
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;
    return true;
  }

  bool Value(const std::string& path) {
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{' || c == '[') {
      const bool object = c == '{';
      ++pos_;
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == (object ? '}' : ']')) {
        ++pos_;
        return true;
      }
      for (size_t index = 0;; ++index) {
        std::string key = std::to_string(index);
        if (object) {
          SkipSpace();
          key.clear();
          if (!String(&key)) return false;
          SkipSpace();
          if (pos_ >= text_.size() || text_[pos_++] != ':') return false;
        }
        if (!Value(path.empty() ? key : path + "/" + key)) return false;
        SkipSpace();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        return text_[pos_++] == (object ? '}' : ']');
      }
    }
    if (c == '"') {
      std::string ignored;
      return String(&ignored);
    }
    for (const char* word : {"true", "false", "null"}) {
      if (text_.compare(pos_, std::char_traits<char>::length(word), word) ==
          0) {
        pos_ += std::char_traits<char>::length(word);
        return true;
      }
    }
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    double number = std::strtod(begin, &end);
    if (end == begin) return false;
    pos_ += static_cast<size_t>(end - begin);
    (*out_)[path] = number;
    return true;
  }

  const std::string& text_;
  std::map<std::string, double>* out_;
  size_t pos_ = 0;
};

}  // namespace

bool FlattenJsonNumbers(const std::string& json,
                        std::map<std::string, double>* out) {
  return Flattener(json, out).Document();
}

double Get(const std::map<std::string, double>& flat, const std::string& key) {
  auto it = flat.find(key);
  return it == flat.end() ? 0.0 : it->second;
}

}  // namespace perfbench
