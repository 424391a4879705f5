#ifndef PREQR_TEXT_VOCAB_H_
#define PREQR_TEXT_VOCAB_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"

namespace preqr::text {

// Token vocabulary with the special tokens the MLM pre-training needs.
class Vocab {
 public:
  static constexpr int kPadId = 0;
  static constexpr int kUnkId = 1;
  static constexpr int kClsId = 2;
  static constexpr int kEndId = 3;
  static constexpr int kMaskId = 4;

  Vocab();

  // Adds a token if absent; returns its id either way.
  int Add(const std::string& token);
  // Id of `token`, or kUnkId.
  int Id(const std::string& token) const;
  bool Contains(const std::string& token) const;
  const std::string& Token(int id) const {
    return tokens_[static_cast<size_t>(id)];
  }
  int size() const { return static_cast<int>(tokens_.size()); }

  Status Save(const std::string& path) const;
  static StatusOr<Vocab> Load(const std::string& path);

 private:
  std::vector<std::string> tokens_;
  std::unordered_map<std::string, int> index_;
};

}  // namespace preqr::text

#endif  // PREQR_TEXT_VOCAB_H_
