#include "text/vocab.h"

#include <cstdio>
#include <memory>

namespace preqr::text {

Vocab::Vocab() {
  Add("[PAD]");
  Add("[UNK]");
  Add("[CLS]");
  Add("[END]");
  Add("[MASK]");
}

int Vocab::Add(const std::string& token) {
  auto it = index_.find(token);
  if (it != index_.end()) return it->second;
  const int id = static_cast<int>(tokens_.size());
  tokens_.push_back(token);
  index_.emplace(token, id);
  return id;
}

int Vocab::Id(const std::string& token) const {
  auto it = index_.find(token);
  return it == index_.end() ? kUnkId : it->second;
}

bool Vocab::Contains(const std::string& token) const {
  return index_.count(token) > 0;
}

Status Vocab::Save(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return Status::InvalidArgument("cannot open " + path);
  for (const auto& t : tokens_) {
    std::fprintf(f.get(), "%s\n", t.c_str());
  }
  return Status::Ok();
}

StatusOr<Vocab> Vocab::Load(const std::string& path) {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "r"), &std::fclose);
  if (!f) return Status::NotFound("cannot open " + path);
  Vocab vocab;
  char buf[4096];
  int line = 0;
  while (std::fgets(buf, sizeof(buf), f.get()) != nullptr) {
    std::string token(buf);
    while (!token.empty() && (token.back() == '\n' || token.back() == '\r')) {
      token.pop_back();
    }
    if (line >= vocab.size()) vocab.Add(token);
    ++line;
  }
  return vocab;
}

}  // namespace preqr::text
