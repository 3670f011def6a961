#include "util/file.hpp"

#include <cstdio>

#ifndef _WIN32
#include <sys/stat.h>
#endif

namespace nfacount {

Status ReadWholeFile(const std::string& path, std::string* bytes) {
  bytes->clear();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("cannot open '" + path + "'");
  // The length is only a size hint: directories and pipes report none,
  // other platforms skip it, and the chunked tail below reads whatever the
  // hint missed.
#ifndef _WIN32
  struct stat st;
  if (fstat(fileno(f), &st) == 0 && S_ISREG(st.st_mode) && st.st_size > 0) {
    bytes->resize(static_cast<size_t>(st.st_size));
    bytes->resize(std::fread(&(*bytes)[0], 1, bytes->size(), f));
  }
#endif
  char chunk[1 << 12];
  size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), f)) > 0) {
    bytes->append(chunk, got);
  }
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Status::DataLoss("read error on '" + path + "'");
  return Status::Ok();
}

}  // namespace nfacount
