// Whole-file reads shared by every loader of bytes from disk: NFA text
// files, session checkpoints and the serve-mode manifest journal.

#ifndef NFACOUNT_UTIL_FILE_HPP_
#define NFACOUNT_UTIL_FILE_HPP_

#include <string>

#include "util/status.hpp"

namespace nfacount {

/// Replaces *bytes with the contents of the file at `path`. A regular file
/// is read with one call into a buffer sized from its length; anything
/// past that length (a file that grew, or a pipe) is appended in chunks.
/// NotFound when the file cannot be opened, DataLoss on a read error.
Status ReadWholeFile(const std::string& path, std::string* bytes);

}  // namespace nfacount

#endif  // NFACOUNT_UTIL_FILE_HPP_
