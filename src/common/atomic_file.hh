/**
 * @file
 * Crash-safe file publication: write the whole payload to a sibling
 * temporary file, flush it, and atomically rename() it over the
 * destination. A reader (Prometheus scraper, CI validator, esd_trace)
 * therefore sees either the previous complete snapshot or the new
 * complete snapshot — never a torn half-written file, even when the
 * writing process is killed mid-export. A target that exists and is
 * not a regular file (a FIFO, /dev/stdout, a device) is written in
 * place instead, so it is never replaced by a regular file.
 */

#ifndef ESD_COMMON_ATOMIC_FILE_HH
#define ESD_COMMON_ATOMIC_FILE_HH

#include <string>

namespace esd
{

/**
 * Atomically replace the file at @p path with @p contents; a non-
 * regular target is written in place with a checked flush.
 * @return true on success; false (with a counted warning) when the
 *         file cannot be written or the rename fails.
 */
bool writeFileAtomic(const std::string &path, const std::string &contents);

} // namespace esd

#endif // ESD_COMMON_ATOMIC_FILE_HH
