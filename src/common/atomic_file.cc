#include "common/atomic_file.hh"

#include <sys/stat.h>

#include <cstdio>
#include <fstream>

#include "common/logging.hh"

namespace esd
{

namespace
{

/** Write @p contents to @p path with a checked flush. */
bool
writeChecked(const std::string &path, const std::string &contents)
{
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    if (!out) {
        esd_warn("cannot open '%s' for writing", path.c_str());
        return false;
    }
    out << contents;
    out.flush();
    if (!out) {
        esd_warn("short write to '%s'", path.c_str());
        return false;
    }
    return true;
}

} // namespace

bool
writeFileAtomic(const std::string &path, const std::string &contents)
{
    // A FIFO or device is written in place: renaming over it would
    // replace it with a regular file.
    struct stat st;
    if (::stat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode))
        return writeChecked(path, contents);

    // The temp file must live in the same directory as the target:
    // rename() is only atomic within one filesystem.
    std::string tmp = path + ".tmp";
    if (!writeChecked(tmp, contents)) {
        std::remove(tmp.c_str());
        return false;
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        esd_warn("cannot rename '%s' over '%s'", tmp.c_str(),
                 path.c_str());
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

} // namespace esd
