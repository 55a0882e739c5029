#include "trace/trace_frontend.hh"

#include <algorithm>
#include <array>
#include <cstring>

#include <zlib.h>

#include "common/logging.hh"

namespace esd
{

namespace
{

constexpr char kMagic[4] = {'E', 'S', 'D', 'T'};
constexpr char kGzipMagic[2] = {'\x1f', '\x8b'};

/** True when @p in starts with the @p n bytes at @p magic; peeks
 * only, so nothing is consumed and a gzip stream inflates just
 * those bytes. */
bool
startsWith(detail::ByteStream &in, const char *magic, std::size_t n)
{
    return in.peek(n) && std::memcmp(in.data(), magic, n) == 0;
}

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/** Hex digit value per byte, -1 for anything else. */
constexpr std::array<std::int8_t, 256> kHexVal = [] {
    std::array<std::int8_t, 256> t{};
    for (int c = 0; c < 256; ++c)
        t[c] = -1;
    for (int c = 0; c < 10; ++c)
        t['0' + c] = static_cast<std::int8_t>(c);
    for (int c = 0; c < 6; ++c) {
        t['a' + c] = static_cast<std::int8_t>(10 + c);
        t['A' + c] = static_cast<std::int8_t>(10 + c);
    }
    return t;
}();

int
hexVal(char c)
{
    return kHexVal[static_cast<std::uint8_t>(c)];
}

std::uint64_t
loadLe64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | p[i];
    return v;
}

std::uint32_t
loadLe32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0]) |
           (static_cast<std::uint32_t>(p[1]) << 8) |
           (static_cast<std::uint32_t>(p[2]) << 16) |
           (static_cast<std::uint32_t>(p[3]) << 24);
}

/** A whitespace-delimited field of a text line, borrowed in place. */
struct Token
{
    const char *p = nullptr;
    std::size_t n = 0;

    int len() const { return static_cast<int>(n); }  // for "%.*s"
};

bool
isBlank(char c)
{
    return c == ' ' || c == '\t';
}

bool
isOpToken(Token t)
{
    return t.n == 1 &&
           (t.p[0] == 'W' || t.p[0] == 'w' || t.p[0] == 'R' ||
            t.p[0] == 'r');
}

/** Optional 0x/0X prefix, then 1-16 hex digits. */
bool
parseHexAddr(Token t, Addr &out)
{
    const char *p = t.p;
    std::size_t n = t.n;
    if (n >= 2 && p[0] == '0' && (p[1] == 'x' || p[1] == 'X')) {
        p += 2;
        n -= 2;
    }
    if (n == 0 || n > 16)
        return false;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i) {
        int d = hexVal(p[i]);
        if (d < 0)
            return false;
        v = (v << 4) | static_cast<std::uint64_t>(d);
    }
    out = v;
    return true;
}

/** 1-10 decimal digits, at most 2^32-1. */
bool
parseIcount(Token t, std::uint32_t &out)
{
    if (t.n == 0 || t.n > 10)
        return false;
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < t.n; ++i) {
        unsigned d = static_cast<unsigned char>(t.p[i]) - '0';
        if (d > 9)
            return false;
        v = v * 10 + d;
    }
    if (v > 0xffffffffull)
        return false;
    out = static_cast<std::uint32_t>(v);
    return true;
}

/** Decode kLineSize bytes from 2*kLineSize hex chars; false on any
 * non-hex char. */
bool
parseHexLine(const char *p, std::uint8_t *out)
{
    int bad = 0;
    for (std::size_t b = 0; b < kLineSize; ++b) {
        int hi = hexVal(p[b * 2]);
        int lo = hexVal(p[b * 2 + 1]);
        bad |= hi | lo;
        out[b] = static_cast<std::uint8_t>(hi * 16 + lo);
    }
    return bad >= 0;
}

} // namespace

TraceFormat
detectTraceFormat(const std::string &path)
{
    detail::FileByteStream in(path);
    if (startsWith(in, kGzipMagic, 2))
        return TraceFormat::Gzip;
    if (startsWith(in, kMagic, 4))
        return TraceFormat::Binary;
    return TraceFormat::Text;
}

CacheLine
synthesizeLineContent(Addr addr, std::uint64_t windex)
{
    CacheLine line;
    std::uint64_t state = splitmix64(splitmix64(addr) ^ windex);
    for (std::size_t w = 0; w < kWordsPerLine; ++w) {
        state = splitmix64(state);
        line.setWord(w, state);
    }
    return line;
}

namespace detail
{

ByteStream::ByteStream(std::string path)
    : path_(std::move(path)), buf_(new std::uint8_t[kTraceWindow])
{
}

bool
ByteStream::load(std::size_t n, bool whole)
{
    esd_assert(n <= kTraceWindow, "window request beyond kTraceWindow");
    if (pos_ > 0) {
        std::memmove(buf_.get(), buf_.get() + pos_, end_ - pos_);
        end_ -= pos_;
        pos_ = 0;
    }
    while (end_ < n && !eof_) {
        std::size_t want = whole ? kTraceWindow - end_ : n - end_;
        std::size_t got = fill(buf_.get() + end_, want);
        if (got == 0)
            eof_ = true;
        end_ += got;
    }
    return end_ >= n;
}

void
ByteStream::truncated(std::size_t n, const char *what) const
{
    if (available() == 0)
        esd_fatal("'%s': truncated %s", path_.c_str(), what);
    esd_fatal("'%s': truncated %s (wanted %zu bytes, got %zu)",
              path_.c_str(), what, n, available());
}

FileByteStream::FileByteStream(const std::string &path) : ByteStream(path)
{
    f_ = std::fopen(path.c_str(), "rb");
    if (!f_)
        esd_fatal("cannot open trace file '%s'", path.c_str());
}

FileByteStream::~FileByteStream()
{
    if (f_)
        std::fclose(f_);
}

std::size_t
FileByteStream::fill(std::uint8_t *out, std::size_t n)
{
    std::size_t got = std::fread(out, 1, n, f_);
    if (got < n && std::ferror(f_))
        esd_fatal("read error on trace file '%s'", path_.c_str());
    return got;
}

struct GzipByteStream::ZState
{
    z_stream strm{};
    bool finished = false;
};

GzipByteStream::GzipByteStream(std::unique_ptr<ByteStream> inner)
    : ByteStream(inner->path()), inner_(std::move(inner)),
      z_(std::make_unique<ZState>())
{
    // 15 window bits + 16 = gzip wrapper only (the sniffer saw the
    // 0x1f 0x8b gzip magic before routing here).
    if (inflateInit2(&z_->strm, 15 + 16) != Z_OK)
        esd_fatal("cannot initialize gzip inflater for '%s'",
                  path_.c_str());
}

GzipByteStream::~GzipByteStream()
{
    inflateEnd(&z_->strm);
}

std::size_t
GzipByteStream::fill(std::uint8_t *out, std::size_t n)
{
    if (z_->finished)
        return 0;
    z_stream &s = z_->strm;
    s.next_out = out;
    s.avail_out = static_cast<uInt>(n);
    while (s.avail_out > 0) {
        // Inflate straight from the compressed window.
        bool innerEof = !inner_->ensure(1);
        s.next_in = const_cast<Bytef *>(inner_->data());
        s.avail_in = static_cast<uInt>(inner_->available());
        uInt before = s.avail_out;
        int rc = inflate(&s, Z_NO_FLUSH);
        inner_->consume(inner_->available() - s.avail_in);
        if (rc == Z_STREAM_END) {
            // A concatenated member would start here; single-member
            // streams are what the capture side writes. Trailing
            // garbage after the member is a corruption signal.
            if (inner_->ensure(1))
                esd_fatal("'%s': trailing bytes after gzip stream",
                          path_.c_str());
            z_->finished = true;
            break;
        }
        if (rc != Z_OK && rc != Z_BUF_ERROR)
            esd_fatal("'%s': corrupt gzip stream (%s)", path_.c_str(),
                      s.msg ? s.msg : zError(rc));
        if (s.avail_out == before && innerEof)
            esd_fatal("'%s': gzip stream ends mid-member (truncated?)",
                      path_.c_str());
    }
    return n - s.avail_out;
}

} // namespace detail

TraceFrontend::TraceFrontend(const std::string &path,
                             const TraceConfig &cfg)
    : path_(path), cfg_(cfg)
{
    if (cfg_.readAhead == 0)
        cfg_.readAhead = 1;
    open();
}

TraceFrontend::~TraceFrontend() = default;

void
TraceFrontend::open()
{
    in_ = std::make_unique<detail::FileByteStream>(path_);
    format_ = TraceFormat::Text;

    if (startsWith(*in_, kGzipMagic, 2)) {
        in_ = std::make_unique<detail::GzipByteStream>(std::move(in_));
        format_ = TraceFormat::Gzip;
    }

    // Sniff the (possibly inflated) record stream for the binary magic.
    binary_ = startsWith(*in_, kMagic, 4);
    if (!binary_)
        return;
    in_->consume(4);
    if (format_ != TraceFormat::Gzip)
        format_ = TraceFormat::Binary;

    // Version byte. Legacy v1 streams have no header: the byte after
    // the magic is the first record's op (0 or 1), which no versioned
    // header ever uses as its version.
    if (!in_->peek(1)) {
        binVersion_ = 1;  // empty legacy trace: magic then EOF
        return;
    }
    std::uint8_t ver = in_->data()[0];
    if (ver <= 1) {
        binVersion_ = 1;
        return;
    }
    if (ver > kBinaryTraceVersion)
        esd_fatal("'%s': unsupported trace version %u (this build reads "
                  "<= %u)", path_.c_str(), static_cast<unsigned>(ver),
                  static_cast<unsigned>(kBinaryTraceVersion));
    binVersion_ = ver;
    in_->consume(1);
    // flags u8 + reserved u16
    if (!in_->peek(3))
        in_->truncated(3, "binary trace header");
    const std::uint8_t *rest = in_->data();
    if (rest[0] & ~1u)
        esd_fatal("'%s': unknown trace flags 0x%02x", path_.c_str(),
                  static_cast<unsigned>(rest[0]));
    if (rest[1] != 0 || rest[2] != 0)
        esd_fatal("'%s': corrupt binary trace header (reserved bytes "
                  "set)", path_.c_str());
    binPayloads_ = rest[0] & 1;
    in_->consume(3);
}

bool
TraceFrontend::nextLine(const char *&line, std::size_t &len)
{
    std::size_t scanned = 0;
    while (true) {
        const std::uint8_t *p = in_->data();
        std::size_t avail = in_->available();
        std::size_t limit = std::min(avail, kMaxTraceLine + 1);
        if (const void *nl =
                std::memchr(p + scanned, '\n', limit - scanned)) {
            line = reinterpret_cast<const char *>(p);
            len = static_cast<std::size_t>(
                static_cast<const std::uint8_t *>(nl) - p);
            in_->consume(len + 1);
            return true;
        }
        if (avail > kMaxTraceLine)
            esd_fatal("%s:%llu: line exceeds %zu bytes", path_.c_str(),
                      static_cast<unsigned long long>(lineNo_ + 1),
                      kMaxTraceLine);
        // The line straddles the window end: compact and refill.
        scanned = avail;
        if (!in_->ensure(avail + 1)) {
            // EOF; an unterminated last line is still a line.
            len = in_->available();
            if (len == 0)
                return false;
            line = reinterpret_cast<const char *>(in_->data());
            in_->consume(len);
            return true;
        }
    }
}

bool
TraceFrontend::decodeText(TraceRecord &rec)
{
    const char *line;
    std::size_t len;
    while (nextLine(line, len)) {
        ++lineNo_;
        if (len > 0 && line[len - 1] == '\r')
            --len;
        const char *c = line;
        const char *end = line + len;

        // Comments and blanks: decided before tokenization so a long
        // banner comment is never mistaken for an over-long record.
        while (c < end && isBlank(*c))
            ++c;
        if (c == end || *c == '#')
            continue;

        // Tokenize on whitespace; at most four fields are legal.
        Token toks[4];
        std::size_t ntok = 0;
        while (c < end) {
            if (ntok == 4)
                esd_fatal("%s:%llu: trailing junk on record",
                          path_.c_str(),
                          static_cast<unsigned long long>(lineNo_));
            toks[ntok].p = c;
            while (c < end && !isBlank(*c))
                ++c;
            toks[ntok].n = static_cast<std::size_t>(c - toks[ntok].p);
            ++ntok;
            while (c < end && isBlank(*c))
                ++c;
        }
        if (ntok < 2)
            esd_fatal("%s:%llu: malformed record", path_.c_str(),
                      static_cast<unsigned long long>(lineNo_));

        // Two token orders: canonical `<op> <addr> ...` and
        // Ramulator-style `<addr> <op> ...`.
        Token opTok = toks[0], addrTok = toks[1];
        if (!isOpToken(toks[0])) {
            if (!isOpToken(toks[1]))
                esd_fatal("%s:%llu: bad op '%.*s'", path_.c_str(),
                          static_cast<unsigned long long>(lineNo_),
                          toks[1].len(), toks[1].p);
            std::swap(opTok, addrTok);
        }
        rec.op = (opTok.p[0] == 'W' || opTok.p[0] == 'w') ? OpType::Write
                                                          : OpType::Read;
        if (!parseHexAddr(addrTok, rec.addr))
            esd_fatal("%s:%llu: bad hex address '%.*s'", path_.c_str(),
                      static_cast<unsigned long long>(lineNo_),
                      addrTok.len(), addrTok.p);

        // Remaining tokens: optional 128-hex-char payload, then an
        // optional decimal icount. A long token that is not exactly a
        // full line of hex is a malformed payload, not an icount.
        std::size_t r = 2;
        bool havePayload = false;
        if (r < ntok && toks[r].n > 16) {
            if (toks[r].n != kLineSize * 2)
                esd_fatal("%s:%llu: write payload must be %zu hex chars "
                          "(got %zu)", path_.c_str(),
                          static_cast<unsigned long long>(lineNo_),
                          kLineSize * 2, toks[r].n);
            if (!parseHexLine(toks[r].p, rec.data.data()))
                esd_fatal("%s:%llu: bad hex data", path_.c_str(),
                          static_cast<unsigned long long>(lineNo_));
            havePayload = true;
            ++r;
        }
        rec.icount = 100;
        if (r < ntok) {
            if (!parseIcount(toks[r], rec.icount))
                esd_fatal("%s:%llu: bad icount '%.*s'", path_.c_str(),
                          static_cast<unsigned long long>(lineNo_),
                          toks[r].len(), toks[r].p);
            ++r;
        }
        if (r < ntok)
            esd_fatal("%s:%llu: trailing junk on record", path_.c_str(),
                      static_cast<unsigned long long>(lineNo_));

        if (rec.op == OpType::Write) {
            if (!havePayload)
                rec.data = synthesizeLineContent(rec.addr, writesSeen_);
            ++writesSeen_;
        } else {
            rec.data = CacheLine{};
        }
        return true;
    }
    return false;
}

bool
TraceFrontend::decodeBinary(TraceRecord &rec)
{
    detail::ByteStream &in = *in_;
    if (binVersion_ <= 1) {
        // Legacy headerless stream: raw BinaryTraceWriter records.
        if (!in.ensure(1))
            return false;
        std::uint8_t op = in.data()[0];
        if (op > 1)
            esd_fatal("'%s': bad op byte %u (corrupt trace?)",
                      path_.c_str(), static_cast<unsigned>(op));
        in.consume(1);
        const std::uint8_t *fixed = in.require(12, "record");
        rec.op = op ? OpType::Write : OpType::Read;
        rec.addr = loadLe64(fixed);
        rec.icount = loadLe32(fixed + 8);
        in.consume(12);
        if (rec.op == OpType::Write) {
            rec.data = CacheLine(in.require(kLineSize, "write payload"));
            in.consume(kLineSize);
            ++writesSeen_;
        } else {
            rec.data = CacheLine{};
        }
        return true;
    }

    // v2: length-prefixed records.
    if (!in.ensure(1))
        return false;
    std::uint8_t len = in.data()[0];
    if (len != kBinaryRecordNoPayload && len != kBinaryRecordPayload)
        esd_fatal("'%s': bad record length %u (expected %zu or %zu)",
                  path_.c_str(), static_cast<unsigned>(len),
                  kBinaryRecordNoPayload, kBinaryRecordPayload);
    in.consume(1);
    const std::uint8_t *body = in.require(len, "record");
    if (body[0] > 1)
        esd_fatal("'%s': bad op byte %u (corrupt trace?)", path_.c_str(),
                  static_cast<unsigned>(body[0]));
    rec.op = body[0] ? OpType::Write : OpType::Read;
    rec.addr = loadLe64(body + 1);
    rec.icount = loadLe32(body + 9);
    if (rec.op == OpType::Write) {
        if (len == kBinaryRecordPayload) {
            rec.data = CacheLine(body + kBinaryRecordNoPayload);
        } else {
            rec.data = synthesizeLineContent(rec.addr, writesSeen_);
        }
        ++writesSeen_;
    } else {
        rec.data = CacheLine{};
    }
    in.consume(len);
    return true;
}

bool
TraceFrontend::decodeOne(TraceRecord &rec)
{
    return binary_ ? decodeBinary(rec) : decodeText(rec);
}

void
TraceFrontend::refill()
{
    buffer_.clear();
    bufPos_ = 0;
    if (eof_)
        return;
    // Decode in place: no per-record temporary copy.
    while (buffer_.size() < cfg_.readAhead) {
        buffer_.emplace_back();
        if (!decodeOne(buffer_.back())) {
            buffer_.pop_back();
            eof_ = true;
            break;
        }
    }
    decoded_ += buffer_.size();
    peakBuffered_ = std::max(peakBuffered_, buffer_.size());
}

bool
TraceFrontend::next(TraceRecord &rec)
{
    if (bufPos_ >= buffer_.size()) {
        refill();
        if (buffer_.empty())
            return false;
    }
    rec = buffer_[bufPos_++];
    return true;
}

std::size_t
TraceFrontend::nextBatch(TraceRecord *out, std::size_t max)
{
    if (bufPos_ >= buffer_.size()) {
        refill();
        if (buffer_.empty())
            return 0;
    }
    std::size_t n = std::min(max, buffer_.size() - bufPos_);
    std::copy(buffer_.begin() + static_cast<long>(bufPos_),
              buffer_.begin() + static_cast<long>(bufPos_ + n), out);
    bufPos_ += n;
    return n;
}

void
TraceFrontend::reset()
{
    buffer_.clear();
    bufPos_ = 0;
    lineNo_ = 0;
    writesSeen_ = 0;
    eof_ = false;
    binary_ = false;
    binVersion_ = 0;
    binPayloads_ = true;
    open();
}

} // namespace esd
