/**
 * @file
 * Streaming real-trace frontend.
 *
 * TraceFrontend turns an on-disk memory trace into a TraceSource
 * without ever materializing the trace in RAM: bytes are pulled
 * through one refillable kTraceWindow byte window, records decode in
 * place from it (text lines are found with memchr and tokenized
 * without copies) straight into the caller's records, so memory stays
 * constant at any trace length: the window, plus the compressed-side
 * window and the kInflateRing inflate buffers for gzip. The only
 * record buffer is the consumer's own batch.
 *
 * Three on-disk formats are accepted, auto-detected from the first
 * bytes of the file (never from the extension):
 *
 *   - **text** — one record per line, `#` comments. Two token orders
 *     are understood: the repo's canonical
 *     `<W|R> <hex addr> [<128 hex data>] <icount>` and the
 *     Ramulator2-style `<hex addr> <W|R> [<128 hex data>] [<icount>]`
 *     (icount defaults to 100 when absent). The data token is optional
 *     for writes in both orders: address-only traces are valid. An
 *     address is 1-16 hex digits with an optional `0x`/`0X` prefix;
 *     an icount is 1-10 decimal digits, at most 2^32-1. Signs are
 *     rejected in both.
 *   - **gzip** — a gzip stream (magic 0x1f 0x8b), one member or a
 *     concatenation of members (`cat a.gz b.gz`, bgzip output and its
 *     empty EOF block), inflated on the fly; the inflated content is
 *     sniffed again, so both gzip'd text and gzip'd binary work. The
 *     open-time sniff inflates its few bytes on the caller. The first
 *     whole-window load starts one helper thread that inflates ahead
 *     into a ring of kInflateRing window-sized buffers, which the
 *     decoder swaps into its window in stream order, so zlib overlaps
 *     parsing and simulation. The helper never exits the process: it
 *     records a zlib or read error, and the decoder raises it through
 *     esd_fatal once every chunk inflated before the failing one has
 *     been delivered.
 *   - **binary** — `ESDT` magic. Version 2 carries a versioned header
 *     (version byte, flags byte with the line-payload bit, reserved
 *     u16) and length-prefixed records
 *     `[u8 len][u8 op][u64 addr][u32 icount][64 B payload?]`. The
 *     legacy headerless v1 stream (raw `[u8 op][u64 addr][u32 icount]
 *     [64 B payload, writes only]` records) is decoded too: its first
 *     post-magic byte is an op, 0/1, which no v2 version byte can be.
 *     TraceCaptureWriter only writes v2, so v1 is read-only.
 *
 * Write records that carry no payload get deterministic synthesized
 * content — a splitmix64 stream keyed by (address, global write
 * index) — so address-only traces replay reproducibly as an
 * adversarial low-duplication stream.
 *
 * Every malformed input dies through esd_fatal with the file (and for
 * text, the line) named: truncation, bad magic, version skew,
 * oversized length prefixes, non-hex payloads, over-long lines, and
 * mid-stream gzip corruption are all clean exits, never crashes
 * (tests/test_trace_fuzz.cc holds that wall up).
 */

#ifndef ESD_TRACE_TRACE_FRONTEND_HH
#define ESD_TRACE_TRACE_FRONTEND_HH

#include <cstdio>
#include <memory>
#include <string>

#include "common/config.hh"
#include "trace/trace.hh"

namespace esd
{

/** Longest accepted text-trace line (op + addr + payload + icount
 * with slack); longer lines are a format error, not a buffer grower. */
constexpr std::size_t kMaxTraceLine = 512;

/** Byte window each trace stream decodes from (and, for gzip, the
 * compressed-side window and each inflate-ahead buffer too). */
constexpr std::size_t kTraceWindow = 128 * 1024;

/** Gzip inflate-ahead: buffers in the helper's ring (besides the
 * window itself), and the bytes each chunk leaves free at its front so
 * the window's unconsumed tail — at most one straddling text line or
 * binary record — can be prepended when the chunk is swapped in. */
constexpr std::size_t kInflateRing = 3;
constexpr std::size_t kInflateHeadroom = 1024;
constexpr std::size_t kInflateChunk = kTraceWindow - kInflateHeadroom;
static_assert(kInflateHeadroom > kMaxTraceLine,
              "a straddling text line must fit in front of a chunk");

/** Binary format limits (v2). */
constexpr std::uint8_t kBinaryTraceVersion = 2;
constexpr std::size_t kBinaryRecordNoPayload = 13;  ///< op+addr+icount
constexpr std::size_t kBinaryRecordPayload =
    kBinaryRecordNoPayload + kLineSize;

/** Sniff a file's format from its first bytes (never Auto); fatal
 * when the file cannot be opened. TraceFormat itself lives in
 * common/config.hh; its name helpers in common/config_io.hh. */
TraceFormat detectTraceFormat(const std::string &path);

/**
 * Deterministic line content for a payload-less write record: word w
 * is splitmix64(addr, windex, w). Pure function — replays of the same
 * trace synthesize the same bytes at any worker count.
 */
CacheLine synthesizeLineContent(Addr addr, std::uint64_t windex);

namespace detail
{

/**
 * A refillable byte window over a pull-based medium. Decoders read
 * records in place at data() and consume() them; ensure() tops the
 * window up when a record straddles its end. Unconsumed bytes are
 * compacted to the front before each refill, so after a refill the
 * window starts at the straddling line or record.
 */
class ByteStream
{
  public:
    virtual ~ByteStream() = default;

    /** Make at least @p n (<= kTraceWindow) bytes readable at data();
     * false when the medium ends first (the short tail stays
     * readable). A refill fills the whole free window (or swaps in a
     * whole inflated chunk), so refills are rare. Corrupt underlying
     * streams die via esd_fatal. */
    bool
    ensure(std::size_t n)
    {
        return available() >= n || load(n, true);
    }

    /** As ensure(), but read only the missing bytes: the format sniff
     * peeks through this so opening a gzip trace inflates a few bytes,
     * not a window, and starts no thread. */
    bool
    peek(std::size_t n)
    {
        return available() >= n || load(n, false);
    }

    /** ensure(@p n) or die: an empty tail is "truncated <what>", a
     * partial one also names the wanted and present byte counts. */
    const std::uint8_t *
    require(std::size_t n, const char *what)
    {
        if (!ensure(n))
            truncated(n, what);
        return data();
    }

    /** The fatal behind require(), for callers that peek(). */
    [[noreturn]] void truncated(std::size_t n, const char *what) const;

    const std::uint8_t *data() const { return buf_.get() + pos_; }
    std::size_t available() const { return end_ - pos_; }
    void consume(std::size_t n) { pos_ += n; }

    const std::string &path() const { return path_; }

  protected:
    explicit ByteStream(std::string path);

    /** Produce up to @p n fresh bytes from the underlying medium
     * (0 = clean EOF). */
    virtual std::size_t fill(std::uint8_t *out, std::size_t n) = 0;

    /** Whole-window refill by buffer swap instead of fill()'s copy:
     * replace @p window with a kTraceWindow buffer of fresh bytes,
     * carrying the unconsumed [@p pos, @p end) over in front of them,
     * and set [@p pos, @p end) to the new readable range. false (the
     * default) leaves the refill to fill(). */
    virtual bool
    exchange(std::unique_ptr<std::uint8_t[]> & /*window*/,
             std::size_t & /*pos*/, std::size_t & /*end*/)
    {
        return false;
    }

    std::string path_;

  private:
    bool load(std::size_t n, bool whole);

    std::unique_ptr<std::uint8_t[]> buf_;
    std::size_t pos_ = 0;
    std::size_t end_ = 0;
    bool eof_ = false;
};

/** Plain file bytes, fread straight into the window. */
class FileByteStream : public ByteStream
{
  public:
    explicit FileByteStream(const std::string &path);
    ~FileByteStream() override;

    /** Make a read error end the stream and set readFailed() instead
     * of dying, for a reader on a thread that must not exit. */
    void deferReadErrors() { deferErrors_ = true; }
    bool readFailed() const { return readFailed_; }

  protected:
    std::size_t fill(std::uint8_t *out, std::size_t n) override;

  private:
    std::FILE *f_ = nullptr;
    bool deferErrors_ = false;
    bool readFailed_ = false;
};

/**
 * Gzip-inflating wrapper over a file. Before the first whole-window
 * load, fill() inflates on the caller (the format sniff). That load
 * starts a helper thread which inflates ahead into kInflateRing
 * chunks; exchange() swaps each into the window in stream order.
 * A zlib or read error is recorded, never raised, on the helper: the
 * failing chunk is dropped and the consumer dies via esd_fatal with the
 * error's message after draining the chunks before it. The destructor
 * stops and joins the helper.
 */
class GzipByteStream : public ByteStream
{
  public:
    explicit GzipByteStream(std::unique_ptr<FileByteStream> inner);
    ~GzipByteStream() override;

    // The helper thread holds `this`.
    GzipByteStream(const GzipByteStream &) = delete;
    GzipByteStream &operator=(const GzipByteStream &) = delete;

  protected:
    std::size_t fill(std::uint8_t *out, std::size_t n) override;
    bool exchange(std::unique_ptr<std::uint8_t[]> &window,
                  std::size_t &pos, std::size_t &end) override;

  private:
    struct State;

    std::size_t inflateSome(std::uint8_t *out, std::size_t n);
    [[noreturn]] void raiseFault() const;
    void startHelper();
    void stopHelper();
    void inflateAhead();
    bool nextChunk();
    void recycleChunk();

    std::unique_ptr<FileByteStream> inner_;
    std::unique_ptr<State> s_;
};

} // namespace detail

/**
 * The streaming trace frontend, and the repo's only trace decoder
 * (`esd_sim -trace-in=` and its alias `-InputFile=`, `esd_sweep
 * -trace-in=`, esd_tracecvt).
 *
 * Decodes records lazily, each one once, into the record the caller
 * hands in: nextBatch fills the consumer's whole batch (the pipeline
 * demux's, Simulator::run's) per virtual call, and next() is a batch
 * of one.
 */
class TraceFrontend : public TraceSource
{
  public:
    /**
     * Open @p path, sniff its format, and validate the header. The
     * [trace] config is unused on input: the stream itself says its
     * format and whether payloads are present.
     */
    TraceFrontend(const std::string &path, const TraceConfig &);
    ~TraceFrontend() override;

    bool next(TraceRecord &rec) override;
    std::size_t nextBatch(TraceRecord *out, std::size_t max) override;
    void reset() override;

    /** The sniffed on-disk format. */
    TraceFormat format() const { return format_; }

    /** Records decoded so far (monotonic; survives reset()). */
    std::uint64_t recordsDecoded() const { return decoded_; }

  private:
    void open();
    bool decodeText(TraceRecord &rec);
    bool decodeBinary(TraceRecord &rec);
    bool nextLine(const char *&line, std::size_t &len);

    std::string path_;
    TraceFormat format_ = TraceFormat::Text;
    std::unique_ptr<detail::ByteStream> in_;

    /** True when the (possibly inflated) record stream is binary. */
    bool binary_ = false;

    /** Binary sub-state: v2 header fields (v1 has none). */
    std::uint8_t binVersion_ = 0;
    bool binPayloads_ = true;

    std::uint64_t lineNo_ = 0;    ///< text diagnostics
    std::uint64_t decoded_ = 0;
    std::uint64_t writesSeen_ = 0;  ///< synthesized-content key
    bool eof_ = false;
};

} // namespace esd

#endif // ESD_TRACE_TRACE_FRONTEND_HH
