/**
 * @file
 * Minimal JSON support for the observability layer: a streaming
 * writer (stats reports, JSONL trace records) and a small
 * recursive-descent parser (round-trip tests, tooling that consumes
 * the machine-readable run reports).
 *
 * Deliberately tiny rather than a third-party dependency: the repo's
 * JSON needs are flat objects of numbers/strings plus arrays thereof.
 */

#ifndef ESD_COMMON_JSON_HH
#define ESD_COMMON_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace esd
{

/**
 * Streaming JSON writer with automatic comma/indent management.
 *
 * Usage:
 *   JsonWriter w(os);
 *   w.beginObject();
 *   w.key("answer"); w.value(42);
 *   w.endObject();
 *
 * Non-finite doubles serialize as null (JSON has no inf/nan).
 */
class JsonWriter
{
  public:
    /** @param indent spaces per nesting level; 0 = compact one-line. */
    explicit JsonWriter(std::ostream &os, int indent = 2)
        : os_(os), indent_(indent)
    {
    }

    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Emit the key of the next object member. */
    void key(const std::string &k);

    void value(double v);
    void value(std::uint64_t v);
    void value(std::int64_t v);
    void value(int v) { value(static_cast<std::int64_t>(v)); }
    void value(unsigned v) { value(static_cast<std::uint64_t>(v)); }
    void value(bool v);
    void value(const std::string &v);
    void value(const char *v) { value(std::string(v)); }
    void nullValue();

    /** Emit @p json — an already-serialized JSON value — verbatim in
     * value position (comma/indent management still applies). Lets the
     * sweep-report merger splice per-job documents that were serialized
     * independently by worker threads without re-parsing them. */
    void rawValue(const std::string &json);

    /** Convenience: key() + value() in one call. */
    template <typename T>
    void
    kv(const std::string &k, T v)
    {
        key(k);
        value(v);
    }

    /** JSON string escaping (exposed for ad-hoc writers like the
     * trace JSONL emitter). */
    static std::string escape(const std::string &s);

  private:
    struct Scope
    {
        bool array = false;
        int members = 0;
    };

    void beforeValue();
    void newline();

    std::ostream &os_;
    int indent_;
    bool pendingKey_ = false;
    std::vector<Scope> stack_;
};

/** A parsed JSON document node. */
struct JsonValue
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0;
    std::string str;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }
    bool isArray() const { return type == Type::Array; }
    bool isObject() const { return type == Type::Object; }

    /** Member lookup on an object; nullptr when absent / not an
     * object. */
    const JsonValue *find(const std::string &k) const;
};

/**
 * Parse @p text into @p out.
 * @return true on success; on failure @p err (if non-null) receives a
 *         position-annotated message.
 */
bool tryParseJson(const std::string &text, JsonValue &out,
                  std::string *err = nullptr);

/** Parse @p text; fatal on malformed input (tests use tryParseJson). */
JsonValue parseJson(const std::string &text);

} // namespace esd

#endif // ESD_COMMON_JSON_HH
