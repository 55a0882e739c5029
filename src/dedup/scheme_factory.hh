/**
 * @file
 * Construction of the six schemes by enum — mirrors the artifact's
 * scheme selector (0: Baseline, 1: Tra_sha1, 2: DeWrite, 3: ESD) and
 * extends it with the ESD_Full ablation (4) and the ESD+ extension
 * (5).
 */

#ifndef ESD_DEDUP_SCHEME_FACTORY_HH
#define ESD_DEDUP_SCHEME_FACTORY_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dedup/scheme.hh"

namespace esd
{

/** The evaluated design points. */
enum class SchemeKind
{
    Baseline = 0,
    DedupSha1 = 1,
    DeWrite = 2,
    Esd = 3,

    /** Ablation-only: ECC fingerprints with a full NVMM-resident
     * index (not a paper scheme; see esd_figures' bench_abl_selective
     * row). */
    EsdFull = 4,

    /** Extension: ESD plus a hot-content cache that answers byte
     * comparisons on chip (not a paper scheme; see esd_figures'
     * bench_abl_content_cache row). */
    EsdPlus = 5,
};

/** The paper's four kinds (0..3) in evaluation order. */
const std::vector<SchemeKind> &allSchemeKinds();

/** Display name of a kind. */
const char *schemeName(SchemeKind kind);

/** Parse a scheme name or ordinal; fatal on unknown input. */
SchemeKind parseSchemeKind(const std::string &s);

/** Parse a scheme name or ordinal; nullopt on unknown input — the
 * validating form CLIs use to reject bad -schemes= lists up front. */
std::optional<SchemeKind> tryParseSchemeKind(const std::string &s);

/** Every kind including the ablation/extension schemes (0..5). */
const std::vector<SchemeKind> &allSchemeKindsExtended();

/** Build a scheme instance over the shared device and store. */
std::unique_ptr<DedupScheme> makeScheme(SchemeKind kind,
                                        const SimConfig &cfg,
                                        PcmDevice &device,
                                        NvmStore &store);

} // namespace esd

#endif // ESD_DEDUP_SCHEME_FACTORY_HH
