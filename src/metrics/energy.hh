/**
 * @file
 * Energy accounting across the system: raw PCM array energy plus the
 * scheme-side fingerprinting, encryption, and metadata energy — the
 * decomposition behind Fig. 16.
 */

#ifndef ESD_METRICS_ENERGY_HH
#define ESD_METRICS_ENERGY_HH

#include "common/types.hh"
#include "dedup/scheme.hh"
#include "nvm/pcm_device.hh"

namespace esd
{

/** Component-wise energy in picojoules. */
struct EnergyBreakdown
{
    Energy deviceRead = 0;
    Energy deviceWrite = 0;
    Energy hash = 0;      ///< SHA-1 / CRC fingerprinting
    Energy crypto = 0;    ///< counter-mode encryption
    Energy metadata = 0;  ///< on-chip metadata caches + comparators

    Energy
    total() const
    {
        return deviceRead + deviceWrite + hash + crypto + metadata;
    }

    void
    add(const EnergyBreakdown &o)
    {
        deviceRead += o.deviceRead;
        deviceWrite += o.deviceWrite;
        hash += o.hash;
        crypto += o.crypto;
        metadata += o.metadata;
    }

    /** Assemble from device and scheme statistics. */
    static EnergyBreakdown
    collect(const NvmStats &nvm, const SchemeStats &scheme)
    {
        EnergyBreakdown e;
        e.deviceRead = nvm.readEnergy;
        e.deviceWrite = nvm.writeEnergy;
        e.hash = scheme.hashEnergy;
        e.crypto = scheme.cryptoEnergy;
        e.metadata = scheme.metadataEnergy;
        return e;
    }
};

} // namespace esd

#endif // ESD_METRICS_ENERGY_HH
