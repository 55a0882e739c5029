#include "common/config.hh"

#include <sstream>

namespace esd
{

std::string
SimConfig::summary() const
{
    std::ostringstream os;
    os << "Processor\n"
       << "  CPU:            in-order, " << core.clockGhz << " GHz, base CPI "
       << core.baseCpi << "\n"
       << "  Cache line:     " << kLineSize << " B\n"
       << "Main Memory (PCM)\n"
       << "  Capacity:       " << (pcm.capacityBytes >> 30) << " GB\n"
       << "  Latency R/W:    " << pcm.readLatency << " ns / "
       << pcm.writeLatency << " ns\n"
       << "  Energy R/W:     " << pcm.readEnergy / 1000.0 << " nJ / "
       << pcm.writeEnergy / 1000.0 << " nJ\n"
       << "  Banks:          " << pcm.banksPerChannel << " per channel\n"
       << "  Mem channels:   " << channels.count << ", WPQ depth "
       << pcm.writeQueueDepth << "/ch, coalescing "
       << (channels.wpqCoalescing ? "on" : "off") << "\n"
       << "Metadata Cache\n"
       << "  EFIT:           " << metadata.efitCacheBytes / 1024 << " KB ("
       << (metadata.useLrcu ? "LRCU" : "LRU") << ")\n"
       << "  AMT:            " << metadata.amtCacheBytes / 1024 << " KB\n";
    return os.str();
}

} // namespace esd
