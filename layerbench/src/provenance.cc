#include "provenance.hh"

#include <unistd.h>

#include <fstream>
#include <sstream>
#include <thread>

#include "obs/obs.hh"

namespace layerbench {

namespace {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) >= 0x20) {
            out += c;
        }
    }
    return out + "\"";
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line)) {
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

} // namespace

Provenance
collectProvenance()
{
    Provenance p;
    char host[256] = {};
    if (::gethostname(host, sizeof host - 1) == 0)
        p.host = host;
    p.nproc = std::thread::hardware_concurrency();
    p.cpuModel = cpuModel();
    p.compiler = LB_COMPILER;
    p.flags = LB_CXX_FLAGS;
    p.buildType = LB_BUILD_TYPE;
#ifdef __OPTIMIZE__
    p.optimised = true;
#endif
    p.obs = azoo::obs::kEnabled;
    return p;
}

std::string
provenanceJson(const Provenance &p)
{
    std::ostringstream os;
    os << "{\"host\": " << jsonString(p.host)
       << ", \"nproc\": " << p.nproc
       << ", \"cpu_model\": " << jsonString(p.cpuModel)
       << ", \"compiler\": " << jsonString(p.compiler)
       << ", \"flags\": " << jsonString(p.flags)
       << ", \"build_type\": " << jsonString(p.buildType)
       << ", \"optimised\": " << (p.optimised ? "true" : "false")
       << ", \"azoo_obs\": " << (p.obs ? "true" : "false")
       << ", \"git_sha\": " << jsonString(p.gitSha)
       << ", \"git_dirty\": " << (p.gitDirty ? "true" : "false")
       << ", \"workload\": " << jsonString(p.workload)
       << ", \"seed\": " << p.seed << "}";
    return os.str();
}

} // namespace layerbench
