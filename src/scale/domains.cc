#include "scale/domains.h"

namespace clickinc::scale {

DomainIndex::DomainIndex(const topo::Topology& topo) {
  int max_pod = -1;
  for (const auto& n : topo.nodes()) {
    if (n.pod > max_pod) max_pod = n.pod;
  }
  domain_of_.assign(static_cast<std::size_t>(topo.nodeCount()), kCrossDomain);
  devices_.resize(static_cast<std::size_t>(max_pod + 1));
  for (const auto& n : topo.nodes()) {
    domain_of_[static_cast<std::size_t>(n.id)] = n.pod >= 0 ? n.pod
                                                            : kCrossDomain;
    if (!n.programmable) continue;
    if (n.pod >= 0) devices_[static_cast<std::size_t>(n.pod)].push_back(n.id);
  }
}

int DomainIndex::domainOfTraffic(const topo::TrafficSpec& spec) const {
  if (devices_.empty()) return kCrossDomain;
  if (spec.dst_host < 0 ||
      spec.dst_host >= static_cast<int>(domain_of_.size())) {
    return kCrossDomain;
  }
  const int pod = domainOf(spec.dst_host);
  if (pod == kCrossDomain) return kCrossDomain;
  for (const auto& src : spec.sources) {
    if (src.host < 0 || src.host >= static_cast<int>(domain_of_.size()) ||
        domainOf(src.host) != pod) {
      return kCrossDomain;
    }
  }
  return pod;
}

}  // namespace clickinc::scale
