#include "integration/integrator.h"

namespace uuq {

std::string Integrator::ResolveKey(const std::string& raw_key) {
  return options_.fuzzy_resolution ? resolver_.Resolve(raw_key) : raw_key;
}

Status Integrator::AddSource(const DataSource& source) {
  if (source.id().empty()) {
    return Status::InvalidArgument("source id must be non-empty");
  }
  for (const DataSource::Claim& claim : source.claims()) {
    sample_.Add(source.id(), ResolveKey(claim.entity_key), claim.value,
                claim.category);
  }
  return Status::OK();
}

void Integrator::AddObservation(const Observation& obs) {
  sample_.Add(obs.source_id, ResolveKey(obs.entity_key), obs.value,
              obs.category);
}

}  // namespace uuq
