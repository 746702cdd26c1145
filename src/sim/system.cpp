#include "sim/system.h"

#include "core/logging.h"

namespace pimba {

std::optional<PimDesign>
SystemConfig::pim() const
{
    switch (kind) {
      case SystemKind::GPU:
      case SystemKind::GPU_Q:
        return std::nullopt;
      case SystemKind::GPU_PIM:
        return hbmPimDesign();
      case SystemKind::PIMBA:
        return pimbaDesign();
      case SystemKind::NEUPIMS:
        return neupimsDesign();
    }
    PIMBA_PANIC("unknown system kind");
}

NumberFormat
SystemConfig::stateFormat() const
{
    switch (kind) {
      case SystemKind::GPU: return NumberFormat::FP16;
      case SystemKind::GPU_Q: return NumberFormat::INT8;
      case SystemKind::GPU_PIM: return NumberFormat::FP16;
      case SystemKind::PIMBA: return NumberFormat::MX8;
      case SystemKind::NEUPIMS: return NumberFormat::FP16;
    }
    PIMBA_PANIC("unknown system kind");
}

NumberFormat
SystemConfig::kvFormat() const
{
    switch (kind) {
      case SystemKind::GPU: return NumberFormat::FP16;
      case SystemKind::GPU_Q: return NumberFormat::INT8;
      case SystemKind::GPU_PIM: return NumberFormat::FP16;
      case SystemKind::PIMBA: return NumberFormat::MX8;
      case SystemKind::NEUPIMS: return NumberFormat::FP16;
    }
    PIMBA_PANIC("unknown system kind");
}

bool
SystemConfig::stateUpdateOnPim() const
{
    auto design = pim();
    return design && design->supportsStateUpdate;
}

bool
SystemConfig::attentionOnPim() const
{
    auto design = pim();
    return design && design->supportsAttention;
}

SystemConfig
makeSystem(SystemKind kind, int n_gpus, const GpuConfig &gpu,
           const HbmConfig &hbm)
{
    SystemConfig cfg;
    cfg.kind = kind;
    cfg.gpu = gpu;
    cfg.hbm = hbm;
    cfg.nGpus = n_gpus;
    return cfg;
}

std::vector<SystemKind>
mainSystems()
{
    return {SystemKind::GPU, SystemKind::GPU_Q, SystemKind::GPU_PIM,
            SystemKind::PIMBA};
}

} // namespace pimba
