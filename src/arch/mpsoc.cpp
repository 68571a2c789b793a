#include "arch/mpsoc.h"

#include "util/checkpoint.h"

#include <stdexcept>

namespace seamap {

MpsocArchitecture::MpsocArchitecture(std::size_t core_count, VoltageScalingTable table,
                                     PowerParams power)
    : core_count_(core_count), power_(std::move(table), power) {
    if (core_count_ == 0)
        throw std::invalid_argument("MpsocArchitecture: need at least one core");
}

ScalingVector MpsocArchitecture::slowest_scaling() const {
    return ScalingVector(core_count_, scaling_table().slowest_level());
}

ScalingVector MpsocArchitecture::nominal_scaling() const {
    return ScalingVector(core_count_, 1);
}

void MpsocArchitecture::validate_scaling(const ScalingVector& levels) const {
    if (levels.size() != core_count_)
        throw std::invalid_argument("MpsocArchitecture: scaling vector size != core count");
    for (ScalingLevel level : levels)
        (void)scaling_table().at_level(level); // throws if out of range
}

void mix_identity(HashStream& h, const MpsocArchitecture& arch) {
    h.mix(arch.core_count());
    const VoltageScalingTable& table = arch.scaling_table();
    h.mix(table.level_count());
    for (std::size_t l = 1; l <= table.level_count(); ++l) {
        const OperatingPoint& op = table.at_level(static_cast<ScalingLevel>(l));
        h.mix_double(op.f_mhz);
        h.mix_double(op.vdd);
    }
    const PowerParams& power = arch.power_model().params();
    h.mix_double(power.c_eff_farads);
    h.mix_double(power.idle_activity);
}

} // namespace seamap
