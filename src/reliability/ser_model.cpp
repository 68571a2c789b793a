#include "reliability/ser_model.h"

#include "util/checkpoint.h"

#include <cmath>
#include <stdexcept>

namespace seamap {

SerModel::SerModel(SerParams params) : params_(params) {
    if (params_.ser_ref_per_bit_cycle < 0.0)
        throw std::invalid_argument("SerModel: reference SER must be >= 0");
    if (params_.ref_vdd <= 0.0 || params_.ref_f_mhz <= 0.0)
        throw std::invalid_argument("SerModel: reference point must be positive");
    if (params_.voltage_exponent_k < 0.0)
        throw std::invalid_argument("SerModel: voltage exponent must be >= 0");
}

double SerModel::ser_per_bit_second(double vdd) const {
    if (vdd <= 0.0) throw std::invalid_argument("SerModel: vdd must be > 0");
    const double ref_rate_per_second = params_.ser_ref_per_bit_cycle * params_.ref_f_mhz * 1e6;
    return ref_rate_per_second * std::exp(params_.voltage_exponent_k * (params_.ref_vdd - vdd));
}

double SerModel::lambda_per_bit_cycle(const OperatingPoint& op) const {
    return ser_per_bit_second(op.vdd) / (op.f_mhz * 1e6);
}

void mix_identity(HashStream& h, const SerModel& ser) {
    const SerParams& sp = ser.params();
    h.mix_double(sp.ser_ref_per_bit_cycle);
    h.mix_double(sp.ref_vdd);
    h.mix_double(sp.ref_f_mhz);
    h.mix_double(sp.voltage_exponent_k);
}

} // namespace seamap
