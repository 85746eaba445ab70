#include "package/fan.h"

#include <stdexcept>

namespace oftec::package {

namespace {

void check_speed(double omega, double max_speed) {
  if (omega < 0.0) {
    throw std::invalid_argument("FanModel::power: negative speed");
  }
  if (omega > max_speed * (1.0 + 1e-9)) {
    throw std::invalid_argument("FanModel::power: speed exceeds max_speed");
  }
}

}  // namespace

double FanModel::power(double omega) const {
  check_speed(omega, max_speed);
  return power_constant * omega * omega * omega;
}

double FanModel::power_derivative(double omega) const {
  check_speed(omega, max_speed);
  return 3.0 * power_constant * omega * omega;
}

void FanModel::validate() const {
  if (power_constant <= 0.0) {
    throw std::invalid_argument("FanModel: power_constant must be > 0");
  }
  if (max_speed <= 0.0) {
    throw std::invalid_argument("FanModel: max_speed must be > 0");
  }
}

}  // namespace oftec::package
