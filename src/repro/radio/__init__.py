"""Radio substrate: signals, antennas, noise, spread spectrum, radios."""

from repro.radio.antenna import Antenna, friis_constant, friis_power_gain, wavelength
from repro.radio.receiver_model import SicReceiver
from repro.radio.signal import (
    Signal,
    add_powers_db,
    combine_powers,
    db_to_linear,
    dbm_to_watts,
    linear_to_db,
    power_rise_db,
    watts_to_dbm,
)
from repro.radio.spreadspectrum import (
    DespreaderBank,
    DespreaderBusyError,
    ProcessingGain,
)
from repro.radio.thermal import BOLTZMANN, STANDARD_TEMPERATURE_K, thermal_noise_power
from repro.radio.transmitter import Transmitter, TransmitterBusyError

__all__ = [
    "Antenna",
    "BOLTZMANN",
    "DespreaderBank",
    "DespreaderBusyError",
    "ProcessingGain",
    "STANDARD_TEMPERATURE_K",
    "SicReceiver",
    "Signal",
    "Transmitter",
    "TransmitterBusyError",
    "add_powers_db",
    "combine_powers",
    "db_to_linear",
    "dbm_to_watts",
    "friis_constant",
    "friis_power_gain",
    "linear_to_db",
    "power_rise_db",
    "thermal_noise_power",
    "watts_to_dbm",
    "wavelength",
]
