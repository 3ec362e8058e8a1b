"""Collective excitons of a finite 1-D atomic chain coupled to one cavity mode.

Dipole-dipole transfer delocalizes single-site excitations into standing-wave
exciton modes; the odd modes couple to the cavity, the nodeless one
superradiantly so.  This package computes the mode structure, the polariton
doublet it forms with the cavity photon, Rabi splittings, and the linear
transmission/reflection spectra of the driven system.
"""

from .exciton import (
    coupling_sum, envelope_mode_couplings, exciton_energies, mode_coupling_array,
    oscillator_fractions, site_coupling, superradiant_coupling,
)
from .params import (
    EPSILON_0, MAGIC_ANGLE_RAD, PLANCK_H, ConfigError, DampingSet, InvalidParameterError,
    SystemParams, cavity_frequency, chain_length, load_params, mode_volume, params_from_dict,
    site_positions, superradiant_energy, transfer_parameter, validate,
)
from .polariton import (
    ModelVariant, PolaritonDoublet, collective_coupling_noninteracting, generalized_rabi,
    multimode_diagonalize, superradiant_doublet, two_mode_doublet, vacuum_rabi_vs_N,
    variant_resonances,
)
from .spectra import (
    NoOutputChannelError, Peak, SpectrumTrace, cavity_response, default_grid, peak_find, sweep,
    transfer_function, variant_center,
)

__version__ = "0.1.0"
