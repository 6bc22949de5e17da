"""Desk-scale digital predistortion laboratory.

Simulated memoryful power amplifier, three predistorter families (classical
least-squares memory polynomial, attention-gated mixture of offset memory
polynomials, real-valued time-delay dense network), an indirect-learning
fit/deploy/evaluate harness, and CSV sweep reports.

Importing dpdlab sets NumPy's bundled OpenBLAS to one thread for the whole
process, so its results do not depend on the machine's core count.
"""

from types import ModuleType as _ModuleType

from ._blas import pin_one_thread as _pin_one_thread

_pin_one_thread()

from .exceptions import ConditioningError, DpdlabError, FormatError, TrainingDivergedError
from .signal import (
    AlignmentResult,
    ComplexSequence,
    TapWindow,
    align,
    delayed_matrix,
    deserialize_iq,
    generate_waveform,
    nmse_db,
    read_iq_csv,
    serialize_iq,
    window_at,
    write_iq_csv,
)
from .pa_sim import PaConfig, pa_forward, preset
from .mpm import BasisMatrix, MpmCoefficients, MpmSpec, build_basis, ls_fit
from .agmpnn import AgmpnnModel, count_params_actual, count_params_formula
from .rvftdnn import RvftdnnModel, architecture_search, rvftdnn_param_count
from .training import AdamState, TrainConfig, TrainHistory, adam_step, finite_diff_check, train
from .ila import DpdModelSpec, IlaReport, run_ila, sweep_complexity, sweep_taps

__version__ = "0.1.0"

# The public names are the ones imported above, and the version.
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)] + ["__version__"]
