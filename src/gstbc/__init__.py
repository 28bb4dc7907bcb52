"""Structured MMSE detection for layered Alamouti transmission.

Per-instance detectors with exact real-operation accounting live in
`gstbc.detectors`; vectorized engines for Monte Carlo work in
`gstbc.batch`; cost models in `gstbc.complexity`; the BER harness in
`gstbc.sim`.
"""

from .alamouti import (
    AlamoutiBlock,
    StructuredHermitianBlockMatrix,
    ab_adjoint,
    ab_dense,
    ab_from_dense,
    ab_mul,
    sbm_from_dense,
    sbm_to_dense,
)
from .channel import (
    ChannelMatrix,
    NoiseSpec,
    ReceivedVector,
    generate_channel,
    keyed_generator,
    transmit,
)
from .complexity import (
    FlopReport,
    cost_dense_sic,
    cost_recursive,
    measure_flops,
    run_flop_report,
)
from .detectors import (
    SCALAR_DETECTORS,
    DetectionResult,
    detect_fixed_order,
    detect_gstbc,
    detect_linear_mmse,
    detect_osic_symbolwise,
    detect_sic_groupwise_symbolwise,
    init_covariance,
    init_gram,
    matched_filter,
)
from .errors import (
    ConfigInvalid,
    GstbcError,
    InvalidDimensions,
    NonPositiveAlpha,
    OddBitCount,
    ParseError,
    SingularPivot,
    StructureViolation,
)
from .flops import FlopCounter, flop_scope
from .modulation import qpsk_demap, qpsk_modulate, qpsk_slice, qpsk_slice_array
from .sim import DETECTORS, BerRecord, SimConfig, gap_db, run_ber_sweep, snr_at_ber

__version__ = "0.1.0"

__all__ = [
    "AlamoutiBlock",
    "BerRecord",
    "ChannelMatrix",
    "ConfigInvalid",
    "DETECTORS",
    "DetectionResult",
    "FlopCounter",
    "FlopReport",
    "GstbcError",
    "InvalidDimensions",
    "NoiseSpec",
    "NonPositiveAlpha",
    "OddBitCount",
    "ParseError",
    "ReceivedVector",
    "SCALAR_DETECTORS",
    "SimConfig",
    "SingularPivot",
    "StructureViolation",
    "StructuredHermitianBlockMatrix",
    "ab_adjoint",
    "cost_dense_sic",
    "cost_recursive",
    "ab_dense",
    "ab_from_dense",
    "ab_mul",
    "detect_fixed_order",
    "detect_gstbc",
    "detect_linear_mmse",
    "detect_osic_symbolwise",
    "detect_sic_groupwise_symbolwise",
    "flop_scope",
    "gap_db",
    "generate_channel",
    "init_covariance",
    "init_gram",
    "keyed_generator",
    "matched_filter",
    "measure_flops",
    "run_flop_report",
    "qpsk_demap",
    "qpsk_modulate",
    "qpsk_slice",
    "qpsk_slice_array",
    "run_ber_sweep",
    "sbm_from_dense",
    "sbm_to_dense",
    "snr_at_ber",
    "transmit",
    "__version__",
]
