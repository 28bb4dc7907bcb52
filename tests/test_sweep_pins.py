"""The sweep's records, pinned byte for byte.

`sweep_pins.csv` holds `format_csv` of the three sweeps below, one after
another.  They cover every batch detector, blocks of unequal size
((2, 8) at 26,000 trials: 7 blocks of 3,714 or 3,715 instances), the
structured engine at (8, 8) (9,000 trials: 3 blocks), and an odd layer
count ((3, 4), 5,000 trials: 2 blocks), each over two SNR points that
share their blocks' gains.  A change to how the draw, the detectors, the
slicer or the tally is written must leave every count unchanged; the
other sweep tests check only properties of the records.
"""

from pathlib import Path

from gstbc.sim import SimConfig, format_csv, run_ber_sweep

ALL = ("proposed", "fixed_order", "linear_mmse", "osic_symbolwise", "sic_groupwise")
SWEEPS = (
    SimConfig(layers=2, n_rx=8, snr_db=(-8.0, -3.0), detectors=ALL, trials=26_000, seed=7),
    SimConfig(layers=8, n_rx=8, snr_db=(0.0, 6.0), detectors=ALL[:3], trials=9_000, seed=11),
    SimConfig(layers=3, n_rx=4, snr_db=(0.0, 6.0), detectors=ALL, trials=5_000, seed=3),
)
PINS = Path(__file__).parent / "sweep_pins.csv"


def test_sweep_records_are_pinned_bytewise():
    got = "".join(format_csv(run_ber_sweep(c), c) for c in SWEEPS)
    assert got == PINS.read_text(encoding="utf-8")
