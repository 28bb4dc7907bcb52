import math
import tracemalloc

import numpy as np
import pytest

import gstbc.batch as batch
import gstbc.sim as sim
from gstbc.channel import keyed_generator, receive
from gstbc.errors import ConfigInvalid, ParseError, SingularPivot
from gstbc.modulation import qpsk_modulate
from gstbc.sim import (
    BerRecord,
    SimConfig,
    emit_csv,
    format_csv,
    gap_db,
    parse_csv,
    run_ber_sweep,
    sigma_n2_for_snr,
    snr_at_ber,
)


def test_config_validation():
    SimConfig(layers=2, n_rx=2, trials=1)
    with pytest.raises(ConfigInvalid):
        SimConfig(layers=3, n_rx=2)
    with pytest.raises(ConfigInvalid):
        SimConfig(layers=0, n_rx=2)
    with pytest.raises(ConfigInvalid):
        SimConfig(layers=2, n_rx=2, snr_db=())
    with pytest.raises(ConfigInvalid):
        SimConfig(layers=2, n_rx=2, detectors=("proposed", "zf"))
    with pytest.raises(ConfigInvalid):
        SimConfig(layers=2, n_rx=2, trials=0)
    for bad in ({"snr_db": (0.0, float("nan"))}, {"snr_db": (float("inf"),)},
                {"snr_db": (4000.0,)}, {"snr_db": (-4000.0,)},
                {"detectors": ("proposed", "proposed")},
                {"detectors": ("proposed", "linear_mmse", "proposed")},
                {"seed": -1}, {"detectors": ()}, {"seed": 1.5}, {"trials": 10.5},
                {"layers": 1.0}, {"n_rx": 1.0}, {"trials": True}, {"seed": False},
                {"layers": True}, {"n_rx": True}):
        with pytest.raises(ConfigInvalid):
            SimConfig(**{"layers": 1, "n_rx": 1, **bad})


@pytest.mark.parametrize("snr_db", [5.0, 0.0, ("a",), (None,), (0.0, None), (1j,), "5", (True,), (0.0, np.False_)])
def test_config_rejects_a_grid_of_non_numbers(snr_db):
    # a scalar or a non-number is named as a bad grid, not left to fail
    # as a TypeError inside the noise formula
    with pytest.raises(ConfigInvalid, match="snr_db must be a sequence of real numbers"):
        SimConfig(layers=1, n_rx=1, snr_db=snr_db)


@pytest.mark.parametrize("detectors", ["proposed", 5, (["proposed"],)])
def test_config_rejects_detectors_that_are_not_a_sequence_of_names(detectors):
    # a bare name is not split into one unknown detector per character,
    # and a non-sequence or an unhashable entry is named, not a TypeError
    with pytest.raises(ConfigInvalid, match="detectors must be a sequence of names"):
        SimConfig(layers=1, n_rx=1, detectors=detectors)
    assert SimConfig(layers=1, n_rx=1, detectors=["proposed"]).detectors == ["proposed"]


def test_noise_power_convention():
    # two bits per symbol at unit symbol energy: Eb = sigma_s2 / 2
    assert sigma_n2_for_snr(0.0) == pytest.approx(0.5)
    assert sigma_n2_for_snr(10.0) == pytest.approx(0.05)
    assert sigma_n2_for_snr(3.0, sigma_s2=2.0) == pytest.approx(1.0 / 10 ** 0.3)


def test_sweep_counts_exact_trials():
    cfg = SimConfig(layers=2, n_rx=2, snr_db=(5.0,), trials=7, seed=3)
    (rec,) = run_ber_sweep(cfg)
    assert rec.frames == 7
    assert rec.bits == 7 * 2 * 2 * 2  # trials * layers * 2 symbols * 2 bits
    assert rec.bit_errors >= 0
    assert rec.ber == rec.bit_errors / rec.bits


def test_sweep_spans_blocks_exactly(monkeypatch):
    # shrink the block size so a tiny sweep crosses block boundaries;
    # totals must still count every trial exactly once
    monkeypatch.setattr(sim, "BLOCK_SIZE", 16)
    cfg = SimConfig(layers=2, n_rx=2, snr_db=(8.0,), trials=53, seed=5)
    (rec,) = run_ber_sweep(cfg)
    assert rec.frames == 53
    assert rec.bits == 53 * 8


def test_sweep_is_deterministic(monkeypatch):
    # repeated runs of the same config produce byte-identical output,
    # including when the budget spans several keyed blocks
    cfg = SimConfig(
        layers=2, n_rx=2, snr_db=(2.0, 6.0), detectors=("proposed", "linear_mmse"),
        trials=400, seed=11,
    )
    assert format_csv(run_ber_sweep(cfg), cfg) == format_csv(run_ber_sweep(cfg), cfg)
    monkeypatch.setattr(sim, "BLOCK_SIZE", 128)
    assert format_csv(run_ber_sweep(cfg), cfg) == format_csv(run_ber_sweep(cfg), cfg)


def test_shared_block_sweep_matches_one_detector_sweeps(monkeypatch):
    # all five detectors on one prepared block per draw give the records of
    # five separate sweeps, each of which prepares its block alone
    monkeypatch.setattr(sim, "BLOCK_SIZE", 40)
    kw = dict(layers=2, n_rx=3, snr_db=(-2.0, 3.0), trials=100, seed=19)
    names = tuple(sim.DETECTORS)
    shared = run_ber_sweep(SimConfig(detectors=names, **kw))
    alone = [rec for name in names for rec in run_ber_sweep(SimConfig(detectors=(name,), **kw))]
    key = lambda r: (r.detector, r.snr_db)
    assert sorted(shared, key=key) == sorted(alone, key=key)
    assert len(shared) == 10 and all(r.frames == 100 for r in shared)


def test_slicing_changes_no_record(monkeypatch):
    # a slice that does not divide the block gives the records of whole
    # blocks, and no block the sweep prepares holds more than a slice
    monkeypatch.setattr(sim, "BLOCK_SIZE", 40)
    sizes = []

    class Counted(batch.PreparedBlock):
        def __init__(self, h, x, alpha):
            sizes.append(len(h))
            super().__init__(h, x, alpha)

    monkeypatch.setattr(sim, "PreparedBlock", Counted)
    for layers, n_rx in ((2, 3), (3, 4)):
        cfg = SimConfig(layers=layers, n_rx=n_rx, snr_db=(-2.0, 3.0),
                        detectors=tuple(sim.DETECTORS), trials=100, seed=23)
        monkeypatch.setattr(sim, "SLICE_SIZE", 40)
        whole = run_ber_sweep(cfg)
        monkeypatch.setattr(sim, "SLICE_SIZE", 7)
        sizes.clear()
        assert run_ber_sweep(cfg) == whole
        assert max(sizes) == 7 and sum(sizes) == 2 * 100
        assert len(whole) == 10 and all(r.frames == 100 for r in whole)


def test_detector_failure_names_detector_point_block_and_slice(monkeypatch):
    monkeypatch.setattr(sim, "BLOCK_SIZE", 40)
    monkeypatch.setattr(sim, "SLICE_SIZE", 16)
    real = sim.DETECTORS["linear_mmse"]
    calls = []

    def fails_on_third_slice(h, x, alpha, prepared=None):
        # the sweep's blocks hold no gains, so the slice size is read from
        # the compressed entries
        calls.append(len(prepared.compressed[0].diag[0]))
        if len(calls) == 3:
            raise SingularPivot("pivot vanishes")
        return real(h, x, alpha, prepared=prepared)

    monkeypatch.setitem(sim.DETECTORS, "linear_mmse", fails_on_third_slice)
    cfg = SimConfig(layers=2, n_rx=2, snr_db=(2.0,), detectors=("proposed", "linear_mmse"), trials=100, seed=3)
    with pytest.raises(SingularPivot) as info:
        run_ber_sweep(cfg)
    assert str(info.value) == "linear_mmse at 2 dB, block 0, instances 32-39: pivot vanishes"
    assert isinstance(info.value.__cause__, SingularPivot)
    assert calls == [16, 16, 8]


def _composite_draw(rng, count, layers, n_rx, sigma_n2):
    """The draw as whole-array normals and complex arithmetic."""
    shape = (count, n_rx, 2 * layers)
    h = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * sim._SCALE
    bits = rng.integers(0, 2, size=(count, 4 * layers)).astype(np.int8)
    s = qpsk_modulate(bits)
    slots = (count, n_rx, 2)
    noise = (rng.standard_normal(slots) + 1j * rng.standard_normal(slots)) * math.sqrt(sigma_n2 / 2.0)
    return h, bits, s, receive(h, s, noise)


@pytest.mark.parametrize("layers,n_rx", [(1, 1), (2, 8), (8, 8)])
@pytest.mark.parametrize("sigma_n2", [0.0, 0.35])
def test_draw_is_bytewise_the_composite_draw(layers, n_rx, sigma_n2):
    # 1,501 instances at (8, 8) fill the draw's buffer 12 times per part;
    # drawn whole or in slices of 1 or 7 (the last one partial), each
    # array put back together is bytewise the composite draw's
    count = 1501
    old = _composite_draw(keyed_generator(9, 1, 2), count, layers, n_rx, sigma_n2)
    new = sim._draw_block(keyed_generator(9, 1, 2), count, layers, n_rx, sigma_n2)
    for a, b in zip(new, old):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    for size in (1, 7, count):
        sliced = sim._draw_block(keyed_generator(9, 1, 2), count, layers, n_rx, sigma_n2, size)
        for parts, b in zip(sliced, old):
            assert [len(a) for a in parts] == [min(size, count - lo) for lo in range(0, count, size)]
            assert all(a.flags.c_contiguous for a in parts)
            a = np.concatenate(parts)
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes(), size


def test_sweep_memory_is_bounded_by_a_slice():
    # the traced peak of one point.  (8, 8), 10,000 trials: holding the
    # whole block's front ends at once traced 98 MiB, a slice at a time
    # with the block's gains held through detection 51.8 MiB, and with
    # the gains dropped once the compressed entries exist 30.3 MiB.
    # (2, 8), 25,000 trials, five detectors: 32.4 MiB holding the gains,
    # 21.0 MiB without.  The bounds were fixed before the first run
    for layers, detectors, trials, bound_mib in (
        (8, ("proposed", "fixed_order", "linear_mmse"), 10_000, 40),
        (2, tuple(sim.DETECTORS), 25_000, 26),
    ):
        cfg = SimConfig(layers=layers, n_rx=8, snr_db=(0.0,), trials=trials, seed=29, detectors=detectors)
        tracemalloc.start()
        try:
            run_ber_sweep(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20, (layers, peak / 2**20)


def test_seed_changes_output():
    base = SimConfig(layers=2, n_rx=2, snr_db=(4.0,), trials=500, seed=0)
    other = SimConfig(layers=2, n_rx=2, snr_db=(4.0,), trials=500, seed=1)
    (a,) = run_ber_sweep(base)
    (b,) = run_ber_sweep(other)
    assert a.bit_errors != b.bit_errors


def test_progress_callback_sees_every_block(monkeypatch):
    monkeypatch.setattr(sim, "BLOCK_SIZE", 32)
    cfg = SimConfig(layers=2, n_rx=2, snr_db=(0.0, 5.0), trials=100, seed=2)
    calls = []
    run_ber_sweep(cfg, progress=lambda p, b, n: calls.append((p, b, n)))
    assert calls == [(0, 0, 4), (0, 1, 4), (0, 2, 4), (0, 3, 4),
                     (1, 0, 4), (1, 1, 4), (1, 2, 4), (1, 3, 4)]


def test_csv_roundtrip(tmp_path):
    cfg = SimConfig(layers=2, n_rx=3, snr_db=(0.0, 4.0), trials=300, seed=7,
                    detectors=("proposed", "osic_symbolwise"))
    records = run_ber_sweep(cfg)
    path = tmp_path / "sweep.csv"
    emit_csv(records, path, cfg)
    text = path.read_text()
    assert text.startswith("# ber sweep: layers=2 n_rx=3 trials=300\n")
    assert "# snr_db is Eb/N0" in text and "seed=7" in text
    assert "detector,snr_db,bits,bit_errors,ber,frames,frame_errors" in text
    back = parse_csv(path)
    assert len(back) == len(records)
    for r1, r2 in zip(records, back):
        assert r1.detector == r2.detector
        assert r1.snr_db == r2.snr_db
        assert (r1.bits, r1.bit_errors, r1.frames, r1.frame_errors) == (
            r2.bits, r2.bit_errors, r2.frames, r2.frame_errors
        )
        assert r2.ber == pytest.approx(r1.ber, rel=1e-9)


def test_csv_roundtrip_empty(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert parse_csv(path) == []


def test_parse_csv_names_the_line_of_a_malformed_row(tmp_path):
    path = tmp_path / "bad.csv"
    emit_csv([BerRecord("proposed", 0.0, 8, 1, 0.125, 2, 1)], path)
    good = path.read_text()
    for row, what in (("proposed,2.0,8,1\n", "expected 7 fields"), ("proposed,2.0,8,x,0.125,2,1\n", "bad number")):
        path.write_text(good + row)
        with pytest.raises(ParseError, match=what) as err:
            parse_csv(path)
        assert err.value.line == good.count("\n") + 1


def synthetic_records():
    mk = lambda det, snr, ber: BerRecord(det, snr, 10_000, int(ber * 10_000), ber, 2500, 0)
    return [
        mk("a", 0.0, 1e-1), mk("a", 5.0, 1e-2), mk("a", 10.0, 1e-4),
        mk("b", 0.0, 2e-1), mk("b", 5.0, 2e-2), mk("b", 10.0, 2e-4),
        BerRecord("c", 0.0, 10_000, 500, 5e-2, 2500, 0),
        BerRecord("c", 5.0, 10_000, 0, 0.0, 2500, 0),
    ]


def test_snr_at_ber_log_interpolation():
    recs = synthetic_records()
    # halfway in log10: ber 1e-3 sits exactly between the 5 and 10 dB points
    assert snr_at_ber(recs, "a", 1e-3) == pytest.approx(7.5)
    assert snr_at_ber(recs, "a", 1e-2) == pytest.approx(5.0)
    # zero-error point: crossing snaps to that grid point
    assert snr_at_ber(recs, "c", 1e-3) == pytest.approx(5.0)
    # never crosses / already below at the first point / unknown name
    assert snr_at_ber(recs, "b", 1e-5) is None
    assert snr_at_ber(recs, "a", 0.5) is None
    assert snr_at_ber(recs, "nope", 1e-3) is None
    # a BER target must be a probability strictly between 0 and 1
    for target in (0.0, -1e-3, 1.0, math.nan, math.inf):
        with pytest.raises(ConfigInvalid, match="target"):
            snr_at_ber(recs, "a", target)


def test_gap_db():
    recs = synthetic_records()
    gap = gap_db(recs, "b", "a", 1e-3)
    # both curves have slope -2 decades per 5 dB; a factor 2 in ber is a
    # fixed horizontal shift of 5 * log10(2) / 2 dB
    assert gap == pytest.approx(5 * math.log10(2) / 2, abs=1e-9)
    assert gap_db(recs, "a", "b", 1e-5) is None


def test_noiseless_point_is_error_free():
    cfg = SimConfig(layers=2, n_rx=2, snr_db=(200.0,), trials=200, seed=13)
    (rec,) = run_ber_sweep(cfg)
    assert rec.bit_errors == 0 and rec.frame_errors == 0


def test_detector_dominance_on_shared_randomness():
    # same noise realizations for every detector: ordering plus per-layer
    # cancellation can only help, so the error counts must come out in
    # the documented order up to binomial noise (checked at 2 SEs)
    cfg = SimConfig(
        layers=2, n_rx=2, snr_db=(6.0,), trials=120_000, seed=17,
        detectors=("osic_symbolwise", "proposed", "fixed_order", "sic_groupwise"),
    )
    recs = {r.detector: r for r in run_ber_sweep(cfg)}
    se = lambda r: math.sqrt(max(r.bit_errors, 1.0))
    osic, prop, fixed = recs["osic_symbolwise"], recs["proposed"], recs["fixed_order"]
    assert osic.bit_errors <= prop.bit_errors + 2 * se(prop)
    assert prop.bit_errors <= fixed.bit_errors + 2 * se(fixed)
    # the dense group-wise reference is the same detection rule bit for bit
    assert recs["sic_groupwise"].bit_errors == prop.bit_errors
    assert recs["sic_groupwise"].frame_errors == prop.frame_errors
