"""The three workloads: what one round runs, how its outputs are checked,
where the traced run wraps the program, and which per-layer metrics it
derives from the spans.

A round is always the same set of operations, so a run attempts whole
rounds.  On the sweeps a round is one `run_ber_sweep` call and an
operation is one detector on one SNR point (one block of channel uses).
On `scalar-counted` a round detects every generated instance once with
every detector of its shape, and an operation is one detection.
"""

from __future__ import annotations

import math

import numpy as np

import reference
from gstbc import batch, channel, complexity, detectors, sim

# relative soft-value deviation from the reference still counted as agreement;
# measured deviations are around 1e-15
SOFT_TOL = 1e-9
# a BER rise along the grid fails only when equal error rates would make it
# this unlikely, so sampling noise at the sparse high-SNR points never fails
RISE_P = 1e-6
# the residual x - H's of a drawn block may miss sigma_n2 by this many standard
# errors of its mean power (|n|^2 is exponential: relative error 1/sqrt(samples))
NOISE_POWER_SIGMAS = 6.0

ALL_DETECTORS = reference.DETECTORS

SWEEPS = {
    "dsttd-n8-all5": dict(
        layers=2, n_rx=8, snr_db=(-6.0, -4.0, -2.0, 0.0), detectors=ALL_DETECTORS,
        trials=25_000, check_count=1000,
    ),
    "m8-structured": dict(
        layers=8, n_rx=8, snr_db=(-6.0, -3.0, 0.0), detectors=("proposed", "fixed_order", "linear_mmse"),
        trials=10_000, check_count=200,
    ),
}
SCALAR_SHAPES = (((4, 4), ALL_DETECTORS), ((8, 8), ("proposed", "fixed_order")))
SCALAR_SNR_DB = (-2.0, 2.0, 6.0)
SCALAR_PER_SHAPE = 6
WORKLOADS = tuple(SWEEPS) + ("scalar-counted",)

END_TO_END = {"uses_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}

_STAGES = ("matched_filter", "init_gram", "init_covariance", "select_permute",
           "estimate_layer", "cancel_layer", "deflate_covariance")
PER_LAYER = {
    "sim.draw_ms_per_block": "ms/block",
    "sim.tally_ms_per_block": "ms/block",
    "sim.blocks": "blocks/sweep",
    **{f"batch.{d}.ms_per_block": "ms/block" for d in ALL_DETECTORS},
    "batch.init_state.ms_per_block": "ms/block",
    "batch.grow_inverse.ms_per_block": "ms/block",
    "batch.structured_loop.ms_per_block": "ms/block",
    "batch.equivalent_channel.ms_per_block": "ms/block",
    "batch.dense_inverse.calls_per_block": "calls/block",
    "batch.dense_inverse.ms_per_block": "ms/block",
    "batch.linear_solve.ms_per_block": "ms/block",
    **{f"detectors.{d}.us_per_detection": "us/detection" for d in ALL_DETECTORS},
    **{f"detectors.{s}.us": "us/detection" for s in _STAGES},
    "dense.gj_inverse.us_per_detection": "us/detection",
    "dense.gj_inverse.calls_per_detection": "calls/detection",
    "alamouti.calls_per_detection": "calls/detection",
    "alamouti.swap_calls_per_detection": "calls/detection",
    "alamouti.us_per_detection": "us/detection",
    **{f"flops.{d}.{k}": u for d in ALL_DETECTORS for k, u in (("real_mults", "mults/detection"), ("real_adds", "adds/detection"))},
    "trace.overhead_pct": "%",
    "trace.accounted_pct": "%",
    "trace.missing_targets": "count",
}


def _problem(report: dict, message: str, limit: int = 20) -> None:
    """Note a failed check in the run's report, keeping the first `limit` messages."""
    problems = report.setdefault("problems", [])
    if len(problems) < limit:
        problems.append(message)


def _rise_p(lower: int, higher: int) -> float:
    """One-sided p of `higher` or more of lower + higher errors landing on the
    higher-SNR point if both points had the same error rate."""
    n = lower + higher
    return sum(math.comb(n, k) for k in range(higher, n + 1)) / 2**n


class _Workload:
    """Per-round checking shared by the workloads.

    The first round is checked in full; every later round, traced or not,
    must reproduce it operation for operation, so no output is kept but
    the first round's.  `ops` lists the operations of a round.
    """

    ops: list

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first = None
        self.first_bad = set()

    def check_round(self, out, report: dict) -> None:
        self.attempted += len(self.ops)
        if out is None:
            self.failed += len(self.ops)
            return
        if self.first is None:
            self.first = out
            self.first_bad = self._check_first(out, report)
            self.failed += len(self.first_bad)
            return
        differ = {k for k in range(len(self.ops)) if not self._same(out, self.first, k)}
        if differ:
            _problem(report, f"a round differs from the first round in {len(differ)} operations")
        self.failed += len(differ | self.first_bad)


class Sweep(_Workload):
    def __init__(self, name: str, seed: int, smoke: bool = False):
        super().__init__()
        spec = dict(SWEEPS[name])
        if smoke:
            spec.update(trials=300, check_count=20)
        self.name = name
        self.seed = seed
        self.spec = spec
        self.config = sim.SimConfig(
            layers=spec["layers"], n_rx=spec["n_rx"], snr_db=spec["snr_db"],
            detectors=spec["detectors"], trials=spec["trials"], seed=seed,
        )
        self.ops = [(d, float(s)) for s in spec["snr_db"] for d in spec["detectors"]]

    def warm_up(self) -> None:
        """One call of each detector on a four-instance block."""
        c = self.config
        h, _, _, x, alpha = reference.draw(np.random.default_rng([self.seed, 0]), 4, c.layers, c.n_rx, c.snr_db[0])
        for d in c.detectors:
            sim.DETECTORS[d](h, x, alpha)

    def run_round(self, tick):
        """One sweep; `tick(uses)` marks the end of each block's detection."""
        uses = self.config.trials * len(self.config.detectors)
        recs = sim.run_ber_sweep(self.config, progress=lambda point, block, blocks: tick(uses / blocks))
        return {(r.detector, r.snr_db): (r.bits, r.bit_errors, r.frames, r.frame_errors) for r in recs}

    # --- checks -------------------------------------------------------

    def _same(self, out, first, k) -> bool:
        return out.get(self.ops[k]) == first.get(self.ops[k])

    def _check_first(self, out, report) -> set:
        report["errors_round1"] = {f"{d}@{s:g}": v[1] for (d, s), v in out.items()}
        bad = self._check_records(out, report)
        return {k for k, op in enumerate(self.ops) if op in bad}

    def finish(self, report: dict) -> tuple:
        """The check block and the draw check; returns (attempted, failed) of the whole run."""
        a, f = self._check_block(report)
        self._check_draw(report)
        return self.attempted + a, self.failed + f

    def _check_records(self, out, report) -> set:
        """Counts, the identity of proposed and sic_groupwise, and BER along the grid."""
        c = self.config
        bad = set()
        for d, s in self.ops:
            if d == "sic_groupwise" and "proposed" in c.detectors:
                a, b = out.get(("proposed", s)), out.get((d, s))
                if a and b and (a[1], a[3]) != (b[1], b[3]):
                    _problem(report, f"proposed and sic_groupwise differ at {s} dB")
                    bad |= {("proposed", s), (d, s)}
            if (d, s) not in out:
                _problem(report, f"no record for {d} at {s} dB")
                bad.add((d, s))
            elif out[(d, s)][0] != c.trials * 4 * c.layers or out[(d, s)][2] != c.trials:
                _problem(report, f"{d} at {s} dB counts {out[(d, s)][0]} bits in {out[(d, s)][2]} frames")
                bad.add((d, s))
        grid = [float(s) for s in c.snr_db]
        for d in c.detectors:
            for lo_s, hi_s in zip(grid, grid[1:]):
                lo, hi = out.get((d, lo_s)), out.get((d, hi_s))
                if lo and hi and hi[1] > lo[1] and _rise_p(lo[1], hi[1]) < RISE_P:
                    _problem(report, f"{d} BER rises from {lo_s} to {hi_s} dB ({lo[1]} -> {hi[1]} errors)")
                    bad.add((d, hi_s))
        return bad

    def _check_block(self, report) -> tuple:
        """Each detector on one block from the benchmark's own generator, against the reference."""
        c = self.config
        rng = np.random.default_rng([self.seed, 1])
        h, _, _, x, alpha = reference.draw(rng, self.spec["check_count"], c.layers, c.n_rx, c.snr_db[0])
        failed = 0
        out = report.setdefault("check_block", {})
        for d in c.detectors:
            try:
                res = sim.DETECTORS[d](h, x, alpha)
                f, e, dev = reference.compare(res.decisions, res.soft, reference.detect_block(d, h, x, alpha), SOFT_TOL)
            except Exception as exc:  # a detector that raises fails its operation
                out[d] = {"error": repr(exc)}
                failed += 1
                continue
            out[d] = {"instances": int(h.shape[0]), "disagree": f, "near_ties": e, "max_soft_dev": dev}
            if f:
                _problem(report, f"{d} disagrees with the reference on {f} check instances")
                failed += 1
        return len(c.detectors), failed

    def _check_draw(self, report) -> None:
        """The program's own block draw: bits map to s under Gray QPSK and x - H's is noise of power sigma_n2."""
        c = self.config
        draw = getattr(sim, "_draw_block", None)
        if draw is None:
            report["draw_check"] = "missing: gstbc.sim._draw_block"
            return
        s2 = sim.sigma_n2_for_snr(c.snr_db[0], c.sigma_s2)
        try:
            h, bits, s, x = draw(channel.keyed_generator(c.seed, 0, 0), c.trials, c.layers, c.n_rx, s2)
        except Exception as exc:  # reported like any failed check
            report["draw_check"] = {"error": repr(exc)}
            report.setdefault("global_failures", []).append("draw check")
            return
        mapped = bool(np.array_equal(np.unique(bits), [0, 1]) and np.allclose(s, reference.gray_qpsk(bits), rtol=0, atol=1e-12))
        residual = x - np.einsum("brk,bk->br", reference.equivalent(h), s)
        power = float(np.mean(np.abs(residual) ** 2))
        tol = NOISE_POWER_SIGMAS / math.sqrt(residual.size)
        report["draw_check"] = {"gray_qpsk": mapped, "noise_power": power, "sigma_n2": s2, "tolerance": tol}
        if not mapped or abs(power / s2 - 1.0) > tol:
            report.setdefault("global_failures", []).append("draw check")

    # --- tracing ------------------------------------------------------

    def install(self, w) -> None:
        w.attr(sim, "_draw_block", "sim.draw")
        w.attr(sim, "_bit_errors", "sim.tally")
        for d in self.config.detectors:
            w.item(sim.DETECTORS, d, f"batch.{d}", "gstbc.sim.DETECTORS")
        w.attr(batch, "_init_state", "batch.init_state")
        w.attr(batch, "_grow_inverse", "batch.grow_inverse")
        w.attr(batch, "_detect_structured", "batch.structured_loop")
        w.attr(batch, "equivalent_channel_batch", "batch.equivalent_channel")
        w.attr(np.linalg, "inv", "batch.dense_inverse")
        w.attr(np.linalg, "solve", "batch.linear_solve")

    def layer_metrics(self, summ, rounds: int) -> dict:
        blocks = summ.count.get("sim.draw") or rounds * len(self.config.snr_db)
        ms = 1e3 / blocks
        m = {
            "sim.draw_ms_per_block": summ.self_time.get("sim.draw", 0.0) * ms,
            "sim.tally_ms_per_block": summ.self_time.get("sim.tally", 0.0) * ms,
            "sim.blocks": blocks / rounds,
            "batch.dense_inverse.calls_per_block": summ.count.get("batch.dense_inverse", 0) / blocks,
        }
        for d in self.config.detectors:
            m[f"batch.{d}.ms_per_block"] = summ.inclusive.get(f"batch.{d}", 0.0) * ms
        for stage in ("init_state", "grow_inverse", "structured_loop", "equivalent_channel", "dense_inverse", "linear_solve"):
            m[f"batch.{stage}.ms_per_block"] = summ.self_time.get(f"batch.{stage}", 0.0) * ms
        return m


class _Instance:
    def __init__(self, m, n, snr_db, dets, rng):
        h, _, _, x, alpha = reference.draw(rng, 1, m, n, snr_db)
        self.shape = (m, n)
        self.dets = dets
        self.gains = h[0]
        self.received = x[0]
        self.alpha = alpha
        self.h = channel.ChannelMatrix(h[0])
        self.x = channel.ReceivedVector(x[0])


class Scalar(_Workload):
    def __init__(self, name: str, seed: int, smoke: bool = False):
        super().__init__()
        per_shape = 1 if smoke else SCALAR_PER_SHAPE
        self.name = name
        self.seed = seed
        self.instances = []
        for (m, n), dets in SCALAR_SHAPES:
            rng = np.random.default_rng([seed, 2, m, n])
            for k in range(per_shape):
                self.instances.append(_Instance(m, n, SCALAR_SNR_DB[k % len(SCALAR_SNR_DB)], dets, rng))
        self.ops = [(i, d) for i, inst in enumerate(self.instances) for d in inst.dets]

    def warm_up(self) -> None:
        """One detection with each detector on a (2, 2) instance."""
        tiny = _Instance(2, 2, 0.0, ALL_DETECTORS, np.random.default_rng([self.seed, 0]))
        for d in ALL_DETECTORS:
            detectors.SCALAR_DETECTORS[d](tiny.h, tiny.x, tiny.alpha)

    def run_round(self, tick):
        """Every operation once; `tick(uses)` marks the end of the round."""
        out = []
        for inst in self.instances:
            for d in inst.dets:
                try:
                    r = detectors.SCALAR_DETECTORS[d](inst.h, inst.x, inst.alpha)
                except Exception:  # counted as a failed operation
                    out.append(None)
                    continue
                out.append((r.decisions, r.soft, (r.flops.real_mults, r.flops.real_adds)))
        tick(len(out))
        return out

    # --- checks -------------------------------------------------------

    def _same(self, out, first, k) -> bool:
        a, b = out[k], first[k]
        return a is not None and b is not None and a[2] == b[2] and np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def _check_first(self, out, report) -> set:
        """Every detection against the reference, and its flop count."""
        bad = set()
        excused = 0
        worst = 0.0
        seen = {}
        for k, ((i, d), res) in enumerate(zip(self.ops, out)):
            if res is None:
                bad.add(k)
                continue
            inst = self.instances[i]
            dec, soft, fl = res
            ref = reference.detect(d, reference.equivalent(inst.gains), inst.received, inst.alpha)
            f, e, dev = reference.compare([dec], [soft], [ref], SOFT_TOL)
            excused += e
            worst = max(worst, dev)
            expected = seen.setdefault((d, inst.shape), fl)
            if d in ("proposed", "fixed_order"):
                cost = complexity.cost_recursive(*inst.shape)
                expected = (cost.real_mults, cost.real_adds)
            if fl != expected:
                _problem(report, f"{d} at {inst.shape} counts {fl} flops, expected {expected}")
                f = 1
            if f:
                _problem(report, f"{d} disagrees with the reference on instance {i}")
                bad.add(k)
        report["reference"] = {"near_ties": excused, "max_soft_dev": worst}
        report["flops"] = {f"{d}@{m}x{n}": list(v) for (d, (m, n)), v in sorted(seen.items())}
        return bad

    def finish(self, report: dict) -> tuple:
        return self.attempted, self.failed

    # --- tracing ------------------------------------------------------

    def install(self, w) -> None:
        for d in ALL_DETECTORS:
            w.item(detectors.SCALAR_DETECTORS, d, f"detectors.{d}", "gstbc.detectors.SCALAR_DETECTORS")
        for fn in ("matched_filter", "init_gram", "init_covariance", "estimate_layer", "cancel_layer", "deflate_covariance"):
            w.attr(detectors, fn, f"detectors.{fn}")
        w.attr(detectors, "select_layer", "detectors.select_permute")
        w.attr(detectors, "permute_workspace", "detectors.select_permute")
        w.attr(detectors, "gj_inverse_hpd", "dense.gj_inverse")
        for fn in _alamouti_names():
            w.attr(detectors, fn, f"alamouti.{fn}")

    def layer_metrics(self, summ, rounds: int) -> dict:
        total = rounds * len(self.ops)
        per_det = {d: rounds * sum(1 for _, e in self.ops if e == d) for d in ALL_DETECTORS}
        us = 1e6 / total
        ala = [n for n in summ.count if n.startswith("alamouti.")]
        m = {
            "dense.gj_inverse.us_per_detection": summ.self_time.get("dense.gj_inverse", 0.0) * us,
            "dense.gj_inverse.calls_per_detection": summ.count.get("dense.gj_inverse", 0) / total,
            "alamouti.calls_per_detection": sum(summ.count[n] for n in ala if n != "alamouti.sbm_swap_blocks") / total,
            "alamouti.swap_calls_per_detection": summ.count.get("alamouti.sbm_swap_blocks", 0) / total,
            "alamouti.us_per_detection": sum(summ.self_time[n] for n in ala) * us,
        }
        for d, count in per_det.items():
            if count:
                m[f"detectors.{d}.us_per_detection"] = summ.inclusive.get(f"detectors.{d}", 0.0) * 1e6 / count
        if per_det["proposed"]:
            for s in _STAGES:
                m[f"detectors.{s}.us"] = summ.self_within.get(("detectors.proposed", f"detectors.{s}"), 0.0) * 1e6 / per_det["proposed"]
        # every round repeats the first one's counts, or fails its check
        sums = {}
        for (_, d), res in zip(self.ops, self.first or []):
            if res is not None:
                t = sums.setdefault(d, [0, 0, 0])
                t[0] += res[2][0]
                t[1] += res[2][1]
                t[2] += 1
        for d, (mults, adds, count) in sums.items():
            m[f"flops.{d}.real_mults"] = mults / count
            m[f"flops.{d}.real_adds"] = adds / count
        return m


def _alamouti_names() -> list:
    """The block-algebra functions that `gstbc.detectors` calls by name."""
    return sorted(
        name for name, obj in vars(detectors).items()
        if callable(obj) and getattr(obj, "__module__", None) == "gstbc.alamouti" and not isinstance(obj, type)
    )


def make(name: str, seed: int, smoke: bool = False):
    if name in SWEEPS:
        return Sweep(name, seed, smoke)
    if name == "scalar-counted":
        return Scalar(name, seed, smoke)
    raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
