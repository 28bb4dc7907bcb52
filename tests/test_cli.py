import io
import math

import numpy as np
import pytest

import gstbc.sim as sim
from gstbc.channel import NoiseSpec, generate_channel, transmit
from gstbc.cli import main, parse_instance
from gstbc.errors import ParseError, SingularPivot
from gstbc.modulation import qpsk_modulate

S = 1 / math.sqrt(2)


def fmt(c: complex) -> str:
    return f"{c.real:.17g}{c.imag:+.17g}i"


def instance_text(h, x, alpha, mutate=None):
    gains = np.asarray(h.gains)
    lines = ["# test instance", f"{gains.shape[0]} {gains.shape[1] // 2} {alpha}"]
    for r in range(gains.shape[0]):
        lines.append(" ".join(fmt(c) for c in gains[r]))
    lines.append(" ".join(fmt(c) for c in np.asarray(x.entries)))
    if mutate:
        lines = mutate(lines)
    return "\n".join(lines) + "\n"


def noiseless_instance(seed=0, layers=2, n_rx=2):
    h = generate_channel(n_rx, layers, seed=seed)
    bits = np.arange(4 * layers) % 2
    s = qpsk_modulate(bits)
    x = transmit(h, s, NoiseSpec(sigma_n2=0.0))
    return h, s, x


def read_line(out: str, label: str) -> list:
    for line in out.splitlines():
        if line.startswith(label + ":"):
            toks = line.split(":", 1)[1].split()
            return [complex(t.replace("i", "j")) for t in toks]
    raise AssertionError(f"no {label} line in output:\n{out}")


def test_parse_instance_roundtrip():
    h, _, x = noiseless_instance(seed=4, layers=2, n_rx=3)
    text = instance_text(h, x, 0.25)
    ph, px, alpha = parse_instance(text)
    assert alpha == 0.25
    assert np.allclose(np.asarray(ph.gains), np.asarray(h.gains), atol=1e-15)
    assert np.allclose(np.asarray(px.entries), np.asarray(x.entries), atol=1e-15)


def test_parse_instance_accepts_comments_and_case():
    text = "\n".join([
        "# comment", "", "1 1 0.1",
        "  # indented comment",
        "1+2i 0.5-1I",
        "0.1+0i 0+0i",
    ])
    ph, px, alpha = parse_instance(text)
    assert np.asarray(ph.gains)[0, 0] == 1 + 2j
    assert np.asarray(ph.gains)[0, 1] == 0.5 - 1j
    assert np.asarray(px.entries).tolist() == [0.1, 0]


@pytest.mark.parametrize(
    "mutate, needle",
    [
        (lambda ls: [], "empty"),
        (lambda ls: [ls[0], "2 2"] + ls[2:], "header"),
        (lambda ls: [ls[0], "2 x 0.1"] + ls[2:], "bad integer 'x'"),
        (lambda ls: [ls[0], "1 2 0.1"] + ls[2:], "n_rx >= layers"),
        (lambda ls: [ls[0], "2 2 0"] + ls[2:], "alpha"),
        (lambda ls: ls[:-1], "channel rows"),
        (lambda ls: ls[:2] + [ls[2] + " 9+9i"] + ls[3:], "channel row 1: expected 4 gains"),
        (lambda ls: ls[:2] + [ls[2].replace("i", "q", 1)] + ls[3:], "bad complex number"),
        (lambda ls: ls[:-1] + [ls[-1] + " 1+1i"], "received samples"),
        (lambda ls: ls[:2] + [" ".join(["nan+0i"] + ls[2].split()[1:])] + ls[3:], "non-finite"),
    ],
)
def test_parse_instance_reports_errors(mutate, needle):
    h, _, x = noiseless_instance(seed=5)
    with pytest.raises(ParseError) as info:
        parse_instance(instance_text(h, x, 0.1, mutate=mutate))
    assert needle in str(info.value)


def test_parse_error_carries_line_number():
    h, _, x = noiseless_instance(seed=6)
    bad = instance_text(h, x, 0.1, mutate=lambda ls: ls[:3] + [ls[3].replace("i", "?", 1)] + ls[4:])
    with pytest.raises(ParseError) as info:
        parse_instance(bad)
    # the broken token sits on physical line 4 (after the comment line)
    assert "line 4" in str(info.value)


def test_detect_roundtrip_noiseless(tmp_path, capsys):
    h, s, x = noiseless_instance(seed=7, layers=2, n_rx=2)
    path = tmp_path / "inst.txt"
    path.write_text(instance_text(h, x, 1e-9))
    rc = main(["detect", "--input", str(path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "detector=proposed layers=2 n_rx=2" in out
    decisions = read_line(out, "decisions")
    assert np.allclose(decisions, np.asarray(s), atol=1e-6)
    soft = read_line(out, "soft")
    assert np.allclose(soft, np.asarray(s), atol=1e-4)
    order = [int(t.real) for t in read_line(out, "order")]
    assert sorted(order) == [0, 1]
    assert "flops: " in out


def test_detect_reads_stdin(tmp_path, capsys, monkeypatch):
    h, s, x = noiseless_instance(seed=8)
    monkeypatch.setattr("sys.stdin", io.StringIO(instance_text(h, x, 1e-9)))
    rc = main(["detect", "--input", "-", "--detector", "osic_symbolwise"])
    out = capsys.readouterr().out
    assert rc == 0
    assert np.allclose(read_line(out, "decisions"), np.asarray(s), atol=1e-6)


def test_detect_alpha_override(tmp_path, capsys):
    h, _, x = noiseless_instance(seed=9)
    path = tmp_path / "inst.txt"
    path.write_text(instance_text(h, x, 0.5))
    assert main(["detect", "--input", str(path), "--alpha", "0.125"]) == 0
    assert "alpha=0.125" in capsys.readouterr().out
    assert main(["detect", "--input", str(path), "--alpha", "-1"]) == 2
    assert "alpha must be > 0" in capsys.readouterr().err
    assert main(["detect", "--input", str(path), "--alpha", "inf"]) == 2
    assert "alpha must be > 0 and finite" in capsys.readouterr().err


def test_detect_zero_input_slices_to_first_quadrant(tmp_path, capsys):
    text = "\n".join(["2 2 0.5", "0 0 0 0", "0 0 0 0", "0 0 0 0", ""])
    path = tmp_path / "zeros.txt"
    path.write_text(text)
    assert main(["detect", "--input", str(path)]) == 0
    decisions = read_line(capsys.readouterr().out, "decisions")
    assert np.allclose(decisions, [S + S * 1j] * 4, atol=1e-6)


def test_detect_missing_file_and_parse_errors_exit_2(tmp_path, capsys):
    assert main(["detect", "--input", str(tmp_path / "nope.txt")]) == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.txt"
    bad.write_text("1 1\n")
    assert main(["detect", "--input", str(bad)]) == 2
    assert "header" in capsys.readouterr().err


def test_detect_singular_instance_exits_3(tmp_path, capsys):
    # layer 2 duplicates layer 1, so the Gram matrix is rank deficient;
    # with a vanishing regularizer the recursion must refuse, not emit
    # garbage decisions
    g = generate_channel(2, 1, seed=10)
    gains = np.asarray(g.gains)
    lines = ["2 2 1e-300"]
    for r in range(2):
        row = list(gains[r]) + list(gains[r])
        lines.append(" ".join(fmt(c) for c in row))
    lines.append(" ".join(fmt(c) for c in [1 + 1j, 1 - 1j, 0.5j, -0.25]))
    path = tmp_path / "singular.txt"
    path.write_text("\n".join(lines) + "\n")
    for det in ("proposed", "osic_symbolwise"):
        assert main(["detect", "--input", str(path), "--detector", det]) == 3
        assert "pivot" in capsys.readouterr().err


def test_flops_command(capsys):
    assert main(["flops", "--m", "2", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "295 real mults" in out and "291" in out
    assert main(["flops", "--m", "4", "--n", "2"]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["flops", "--m", "3", "--n", "3", "--detector", "linear_mmse"]) == 0
    assert "measured" in capsys.readouterr().out


@pytest.mark.parametrize("det", ["proposed", "fixed_order", "linear_mmse", "osic_symbolwise", "sic_groupwise"])
def test_flops_command_prints_the_recursion_ratios_for_the_recursion_only(det, capsys):
    # both speedup lines are the recursion's cost ratios
    assert main(["flops", "--m", "2", "--n", "2", "--detector", det]) == 0
    out = capsys.readouterr().out
    recursion = det in ("proposed", "fixed_order")
    assert ("asymptotic speedup vs sorted-QR model" in out) == recursion
    assert ("one-step dense SIC reference" in out) == recursion


def test_ber_command_stdout_and_file(tmp_path, capsys):
    argv = [
        "ber", "--m", "2", "--n", "2", "--snr-start", "0", "--snr-stop", "4",
        "--snr-step", "2", "--trials", "200", "--seed", "3",
        "--detectors", "proposed,linear_mmse", "--quiet",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert first.count("\n") >= 8  # 2 comments + header + 3 points * 2 detectors
    assert "detector,snr_db,bits,bit_errors,ber,frames,frame_errors" in first
    assert main(argv) == 0
    assert capsys.readouterr().out == first

    out_path = tmp_path / "sweep.csv"
    assert main(argv + ["--out", str(out_path)]) == 0
    assert f"wrote {out_path}" in capsys.readouterr().out
    assert out_path.read_text() == first

    # without --quiet the progress line goes to stderr only
    assert main(argv[:-1]) == 0
    shown = capsys.readouterr()
    assert shown.out == first
    assert "block 1/1" in shown.err and "channel uses/s" in shown.err and "ETA" in shown.err


def test_ber_command_rejects_bad_config(capsys):
    base = ["ber", "--m", "2", "--n", "2", "--trials", "10", "--quiet"]
    assert main(base + ["--detectors", "proposed,zf"]) == 2
    assert "unknown detectors" in capsys.readouterr().err
    assert main(base + ["--snr-step", "0"]) == 2
    assert "snr-step" in capsys.readouterr().err
    assert main(["ber", "--m", "3", "--n", "2", "--quiet"]) == 2
    assert "n_rx >= layers" in capsys.readouterr().err
    for snr in ("4000", "-4000"):
        one = ["ber", "--m", "1", "--n", "1", "--snr-start", snr, "--snr-stop", snr, "--quiet"]
        assert main(one) == 2
        assert "noise variance" in capsys.readouterr().err
    for flag in ("--snr-start", "--snr-stop", "--snr-step"):
        for value in ("nan", "inf"):
            assert main(base + [flag, value]) == 2, (flag, value)
            assert f"{flag} must be finite" in capsys.readouterr().err
    assert main(base + ["--detectors", "proposed,proposed"]) == 2
    assert "must not repeat" in capsys.readouterr().err
    assert main(base + ["--seed", "-1"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


def test_ber_detector_failure_exits_3(monkeypatch, capsys):
    def singular(h, x, alpha, prepared=None):
        raise SingularPivot("pivot 0 vanishes")

    monkeypatch.setitem(sim.DETECTORS, "linear_mmse", singular)
    argv = ["ber", "--m", "2", "--n", "2", "--snr-start", "3", "--snr-stop", "3",
            "--trials", "10", "--detectors", "proposed,linear_mmse"]
    for quiet in ([], ["--quiet"]):
        assert main(argv + quiet) == 3
        shown = capsys.readouterr()
        assert shown.out == ""
        assert shown.err.endswith("error: linear_mmse at 3 dB, block 0, instances 0-9: pivot 0 vanishes\n")


def test_unknown_subcommand_is_refused(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])
