import csv

import pytest

import densecode as dc
from densecode import cli
from densecode.cli import (GghzLine, main, run_channel_scan, run_gghz_curve,
                           run_haar, summarize_rows)
from densecode.qcore import binary_entropy
from densecode.states import make_ghz, save_state


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_haar_csv_schema_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    run_haar(1, 7, "none", str(out1))
    run_haar(1, 7, "none", str(out2))
    assert out1.read_bytes() == out2.read_bytes()
    header, rows = read_csv(str(out1))
    assert header == ["state_id", "ggm", "bound_bits", "cond_i", "cond_ii",
                      "swapped_i", "swapped_ii", "above_gghz_line", "argmax_cut"]
    assert rows[0][0] == "0"
    float(rows[0][1])
    float(rows[0][2])


@pytest.mark.parametrize("n", [1, 65, 300, 301])
def test_haar_parallel_matches_serial(tmp_path, n):
    # chunk boundaries move with n and jobs; no byte may move with them
    out1 = tmp_path / "serial.csv"
    out2 = tmp_path / "par.csv"
    s1 = run_haar(n, 11, "none", str(out1), jobs=1)
    s2 = run_haar(n, 11, "none", str(out2), jobs=2)
    assert out1.read_bytes() == out2.read_bytes()
    assert s1.counts_strict == s2.counts_strict
    assert s1.counts_swapped == s2.counts_swapped


def _serial_row(seed, sid, bound, above):
    """A campaign row rebuilt one state at a time through the public API,
    with ``above(ggm, bound)`` deciding the line column."""
    st = dc.haar_random_pure(4, dc.RngSeed(seed, sid), dc.RegisterLayout.split(2))
    value, scan = dc.ggm(st)
    flags = dc.theorem2_conditions(st)
    b = bound(st).bound_bits
    return [str(sid), cli._fmt(value), cli._fmt(b), str(int(flags.cond_i)),
            str(int(flags.cond_ii)), str(int(flags.swapped_i)),
            str(int(flags.swapped_ii)), str(int(above(value, b))),
            scan.argmax_label]


@pytest.mark.parametrize("channel, n", [("none", 200),
                                        ("pauli:0.485,0.015,0.015,0.485", 4)])
def test_haar_rows_equal_per_state_rows(tmp_path, monkeypatch, channel, n):
    build = vars(GghzLine)["build"]
    lines = []

    def keep(cls, *args, **kwargs):
        lines.append(build.__func__(cls, *args, **kwargs))
        return lines[-1]

    monkeypatch.setattr(GghzLine, "build", classmethod(keep))
    out = tmp_path / "rows.csv"
    run_haar(n, 23, channel, str(out))
    _, rows = read_csv(str(out))
    spec = dc.parse_channel(channel)
    bound = (dc.locc_bound_noiseless if spec.is_identity
             else lambda st: dc.covariant_chi(st, spec))
    assert rows == [_serial_row(23, sid, bound, lines[0].above) for sid in range(n)]
    if spec.is_identity:
        # the noiseless line is the rule of ggm.above_gghz_line
        assert rows == [_serial_row(23, sid, bound, dc.above_gghz_line)
                        for sid in range(n)]


def test_haar_summary_recomputable(tmp_path):
    out = tmp_path / "h.csv"
    summary = run_haar(200, 42, "none", str(out))
    _, rows = read_csv(str(out))
    redo = summarize_rows(rows, 200, 42, "none")
    assert redo.counts_strict == summary.counts_strict
    assert redo.counts_swapped == summary.counts_swapped
    assert sum(summary.counts_strict) == 200
    assert sum(summary.counts_swapped) == 200
    # below-line count is convention independent
    assert summary.counts_strict[2] == summary.counts_swapped[2]


def test_haar_float_format(tmp_path):
    out = tmp_path / "f.csv"
    run_haar(3, 5, "none", str(out))
    _, rows = read_csv(str(out))
    for row in rows:
        for cell in (row[1], row[2]):
            assert len(cell.replace("-", "").replace(".", "").replace("e", "")
                       .lstrip("0")) <= 13


def test_gghz_curve_noiseless(tmp_path):
    out = tmp_path / "curve.csv"
    run_gghz_curve(11, "none", str(out))
    header, rows = read_csv(str(out))
    assert header == ["m", "ggm", "bound_bits"]
    first, last = rows[0], rows[-1]
    assert (float(first[0]), float(first[1]), float(first[2])) == (0.5, 0.5, 3.0)
    assert abs(float(last[0]) - 1.0) < 1e-12
    assert abs(float(last[1]) - 0.0) < 1e-12
    assert abs(float(last[2]) - 2.0) < 1e-9
    bounds = [float(r[2]) for r in rows]
    assert all(a > b for a, b in zip(bounds, bounds[1:]))  # strictly decreasing in m


def test_gghz_curve_noisy_endpoint(tmp_path):
    out = tmp_path / "noisy_curve.csv"
    run_gghz_curve(5, "pauli:0.93,0.01,0.02,0.04", str(out))
    _, rows = read_csv(str(out))
    assert abs(float(rows[0][2]) - (3.0 - binary_entropy(0.97))) < 1e-5


def test_channel_scan_ad(tmp_path):
    out = tmp_path / "scan.csv"
    run_channel_scan("ad", 3, 42, str(out))
    header, rows = read_csv(str(out))
    assert header == ["param", "numeric_bound", "closed_form_bound",
                      "minimizer_a", "abs_deviation"]
    assert float(rows[0][0]) == 0.0
    assert abs(float(rows[0][1]) - 3.0) < 1e-9
    for row in rows:
        assert float(row[4]) < 1e-6


def test_channel_scan_pd(tmp_path):
    out = tmp_path / "scan_pd.csv"
    run_channel_scan("pd", 3, 42, str(out))
    _, rows = read_csv(str(out))
    for row in rows:
        assert abs(float(row[1]) - 3.0) < 1e-6


def test_channel_scan_pauli(tmp_path):
    out = tmp_path / "scan_pauli.csv"
    run_channel_scan("pauli", 3, 42, str(out))
    header, rows = read_csv(str(out))
    assert header[:5] == ["draw", "q0", "q1", "q2", "q3"]
    for row in rows:
        assert float(row[-1]) < 1e-6


def test_channel_scan_rejects_unknown_family(tmp_path):
    with pytest.raises(ValueError):
        run_channel_scan("bitflip", 3, 42, str(tmp_path / "x.csv"))


def test_gghz_line_noisy_interpolation():
    from densecode.channels import parse_channel
    line = GghzLine.build(parse_channel("pauli:0.485,0.015,0.015,0.485"))
    assert abs(line.bound_at(0.5) - (3.0 - binary_entropy(0.97))) < 1e-4
    assert line.bound_at(0.0) <= line.bound_at(0.5)


def test_gghz_curve_general_pauli_via_main(tmp_path, capsys):
    out = tmp_path / "gen.csv"
    q = ["0.85", "0.05", "0.05", "0.05"] + ["0.0"] * 12
    rc = main(["gghz-curve", "--points", "2",
               "--channel", "pauli-gen:" + ",".join(q), "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    header, rows = read_csv(str(out))
    assert header == ["m", "ggm", "bound_bits"]
    assert len(rows) == 2


def test_main_exit_codes(tmp_path, capsys):
    assert main(["bound", "--state", "ghz"]) == 0
    capsys.readouterr()
    assert main(["haar", "--n", "2", "--channel", "bogus:1",
                 "--out", str(tmp_path / "x.csv")]) == 2
    assert main(["no-such-mode"]) == 2
    assert main(["bound", "--state", str(tmp_path / "missing.txt")]) == 2


def test_main_numeric_exit_code(tmp_path, monkeypatch):
    from densecode.capacity import OptimizationError

    def boom(*args, **kwargs):
        raise OptimizationError("synthetic failure")

    monkeypatch.setattr(cli, "run_channel_scan", boom)
    assert main(["channel-scan", "--family", "ad",
                 "--out", str(tmp_path / "y.csv")]) == 3


def test_main_haar_smoke(tmp_path, capsys):
    out = tmp_path / "h.csv"
    assert main(["haar", "--n", "5", "--seed", "9", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "seed=9" in text
    assert "convention=strict" in text and "convention=swapped" in text
    assert out.exists()


def test_bound_mode_output(capsys):
    assert main(["bound", "--state", "gghz:0.8"]) == 0
    text = capsys.readouterr().out
    want = 2.0 + binary_entropy(0.8)
    assert f"noiseless_bound_bits: {format(want, '.12g')}" in text
    assert "classical_threshold_bits: 2" in text


def test_ggm_mode_output(capsys):
    assert main(["ggm", "--state", "ghz"]) == 0
    text = capsys.readouterr().out
    assert "ggm: 0.5" in text
    assert "cut S1:" in text


def test_state_file_input(tmp_path, capsys):
    path = tmp_path / "state.txt"
    path.write_text(save_state(make_ghz(4)))
    assert main(["bound", "--state", str(path)]) == 0
    text = capsys.readouterr().out
    assert "noiseless_bound_bits: 3" in text


def test_bound_mode_multi_qubit_sender_groups(tmp_path, capsys):
    # six qubits, two senders per receiver: one encoding per group qubit
    path = tmp_path / "ghz6.txt"
    path.write_text(save_state(make_ghz(6, dc.RegisterLayout.split(4))))
    assert main(["bound", "--state", str(path), "--channel", "ad:0.3,0.3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(x.startswith("noisy_bound_bits: ") for x in lines)
    sides = [x.split(": ", 1)[1] for x in lines if x.startswith("minimizer_side")]
    assert len(sides) == 2
    assert all(len(desc.split("; ")) == 2 for desc in sides)


def test_config_file_defaults_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed=13\nn=4\nchannel=none\n# comment\n")
    out1 = tmp_path / "c1.csv"
    out2 = tmp_path / "c2.csv"
    assert main(["haar", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["haar", "--n", "4", "--seed", "13", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # explicit flag beats the config value
    out3 = tmp_path / "c3.csv"
    assert main(["haar", "--config", str(cfg), "--seed", "14",
                 "--out", str(out3)]) == 0
    assert out1.read_bytes() != out3.read_bytes()


def test_points_below_minimum_rejected(tmp_path, capsys):
    out = tmp_path / "p.csv"
    assert main(["gghz-curve", "--points", "0", "--out", str(out)]) == 2
    assert main(["gghz-curve", "--points", "1", "--out", str(out)]) == 2
    assert main(["channel-scan", "--family", "pd", "--points", "0",
                 "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.count("densecode: error:") == 3


def test_haar_small_parallel_run_uses_every_worker(tmp_path, monkeypatch):
    pools = []

    class RecordingPool(cli.ProcessPoolExecutor):
        def __init__(self, max_workers):
            super().__init__(max_workers=max_workers)
            self.workers = max_workers

        def map(self, fn, tasks):
            tasks = list(tasks)
            pools.append((self.workers, len(tasks)))
            return super().map(fn, tasks)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    serial, par = tmp_path / "serial.csv", tmp_path / "par.csv"
    run_haar(64, 5, "none", str(serial), jobs=1)
    run_haar(64, 5, "none", str(par), jobs=2)
    assert serial.read_bytes() == par.read_bytes()
    assert pools == [(2, 2)]
    run_haar(1, 5, "none", str(par), jobs=2)     # one chunk runs serially
    assert pools == [(2, 2)]


def test_bound_mode_search_diagnostics_on_stderr(capsys):
    assert main(["bound", "--state", "ghz", "--channel", "ad:0.5,0.5"]) == 0
    captured = capsys.readouterr()
    lines = [x for x in captured.err.splitlines() if x.startswith("search_side")]
    assert [x.split(":")[0] for x in lines] == ["search_side1", "search_side2"]
    assert all("converged=1" in x and "starts=16" in x for x in lines)
    assert "search_side" not in captured.out
    assert main(["bound", "--state", "ghz"]) == 0
    assert capsys.readouterr().err.count("none (exact)") == 2


def test_unset_options_take_the_config_defaults(tmp_path, monkeypatch, capsys):
    calls = {}

    def fake_haar(n_samples, seed, channel, out, jobs=1):
        calls["haar"] = (n_samples, seed, channel, jobs)
        return cli.HaarSummary(n_samples=n_samples, seed=seed, channel=channel)

    def fake_curve(points, channel, out):
        calls["gghz-curve"] = (points, channel)

    monkeypatch.setattr(cli, "run_haar", fake_haar)
    monkeypatch.setattr(cli, "run_gghz_curve", fake_curve)
    assert main(["haar", "--out", str(tmp_path / "h.csv")]) == 0
    assert main(["gghz-curve", "--out", str(tmp_path / "g.csv")]) == 0
    assert calls == {"haar": (50000, 42, "none", 1), "gghz-curve": (201, "none")}
    assert "mode=haar n=50000 seed=42 channel=none" in capsys.readouterr().out
