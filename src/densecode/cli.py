"""Batch experiment driver.

Modes
-----
``haar``          Monte Carlo campaign over Haar-random four-qubit states:
                  GGM, capacity bound, condition flags, and position relative
                  to the two-term reference curve, one CSV row per sample.
``gghz-curve``    The reference curve itself: rows (m, E, bound) for the
                  two-term family swept over m in [0.5, 1].
``channel-scan``  Numeric bound vs closed form for the four-qubit GHZ state
                  over a channel-parameter sweep.
``bound``         All capacity quantities for one state.
``ggm``           GGM and the per-cut Schmidt table for one state.

CSV columns are documented per mode in the functions below; floats are
printed with 12 significant digits. Campaign RNG streams are keyed by
(seed, state_id), so serial and parallel runs emit identical files. A
campaign chunk reads the GGM and the flags of its block of states off one
batched ``CutSpectra`` kernel, and every bound of a block, the campaign's or
the reference line's, comes from one block call.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .capacity import (BoundReport, OptimizationError, SearchDiagnostics,
                       closed_form_ghz_bound, global_capacity, locc_bound_noiseless,
                       noiseless_bounds, noisy_locc_bound, noisy_locc_bounds)
from .channels import ChannelSpec, parse_channel
from .ggm import TIE_ATOL, CutSpectra, above_gghz_line, ggm, theorem2_flags
from .qcore import RegisterLayout
from .states import (GghzParams, RngSeed, StateFormatError, haar_amplitudes,
                     load_state, make_gghz, make_ghz)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

HAAR_COLUMNS = ["state_id", "ggm", "bound_bits", "cond_i", "cond_ii",
                "swapped_i", "swapped_ii", "above_gghz_line", "argmax_cut"]
LINE_POINTS = 257


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _layout4() -> RegisterLayout:
    return RegisterLayout.split(2)


def _block_bounds(amps: np.ndarray, spec: ChannelSpec, spectra=None) -> np.ndarray:
    """(B,) bound of each four-qubit pure state of a block: the noiseless
    bound (off ``spectra`` if given) or the noisy bound's block route."""
    if spec.is_identity:
        return noiseless_bounds(spectra or CutSpectra.of(amps, _layout4()))
    rhos = amps[:, :, None] * amps[:, None, :].conj()
    return np.array([r.bound_bits for r in noisy_locc_bounds(rhos, _layout4(), spec)])


def _gghz_family(points: int, spec: ChannelSpec) -> tuple[np.ndarray, np.ndarray]:
    """``points`` values of m over [0.5, 1] and the two-term family's bounds."""
    m_vals = np.linspace(0.5, 1.0, points)
    amps = np.stack([make_gghz(GghzParams(p=float(m)), _layout4()).amplitudes
                     for m in m_vals])
    return m_vals, _block_bounds(amps, spec)


# ---------------------------------------------------------------------------
# the gGHZ reference line in the (bound, GGM) plane
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GghzLine:
    """Bound of the two-term family as a function of its GGM E = 1 - m.

    Noiseless the curve is exact (bound = 2 + H(1 - E)); under a channel it
    is tabulated by ``noisy_locc_bounds`` at ``LINE_POINTS`` values of E and
    interpolated.
    """

    noiseless: bool
    e_grid: np.ndarray | None = None
    bound_grid: np.ndarray | None = None

    @classmethod
    def build(cls, spec: ChannelSpec) -> "GghzLine":
        if spec.is_identity:
            return cls(noiseless=True)
        m_vals, bounds = _gghz_family(LINE_POINTS, spec)
        e = 1.0 - m_vals[::-1]          # ascending E in [0, 1/2]
        return cls(noiseless=False, e_grid=e, bound_grid=bounds[::-1].copy())

    def bound_at(self, e: float) -> float:
        """The tabulated noisy line at E, clamped to [0, 1/2]."""
        return float(np.interp(min(max(e, 0.0), 0.5), self.e_grid, self.bound_grid))

    def above(self, ggm_value: float, bound_bits: float) -> bool:
        """On or above the curve: the state's bound does not exceed the
        family's bound at equal entanglement."""
        if self.noiseless:
            return above_gghz_line(ggm_value, bound_bits)
        return bound_bits <= self.bound_at(ggm_value) + TIE_ATOL


# ---------------------------------------------------------------------------
# haar campaign
# ---------------------------------------------------------------------------

def _haar_chunk(task) -> list[list[str]]:
    lo, hi, seed, channel_str, line = task
    amps = haar_amplitudes(4, [RngSeed(seed, sid) for sid in range(lo, hi)])
    spectra = CutSpectra.of(amps, _layout4())
    values, best = spectra.ggm()
    flags = theorem2_flags(spectra).astype(int)
    bounds = _block_bounds(amps, parse_channel(channel_str), spectra)
    return [[str(sid), _fmt(value), _fmt(bound)] + [str(f) for f in row_flags]
            + [str(int(line.above(float(value), float(bound)))), spectra.labels[cut]]
            for sid, value, bound, row_flags, cut
            in zip(range(lo, hi), values, bounds, flags, best)]


@dataclass
class HaarSummary:
    n_samples: int
    seed: int
    channel: str
    counts_strict: tuple[int, int, int] = (0, 0, 0)
    counts_swapped: tuple[int, int, int] = (0, 0, 0)

    def fractions(self, convention: str) -> tuple[float, float, float]:
        c = self.counts_strict if convention == "strict" else self.counts_swapped
        return tuple(v / self.n_samples for v in c)

    def lines(self) -> list[str]:
        out = [f"mode=haar n={self.n_samples} seed={self.seed} channel={self.channel}"]
        for conv, c in (("strict", self.counts_strict),
                        ("swapped", self.counts_swapped)):
            f = self.fractions(conv)
            out.append(
                f"convention={conv} premises_above={c[0]} violated_above={c[1]} "
                f"below={c[2]} fractions {f[0]:.6f}/{f[1]:.6f}/{f[2]:.6f}")
        return out


def summarize_rows(rows, n_samples: int, seed: int, channel: str) -> HaarSummary:
    """Tally the three populations (premises satisfied and above the line /
    premises violated but above / below) under both premise conventions."""
    cs = [0, 0, 0]
    cw = [0, 0, 0]
    for row in rows:
        cond_i, cond_ii, sw_i, sw_ii, above = (int(row[3]), int(row[4]),
                                               int(row[5]), int(row[6]),
                                               int(row[7]))
        strict = cond_i and cond_ii
        either = strict or (sw_i and sw_ii)
        if not above:
            cs[2] += 1
            cw[2] += 1
        else:
            cs[0 if strict else 1] += 1
            cw[0 if either else 1] += 1
    return HaarSummary(n_samples=n_samples, seed=seed, channel=channel,
                       counts_strict=tuple(cs), counts_swapped=tuple(cw))


def run_haar(n_samples: int, seed: int, channel: str, out_path: str,
             jobs: int = 1) -> HaarSummary:
    if n_samples < 1:
        raise ValueError("haar mode needs n >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    RngSeed(seed)               # a seed outside 64 bits fails here, not in a chunk
    spec = parse_channel(channel)
    line = GghzLine.build(spec)
    workers = min(jobs, n_samples)
    chunk = max(64, math.ceil(n_samples / workers / 8))
    if workers > 1:
        # every worker gets at least one chunk; one worker runs in this process
        chunk = min(chunk, math.ceil(n_samples / workers))
    tasks = [(lo, min(lo + chunk, n_samples), seed, channel, line)
             for lo in range(0, n_samples, chunk)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as ex:
            parts = list(ex.map(_haar_chunk, tasks))
    else:
        parts = [_haar_chunk(t) for t in tasks]
    rows = [row for part in parts for row in part]
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(HAAR_COLUMNS)
        writer.writerows(rows)
    return summarize_rows(rows, n_samples, seed, channel)


# ---------------------------------------------------------------------------
# curves and scans
# ---------------------------------------------------------------------------

def run_gghz_curve(points: int, channel: str, out_path: str) -> None:
    """CSV rows (m, ggm, bound_bits) for the two-term family."""
    if points < 2:
        raise ValueError("gghz-curve needs at least 2 points")
    m_vals, bounds = _gghz_family(points, parse_channel(channel))
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["m", "ggm", "bound_bits"])
        writer.writerows([_fmt(m), _fmt(1.0 - m), _fmt(b)] for m, b in zip(m_vals, bounds))


def run_channel_scan(family: str, points: int | None, seed: int,
                     out_path: str) -> None:
    """GHZ bound sweep: numeric optimizer vs closed form.

    ``ad``/``pd`` sweep the damping strength over [0, 1]; ``pauli`` draws
    random weight vectors from the probability simplex. ``points`` None
    takes 11 damping strengths or 50 draws.
    """
    if points is not None and points < 1:
        raise ValueError("channel-scan needs at least 1 point")
    RngSeed(seed)               # a seed outside 64 bits fails for every family
    # (leading CSV cells, channel) per row
    if family in ("ad", "pd"):
        make = (ChannelSpec.amplitude_damping if family == "ad"
                else ChannelSpec.phase_damping)
        header = ["param"]
        cases = [([_fmt(t)], make(float(t), float(t)))
                 for t in np.linspace(0.0, 1.0, points or 11)]
    elif family == "pauli":
        gen = np.random.default_rng(seed)
        header = ["draw", "q0", "q1", "q2", "q3"]
        cases = []
        for i in range(points or 50):
            q = gen.dirichlet(np.ones(4))
            cases.append(([str(i)] + [_fmt(v) for v in q],
                          ChannelSpec.pauli_correlated(q / q.sum())))
    else:
        raise ValueError(f"channel-scan family must be ad, pd, or pauli, "
                         f"got {family!r}")
    ghz = make_ghz(4, _layout4())
    rows = []
    for lead, spec in cases:
        rep = noisy_locc_bound(ghz, spec)
        closed = closed_form_ghz_bound(spec)
        a = rep.minimizer[0].a if rep.minimizer else 1.0
        rows.append(lead + [_fmt(rep.bound_bits), _fmt(closed), _fmt(a),
                            _fmt(abs(rep.bound_bits - closed))])
    with open(out_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header + ["numeric_bound", "closed_form_bound", "minimizer_a",
                                  "abs_deviation"])
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# single-state modes
# ---------------------------------------------------------------------------

def parse_state_arg(text: str):
    text = text.strip()
    if text == "ghz":
        return make_ghz(4, _layout4())
    if text.startswith("gghz:"):
        vals = [float(v) for v in text[len("gghz:"):].split(",")]
        if len(vals) == 1:
            vals.append(0.0)
        if len(vals) != 2:
            raise ValueError("gghz state takes p[,phi]")
        return make_gghz(GghzParams(p=vals[0], phi=vals[1]), _layout4())
    with open(text) as fh:
        return load_state(fh.read())


def run_bound(state_arg: str, channel: str, write=print) -> BoundReport:
    state = parse_state_arg(state_arg)
    spec = parse_channel(channel)
    write(f"state: {state_arg} (n={state.n_qubits}, roles="
          f"{' '.join(state.layout.roles)})")
    write(f"channel: {channel}")
    write(f"global_capacity_bits: {_fmt(global_capacity(state))}")
    write(f"classical_threshold_bits: {_fmt(state.layout.n_senders)}")
    rep = locc_bound_noiseless(state) if spec.is_identity else noisy_locc_bound(state, spec)
    label = "noiseless_bound" if spec.is_identity else "noisy_bound"
    write(f"{label}_bits: {_fmt(rep.bound_bits)}")
    write(f"term_S_R1_bits: {_fmt(rep.term_S_R1)}")
    write(f"term_S_R2_bits: {_fmt(rep.term_S_R2)}")
    write(f"term_min_entropy_bits: {_fmt(rep.term_min_entropy)}")
    write(f"which_side: {rep.which_side}")
    for side, mins in ((1, rep.minimizer_side1), (2, rep.minimizer_side2)):
        desc = "; ".join(f"a={_fmt(p.a)} theta1={_fmt(p.theta1)} "
                         f"theta2={_fmt(p.theta2)}" for p in mins)
        write(f"minimizer_side{side}: {desc}")
    for side, diag in enumerate(rep.diagnostics, start=1):
        print(f"search_side{side}: {_describe_search(diag)}", file=sys.stderr)
    value, scan = ggm(state)
    write(f"ggm: {_fmt(value)} (argmax_cut={scan.argmax_label})")
    return rep


def _describe_search(diag: SearchDiagnostics | None) -> str:
    if diag is None:
        return "none (exact)"
    return (f"starts={diag.starts} steps={diag.steps} "
            f"evaluations={diag.evaluations} start_value={_fmt(diag.start_value)} "
            f"final_value={_fmt(diag.final_value)} grad_norm={diag.grad_norm:.3g} "
            f"converged={int(diag.converged)} elapsed_s={diag.elapsed_s:.4f}")


def run_ggm(state_arg: str, write=print) -> float:
    state = parse_state_arg(state_arg)
    value, scan = ggm(state)
    write(f"state: {state_arg}")
    write(f"ggm: {_fmt(value)}")
    write(f"argmax_cut: {scan.argmax_label}")
    for label, lam2 in scan.entries:
        write(f"cut {label}: max_schmidt_sq={_fmt(lam2)}")
    return value


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _read_config(path: str) -> dict[str, str]:
    out = {}
    with open(path) as fh:
        for i, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{i}: expected key=value, got {raw!r}")
            key, _, val = line.partition("=")
            out[key.strip()] = val.strip()
    return out


def build_parser(config: dict[str, str] | None = None) -> argparse.ArgumentParser:
    """The CLI, the one source of its defaults. ``config`` (option -> text,
    as a ``--config`` file gives it) replaces the defaults of the options a
    mode reads; its text goes through the option's ``type`` as a flag's does."""
    p = argparse.ArgumentParser(
        prog="densecode",
        description="LOCC dense-coding capacity bounds and multipartite "
                    "entanglement for multiqubit states.")
    sub = p.add_subparsers(dest="mode", required=True)
    options = {
        "n": dict(type=int, default=50000, help="number of samples (default %(default)s)"),
        "seed": dict(type=int, default=42, help="RNG seed (default %(default)s)"),
        "channel": dict(default="none", help="none | ad:g1,g2 | pd:p1,p2 | "
                        "pauli:q0,q1,q2,q3 | pauli-gen:<16 values> (default %(default)s)"),
        "jobs": dict(type=int, default=1, help="worker processes (default %(default)s)"),
        "points": dict(type=int, help="sweep points (default %(default)s)"),
        "family": dict(default="ad", help="ad | pd | pauli (default %(default)s)"),
        "state": dict(default="ghz", help="ghz | gghz:p[,phi] | <state file> "
                      "(default %(default)s)"),
        "out": dict(help="output CSV path (default %(default)s)"),
    }
    # mode -> (help, its options with the keywords it sets on them)
    modes = {
        "haar": ("Monte Carlo campaign over Haar states",
                 {"n": {}, "seed": {}, "channel": {}, "jobs": {},
                  "out": {"default": "haar.csv"}}),
        "gghz-curve": ("two-term reference curve",
                       {"channel": {}, "points": {"default": 201},
                        "out": {"default": "gghz_curve.csv"}}),
        "channel-scan": ("GHZ bound vs closed form",
                         {"family": {}, "points": {"help": "sweep points (default 11 "
                                                           "for ad and pd, 50 for pauli)"},
                          "seed": {}, "out": {"default": "channel_scan.csv"}}),
        "bound": ("capacity bounds for one state", {"state": {}, "channel": {}}),
        "ggm": ("GGM of one state", {"state": {}}),
    }
    for mode, (text, own) in modes.items():
        sp = sub.add_parser(mode, help=text)
        sp.add_argument("--config", help="key=value defaults file; flags override it")
        for name, keywords in own.items():
            sp.add_argument(f"--{name}", **{**options[name], **keywords})
        sp.set_defaults(**{k: v for k, v in (config or {}).items() if k in own})
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.config:
            args = build_parser(_read_config(args.config)).parse_args(argv)
        if args.mode == "haar":
            summary = run_haar(args.n, args.seed, args.channel, args.out, jobs=args.jobs)
            for line in summary.lines():
                print(line)
        elif args.mode == "gghz-curve":
            run_gghz_curve(args.points, args.channel, args.out)
        elif args.mode == "channel-scan":
            run_channel_scan(args.family, args.points, args.seed, args.out)
        elif args.mode == "bound":
            run_bound(args.state, args.channel)
        else:
            run_ggm(args.state)
        if "out" in args:
            print(f"csv: {args.out}")
        return EXIT_OK
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError, StateFormatError, OSError) as exc:
        print(f"densecode: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OptimizationError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"densecode: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
