"""Command-line interface.

Subcommands: transform, classify, simulate, denoise, bench. Data go only to
stdout or files, progress lines to stderr. Exit codes: 0 on success, 1 on a
validation problem (bad flags or bad input values), 2 on an I/O problem.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import sys
from pathlib import Path

from . import persistence
from .classify import group_cv
from .core import _write_csv, load_dataset_csv, load_spectrum_csv, write_pgm
from .diagram import write_diagram_csv
from .simulate import NoiseModel, SimulationSpec, bench_denoise, simulate_means

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters
_MMAP_BYTES = 4 << 20  # blocks this large and larger come from mmap


def _fix_mmap_threshold() -> None:
    """Serve every block of 4 MiB or more from mmap, so freeing it returns it to the OS.

    glibc otherwise raises its mmap threshold to the size of the first large
    block freed. Later image-sized arrays then come from the heap, and
    whether a freed one is reused or stays resident depends on where small
    blocks happened to land: five 30x30 simulator images made in a row
    peaked at 120 or 144 MB RSS depending only on the length of the working
    directory's path. A fixed threshold keeps that peak at live data.

    Fixing it also stops the matching rise of the trim threshold, which
    would then give the heap top back after every freed block and fault it
    in again on the next (73 8x8 images made 590,000 page faults instead of
    15,000), so the trim threshold is set to twice the mmap threshold, as
    glibc's own rule would. Where libc is not glibc, nothing changes.

    The setting holds for the whole process, so only the command's entry
    point makes it; importing the package leaves the allocator alone. The
    commands stream 64-row blocks and do not need it: it stays for the
    benchmark, whose denoise-image set-up holds full 30x30 images and enters
    the package through :func:`main`. Once ``bench/run.py`` sets the
    thresholds in its own process (ROADMAP item 1), this function can be
    deleted.
    """
    with contextlib.suppress(OSError, AttributeError):
        libc = ctypes.CDLL("libc.so.6")
        libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)
        libc.mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_BYTES)


class _Parser(argparse.ArgumentParser):
    # Flags are taken only as spelled out: bench's --sizes must not read --size.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    # argparse exits with status 2 on bad flags; this tool reserves 2 for I/O.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _build_parser() -> _Parser:
    parser = _Parser(prog="topopeaks",
                     description="Persistence-based peak analysis of spectra")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("transform", help="persistence features of one spectrum",
                       description="Compute the persistence transformation of a spectrum "
                                   "and write the top-k% features as CSV.")
    p.add_argument("--in", dest="infile", required=True, help="input spectrum CSV (mz,intensity)")
    p.add_argument("--out", required=True, help="output feature CSV")
    p.add_argument("--k", type=float, default=100.0, help="percentage of peaks to keep, in (0, 100]")
    p.add_argument("--reduced", action="store_true", help="emit position and persistence only")
    p.add_argument("--diagram", help="also write the persistence diagram CSV here")

    p = sub.add_parser("classify", help="group-level cross-validated classification",
                       description="Cross-validate a classifier on persistence features.")
    p.add_argument("--spectra", required=True, help="dataset CSV (header = mz axis)")
    p.add_argument("--labels", required=True, help="labels CSV (label,group per row)")
    p.add_argument("--out-dir", required=True, help="directory for folds.csv and summary.csv")
    p.add_argument("--scheme", choices=["leave-one-group-out", "two-fold-AB"],
                   default="leave-one-group-out")
    p.add_argument("--classifier", choices=["logistic", "forest"], default="logistic")
    p.add_argument("--k", type=float, default=30.0, help="percentage of peaks to keep")
    p.add_argument("--n-trees", type=int, default=1000)
    p.add_argument("--seed", type=int, default=1234)

    def add_sim_flags(sp):
        sp.add_argument("--baseline", type=float, default=0.0)
        sp.add_argument("--n-mz", type=int, default=3466)
        sp.add_argument("--n-peaks", type=int, default=50)
        sp.add_argument("--seed", type=int, default=1234)
        sp.add_argument("--noise", choices=["none", "gaussian", "poisson"],
                        default="gaussian")
        sp.add_argument("--sd", type=float, default=0.1, help="gaussian noise sd")
        sp.add_argument("--lam", type=float, default=1.0, help="poisson noise rate")

    def add_image_flags(sp):
        sp.add_argument("--out-dir", required=True)
        sp.add_argument("--size", type=int, default=30, help="image side length in pixels")
        add_sim_flags(sp)

    p = sub.add_parser("simulate", help="generate a synthetic image",
                       description="Write ground-truth and noisy mean images as PGM.")
    add_image_flags(p)

    p = sub.add_parser("denoise", help="simulate, denoise, and write images",
                       description="Write ground-truth, noisy, and per-k denoised mean "
                                   "images as PGM.")
    add_image_flags(p)
    p.add_argument("--k", default="10,25", help="comma-separated k percentages")

    p = sub.add_parser("bench", help="denoising wall-clock benchmark",
                       description="Time denoising across image sizes; write a timing CSV.")
    p.add_argument("--out", required=True, help="output timing CSV")
    p.add_argument("--sizes", default="30,42,60", help="comma-separated image sizes")
    add_sim_flags(p)
    p.add_argument("--k", type=float, default=25.0)
    return parser


def _noise_model(args) -> NoiseModel:
    if args.noise == "none":
        return NoiseModel("none", 0.0, args.seed)
    level = args.sd if args.noise == "gaussian" else args.lam
    return NoiseModel(args.noise, level, args.seed)


def _parse_list(text: str, name: str, kind=float) -> list:
    try:
        values = [kind(part) for part in text.split(",") if part.strip()]
    except ValueError:
        values = []
    if not values:
        raise ValueError(f"bad {name} list {text!r}: expected comma-separated {kind.__name__}s")
    return values


def _cmd_transform(args) -> int:
    spectrum = load_spectrum_csv(args.infile)
    triples = persistence.transform(spectrum)
    _log(f"transformed {len(spectrum)} points into {len(triples)} features")
    pairs = persistence.filter_top_k(persistence.reduce(triples), args.k)
    if args.diagram:
        write_diagram_csv(persistence.to_diagram(triples), args.diagram)
        _log(f"wrote {args.diagram}")
    if args.reduced:
        persistence.write_pairs_csv(pairs, spectrum.mz, args.out)
    else:
        keep = {p.position for p in pairs}
        kept = [t for t in triples if t.position in keep]  # transform's order
        persistence.write_triples_csv(kept, spectrum.mz, args.out)
    _log(f"wrote {args.out} ({len(pairs)} features at k={args.k})")
    return 0


def _cmd_classify(args) -> int:
    dataset = load_dataset_csv(args.spectra, args.labels)
    _log(f"loaded {dataset.n} spectra with {dataset.q} mz values")
    report = group_cv(dataset, args.scheme, args.classifier, args.k,
                      n_trees=args.n_trees, seed=args.seed)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    folds_path, summary_path = out_dir / "folds.csv", out_dir / "summary.csv"
    _write_csv(folds_path, zip(report.fold_names, report.fold_scores),
               header=("fold", "balanced_accuracy"))
    stats = ("mean", "min", "max", "median", "std")
    _write_csv(summary_path, ((s, getattr(report, s)) for s in stats),
               header=("statistic", "value"))
    _log(f"wrote {folds_path} and {summary_path}")
    print(report.summary_table())
    return 0


def _simulate_and_write(args, ks=()) -> tuple[Path, list]:
    """Simulate the flagged image, write its ground-truth and noisy PGMs.

    Returns the output directory and the denoised mean grid of each k.
    """
    spec = SimulationSpec(size=args.size, n_mz=args.n_mz, n_peaks=args.n_peaks,
                          baseline=args.baseline, seed=args.seed)
    truth, noisy, *cleaned = simulate_means(spec, _noise_model(args), ks)
    _log(f"generated {args.size}x{args.size} image with {args.n_mz} mz values")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_pgm(truth, out_dir / "ground_truth.pgm")
    write_pgm(noisy, out_dir / "noisy.pgm")
    return out_dir, cleaned


def _cmd_simulate(args) -> int:
    out_dir, _ = _simulate_and_write(args)
    _log(f"wrote {out_dir / 'ground_truth.pgm'} and {out_dir / 'noisy.pgm'}")
    return 0


def _cmd_denoise(args) -> int:
    ks = _parse_list(args.k, "k")
    out_dir, cleaned = _simulate_and_write(args, tuple(ks))
    for k, grid in zip(ks, cleaned):
        name = f"denoised_k{k:g}.pgm"
        write_pgm(grid, out_dir / name)
        _log(f"wrote {out_dir / name}")
    return 0


def _cmd_bench(args) -> int:
    sizes = _parse_list(args.sizes, "size", int)
    rows = bench_denoise(sizes, _noise_model(args), args.k, baseline=args.baseline,
                         n_mz=args.n_mz, n_peaks=args.n_peaks, seed=args.seed)
    first = rows[0].seconds
    _write_csv(args.out, ((r.size, r.pixels, r.seconds, r.seconds_per_pixel,
                           r.seconds / first) for r in rows),
               header=("size", "pixels", "seconds", "seconds_per_pixel", "ratio_vs_first"))
    _log(f"size {rows[-1].size}: {rows[-1].seconds:.2f}s")
    _log(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "transform": _cmd_transform,
    "classify": _cmd_classify,
    "simulate": _cmd_simulate,
    "denoise": _cmd_denoise,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    _fix_mmap_threshold()
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"topopeaks: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"topopeaks: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
