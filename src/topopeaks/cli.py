"""Command-line interface.

Subcommands: transform, classify, simulate, denoise, bench. Data go only to
stdout or files, progress lines to stderr. Exit codes: 0 on success, 1 on a
validation problem (bad flags or bad input values), 2 on an I/O problem.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import sys
from pathlib import Path

from . import persistence
from .classify import _check_n_trees, group_cv
from .core import _check_seed, _write_csv, load_dataset_csv, load_spectrum_csv, write_pgm
from .diagram import write_diagram_csv
from .simulate import NoiseModel, SimulationSpec, bench_denoise, simulate_means

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc mallopt parameters
_MMAP_BYTES = 4 << 20  # blocks this large and larger come from mmap


def _fix_mmap_threshold() -> None:
    """Serve every block of 4 MiB or more from mmap, and trim the heap only past 8 MiB.

    glibc otherwise raises both thresholds to the largest block freed so
    far. Measured in fresh processes with this call removed:

    * ``denoise`` frees and remakes the pairing kernel's arrays for every
      8-row block. Each free then gives the heap top back to the OS and the
      next block faults it in again: ``denoise --size 60`` took 0.67 s and
      105,700 minor page faults instead of 0.48 s and 1,100 (``--size 30``:
      23,100 faults instead of 1,060).
    * ``bench`` frees whole images, about 100 MB each at size 60. Later ones
      then come from the heap, and freed ones stay resident: ``bench --sizes
      30,42,60`` peaked at 323 or 346 MB instead of 299 MB.

    Its one measured cost: the benchmark's denoise-image peak RSS reads
    about 2 MB higher (114.3-114.6 MB against 112.2-112.4 MB).

    The trim threshold is twice the mmap threshold, as glibc's own rule
    would set it. Where libc is not glibc, nothing changes. The setting holds
    for the whole process, so only the command's entry point makes it;
    importing the package leaves the allocator alone.
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


@functools.cache  # one parser a process: building it costs more than a small command
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
    p.set_defaults(run=_cmd_transform)

    p = sub.add_parser("classify", help="group-level cross-validated classification",
                       description="Cross-validate a classifier on persistence features.")
    p.add_argument("--spectra", required=True, help="dataset CSV (header = mz axis)")
    p.add_argument("--labels", required=True, help="labels CSV (label,group per row)")
    p.add_argument("--out-dir", required=True, help="directory for folds.csv and summary.csv")
    p.add_argument("--scheme", choices=["leave-one-group-out", "two-fold-AB"],
                   default="leave-one-group-out",
                   help="one fold per group, or sorted groups split into halves A and B")
    p.add_argument("--classifier", choices=["logistic", "forest"], default="logistic",
                   help="unpenalised logistic regression or random forest")
    p.add_argument("--k", type=float, default=30.0, help="percentage of peaks to keep")
    p.add_argument("--n-trees", type=int, default=1000, help="trees in the forest")
    p.add_argument("--seed", type=int, default=1234, help="random seed of the forest")
    p.set_defaults(run=_cmd_classify)

    def add_sim_flags(sp):
        sp.add_argument("--baseline", type=float, default=0.0,
                        help="flat intensity under every pixel spectrum")
        sp.add_argument("--n-mz", type=int, default=3466, help="m/z values per spectrum")
        sp.add_argument("--n-peaks", type=int, default=50,
                        help="peaks split between the two regions")
        sp.add_argument("--seed", type=int, default=1234,
                        help="random seed of the spectra and the noise")
        sp.add_argument("--noise", choices=["none", "gaussian", "poisson"],
                        default="gaussian", help="noise added to every pixel spectrum")
        sp.add_argument("--sd", type=float, default=0.1, help="gaussian noise sd")
        sp.add_argument("--lam", type=float, default=1.0, help="poisson noise rate")

    def add_image_flags(sp):
        sp.add_argument("--out-dir", required=True, help="directory for the PGM images")
        sp.add_argument("--size", type=int, default=30, help="image side length in pixels")
        add_sim_flags(sp)
        sp.set_defaults(run=_cmd_simulate)

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
    p.add_argument("--k", type=float, default=25.0, help="percentage of peaks to keep")
    p.set_defaults(run=_cmd_bench)
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
    k = persistence._check_k(args.k)
    spectrum = load_spectrum_csv(args.infile)
    # one pairing gives the triples, the diagram and the top-k% peaks
    row, pos, pers, death = persistence._pair_block(spectrum.intensity[None, :])
    triples = persistence._triples(spectrum.intensity, pos, death)
    _log(f"transformed {len(spectrum)} points into {len(triples)} features")
    if args.diagram:
        write_diagram_csv(persistence.to_diagram(triples), args.diagram)
        _log(f"wrote {args.diagram}")
    (kept,) = persistence._select(row, pers, 1, (k,))  # in position order
    if args.reduced:
        pairs = map(persistence.PersistencePair, pos[kept].tolist(), pers[kept].tolist())
        persistence.write_pairs_csv(pairs, spectrum.mz, args.out)
    else:
        chosen = set(pos[kept].tolist())
        triples = [t for t in triples if t.position in chosen]  # transform's order
        persistence.write_triples_csv(triples, spectrum.mz, args.out)
    _log(f"wrote {args.out} ({kept.size} features at k={args.k})")
    return 0


def _cmd_classify(args) -> int:
    persistence._check_k(args.k)
    if args.classifier == "forest":
        _check_n_trees(args.n_trees)
        _check_seed(args.seed)
    dataset = load_dataset_csv(args.spectra, args.labels)
    _log(f"loaded {dataset.n} spectra with {dataset.q} mz values")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = group_cv(dataset, args.scheme, args.classifier, args.k,
                      n_trees=args.n_trees, seed=args.seed)
    folds_path, summary_path = out_dir / "folds.csv", out_dir / "summary.csv"
    _write_csv(folds_path, zip(report.fold_names, report.fold_scores),
               header=("fold", "balanced_accuracy"))
    stats = ("mean", "min", "max", "median", "std")
    _write_csv(summary_path, ((s, getattr(report, s)) for s in stats),
               header=("statistic", "value"))
    _log(f"wrote {folds_path} and {summary_path}")
    print(report.summary_table())
    return 0


def _cmd_simulate(args) -> int:
    """The simulate and denoise commands: ground-truth and noisy PGMs, then one per denoise k."""
    ks = ()
    if args.command == "denoise":
        ks = tuple(map(persistence._check_k, _parse_list(args.k, "k")))
    spec = SimulationSpec(size=args.size, n_mz=args.n_mz, n_peaks=args.n_peaks,
                          baseline=args.baseline, seed=args.seed)
    model = _noise_model(args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grids = simulate_means(spec, model, ks)
    _log(f"generated {args.size}x{args.size} image with {args.n_mz} mz values")
    names = ["ground_truth.pgm", "noisy.pgm", *(f"denoised_k{k:g}.pgm" for k in ks)]
    for name, grid in zip(names, grids):
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


def main(argv=None) -> int:
    _fix_mmap_threshold()
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except ValueError as exc:
        print(f"topopeaks: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"topopeaks: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
