"""The benchmark's three workloads: inputs, operations and output checks.

Every workload builds its inputs from the benchmark seed with fixed sizes,
calls the package only through module attributes (so a tracer can wrap
them), and checks its outputs against computations written here.
"""

from __future__ import annotations

import math
import statistics
import time
from pathlib import Path

import numpy as np

NOISE_SD = 0.1  # the CLI's default Gaussian noise level


def _pgm(path: Path) -> np.ndarray:
    """Decode a binary PGM as written by the package (``P5``, maxval 255)."""
    magic, dims, maxval, pixels = path.read_bytes().split(b"\n", 3)
    w, h = (int(v) for v in dims.split())
    if magic != b"P5" or maxval != b"255" or len(pixels) != w * h:
        raise ValueError(f"{path}: not a {w}x{h} binary PGM")
    return np.frombuffer(pixels, dtype=np.uint8).reshape(h, w)


def _pgm_levels(grid: np.ndarray) -> np.ndarray:
    """The documented PGM scaling: min-max to 0..255, round half up."""
    span = grid.max() - grid.min()
    if span == 0:
        return np.zeros(grid.shape, dtype=np.uint8)
    return np.floor(255.0 * (grid - grid.min()) / span + 0.5).astype(np.uint8)


def _otsu_mask(levels: np.ndarray) -> np.ndarray:
    """Foreground of an 8-bit image by Otsu's between-class variance."""
    hist = np.bincount(levels.ravel(), minlength=256).astype(np.float64)
    w0 = np.cumsum(hist)
    w1 = hist.sum() - w0
    m0 = np.cumsum(hist * np.arange(256))
    with np.errstate(invalid="ignore", divide="ignore"):
        between = w0 * w1 * (m0 / w0 - (m0[-1] - m0) / w1) ** 2
    between[(w0 == 0) | (w1 == 0)] = -1.0
    return levels > int(np.argmax(between))


def _iou(a: np.ndarray, b: np.ndarray) -> float:
    return float((a & b).sum() / max(1, (a | b).sum()))


def _oracle_vector(lib, mz, row, k) -> np.ndarray:
    """Top-k persistence vector from the sweep oracle: keep ceil(k*m/100)
    positive-persistence peaks, most persistent first, ties to the smaller
    position."""
    triples = lib.persistence.oracle_transform(lib.core.Spectrum(mz, row))
    pairs = [(t.position, t.birth - t.death) for t in triples if t.birth > t.death]
    keep = math.ceil(k * len(pairs) / 100.0)
    vec = np.zeros(row.size)
    for pos, pers in sorted(pairs, key=lambda p: (-p[1], p[0]))[:keep]:
        vec[pos] = pers
    return vec


def _transform_quantiles(lib, spectra) -> dict:
    """Per-spectrum wall time of ``transform`` over a sample of spectra."""
    times = []
    for s in spectra:
        t0 = time.perf_counter()
        lib.persistence.transform(s)
        times.append(time.perf_counter() - t0)
    deciles = statistics.quantiles(times, n=10)
    return {"transform_p50_s": statistics.median(times),
            "transform_p90_s": deciles[-1]}


class DenoiseImage:
    """``topopeaks denoise`` on the default 30x30 simulator image."""

    name = "denoise-image"
    round_s = 7.0
    ks = (10.0, 25.0)  # the CLI's default --k
    sample_pixels = tuple(range(0, 900, 37))  # fixed pixels whose rows are checked

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib, self.seed, self.workdir = lib, seed, workdir

    def setup(self):
        sim = self.lib.simulate
        spec = sim.SimulationSpec(seed=self.seed)
        self.image, self.truth = sim.generate_ground_truth(spec)
        self.noisy = sim.add_noise(self.image, sim.NoiseModel("gaussian", NOISE_SD, self.seed))
        rc = self.lib.cli.main(["denoise", "--out-dir", str(self.workdir / "warmup"),
                                "--size", "8", "--seed", str(self.seed)])
        if rc != 0:
            raise RuntimeError(f"warm-up denoise exited {rc}")

    def operations(self):
        argv = ["denoise", "--out-dir", str(self.workdir / "out"), "--seed", str(self.seed)]
        return [("denoise", lambda: (self.lib.cli.main(argv) == 0, None))]

    def check(self, results) -> list[str]:
        problems = []
        out = self.workdir / "out"
        side = self.image.height
        expected = {"ground_truth.pgm": self.image, "noisy.pgm": self.noisy}
        for name, image in expected.items():
            levels = _pgm_levels(image.spectra.mean(axis=1).reshape(side, side))
            if not np.array_equal(_pgm(out / name), levels):
                problems.append(f"{name} differs from the seeded simulator image")
        for k in self.ks:
            grid = _pgm(out / f"denoised_k{k:g}.pgm")
            if grid.shape != (side, side):
                problems.append(f"denoised_k{k:g}.pgm is {grid.shape}, not {side}x{side}")
                continue
            iou = _iou(_otsu_mask(grid), self.truth)
            if iou < 0.8:
                problems.append(f"k={k:g}: recovered-mask IoU {iou:.3f} < 0.8")
        rows = self.noisy.spectra[list(self.sample_pixels)]
        sub = self.lib.core.MSImage(len(self.sample_pixels), 1, self.noisy.mz, rows)
        for k in self.ks:
            got = self.lib.simulate.denoise(sub, k, workers=1).spectra
            for px, row, vec in zip(self.sample_pixels, rows, got):
                if not np.array_equal(vec, _oracle_vector(self.lib, self.noisy.mz, row, k)):
                    problems.append(f"k={k:g}: denoised pixel {px} differs from the oracle")
        return problems

    def extras(self) -> dict:
        spectra = [self.lib.core.Spectrum(self.noisy.mz, row)
                   for row in self.noisy.spectra[::7]]
        out = _transform_quantiles(self.lib, spectra)
        t0 = time.perf_counter()
        for k in self.ks:
            self.lib.simulate.denoise(self.noisy, k, workers=1)
        out["denoise_seq_s"] = time.perf_counter() - t0
        return out


def _cohort(rng, n: int, q: int, n_groups: int):
    """Two classes in patient groups on a q-point axis.

    Twelve shared Gaussian peaks of random height plus one peak whose height
    codes the class (2 vs 6), over small additive noise clamped at zero.
    """
    x = np.arange(q, dtype=np.float64)
    centers = np.append(np.linspace(20, q - 20, 12).round(), q // 2 + 7)
    labels = np.arange(n) % 2
    heights = np.column_stack([3.0 + rng.normal(0.0, 0.5, (n, 12)),
                               np.where(labels == 1, 6.0, 2.0) + rng.normal(0.0, 0.3, n)])
    shapes = np.exp(-0.5 * ((x[None, :] - centers[:, None]) / 1.5) ** 2)
    spectra = np.maximum(heights @ shapes + rng.normal(0.0, 0.01, (n, q)), 0.0)
    groups = [f"p{i * n_groups // n}" for i in range(n)]
    return np.linspace(100.0, 1100.0, q), spectra, labels, groups


def _write_cohort(directory: Path, cohort) -> tuple[str, str]:
    mz, spectra, labels, groups = cohort
    directory.mkdir(parents=True, exist_ok=True)
    spectra_path, labels_path = directory / "spectra.csv", directory / "labels.csv"
    with open(spectra_path, "w") as fh:
        for row in (mz, *spectra):
            fh.write(",".join(map(repr, row.tolist())) + "\n")
    with open(labels_path, "w") as fh:
        fh.writelines(f"{y},{g}\n" for y, g in zip(labels.tolist(), groups))
    return str(spectra_path), str(labels_path)


class ClassifyLogo:
    """``topopeaks classify`` leave-one-group-out, logistic then forest."""

    name = "classify-logo"
    round_s = 14.0
    n, q, n_groups, n_trees = 120, 500, 4, 200

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib, self.seed, self.workdir = lib, seed, workdir

    def setup(self):
        self.cohort = _cohort(np.random.default_rng(self.seed), self.n, self.q, self.n_groups)
        self.files = _write_cohort(self.workdir / "cohort", self.cohort)
        small = _cohort(np.random.default_rng(self.seed), 24, 100, self.n_groups)
        warm = _write_cohort(self.workdir / "warmup", small)
        rc = self._classify(warm, "logistic", self.workdir / "warmup")
        if rc != 0:
            raise RuntimeError(f"warm-up classify exited {rc}")

    def _classify(self, files, classifier, out_dir):
        return self.lib.cli.main([
            "classify", "--spectra", files[0], "--labels", files[1],
            "--out-dir", str(out_dir), "--scheme", "leave-one-group-out",
            "--classifier", classifier, "--n-trees", str(self.n_trees)])

    def operations(self):
        return [(c, lambda c=c: (self._classify(self.files, c, self.workdir / c) == 0, None))
                for c in ("logistic", "forest")]

    def check(self, results) -> list[str]:
        problems = []
        groups = sorted(set(self.cohort[3]))
        for classifier in ("logistic", "forest"):
            out = self.workdir / classifier
            folds = [line.split(",") for line in
                     (out / "folds.csv").read_text().splitlines()[1:]]
            if sorted(name for name, _ in folds) != groups:
                problems.append(f"{classifier}: folds.csv rows {[f[0] for f in folds]} "
                                f"are not one per group {groups}")
            scores = [float(s) for _, s in folds]
            summary = dict(line.split(",") for line in
                           (out / "summary.csv").read_text().splitlines()[1:])
            mean = float(summary["mean"])
            if abs(mean - math.fsum(scores) / len(scores)) > 1e-12:
                problems.append(f"{classifier}: summary mean {mean} is not the fold mean")
            if mean < 0.95:
                problems.append(f"{classifier}: mean balanced accuracy {mean:.3f} < 0.95")
        return problems

    def extras(self) -> dict:
        mz, spectra = self.cohort[0], self.cohort[1]
        return _transform_quantiles(self.lib, [self.lib.core.Spectrum(mz, r) for r in spectra])


def _feasible(t, cost, gap1, gap2) -> bool:
    """Perfect matching at threshold t, by Hopcroft-Karp with explicit stacks.

    Left: points of the first diagram, then one diagonal copy per point of
    the second; right: the mirror image. A point matches a point of the other
    diagram at cost <= t, or its own diagonal copy at gap <= t; diagonal
    copies match each other freely.
    """
    n1, n2 = cost.shape
    n = n1 + n2
    diag_block = list(range(n2, n))
    adj = []
    for i in range(n1):
        adj.append(np.flatnonzero(cost[i] <= t).tolist() + ([n2 + i] if gap1[i] <= t else []))
    for j in range(n2):
        adj.append(([j] if gap2[j] <= t else []) + diag_block)
    match_l, match_r = [-1] * n, [-1] * n
    unreached = n + 1
    while True:
        dist = [unreached] * n
        queue = [u for u in range(n) if match_l[u] == -1]
        for u in queue:
            dist[u] = 0
        found, head = False, 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in adj[u]:
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] == unreached:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if not found:
            return all(m != -1 for m in match_l)
        nxt = [0] * n
        for s in range(n):
            if match_l[s] != -1:
                continue
            stack, via = [s], []
            while stack:
                u = stack[-1]
                if nxt[u] == len(adj[u]):
                    dist[u] = unreached
                    stack.pop()
                    if via:
                        via.pop()
                    continue
                v = adj[u][nxt[u]]
                nxt[u] += 1
                w = match_r[v]
                if w == -1:
                    via.append(v)
                    for uu, vv in zip(stack, via):
                        match_l[uu], match_r[vv] = vv, uu
                    break
                if dist[w] == dist[u] + 1:
                    stack.append(w)
                    via.append(v)


def certify_bottleneck(d1, d2, value) -> str | None:
    """None when ``value`` is the exact bottleneck distance, else why not.

    The distance is the smallest candidate (0, a half-gap to the diagonal or
    a pairwise infinity-norm cost) at which a perfect matching exists.
    """
    p1 = np.array(d1.points, dtype=np.float64).reshape(-1, 2)
    p2 = np.array(d2.points, dtype=np.float64).reshape(-1, 2)
    gap1 = (p1[:, 0] - p1[:, 1]) / 2.0
    gap2 = (p2[:, 0] - p2[:, 1]) / 2.0
    cost = np.maximum(np.abs(p1[:, None, 0] - p2[None, :, 0]),
                      np.abs(p1[:, None, 1] - p2[None, :, 1]))
    cands = np.unique(np.concatenate([[0.0], gap1, gap2, cost.ravel()]))
    i = int(np.searchsorted(cands, value))
    if i == cands.size or cands[i] != value:
        return f"{value!r} is not a candidate value"
    if not _feasible(value, cost, gap1, gap2):
        return f"no perfect matching at {value!r}"
    if i > 0 and _feasible(cands[i - 1], cost, gap1, gap2):
        return f"a perfect matching exists below {value!r}, at {cands[i - 1]!r}"
    return None


class DiagramDistance:
    """transform -> to_diagram -> bottleneck_distance on pairs of pixel spectra."""

    name = "diagram-distance"
    round_s = 30.0
    windows = (100, 150, 200)  # axis-window lengths, cycled over the pairs
    n_pairs = 72
    mirrors = 3  # pairs whose first spectrum is also checked against its mirror
    # Full-axis noisy pixels (circle, square) of a fixed 8x8 image, the same
    # for every seed: their ~940-point diagrams exhaust the recursion limit of
    # the matcher in diagram._feasible.
    large_seed, large_pixels = 1234, (18, 54)

    def __init__(self, lib, seed: int, workdir: Path):
        self.lib, self.seed, self.workdir = lib, seed, workdir

    def setup(self):
        self.pairs = []
        rng = np.random.default_rng(self.seed)
        for i in range(self.n_pairs):
            # Each pair comes from its own small image, so that no single
            # image's peak layout sets the cost of every pair of a seed.
            # Pair i takes both pixels from one class: circle (top half of
            # the region mask), square or background, cycling.
            image, truth = self._noisy_image(int(rng.integers(2**32)))
            top = np.arange(image.height)[:, None] < image.height // 2
            pixels = np.flatnonzero([truth & top, truth & ~top, ~truth][i % 3])
            a, b = rng.choice(pixels, size=2, replace=False)
            width = self.windows[i % len(self.windows)]
            start = int(rng.integers(0, image.mz.size - width + 1))
            self.pairs.append(self._spectra(image, (a, b), slice(start, start + width)))
        image, _ = self._noisy_image(self.large_seed)
        self.large = self._spectra(image, self.large_pixels, slice(None))
        warm = self._spectra(image, (0, 0), slice(0, 60))
        self._distance(*warm)()

    def _noisy_image(self, seed):
        sim = self.lib.simulate
        image, truth = sim.generate_ground_truth(sim.SimulationSpec(size=8, seed=seed))
        return sim.add_noise(image, sim.NoiseModel("gaussian", NOISE_SD, seed)), truth

    def _spectra(self, image, pixels, cut):
        return tuple(self.lib.core.Spectrum(image.mz[cut], image.spectra[p, cut])
                     for p in pixels)

    def _distance(self, f, g):
        P = self.lib.persistence

        def op():
            d1, d2 = P.to_diagram(P.transform(f)), P.to_diagram(P.transform(g))
            try:
                return True, (d1, d2, self.lib.diagram.bottleneck_distance(d1, d2))
            except RecursionError:
                return False, (d1, d2, None)

        return op

    def operations(self):
        # The large pair goes first, while the heap holds only the set-up:
        # its transient ~60 MB of candidate values then sets the same peak
        # RSS whatever the seed.
        ops = [(f"pair{i}", self._distance(f, g)) for i, (f, g) in enumerate(self.pairs)]
        return [("large", self._distance(*self.large))] + ops

    def check(self, results) -> list[str]:
        problems = []
        inputs = [self.large] + self.pairs
        for (name, _, ok, value), (f, g) in zip(results, inputs):
            if not ok:
                continue
            d1, d2, d = value
            bound = float(np.max(np.abs(f.intensity - g.intensity)))
            if not 0.0 <= d <= bound:
                problems.append(f"{name}: distance {d!r} outside [0, {bound!r}]")
            why = certify_bottleneck(d1, d2, d)
            if why:
                problems.append(f"{name}: {why}")
        P, Spectrum = self.lib.persistence, self.lib.core.Spectrum
        for f, _ in self.pairs[: self.mirrors]:
            mirror = Spectrum(f.mz, f.intensity[::-1].copy())
            d = self.lib.diagram.bottleneck_distance(P.to_diagram(P.transform(f)),
                                                     P.to_diagram(P.transform(mirror)))
            if d != 0.0:
                problems.append(f"mirror distance {d!r}, expected 0")
        return problems

    def extras(self) -> dict:
        return _transform_quantiles(self.lib, [s for pair in self.pairs for s in pair])


WORKLOADS = {w.name: w for w in (DenoiseImage, ClassifyLogo, DiagramDistance)}
