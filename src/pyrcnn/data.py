"""Gallery ingestion, identity-disjoint splits, pair sampling, synthesis.

Images are single-channel binary PGM (P5) files listed by an index CSV with
header ``path,identity``; relative paths resolve against the index file's
directory.  Identity labels are re-numbered densely in order of first
appearance.  A loaded image keeps the file's 8-bit samples and maxval
(`LabeledImage.raster`, one byte per pixel); its float pixels,
`samples / maxval`, are made by `float_pixels` only for the window or slab
being read.  The synthetic generator renders one base pattern per
identity (oriented gratings plus blobs on a padded canvas) and perturbs it
with identity-preserving nuisances — brightness, translation, pixel noise —
so that raw pixel distance is a poor verifier while identity stays learnable.

Pairs travel as a `PairBatch`: two int32 position arrays (`first`,
`second`) into the image collection and an int8 `label` array, 9 bytes a
pair; iterating one builds its `FacePair`s on demand.  `PairSampler`
draws a batch in whole-array operations from O(#images) state, writing
each draw straight into the batch's arrays, yet its random stream is the
one of drawing pairs one at a time: the matched picks are one `integers`
call as before, turned into positions from per-identity combination counts
instead of a list of every within-identity pair, and each rejection round
for the unmatched pairs draws exactly two values per pair still missing, so
no round reads past the candidate where the one-at-a-time loop would stop.
A given seed gives the same pairs, in the same order, and leaves the
generator in the same state.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
import re
import stat
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .loss import PairLabel
from .seeding import derive_seed
from .tensor import Tensor, TensorError


class DataError(ValueError):
    """Malformed index, image file, or sampling precondition."""


# ---------------------------------------------------------------------------
# core records


def float_pixels(samples, maxval) -> np.ndarray:
    """Stored samples as float64 pixels in [0, 1]: `samples / maxval`.

    Every float view of an image is made here: `read_pgm`, `center_crop`,
    and the slabs training and extraction stack.  `samples` is one raster
    with one maxval, or n stacked rasters with n maxvals.  A float image's
    maxval is 1, and x / 1 == x bit for bit.
    """
    scale = np.reshape(maxval, (-1,) + (1,) * (np.ndim(samples) - 1))
    return np.divide(samples, scale, dtype=np.float64)


class LabeledImage:
    """A grayscale image with its identity, held as its samples are
    stored: an h x w x 1 `raster` of values in 0..`maxval`.

    `pixels` is a float `Tensor` in [0, 1], kept as its float64 array with
    maxval 1, or a uint8 array of samples with their maxval (1..255), kept
    as it is: a PGM's image holds one byte per pixel.  The float pixels,
    `float_pixels(raster, maxval)`, are computed only where they are read:
    the windows `center_crop`, training and extraction take.
    """

    __slots__ = ("raster", "maxval", "identity", "source")

    def __init__(self, pixels, identity: int, source: str | None = None,
                 maxval: int = 1):
        if isinstance(pixels, Tensor):
            if maxval != 1:
                raise DataError(f"a float image has maxval 1, got {maxval}")
            raster = pixels.array
        else:
            raster = np.asarray(pixels)
            if raster.dtype != np.uint8 or not 1 <= maxval <= 255:
                raise DataError(
                    f"stored samples must be uint8 with a maxval in 1..255, "
                    f"got {raster.dtype} with maxval {maxval}")
            raster = raster.view()
            raster.flags.writeable = False
        shape = raster.shape
        if len(shape) != 3 or shape[2] != 1 or 0 in shape:
            raise DataError(f"image pixels must be h x w x 1, got {shape}")
        if isinstance(pixels, Tensor):
            if raster.min() < 0 or raster.max() > 1:
                raise DataError("pixel values must lie in [0, 1]")
        elif maxval < 255 and raster.max() > maxval:  # uint8: 0..255 always
            raise DataError(f"stored samples must lie in 0..{maxval}, "
                            f"got {raster.max()}")
        self.raster = raster
        self.maxval = maxval
        self.identity = identity
        self.source = source

    def __repr__(self) -> str:
        h, w, _ = self.raster.shape
        return (f"LabeledImage({w}x{h}, maxval {self.maxval}, identity "
                f"{self.identity}, source {self.source!r})")


@dataclass(frozen=True)
class FacePair:
    """Two image references (positions in the owning collection) + label."""

    first: int
    second: int
    label: PairLabel


@dataclass(frozen=True)
class IndexRecord:
    path: Path
    identity: int


@dataclass
class DatasetIndex:
    records: list[IndexRecord]
    identity_names: list[str]  # dense id -> original label

    @property
    def n_identities(self) -> int:
        return len(self.identity_names)


# ---------------------------------------------------------------------------
# PGM files


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit binary PGM into an h x w array of floats in [0, 1]."""
    return float_pixels(*_read_pgm_samples(path))


# One PGM header number, after any whitespace and whole-line comments; a
# comment that reaches the end of the file leaves the header truncated.
_PGM_FIELD = re.compile(rb"(?:[ \t\n\r\x0b\x0c]|#[^\n]*\n)*([0-9]*)")


def _read_pgm_samples(path) -> tuple[np.ndarray, int]:
    """An 8-bit binary PGM as stored: its h x w uint8 raster and maxval."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:2] != b"P5":
        raise DataError(f"{path}: expected binary PGM magic 'P5'")
    pos, fields = 2, []
    while len(fields) < 3:
        field = _PGM_FIELD.match(raw, pos)
        start, pos = field.start(1), field.end()
        if start == pos:
            c = raw[pos:pos + 1]
            if c in (b"", b"#"):
                raise DataError(f"{path}: truncated PGM header")
            raise DataError(f"{path}: bad PGM header byte {c!r}")
        try:
            fields.append(int(field[1]))
        except ValueError:  # past int()'s limit of 4300 digits
            raise DataError(f"{path}: PGM header number of "
                            f"{pos - start} digits") from None
    width, height, maxval = fields
    if maxval > 255 or maxval < 1:
        raise DataError(f"{path}: PGM maxval {maxval} unsupported (need <=255)")
    pos += 1  # exactly one whitespace byte separates header and raster
    data = raw[pos:pos + width * height]
    if len(data) != width * height:
        raise DataError(
            f"{path}: raster has {len(data)} bytes, needs {width * height}"
        )
    arr = np.frombuffer(data, dtype=np.uint8).reshape(height, width)
    if maxval < 255:  # no byte exceeds 255
        top = int(arr.max(initial=0))
        if top > maxval:
            raise DataError(f"{path}: PGM sample {top} exceeds maxval "
                            f"{maxval}")
    return arr, maxval


def write_pgm(path, image: np.ndarray) -> None:
    """Write floats in [0, 1] as an 8-bit binary PGM (maxval 255)."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim == 3 and arr.shape[2] == 1:
        arr = arr[:, :, 0]
    if arr.ndim != 2:
        raise DataError(f"PGM image must be 2-d, got shape {arr.shape}")
    # a range test that NaN, which fails every comparison, also fails
    if not (arr.min() >= 0.0 and arr.max() <= 1.0):
        raise DataError("PGM pixel values must lie in [0, 1]")
    h, w = arr.shape
    quantized = np.rint(arr * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(quantized.tobytes())


# ---------------------------------------------------------------------------
# index CSV


def csv_rows(path):
    """(line number, row) of every row of a UTF-8 CSV file, a row that
    spans lines counting as one.

    Text that is not UTF-8, or that the csv module refuses, raises
    DataError naming the file and the line.
    """
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{line}: not UTF-8 text ({exc.reason} at "
                        f"byte {exc.start})") from None
    rows = csv.reader(io.StringIO(text, newline=""))
    try:
        yield from enumerate(rows, start=1)
    except csv.Error as exc:
        raise DataError(f"{path}:{rows.line_num}: {exc}") from None


def _resolve(path: str, dirs: dict[str, str]) -> Path:
    """`Path(path).resolve()`, with each parent directory resolved once into
    the cache `dirs`: a leaf that is not a symlink, '.' or '..' resolves to
    its resolved parent joined with its name.  Anything else, a parent
    that fails to resolve included, is the path's own `resolve()`, which
    raises what it would have raised."""
    head, name = os.path.split(path)
    if name not in ("", ".", ".."):
        parent = dirs.get(head)
        if parent is None:
            try:
                parent = dirs[head] = str(Path(head).resolve())
            except (ValueError, OSError, RuntimeError):
                return Path(path).resolve()
        leaf = os.path.join(parent, name)
        try:
            if not stat.S_ISLNK(os.lstat(leaf).st_mode):
                return Path(leaf)
        except OSError:  # missing or unreadable: resolve() keeps the name too
            return Path(leaf)
        except ValueError:  # a NUL byte
            pass
    return Path(path).resolve()


def load_index(path) -> DatasetIndex:
    """Parse the index CSV; identities become dense first-appearance ints."""
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"index file not found: {path}")
    base = path.parent
    records: list[IndexRecord] = []
    names: list[str] = []
    ids: dict[str, int] = {}
    seen_paths: set[Path] = set()
    dirs: dict[str, str] = {}
    for lineno, row in csv_rows(path):
        if lineno == 1:  # the header, even a blank one
            if len(row) < 2 or row[0] != "path" or row[1] != "identity":
                raise DataError(
                    f"{path}:1: header must start with 'path,identity'"
                )
            continue
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) < 2:
            raise DataError(f"{path}:{lineno}: need path and identity")
        if len(row) > 2:
            raise DataError(f"{path}:{lineno}: expected 2 fields (path, "
                            f"identity), got {len(row)}")
        label = row[1]
        if label not in ids:
            ids[label] = len(names)
            names.append(label)
        try:
            rec_path = _resolve(os.path.join(base, row[0]), dirs)
        except (ValueError, OSError, RuntimeError) as exc:
            # a NUL byte, or a path the OS cannot resolve (a symlink loop)
            raise DataError(
                f"{path}:{lineno}: bad image path {row[0]!r} ({exc})"
            ) from None
        if rec_path in seen_paths:
            raise DataError(f"{path}:{lineno}: duplicate path {row[0]}")
        seen_paths.add(rec_path)
        records.append(IndexRecord(rec_path, ids[label]))
    if not records:
        raise DataError(f"{path}: index contains no records")
    return DatasetIndex(records, names)


def write_index(path, rows: Sequence[tuple[str, str]]) -> None:
    """Write (path, identity_label) rows as index CSV, under the
    ``path,identity`` header."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "identity"])
        writer.writerows(rows)


def load_image(record: IndexRecord) -> LabeledImage:
    """Load one index record's PGM into a LabeledImage that keeps the
    file's 8-bit samples."""
    raster, maxval = _read_pgm_samples(record.path)
    return LabeledImage(raster[:, :, None], record.identity,
                        str(record.path), maxval)


# ---------------------------------------------------------------------------
# splitting and pair sampling


def split_identity_ids(identities: Sequence[int], holdout_fraction: float,
                       seed: int) -> tuple[set[int], set[int]]:
    """Partition distinct identity ids into (kept, held-out) sets; the
    held-out side gets ceil(fraction * n) ids, and neither side is empty."""
    distinct = sorted(set(identities))
    if len(distinct) < 2:
        raise DataError("need at least 2 identities to split")
    if not 0.0 < holdout_fraction < 1.0:
        raise DataError(
            f"holdout fraction must be in (0,1), got {holdout_fraction}"
        )
    n_eval = int(np.ceil(holdout_fraction * len(distinct)))
    if n_eval == len(distinct):
        raise DataError(
            f"holdout fraction {holdout_fraction} holds out all "
            f"{len(distinct)} identities, leaving none to train on"
        )
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(distinct))
    held = {distinct[i] for i in order[:n_eval]}
    return set(distinct) - held, held


def _subindex(index: DatasetIndex, keep: set[int]) -> DatasetIndex:
    remap: dict[int, int] = {}
    names: list[str] = []
    records: list[IndexRecord] = []
    for rec in index.records:
        if rec.identity not in keep:
            continue
        if rec.identity not in remap:
            remap[rec.identity] = len(names)
            names.append(index.identity_names[rec.identity])
        records.append(IndexRecord(rec.path, remap[rec.identity]))
    return DatasetIndex(records, names)


def split_by_identity(index: DatasetIndex, holdout_fraction: float,
                      seed: int) -> tuple[DatasetIndex, DatasetIndex]:
    """Identity-disjoint split; the eval side gets ceil(fraction * n) ids."""
    ids = [rec.identity for rec in index.records]
    kept, held = split_identity_ids(ids, holdout_fraction, seed)
    return _subindex(index, kept), _subindex(index, held)


def _int_array(values, dtype, what: str) -> np.ndarray:
    """`values` as a 1-d `dtype` array, not copied when it is one already;
    a value that is not an integer or does not fit is an error, never
    truncated or wrapped."""
    arr = np.asarray(values).reshape(-1)
    if arr.dtype == dtype or arr.size == 0:
        return arr.astype(dtype, copy=False)
    if arr.dtype.kind not in "iu":
        raise DataError(f"pair {what}s must be integers, got {arr.dtype}")
    lo, hi = np.iinfo(dtype).min, np.iinfo(dtype).max
    bad = arr[(arr < lo) | (arr > hi)]
    if bad.size:
        raise DataError(f"pair {what} {bad[0]} does not fit {dtype.__name__}")
    return arr.astype(dtype)


class PairBatch:
    """A batch of pairs held as three arrays: `first` and `second`, int32
    positions, and `label`, int8 (+1 matched, -1 unmatched).  The
    constructor takes any integer arrays and refuses a position outside
    int32 or a label other than +1 or -1.

    A slice is a `PairBatch` of views, any other key a TypeError (never a
    one-pair batch); iterating builds each `FacePair` on demand.  Two
    batches are equal when their values are.
    """

    __slots__ = ("first", "second", "label")

    def __init__(self, first, second, label):
        self.first = _int_array(first, np.int32, "position")
        self.second = _int_array(second, np.int32, "position")
        self.label = _int_array(label, np.int8, "label")
        bad = (self.label != 1) & (self.label != -1)
        if bad.any():
            raise DataError(f"pair labels must be +1 or -1, got "
                            f"{self.label[bad][0]}")
        if not self.first.size == self.second.size == self.label.size:
            raise DataError(
                f"pair arrays differ in length: {self.first.size}, "
                f"{self.second.size}, {self.label.size}")

    def __len__(self) -> int:
        return self.first.size

    def __getitem__(self, key: slice) -> "PairBatch":
        if not isinstance(key, slice):
            raise TypeError(f"PairBatch key {key!r} is not a slice")
        return PairBatch(self.first[key], self.second[key], self.label[key])

    def __iter__(self):
        for i, j, label in zip(self.first.tolist(), self.second.tolist(),
                               self.label.tolist()):
            yield FacePair(i, j, PairLabel(label))

    def __eq__(self, other):
        if not isinstance(other, PairBatch):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in (
            (self.first, other.first), (self.second, other.second),
            (self.label, other.label)))

    def __repr__(self) -> str:
        return f"PairBatch(<{len(self)} pairs>)"


class PairSampler:
    """Draws balanced matched/unmatched pairs over an identity list.

    Matched pairs are uniform with replacement over all same-identity
    combinations; unmatched pairs are uniform over cross-identity pairs
    (rejection sampling).  Pair members are positions into the identity
    list handed to the constructor.

    The state is O(#images): the members of every identity in order of
    first appearance, and where each member's run of combinations starts
    in the enumeration of all C(k, 2) within-identity pairs (identities in
    order of first appearance, each in the lexicographic order of
    `itertools.combinations` over its member positions).
    """

    def __init__(self, identities: Sequence[int], rng: np.random.Generator):
        self.rng = rng
        groups: dict[int, list[int]] = {}
        for i, ident in enumerate(identities):
            groups.setdefault(ident, []).append(i)
        if len(groups) < 2:
            raise DataError(
                f"pair sampling needs >= 2 identities, got {len(groups)}"
            )
        # dense group of every position: equal iff the identities are
        self.group = np.empty(len(identities), dtype=np.intp)
        for g, members in enumerate(groups.values()):
            self.group[members] = g
        # members grouped, and the number of later members in the group:
        # the combinations (members[t], members[t + 1..]) in that order
        self.members = np.fromiter(itertools.chain(*groups.values()),
                                   dtype=np.intp, count=len(identities))
        later = np.concatenate([np.arange(len(m) - 1, -1, -1, dtype=np.intp)
                                for m in groups.values()])
        self.starts = np.cumsum(later) - later
        self.n_matched_combos = int(later.sum())
        if not self.n_matched_combos:
            raise DataError(
                "pair sampling needs at least one identity with >= 2 images"
            )

    def matched_pairs(self, picks) -> tuple[np.ndarray, np.ndarray]:
        """The (first, second) positions of combinations number `picks`."""
        picks = np.asarray(picks, dtype=np.intp)
        # the last member whose run starts at or before the pick; members
        # with no later partner share a start with the next member
        t = np.searchsorted(self.starts, picks, side="right") - 1
        return self.members[t], self.members[t + 1 + picks - self.starts[t]]

    def batch(self, n: int) -> PairBatch:
        """ceil(n/2) matched pairs, then n//2 unmatched ones.

        The random stream is the one of drawing each unmatched candidate
        with its own `integers(size=2)` call until n pairs are kept: every
        round draws 2 values per pair still missing, and as each candidate
        keeps at most one pair, no round draws past the candidate that
        completes the batch.
        """
        n_matched = (n + 1) // 2
        first, second = np.empty(n, np.int32), np.empty(n, np.int32)
        picks = self.rng.integers(0, self.n_matched_combos, size=n_matched)
        first[:n_matched], second[:n_matched] = self.matched_pairs(picks)
        kept = n_matched
        while kept < n:
            i, j = self.rng.integers(0, len(self.group),
                                     size=2 * (n - kept)).reshape(-1, 2).T
            keep = self.group[i] != self.group[j]
            end = kept + int(keep.sum())
            first[kept:end], second[kept:end] = i[keep], j[keep]
            kept = end
        label = np.full(n, int(PairLabel.UNMATCHED), dtype=np.int8)
        label[:n_matched] = int(PairLabel.MATCHED)
        return PairBatch(first, second, label)


def sample_pairs(index: DatasetIndex, n: int, seed: int) -> PairBatch:
    """n balanced pairs of record positions, ceil(n/2) matched."""
    sampler = PairSampler([rec.identity for rec in index.records],
                          np.random.default_rng(seed))
    return sampler.batch(n)


def center_window(image: LabeledImage, edge: int) -> np.ndarray:
    """The edge-`edge` square centred in `image`, its origin rounded down
    on each axis (x from the columns, y from the rows), as a read-only
    view of its stored samples (no copy).  Training and extraction both
    cut their crops here; a square wider than either side is an error."""
    h, w = image.raster.shape[0], image.raster.shape[1]
    if edge > min(h, w):
        raise TensorError(
            f"image {w}x{h} smaller than required crop edge {edge}"
        )
    x, y = (w - edge) // 2, (h - edge) // 2
    return image.raster[y:y + edge, x:x + edge]


def center_crop(image: LabeledImage, edge: int) -> Tensor:
    """`center_window` as float pixels."""
    return Tensor.from_array(
        float_pixels(center_window(image, edge), image.maxval))


# ---------------------------------------------------------------------------
# synthetic identity gallery


@dataclass
class NuisanceConfig:
    """Identity-preserving perturbations applied per rendered image."""

    brightness_delta: float = 0.3   # scale drawn from [1-d, 1+d]
    max_translation: int | None = None  # pixels; None -> edge // 8
    noise_sigma: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.brightness_delta < 1.0:
            raise DataError(
                f"brightness_delta must be in [0,1), got {self.brightness_delta}"
            )
        if self.max_translation is not None and self.max_translation < 0:
            raise DataError("max_translation must be >= 0")
        if self.noise_sigma < 0.0:
            raise DataError("noise_sigma must be >= 0")


def _identity_pattern(canvas: int, edge: int,
                      rng: np.random.Generator) -> np.ndarray:
    """One person's base texture: 3 oriented gratings + 3 signed blobs."""
    ys, xs = np.mgrid[0:canvas, 0:canvas].astype(np.float64)
    img = np.zeros((canvas, canvas))
    for _ in range(3):
        theta = rng.uniform(0.0, np.pi)
        freq = rng.uniform(5.0, 12.0)  # cycles per edge
        phase = rng.uniform(0.0, 2.0 * np.pi)
        amp = rng.uniform(0.5, 1.0)
        wave = (xs * np.cos(theta) + ys * np.sin(theta)) / edge
        img += amp * np.sin(2.0 * np.pi * freq * wave + phase)
    for _ in range(3):
        cx = rng.uniform(0.0, canvas)
        cy = rng.uniform(0.0, canvas)
        sigma = rng.uniform(edge / 12.0, edge / 6.0)
        amp = rng.uniform(0.5, 1.5) * rng.choice([-1.0, 1.0])
        img += amp * np.exp(-((xs - cx) ** 2 + (ys - cy) ** 2)
                            / (2.0 * sigma * sigma))
    lo, hi = img.min(), img.max()
    if hi - lo < 1e-12:
        return np.full_like(img, 0.5)
    return 0.1 + 0.8 * (img - lo) / (hi - lo)


def synth_generate(n_identities: int, images_per_identity: int, edge: int,
                   nuisance: NuisanceConfig, seed: int,
                   out_dir) -> DatasetIndex:
    """Render the gallery to out_dir as PGMs plus index.csv; returns the index."""
    if edge < 16:
        raise DataError(f"edge must be >= 16, got {edge}")
    if n_identities < 1 or images_per_identity < 1:
        raise DataError("need at least one identity and one image each")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    shift = nuisance.max_translation
    if shift is None:
        shift = edge // 8
    canvas = edge + 2 * shift
    rows = []
    for i in range(n_identities):
        pattern = _identity_pattern(
            canvas, edge, np.random.default_rng(derive_seed(seed, f"id{i}")))
        label = f"person{i:04d}"
        for j in range(images_per_identity):
            rng = np.random.default_rng(derive_seed(seed, f"img{i}-{j}"))
            dx = int(rng.integers(-shift, shift + 1)) if shift else 0
            dy = int(rng.integers(-shift, shift + 1)) if shift else 0
            window = pattern[shift + dy:shift + dy + edge,
                             shift + dx:shift + dx + edge]
            scale = 1.0 + rng.uniform(-nuisance.brightness_delta,
                                      nuisance.brightness_delta)
            img = window * scale
            if nuisance.noise_sigma > 0.0:
                img = img + rng.normal(0.0, nuisance.noise_sigma,
                                       size=img.shape)
            name = f"id{i:04d}_{j:03d}.pgm"
            write_pgm(out_dir / name, np.clip(img, 0.0, 1.0))
            rows.append((name, label))
    write_index(out_dir / "index.csv", rows)
    return load_index(out_dir / "index.csv")
