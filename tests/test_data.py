import csv
import itertools
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pyrcnn import (DataError, DatasetIndex, FacePair, IndexRecord,
                    LabeledImage, NuisanceConfig, PairBatch, PairLabel,
                    PairSampler, Tensor, TensorError, center_crop,
                    load_image, load_index, sample_pairs,
                    split_by_identity, split_identity_ids, synth_generate,
                    write_index, write_pgm)
from pyrcnn.data import center_window, float_pixels


def write_text(path, text):
    Path(path).write_text(text, encoding="utf-8")


def pixels(image):
    """An image's float pixels, `samples / maxval`."""
    return float_pixels(image.raster, image.maxval)


def make_image(samples, identity=0, maxval=255):
    """The image of an h x w array of stored samples in 0..`maxval`."""
    return LabeledImage(np.asarray(samples, dtype=np.uint8)[:, :, None],
                        identity, maxval=maxval)


def read_pgm(path):
    """A PGM's float pixels as `load_image` reads them, h x w."""
    return pixels(load_image(IndexRecord(path, 0)))[:, :, 0]


# ---------------------------------------------------------------------------
# PGM files


def test_pgm_byte_normalization(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n2 1\n255\n" + bytes([255, 0]))
    arr = read_pgm(p)
    assert arr.shape == (1, 2)
    assert arr[0, 0] == 1.0 and arr[0, 1] == 0.0


def test_pgm_maxval_scaling(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n1 1\n100\n" + bytes([50]))
    assert read_pgm(p)[0, 0] == 0.5


def test_pgm_header_comments(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n# made by hand\n2 2\n# another\n255\n" + bytes(4))
    assert read_pgm(p).shape == (2, 2)


@pytest.mark.parametrize("header, problem", [
    (b"P5\n2 2", "truncated PGM header"),
    (b"P5\n2 2\n# a comment to the end of the file", "truncated PGM header"),
    (b"P5\n2 x 255\n", "bad PGM header byte b'x'"),
    (b"P5\n2#c\n2-255\n", "bad PGM header byte b'-'"),
    (b"P5 " + b"9" * 5000 + b" 1 255\n", "PGM header number of 5000 digits"),
])
def test_pgm_header_errors_name_the_problem(tmp_path, header, problem):
    p = tmp_path / "a.pgm"
    p.write_bytes(header)
    with pytest.raises(DataError) as err:
        read_pgm(p)
    assert str(err.value) == f"{p}: {problem}"


def test_pgm_rejects_wrong_magic(tmp_path):
    p = tmp_path / "a.png"
    p.write_bytes(b"\x89PNG\r\n\x1a\n" + bytes(16))
    with pytest.raises(DataError) as err:
        read_pgm(p)
    assert "P5" in str(err.value)


def test_pgm_rejects_wide_maxval(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
    with pytest.raises(DataError):
        read_pgm(p)


def test_pgm_rejects_truncated_raster(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(DataError):
        read_pgm(p)


def test_pgm_round_trip_exact(tmp_path):
    # values on the k/255 grid survive quantization exactly
    rng = np.random.default_rng(12)
    img = rng.integers(0, 256, size=(9, 7)).astype(np.float64) / 255.0
    p = tmp_path / "rt.pgm"
    write_pgm(p, img)
    np.testing.assert_array_equal(read_pgm(p), img)


def test_write_pgm_rejects_out_of_range(tmp_path):
    with pytest.raises(DataError):
        write_pgm(tmp_path / "b.pgm", np.full((2, 2), 1.5))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_pgm_refuses_non_finite_pixels(tmp_path, bad):
    """A NaN pixel is refused like one out of range, not written as 0
    behind a numpy warning, and no file is left behind."""
    img = np.full((2, 3), 0.5)
    img[1, 2] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError,
                           match=r"PGM pixel values must lie in \[0, 1\]"):
            write_pgm(tmp_path / "b.pgm", img)
    assert not (tmp_path / "b.pgm").exists()


def test_pgm_sample_above_maxval_names_the_file(tmp_path):
    p = tmp_path / "a.pgm"
    p.write_bytes(b"P5\n4 4\n100\n" + bytes(5) + bytes([200]) + bytes(10))
    with pytest.raises(DataError) as err:
        load_image(IndexRecord(p, 0))
    assert str(err.value) == f"{p}: PGM sample 200 exceeds maxval 100"


@pytest.fixture(scope="module")
def pgm_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("pgm")


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_stored_samples_read_as_read_pgm_floats(pgm_dir, draw):
    """An image keeps its PGM's 8-bit samples, and every float view of it
    (`float_pixels` of the whole raster or of a window sliced from it,
    and `center_crop`) is bit-equal to `samples / maxval` in float64."""
    maxval = draw.draw(st.integers(1, 255), label="maxval")
    h = draw.draw(st.integers(1, 9), label="h")
    w = draw.draw(st.integers(1, 9), label="w")
    seed = draw.draw(st.integers(0, 2**32 - 1), label="seed")
    samples = np.random.default_rng(seed).integers(
        0, maxval + 1, size=(h, w), dtype=np.uint8)
    path = pgm_dir / "a.pgm"
    path.write_bytes(b"P5\n%d %d\n%d\n" % (w, h, maxval) + samples.tobytes())

    want = samples.astype(np.float64) / maxval
    image = load_image(IndexRecord(path, 0))
    assert image.raster.dtype == np.uint8 and image.maxval == maxval
    assert not image.raster.flags.writeable
    assert pixels(image).tobytes() == want[:, :, None].tobytes()
    edge = draw.draw(st.integers(1, min(h, w)), label="edge")
    y, x = (h - edge) // 2, (w - edge) // 2
    assert center_crop(image, edge).array.tobytes() == \
        want[y:y + edge, x:x + edge, None].tobytes()
    x = draw.draw(st.integers(0, w - edge), label="x")
    y = draw.draw(st.integers(0, h - edge), label="y")
    window = image.raster[y:y + edge, x:x + edge]
    assert float_pixels(window, image.maxval).tobytes() == \
        want[y:y + edge, x:x + edge, None].tobytes()


def test_load_image_holds_about_one_byte_per_sample(tmp_path):
    """A loaded 76-px gallery keeps its 8-bit samples, not float64 pixels:
    under 1.5 bytes per pixel of a 100-image index, everything included."""
    rng = np.random.default_rng(14)
    rows = []
    for i in range(100):
        write_pgm(tmp_path / f"{i}.pgm", rng.uniform(0.0, 1.0, (76, 76)))
        rows.append((f"{i}.pgm", f"p{i % 10}"))
    write_index(tmp_path / "index.csv", rows)
    records = load_index(tmp_path / "index.csv").records
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        images = [load_image(rec) for rec in records]
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(images) == 100
    assert (held - start) / (100 * 76 * 76) < 1.5


# ---------------------------------------------------------------------------
# index CSV


def test_index_dedups_identity_labels(tmp_path):
    write_pgm(tmp_path / "x.pgm", np.zeros((4, 4)))
    write_pgm(tmp_path / "y.pgm", np.zeros((4, 4)))
    write_text(tmp_path / "i.csv", "path,identity\nx.pgm,ann\ny.pgm,ann\n")
    index = load_index(tmp_path / "i.csv")
    assert index.n_identities == 1
    assert len(index.records) == 2
    assert [r.identity for r in index.records] == [0, 0]


def test_index_identities_dense_first_appearance(tmp_path):
    write_text(tmp_path / "i.csv",
               "path,identity\na.pgm,carol\nb.pgm,bo\nc.pgm,carol\nd.pgm,al\n")
    index = load_index(tmp_path / "i.csv")
    assert index.identity_names == ["carol", "bo", "al"]
    assert [r.identity for r in index.records] == [0, 1, 0, 2]


@pytest.mark.parametrize("row", ["b.pgm,q,1.0", "b.pgm,q,1.5,2.0",
                                 "b.pgm,q,,", '"b, c.pgm",q,1,2,3'])
def test_index_row_of_more_than_two_fields_names_line(tmp_path, row):
    """An index row is exactly path,identity: a third field is refused,
    with the file, the line and the field count."""
    path = tmp_path / "i.csv"
    write_text(path, f"path,identity\na.pgm,p\n{row}\n")
    n = len(next(csv.reader([row])))
    with pytest.raises(DataError) as err:
        load_index(path)
    assert str(err.value) == \
        f"{path}:3: expected 2 fields (path, identity), got {n}"


def test_index_bad_header(tmp_path):
    write_text(tmp_path / "i.csv", "file,person\na.pgm,p\n")
    with pytest.raises(DataError):
        load_index(tmp_path / "i.csv")


@pytest.mark.parametrize("first", ["", "  "])
def test_index_blank_first_line_is_a_missing_header(tmp_path, first):
    """Line 1 is the header whatever it holds: a blank first line does not
    let the header on line 2 load as a record."""
    path = tmp_path / "i.csv"
    write_text(path, f"{first}\npath,identity\na.pgm,p0\n")
    with pytest.raises(DataError) as err:
        load_index(path)
    assert str(err.value) == \
        f"{path}:1: header must start with 'path,identity'"


def test_index_blank_lines_after_the_header_are_skipped(tmp_path):
    write_text(tmp_path / "i.csv", "path,identity\n\na.pgm,p0\n \n")
    assert [r.path.name for r in load_index(tmp_path / "i.csv").records] \
        == ["a.pgm"]


def test_index_duplicate_path_names_line(tmp_path):
    write_text(tmp_path / "i.csv", "path,identity\na.pgm,p\na.pgm,q\n")
    with pytest.raises(DataError) as err:
        load_index(tmp_path / "i.csv")
    assert ":3:" in str(err.value)


def symlinked_tree(root):
    """real/{a,b,c,e}.pgm and real/sub/, reached also through a symlinked
    directory (linkdir -> real, subl -> real/sub) and a symlinked file
    (link.pgm -> real/b.pgm)."""
    (root / "real" / "sub").mkdir(parents=True)
    for name in ("a", "b", "c", "e"):
        write_pgm(root / "real" / f"{name}.pgm", np.zeros((2, 2)))
    (root / "linkdir").symlink_to(root / "real", target_is_directory=True)
    (root / "subl").symlink_to(root / "real" / "sub",
                               target_is_directory=True)
    (root / "link.pgm").symlink_to(root / "real" / "b.pgm")


def test_index_paths_are_per_row_resolve(tmp_path):
    """Records carry the paths a per-row `Path.resolve()` gives, though
    `load_index` resolves each directory once: a symlinked directory, a
    symlinked file, '..' segments (after a symlink, '..' leaves its
    target), a '..' leaf, a file that does not exist in a directory that
    does and one in a directory that does not, and a symlinked file in a
    directory that is not."""
    symlinked_tree(tmp_path)
    write_pgm(tmp_path / "f.pgm", np.zeros((2, 2)))
    (tmp_path / "real" / "d.pgm").symlink_to(tmp_path / "f.pgm")
    rows = ["linkdir/a.pgm", "link.pgm", "real/sub/../c.pgm",
            "subl/../e.pgm", "linkdir/sub/..", "missing/x.pgm", "y.pgm",
            "real/gone.pgm", "real/d.pgm"]
    write_index(tmp_path / "i.csv", [(row, "p") for row in rows])
    got = [r.path for r in load_index(tmp_path / "i.csv").records]
    assert got == [(tmp_path / row).resolve() for row in rows]
    assert got[3] == tmp_path / "real" / "e.pgm"
    assert got[8] == tmp_path / "f.pgm"


@pytest.mark.parametrize("row", ["a\x00.pgm", "d\x00ir/a.pgm"])
def test_index_path_with_a_nul_byte_is_a_data_error(tmp_path, row):
    """A NUL byte in a leaf or in a directory is refused as the OS refuses
    it, naming the line, though each directory is resolved only once."""
    index = tmp_path / "i.csv"
    index.write_text(f"path,identity\nb.pgm,p0\n{row},p0\n",
                     encoding="utf-8")
    with pytest.raises(DataError) as err:
        load_index(index)
    assert str(err.value) == \
        f"{index}:3: bad image path {row!r} (embedded null byte)"


@pytest.mark.parametrize("spelling", ["linkdir/a.pgm", "real/sub/../a.pgm",
                                      "subl/../a.pgm", "./real//a.pgm"])
def test_index_one_file_spelled_two_ways_is_a_duplicate(tmp_path, spelling):
    symlinked_tree(tmp_path)
    write_index(tmp_path / "i.csv", [("real/a.pgm", "p"), (spelling, "q")])
    with pytest.raises(DataError) as err:
        load_index(tmp_path / "i.csv")
    assert str(err.value) == f"{tmp_path / 'i.csv'}:3: duplicate path " \
        f"{spelling}"


def test_index_empty_is_an_error(tmp_path):
    write_text(tmp_path / "i.csv", "path,identity\n")
    with pytest.raises(DataError):
        load_index(tmp_path / "i.csv")


def test_index_missing_file():
    with pytest.raises(FileNotFoundError):
        load_index("/nonexistent/index.csv")


def test_write_index_round_trip(tmp_path):
    write_index(tmp_path / "i.csv", [("a.pgm", "p"), ("b.pgm", "q")])
    index = load_index(tmp_path / "i.csv")
    assert [r.path for r in index.records] == [tmp_path / "a.pgm",
                                               tmp_path / "b.pgm"]
    assert index.identity_names == ["p", "q"]


def test_load_image_carries_identity_and_landmarks(tmp_path):
    """A loaded image carries its identity and source; it has no
    landmarks, which an index row no longer holds."""
    write_pgm(tmp_path / "x.pgm", np.full((6, 6), 0.5))
    write_text(tmp_path / "i.csv", "path,identity\nx.pgm,zed\n")
    index = load_index(tmp_path / "i.csv")
    img = load_image(index.records[0])
    assert img.identity == 0
    assert img.source == str(tmp_path / "x.pgm")
    assert not hasattr(img, "landmarks")
    assert img.raster.shape == (6, 6, 1)


def test_labeled_image_validation():
    with pytest.raises(DataError):
        make_image(np.full((4, 4), 200), maxval=100)  # out of 0..maxval
    with pytest.raises(DataError):
        LabeledImage(np.zeros((4, 4, 2), np.uint8), 0)  # 2 channels
    samples = np.full((4, 4, 1), 7, dtype=np.uint8)
    for bad in (dict(pixels=samples, maxval=6),  # a sample above maxval
                dict(pixels=samples, maxval=0),
                dict(pixels=samples, maxval=256),
                dict(pixels=samples.astype(np.uint16), maxval=7),
                dict(pixels=samples.tolist(), maxval=7),
                dict(pixels=samples[:0]),  # no rows
                dict(pixels=samples[:, :, 0])):  # no channel axis
        with pytest.raises(DataError):
            LabeledImage(identity=0, **bad)


def test_labeled_image_range_error_speaks_of_its_own_scale():
    with pytest.raises(DataError, match=r"stored samples must lie in "
                                        r"0\.\.100, got 200"):
        LabeledImage(np.full((4, 4, 1), 200, np.uint8), identity=0,
                     maxval=100)


@pytest.mark.parametrize("pixels, got", [
    (np.full((4, 4, 1), 0.5), "float64"),
    (np.full((4, 4, 1), 0.5, np.float32), "float32"),
    (Tensor.from_array(np.full((4, 4, 1), 0.5)), "Tensor"),
])
def test_labeled_image_refuses_float_pixels_naming_uint8(pixels, got):
    """An image holds stored samples only: float pixels, as an array or a
    Tensor, are refused with an error that names the type it needs."""
    with pytest.raises(DataError) as err:
        LabeledImage(pixels, identity=0, maxval=255)
    assert str(err.value) == (f"stored samples must be a uint8 array with "
                              f"a maxval in 1..255, got {got} with maxval "
                              f"255")


def test_labeled_image_from_floats_or_stored_samples():
    """Float pixels are refused (see above); stored samples are kept as a
    read-only view whose float pixels are `samples / maxval`."""
    with pytest.raises(DataError, match="uint8"):
        LabeledImage(np.random.default_rng(2).uniform(0.0, 1.0, (5, 4, 1)),
                     identity=3)
    samples = np.arange(20, dtype=np.uint8).reshape(5, 4, 1)
    image = LabeledImage(samples, identity=3, maxval=19)
    assert image.raster.dtype == np.uint8
    assert not image.raster.flags.writeable
    assert pixels(image).tobytes() == (samples / 19.0).tobytes()


# ---------------------------------------------------------------------------
# identity splits


def test_split_sizes_use_ceiling():
    ids = list(range(10))
    train, held = split_identity_ids(ids, 0.3, seed=1)
    assert len(held) == 3 and len(train) == 7


def test_split_disjoint_and_covering():
    ids = [0, 1, 2, 3, 4, 5, 6, 0, 3]
    train, held = split_identity_ids(ids, 0.4, seed=9)
    assert train & held == set()
    assert train | held == set(range(7))


def test_split_deterministic_per_seed():
    ids = list(range(20))
    assert split_identity_ids(ids, 0.25, seed=4) == \
        split_identity_ids(ids, 0.25, seed=4)
    different = any(
        split_identity_ids(ids, 0.25, seed=4) !=
        split_identity_ids(ids, 0.25, seed=s)
        for s in range(5, 15)
    )
    assert different


def test_split_rejects_bad_arguments():
    with pytest.raises(DataError):
        split_identity_ids([1, 1, 1], 0.5, seed=0)  # one identity
    with pytest.raises(DataError):
        split_identity_ids([1, 2], 1.0, seed=0)  # fraction not in (0,1)


def test_split_that_would_keep_no_identity_is_refused():
    """ceil(0.8 * 4) holds out all 4 identities: an error naming the
    fraction and the count, not an empty training side."""
    with pytest.raises(DataError) as err:
        split_identity_ids([0, 1, 2, 3], 0.8, seed=0)
    assert str(err.value) == ("holdout fraction 0.8 holds out all 4 "
                              "identities, leaving none to train on")
    train, held = split_identity_ids([0, 1, 2, 3, 4], 0.8, seed=0)
    assert len(train) == 1 and len(held) == 4


def test_split_by_identity_renumbers_densely(tmp_path):
    rows = [(f"im{i}.pgm", f"p{i % 4}") for i in range(8)]
    write_text(tmp_path / "i.csv", "path,identity\n"
               + "".join(f"{p},{l}\n" for p, l in rows))
    index = load_index(tmp_path / "i.csv")
    train, evalx = split_by_identity(index, 0.5, seed=3)
    assert train.n_identities == 2 and evalx.n_identities == 2
    for sub in (train, evalx):
        seen = {r.identity for r in sub.records}
        assert seen == set(range(sub.n_identities))
    train_names = set(train.identity_names)
    eval_names = set(evalx.identity_names)
    assert train_names & eval_names == set()
    assert train_names | eval_names == {"p0", "p1", "p2", "p3"}


# ---------------------------------------------------------------------------
# pair sampling


def test_pairs_balanced_ten():
    identities = [0, 0, 0, 1, 1, 2, 2]
    sampler = PairSampler(identities, np.random.default_rng(0))
    pairs = sampler.batch(10)
    assert len(pairs) == 10
    assert sum(p.label == PairLabel.MATCHED for p in pairs) == 5


def test_pairs_odd_count_rounds_matched_up():
    sampler = PairSampler([0, 0, 1, 1], np.random.default_rng(1))
    pairs = sampler.batch(7)
    assert sum(p.label == PairLabel.MATCHED for p in pairs) == 4
    assert sum(p.label == PairLabel.UNMATCHED for p in pairs) == 3


def test_pair_labels_consistent_with_identities():
    identities = [0, 0, 1, 1, 2, 2, 2]
    sampler = PairSampler(identities, np.random.default_rng(2))
    for p in sampler.batch(200):
        same = identities[p.first] == identities[p.second]
        assert (p.label == PairLabel.MATCHED) == same


def test_pairs_deterministic_per_seed(tmp_path):
    write_text(tmp_path / "i.csv", "path,identity\n" + "".join(
        f"f{i}.pgm,p{i % 3}\n" for i in range(9)))
    index = load_index(tmp_path / "i.csv")
    assert sample_pairs(index, 16, seed=7) == sample_pairs(index, 16, seed=7)
    assert sample_pairs(index, 16, seed=7) != sample_pairs(index, 16, seed=8)


def test_pairs_identity_frequency_near_uniform():
    # 3 identities x 4 images; matched picks should spread evenly
    identities = [0] * 4 + [1] * 4 + [2] * 4
    sampler = PairSampler(identities, np.random.default_rng(123))
    counts = {0: 0, 1: 0, 2: 0}
    pairs = sampler.batch(10000)
    matched = [p for p in pairs if p.label == PairLabel.MATCHED]
    for p in matched:
        counts[identities[p.first]] += 1
    share = 1.0 / 3.0
    for ident, count in counts.items():
        assert abs(count / len(matched) - share) < 0.1 * share, ident


def test_pairs_need_two_identities():
    with pytest.raises(DataError):
        PairSampler([0, 0, 0], np.random.default_rng(0))


def test_pairs_need_a_repeated_identity():
    with pytest.raises(DataError):
        PairSampler([0, 1, 2], np.random.default_rng(0))


def within_identity_pairs(identities):
    """Every same-identity (i, j), i < j: identities in order of first
    appearance, each in `itertools.combinations` order."""
    groups = {}
    for i, ident in enumerate(identities):
        groups.setdefault(ident, []).append(i)
    return [pair for members in groups.values()
            for pair in itertools.combinations(members, 2)]


def per_pair_batch(identities, rng, n):
    """The sampling loop PairSampler.batch replaced, kept as its oracle:
    every within-identity pair listed, and one `integers(size=2)` call per
    unmatched candidate."""
    combos = within_identity_pairs(identities)
    pairs = []
    for p in rng.integers(0, len(combos), size=(n + 1) // 2):
        i, j = combos[p]
        pairs.append(FacePair(i, j, PairLabel.MATCHED))
    while len(pairs) < n:
        i, j = rng.integers(0, len(identities), size=2)
        if identities[i] != identities[j]:
            pairs.append(FacePair(int(i), int(j), PairLabel.UNMATCHED))
    return pairs


PAIR_LAYOUTS = {
    "blocks": [i // 4 for i in range(48)],
    "random": np.random.default_rng(9).integers(0, 7, 50).tolist(),
    # nearly every candidate is accepted, but the repeats of one position
    # still send some batches into second and third rounds
    "singletons": [0, 0, 0] + list(range(1, 40)) + [0],
    # most candidates are rejected: many rounds per batch
    "one_large": [0] * 30 + [1, 2],
}


@pytest.mark.parametrize("layout", sorted(PAIR_LAYOUTS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pair_stream_matches_the_per_pair_loop(layout, seed):
    identities = PAIR_LAYOUTS[layout]
    sampler = PairSampler(identities, np.random.default_rng(seed))
    oracle_rng = np.random.default_rng(seed)
    for n in (1, 2, 7, 32, 3001, 2, 1):  # consecutive batches, one stream
        batch = sampler.batch(n)
        assert isinstance(batch, PairBatch)
        assert list(batch) == per_pair_batch(identities, oracle_rng, n), n
    assert sampler.rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("seed", range(6))
def test_matched_pair_numbers_follow_itertools_order(seed):
    """Pick p is the p-th pair of the per-identity `itertools.combinations`
    lists, identities in order of first appearance."""
    rng = np.random.default_rng(seed)
    sizes = [1, 2, 1, *rng.integers(1, 7, size=5).tolist()]
    identities = [10 * k for k, size in enumerate(sizes) for _ in range(size)]
    rng.shuffle(identities)
    combos = within_identity_pairs(identities)
    sampler = PairSampler(identities, rng)
    assert sampler.n_matched_combos == len(combos)
    first, second = sampler.matched_pairs(np.arange(len(combos)))
    assert list(zip(first.tolist(), second.tolist())) == combos


def test_pair_batch_behaves_as_a_sequence_of_face_pairs():
    """Iterating yields FacePairs, slicing gives batches; an integer key
    is a TypeError, never a one-pair batch."""
    batch = PairSampler([0, 0, 1, 1, 2], np.random.default_rng(4)).batch(9)
    pairs = list(batch)
    assert len(batch) == len(pairs) == 9
    assert pairs == [FacePair(int(i), int(j), PairLabel(int(lab)))
                     for i, j, lab in zip(batch.first, batch.second,
                                          batch.label)]
    assert all(type(p.first) is int and isinstance(p.label, PairLabel)
               for p in pairs)
    for part in (slice(2, 7), slice(None, None, 3), slice(5, 1, -1)):
        assert isinstance(batch[part], PairBatch)
        assert list(batch[part]) == pairs[part]
    assert batch[:] == batch
    assert batch == PairBatch(batch.first.copy(), batch.second.copy(),
                              batch.label.copy())
    assert batch[:4] != batch[5:]  # matched vs unmatched
    assert batch != pairs  # a batch equals batches, not lists
    for key in (0, -1, 9, np.int64(2)):
        with pytest.raises(TypeError, match="is not a slice"):
            batch[key]


def test_pair_batch_holds_int32_positions_and_int8_labels():
    """9 bytes a pair, and arrays of those types are kept, not copied."""
    batch = PairSampler([0, 0, 1, 1, 2], np.random.default_rng(5)).batch(8)
    assert (batch.first.dtype, batch.second.dtype, batch.label.dtype) == \
        (np.int32, np.int32, np.int8)
    again = PairBatch(batch.first, batch.second, batch.label)
    assert all(np.shares_memory(a, b) for a, b in (
        (again.first, batch.first), (again.second, batch.second),
        (again.label, batch.label)))
    assert PairBatch([], [], []).first.dtype == np.int32


@pytest.mark.parametrize("first, second, label, match", [
    ([2**31], [0], [1], "does not fit int32"),
    ([0], [-2**31 - 1], [1], "does not fit int32"),
    (np.array([2**63], dtype=np.uint64), [0], [1], "does not fit int32"),
    ([0.0], [1], [1], "must be integers"),
    ([0], [1], [0], r"must be \+1 or -1"),
    ([0, 1], [1, 2], [1, 2], r"must be \+1 or -1"),
    ([0], [1], [257], "does not fit int8"),
    ([0], [1], [True], "must be integers"),
])
def test_pair_batch_refuses_values_it_cannot_hold(first, second, label,
                                                  match):
    """A position outside int32 or a label other than +1/-1 is an error,
    never wrapped or truncated into another pair."""
    with pytest.raises(DataError, match=match):
        PairBatch(first, second, label)


def test_sample_pairs_keeps_its_random_stream():
    """Pinned from the intp sampler that built its batch by concatenating
    per-round arrays: the compact arrays draw the same stream."""
    ids = [0, 0, 0, 1, 1, 2, 2, 2, 2, 3, 1, 0]
    index = DatasetIndex([IndexRecord(Path(f"/g/{i}.pgm"), ident)
                          for i, ident in enumerate(ids)], list("abcd"))
    batch = sample_pairs(index, 15, 2024)
    assert batch.first.tolist() == [1, 5, 0, 1, 1, 1, 6, 5, 10, 10, 3, 9, 8,
                                    2, 7]
    assert batch.second.tolist() == [2, 7, 2, 2, 11, 11, 8, 8, 11, 0, 2, 7,
                                     0, 5, 9]
    assert batch.label.tolist() == [1] * 8 + [-1] * 7


# ---------------------------------------------------------------------------
# cropping


def test_crop_whole_image_identity():
    img = make_image(np.random.default_rng(3).integers(0, 256, (8, 8)))
    out = center_window(img, 8)
    np.testing.assert_array_equal(out, img.raster)
    assert np.shares_memory(out, img.raster)  # a view, not a copy


def test_crop_central_region_indexing():
    """A 64-wide, 40-high image: the 32-px window starts at column 16 and
    row 4."""
    base = np.zeros((40, 64))
    base[4:36, 16:48] = 1.0
    img = make_image(base, maxval=1)
    out = center_window(img, 32)
    np.testing.assert_array_equal(out, np.ones((32, 32, 1)))


def test_crop_x_is_column_y_is_row():
    """A 9-wide, 6-high image: x = (9 - 2) // 2 = 3 comes from the columns
    and y = (6 - 2) // 2 = 2 from the rows, each rounded down."""
    base = np.zeros((6, 9))
    base[2, 3] = 1.0  # row 2, column 3
    img = make_image(base, maxval=1)
    out = center_window(img, 2)
    np.testing.assert_array_equal(out[:, :, 0], [[1.0, 0.0], [0.0, 0.0]])


def test_crop_out_of_bounds():
    """An edge that fits the width but not the height is refused, naming
    the image's width x height."""
    img = make_image(np.zeros((40, 64)))
    assert center_window(img, 40).shape == (40, 40, 1)
    with pytest.raises(TensorError) as err:
        center_window(img, 48)
    assert str(err.value) == "image 64x40 smaller than required crop edge 48"


def test_center_crop_arithmetic():
    base = np.arange(36, dtype=np.float64).reshape(6, 6) / 36.0
    img = make_image(np.arange(36).reshape(6, 6), maxval=36)
    out = center_crop(img, 2)
    np.testing.assert_array_equal(out.array[:, :, 0], base[2:4, 2:4])
    with pytest.raises(TensorError):
        center_crop(img, 7)


# ---------------------------------------------------------------------------
# synthetic gallery


def test_synth_counts(tmp_path):
    index = synth_generate(4, 5, 16, NuisanceConfig(), seed=1,
                           out_dir=tmp_path)
    assert len(index.records) == 20
    assert index.n_identities == 4
    assert len(list(tmp_path.glob("*.pgm"))) == 20


def test_synth_zero_nuisance_identical_within_identity(tmp_path):
    cfg = NuisanceConfig(brightness_delta=0.0, max_translation=0,
                         noise_sigma=0.0)
    index = synth_generate(3, 4, 16, cfg, seed=2, out_dir=tmp_path)
    groups = {}
    for i, rec in enumerate(index.records):
        groups.setdefault(rec.identity, []).append(i)
    for members in groups.values():
        imgs = [pixels(load_image(index.records[i])) for i in members]
        for other in imgs[1:]:
            np.testing.assert_array_equal(imgs[0], other)
    # distinct identities still differ
    first_of = [pixels(load_image(index.records[m[0]]))
                for m in groups.values()]
    assert not np.array_equal(first_of[0], first_of[1])


def test_synth_pixel_range_and_determinism(tmp_path):
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    synth_generate(2, 3, 16, NuisanceConfig(), seed=3, out_dir=a_dir)
    synth_generate(2, 3, 16, NuisanceConfig(), seed=3, out_dir=b_dir)
    for f in sorted(a_dir.iterdir()):
        assert f.read_bytes() == (b_dir / f.name).read_bytes()
    index = load_index(a_dir / "index.csv")
    for rec in index.records:
        arr = pixels(load_image(rec))
        assert arr.min() >= 0.0 and arr.max() <= 1.0


def _distance_stats(index):
    imgs = [pixels(load_image(r)).ravel() for r in index.records]
    ids = [r.identity for r in index.records]
    intra_by, inter_by = {}, {}
    for i, j in itertools.combinations(range(len(imgs)), 2):
        d = float(np.linalg.norm(imgs[i] - imgs[j]))
        if ids[i] == ids[j]:
            intra_by.setdefault(ids[i], []).append(d)
        else:
            inter_by.setdefault(ids[i], []).append(d)
            inter_by.setdefault(ids[j], []).append(d)
    return intra_by, inter_by


def test_synth_translation_defeats_pixel_distance(tmp_path):
    # aligned images: same-identity pairs are much closer in pixel space
    idx0 = synth_generate(6, 6, 32, NuisanceConfig(max_translation=0),
                          seed=5, out_dir=tmp_path / "t0")
    intra, inter = _distance_stats(idx0)
    all_intra = [d for v in intra.values() for d in v]
    all_inter = [d for v in inter.values() for d in v]
    assert np.mean(all_intra) < np.mean(all_inter)
    # large translations: for some identities the ordering inverts
    idx1 = synth_generate(6, 6, 32, NuisanceConfig(max_translation=10),
                          seed=5, out_dir=tmp_path / "t1")
    intra, inter = _distance_stats(idx1)
    inverted = [k for k in intra
                if np.mean(intra[k]) > np.mean(inter[k])]
    assert inverted, "expected at least one identity to invert"


def test_synth_rejects_small_edge(tmp_path):
    with pytest.raises(DataError):
        synth_generate(2, 2, 8, NuisanceConfig(), seed=0, out_dir=tmp_path)


def test_nuisance_validation():
    with pytest.raises(DataError):
        NuisanceConfig(brightness_delta=1.5)
    with pytest.raises(DataError):
        NuisanceConfig(max_translation=-1)
    with pytest.raises(DataError):
        NuisanceConfig(noise_sigma=-0.1)
