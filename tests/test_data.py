"""Dataset loading, normalization, batching, synthetic generator."""

import decimal
import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvclust import (
    LoadError,
    accuracy,
    batch_iter,
    kmeans,
    load_dataset,
    normalize,
    save_dataset,
    synth_generate,
)
from mvclust import data as data_mod
from mvclust.data import MultiViewDataset, json_fits, save_matrix
from mvclust.model import ModelConfig
from mvclust.seeding import check_int, check_real, check_seed, rng_for


def _write_dataset(tmp_path, matrices, labels=None, n=None, likelihood="gaussian"):
    views = []
    for i, mat in enumerate(matrices):
        path = tmp_path / f"v{i}.csv"
        np.savetxt(path, np.atleast_2d(mat), delimiter=",", fmt="%.17g")
        views.append({"name": f"v{i}", "dim": int(np.atleast_2d(mat).shape[1]), "path": path.name})
    manifest = {
        "name": "toy",
        "n": int(n if n is not None else np.atleast_2d(matrices[0]).shape[0]),
        "likelihood": likelihood,
        "views": views,
    }
    if labels is not None:
        (tmp_path / "labels.txt").write_text("\n".join(str(v) for v in labels) + "\n")
        manifest["labels"] = "labels.txt"
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


def test_load_echoes_shapes(tmp_path):
    rng = np.random.default_rng(0)
    path = _write_dataset(tmp_path, [rng.standard_normal((3, 2)), rng.standard_normal((3, 4))])
    ds = load_dataset(path)
    assert ds.n == 3
    assert ds.dims == (2, 4)
    assert ds.likelihood == "gaussian"
    assert ds.labels is None


def test_load_with_labels(tmp_path):
    path = _write_dataset(tmp_path, [np.zeros((4, 2))], labels=[0, 1, 1, 0])
    ds = load_dataset(path)
    assert np.array_equal(ds.labels, [0, 1, 1, 0])


def test_row_count_mismatch_names_file(tmp_path):
    path = _write_dataset(tmp_path, [np.zeros((2, 3))], n=3)
    with pytest.raises(LoadError, match="v0"):
        load_dataset(path)


def test_unparsable_cell_names_row_and_column(tmp_path):
    path = _write_dataset(tmp_path, [np.zeros((2, 2))])
    # numpy parses nan and inf; a view holding one is rejected all the same
    # "1_0" and "١" (Arabic-Indic one) pass Python's float() but not the reader
    for cell in ("oops", "nan", "inf", "-inf", "1_0", "\u0661"):
        (tmp_path / "v0.csv").write_text(f"0.0,1.0\n0.5,{cell}\n")
        with pytest.raises(LoadError, match=r"row 1 column 1") as caught:
            load_dataset(path)
        assert f"view 'v0': cell '{cell}' at {tmp_path / 'v0.csv'} row 1 column 1" in str(caught.value)


def test_a_byte_the_text_encoding_cannot_decode_is_named_by_its_cell(tmp_path):
    path = _write_dataset(tmp_path, [np.zeros((2, 2))])
    (tmp_path / "v0.csv").write_bytes(b"1,2\n3,\xa04\n")
    with pytest.raises(LoadError) as caught:
        load_dataset(path)
    cell = "'\\\\xa04'"  # the byte as the repr of a backslash escape
    assert str(caught.value) == f"view 'v0': cell {cell} at {tmp_path / 'v0.csv'} row 1 column 1 is not a finite number"


def test_a_byte_the_text_encoding_cannot_decode_in_a_comment_is_skipped_with_it(tmp_path):
    path = tmp_path / "v.csv"
    path.write_bytes(b"1,2 # \xa0\n3,4\n")
    assert np.array_equal(data_mod._load_matrix(path, 2, 2, "v"), [[1, 2], [3, 4]])


def test_ragged_csv_names_both_rows_counted_from_0(tmp_path):
    # the blank line is skipped, as the reader skips it, but keeps its number
    path = _write_dataset(tmp_path, [np.zeros((2, 2))])
    for text, row in (("1,2\n3\n", 1), ("1,2\n\n3,4,5\n", 2)):
        (tmp_path / "v0.csv").write_text(text)
        with pytest.raises(LoadError) as caught:
            load_dataset(path)
        cells = 1 if row == 1 else 3
        assert str(caught.value) == f"view 'v0': {tmp_path / 'v0.csv'} row {row} has {cells} cells, row 0 has 2"


def test_labels_file_of_another_count_names_both_counts(tmp_path):
    path = _write_dataset(tmp_path, [np.zeros((12, 2))], labels=[0, 1])
    with pytest.raises(LoadError) as caught:
        load_dataset(path)
    assert str(caught.value) == f"labels file {tmp_path / 'labels.txt'} has 2 entries, expected 12"


@pytest.mark.parametrize("site", ["manifest", "normalize", "synth", "model-config"])
@pytest.mark.parametrize("likelihood", ["poisson", "Gaussian"])
def test_every_likelihood_meets_one_check(tmp_path, site, likelihood):
    # a manifest's likelihood and the same value in code get the same message
    mat = np.zeros((3, 2))
    manifest = _write_dataset(tmp_path, [mat], likelihood=likelihood)
    call, prefix = {
        "manifest": (lambda: load_dataset(manifest), f"manifest {manifest}: "),
        "normalize": (lambda: normalize(MultiViewDataset("t", ["a"], [mat]), likelihood), ""),
        "synth": (lambda: synth_generate(2, 1, 10, 2, 3.0, (2,), 0, likelihood=likelihood), ""),
        "model-config": (lambda: ModelConfig((2,), 2, 2, likelihood), ""),
    }[site]
    with pytest.raises(ValueError) as caught:
        call()
    assert str(caught.value) == f"{prefix}likelihood must be one of ('bernoulli', 'gaussian'), got {likelihood!r}"
    assert isinstance(caught.value, LoadError) == (site == "manifest")


@pytest.mark.parametrize(
    "value", [0, -3, 10**400, np.int64(3), 2.5, 2.0, -0.0, np.float32(1.5), float("nan"), float("inf"),
              np.float64("-inf"), True, False, None, "3", [1], {}],
    ids=repr,
)
def test_a_json_number_kind_is_the_rule_code_meets(value):
    # json_fits' int and float kinds say yes exactly where check_int and check_real do
    for kind, check in (("int", check_int), ("float", check_real)):
        try:
            check("x", value)
            passes = True
        except ValueError:
            passes = False
        assert json_fits(value, kind) == passes, kind


def test_labels_with_crlf_line_ends_read(tmp_path):
    path = _write_dataset(tmp_path, [np.zeros((3, 2))], labels=[0, 1, 1])
    (tmp_path / "labels.txt").write_bytes(b"0\r\n1\r\n\r\n1\r\n")
    assert np.array_equal(load_dataset(path).labels, [0, 1, 1])


def test_negative_label_rejected(tmp_path):
    path = _write_dataset(tmp_path, [np.zeros((2, 2))], labels=[0, -1])
    with pytest.raises(LoadError, match="out of range"):
        load_dataset(path)


@pytest.mark.parametrize(
    "token", ["1_0", "\u0663", "\u00a01", "1\u20282"],
    ids=["underscore", "arabic-indic-three", "no-break-space", "line-separator"],
)
def test_label_not_in_ascii_digits_rejected(tmp_path, token):
    # int() reads the first two: "1_0" as 10, "\u0663" as 3; str.strip would
    # trim the no-break space and str.splitlines split at the line separator
    path = _write_dataset(tmp_path, [np.zeros((2, 2))], labels=[0, 1])
    (tmp_path / "labels.txt").write_text(f"0\n{token}\n")
    with pytest.raises(LoadError) as caught:
        load_dataset(path)
    assert f"labels file {tmp_path / 'labels.txt'} row 1: {token!r} is not an integer" in str(caught.value)


def test_a_label_byte_the_text_encoding_cannot_decode_is_named_by_its_row(tmp_path):
    path = _write_dataset(tmp_path, [np.zeros((2, 2))], labels=[0, 1])
    (tmp_path / "labels.txt").write_bytes(b"0\n\xa01\n")
    with pytest.raises(LoadError) as caught:
        load_dataset(path)
    assert str(caught.value) == f"labels file {tmp_path / 'labels.txt'} row 1: '\\\\xa01' is not an integer"


def test_missing_manifest_field(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"name": "x", "n": 3}))
    with pytest.raises(LoadError, match="views"):
        load_dataset(path)


def test_minmax_normalization():
    ds = MultiViewDataset("t", ["a"], [np.array([[0.0], [5.0], [10.0]])])
    out = normalize(ds, "bernoulli")
    assert out.matrices[0].reshape(-1) == pytest.approx([0.0, 0.5, 1.0])


def test_constant_feature_maps_to_zero():
    mat = np.column_stack([np.full(4, 3.0), np.arange(4.0)])
    ds = MultiViewDataset("t", ["a"], [mat])
    for kind in ("bernoulli", "gaussian"):
        out = normalize(ds, kind)
        assert np.all(out.matrices[0][:, 0] == 0.0)


def test_standardization_moments():
    rng = np.random.default_rng(1)
    ds = MultiViewDataset("t", ["a"], [rng.uniform(-3, 9, (200, 5))])
    out = normalize(ds, "gaussian")
    assert np.abs(out.matrices[0].mean(axis=0)).max() < 1e-9
    assert np.abs(out.matrices[0].var(axis=0) - 1.0).max() < 1e-6


def test_normalize_rejects_an_already_normalized_dataset():
    ds = MultiViewDataset("t", ["a"], [np.arange(6.0).reshape(3, 2)])
    for first, second in itertools.product(("bernoulli", "gaussian"), repeat=2):
        with pytest.raises(ValueError, match="dataset 't' is already normalized"):
            normalize(normalize(ds, first), second)


@pytest.mark.parametrize("kind", ["bernoulli", "gaussian"])
def test_normalize_rejects_a_dataset_with_no_rows(kind):
    # its offsets would be NaN, the mean or min of no values
    ds = MultiViewDataset("t", ["a", "b"], [np.zeros((0, 2)), np.zeros((0, 3))])
    with pytest.raises(ValueError, match=r"^dataset 't' has no rows to normalize$"):
        normalize(ds, kind)


def test_record_reapplication_is_exact():
    rng = np.random.default_rng(2)
    mats = [rng.uniform(0, 4, (30, 3)), rng.standard_normal((30, 2))]
    ds = MultiViewDataset("t", ["a", "b"], mats)
    for kind in ("bernoulli", "gaussian"):
        out = normalize(ds, kind)
        again = out.normalization.apply(mats)
        for got, want in zip(again, out.matrices):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("x", [np.zeros(3), np.zeros((2, 4))], ids=["1-d", "wrong-width"])
def test_record_apply_names_the_view_and_the_shape_it_wants(x):
    record = normalize(MultiViewDataset("t", ["a", "b"], [np.ones((3, 2)), np.ones((3, 3))]), "gaussian").normalization
    with pytest.raises(ValueError) as caught:
        record.apply([np.ones((3, 2)), x])
    assert str(caught.value) == f"view 1 must be (n, 3), got shape {x.shape}"


def test_batch_iter_sizes_and_coverage():
    batches = batch_iter(5, 2, seed=0, epoch=0)
    assert [len(b) for b in batches] == [2, 2, 1]
    assert sorted(np.concatenate(batches)) == list(range(5))


@pytest.mark.parametrize(
    "n, batch_size, named",
    [
        (10, 2.5, "batch_size must be an integer, got 2.5"),
        (10, True, "batch_size must be an integer, got True"),
        (10, 0, "batch_size must be >= 1, got 0"),
        (2.5, 2, "n must be an integer, got 2.5"),
        (True, 2, "n must be an integer, got True"),
        (-1, 2, "n must be >= 0, got -1"),
    ],
    ids=["float-batch", "bool-batch", "zero-batch", "float-n", "bool-n", "negative-n"],
)
def test_batch_iter_names_a_size_that_is_not_an_integer_in_range(n, batch_size, named):
    with pytest.raises(ValueError, match=f"^{named}$"):
        batch_iter(n, batch_size, seed=0, epoch=0)


def test_batch_iter_pure_function_of_seed_epoch():
    a = batch_iter(20, 6, seed=3, epoch=4)
    b = batch_iter(20, 6, seed=3, epoch=4)
    c = batch_iter(20, 6, seed=3, epoch=5)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=97),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=0, max_value=50),
)
def test_batch_iter_partitions_everything(n, batch_size, seed, epoch):
    batches = batch_iter(n, batch_size, seed, epoch)
    flat = np.concatenate(batches)
    assert sorted(flat) == list(range(n))
    assert all(len(b) == batch_size for b in batches[:-1])


@pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "beyond-64-bits"])
def test_a_seed_outside_64_bits_is_rejected_not_aliased(seed):
    # masked to 64 bits, -1 would draw seed 2**64 - 1's stream and 2**64 seed 0's
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
        rng_for(seed, "synth")
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
        synth_generate(2, 2, 10, 2, separation=3.0, view_dims=(3, 3), seed=seed)


@pytest.mark.parametrize("seed", [2.7, True, np.float64(2.0)], ids=["float", "bool", "numpy-float"])
def test_a_seed_that_is_not_an_integer_is_rejected_not_truncated(seed):
    # int() would read 2.7 as seed 2 and True as seed 1
    message = re.escape(f"seed must be an integer, got {seed!r}")
    with pytest.raises(ValueError, match=message):
        check_seed(seed)
    with pytest.raises(ValueError, match=message):
        rng_for(seed, "synth")
    with pytest.raises(ValueError, match=message):
        synth_generate(2, 2, 10, 2, separation=3.0, view_dims=(3, 3), seed=seed)


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("n_clusters", 2.5, "n_clusters must be an integer, got 2.5"),
        ("n_views", 2.0, "n_views must be an integer, got 2.0"),
        ("n", 10.5, "n must be an integer, got 10.5"),
        ("latent_dim", 2.0, "latent_dim must be an integer, got 2.0"),
        ("view_dims", (3.5, 4), "view_dims[0] must be an integer, got 3.5"),
        ("view_dims", 3, "view_dims must be a list or tuple, got 3"),
    ],
    ids=["n_clusters", "n_views", "n", "latent_dim", "view-dim", "view_dims"],
)
def test_synth_names_a_count_that_is_not_an_integer(field, value, named):
    spec = dict(n_clusters=2, n_views=2, n=10, latent_dim=2, separation=3.0, view_dims=(3, 4), seed=0)
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        synth_generate(**{**spec, field: value})


def test_synth_of_one_cluster_puts_its_mean_at_zero():
    ds, info = synth_generate(1, 2, 30, 3, separation=5.0, view_dims=(4, 3), seed=2, return_latent=True)
    assert np.all(info["means"] == 0.0) and info["means"].shape == (1, 3)
    assert np.all(ds.labels == 0)


def test_a_dataset_names_both_row_counts_of_views_that_differ():
    with pytest.raises(ValueError, match=r"^view 'b' has 4 rows, view 'a' has 3$"):
        MultiViewDataset(name="x", view_names=["a", "b"], matrices=[np.zeros((3, 2)), np.zeros((4, 2))])


def test_a_dataset_names_both_counts_of_labels_for_another_row_count():
    with pytest.raises(ValueError, match=r"^dataset has 4 labels for 3 rows$"):
        MultiViewDataset(name="x", view_names=["a"], matrices=[np.zeros((3, 2))], labels=np.zeros(4, dtype=int))


@pytest.mark.parametrize("names", [["a"], ["a", "b", "c"]], ids=["fewer", "more"])
def test_a_dataset_needs_one_view_name_per_matrix(names):
    # zip() over the two lists would check only the first len(names) matrices
    with pytest.raises(ValueError, match=rf"^dataset has {len(names)} view names for 2 matrices$"):
        MultiViewDataset(name="x", view_names=names, matrices=[np.zeros((10, 3)), np.ones((5, 2))])


@pytest.mark.parametrize(
    "matrix, got",
    [(np.float64(1.0), "float64"), (np.array(1.0), "shape ()"), ([[1.0, 2.0]], "list"), (np.zeros(3), "shape (3,)")],
    ids=["numpy-scalar", "0-d", "nested-list", "1-d"],
)
@pytest.mark.parametrize("place", [0, 1], ids=["first", "second"])
def test_a_dataset_names_a_view_that_is_not_a_2d_array(matrix, got, place):
    # a list is refused, not converted: model_inputs hands the dataset's own arrays on
    matrices = [np.zeros((1, 2)), np.zeros((1, 2))]
    matrices[place] = matrix
    name = ["a", "b"][place]
    with pytest.raises(ValueError, match=f"^{re.escape(f'view {name!r} must be a 2-D numpy array, got {got}')}$"):
        MultiViewDataset(name="x", view_names=["a", "b"], matrices=matrices)


@pytest.mark.parametrize("field", ["separation", "noise"])
@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), -float("inf"), np.float32("inf"), "5", True, None], ids=repr
)
def test_synth_names_a_separation_or_noise_that_is_not_a_finite_number(field, value):
    # NaN slips past a `< 0` check and fills every view with NaN; a bool would read as 0 or 1
    spec = dict(n_clusters=2, n_views=2, n=10, latent_dim=2, separation=3.0, view_dims=(3, 4), seed=0)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{field} must be a finite number, got {value!r}')}$"):
        synth_generate(**{**spec, field: value})


def test_synth_takes_numpy_numbers_for_separation_and_noise():
    spec = dict(n_clusters=2, n_views=2, n=10, latent_dim=2, view_dims=(3, 4), seed=0)
    ours = synth_generate(**spec, separation=np.int64(3), noise=np.float32(0.25))
    plain = synth_generate(**spec, separation=3.0, noise=0.25)
    for a, b in zip(ours.matrices, plain.matrices):
        assert np.array_equal(a, b)


def test_synth_needs_one_dim_per_view():
    with pytest.raises(ValueError, match=r"^need 3 view dims, got 2$"):
        synth_generate(n_clusters=2, n_views=3, n=10, latent_dim=2, separation=1.0, view_dims=(4, 5), seed=0)


def test_synth_zero_separation_means_coincide():
    _, info = synth_generate(2, 2, 50, 3, separation=0.0, view_dims=(4, 5), seed=7, return_latent=True)
    assert np.all(info["means"] == 0.0)


def test_synth_separation_sets_min_gap():
    _, info = synth_generate(4, 1, 10, 3, separation=5.0, view_dims=(4,), seed=1, return_latent=True)
    means = info["means"]
    gaps = [
        np.linalg.norm(means[a] - means[b])
        for a in range(4)
        for b in range(a + 1, 4)
    ]
    assert min(gaps) == pytest.approx(5.0)


def test_synth_label_histogram_near_uniform():
    ds = synth_generate(4, 1, 10_000, 2, separation=1.0, view_dims=(3,), seed=5)
    counts = np.bincount(ds.labels, minlength=4)
    expected = 2500.0
    sigma = np.sqrt(10_000 * 0.25 * 0.75)
    assert np.abs(counts - expected).max() < 3 * sigma


def test_synth_separated_clusters_recoverable_by_kmeans():
    ds, info = synth_generate(3, 2, 600, 4, separation=10.0, view_dims=(6, 7), seed=11, noise=0.05, return_latent=True)
    result = kmeans(info["z"], 3, seed=0)
    assert accuracy(result.labels, ds.labels) >= 0.99


def test_save_load_roundtrip_identical(tmp_path):
    ds = synth_generate(2, 2, 20, 3, separation=2.0, view_dims=(4, 3), seed=3)
    norm = normalize(ds, "gaussian")
    manifest = save_dataset(norm, tmp_path / "out")
    back = load_dataset(manifest)
    assert back.dims == norm.dims
    assert np.array_equal(back.labels, norm.labels)
    for got, want in zip(back.matrices, norm.matrices):
        assert np.array_equal(got, want)


def _percent_g(mat) -> bytes:
    """The writer's oracle: ``'%.17g' % value`` of each value, one at a time."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in np.asarray(mat).tolist()).encode()


def _saved(path, mat) -> bytes:
    save_matrix(path, mat)
    return path.read_bytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_save_matrix_writes_the_bytes_of_savetxt(tmp_path, dtype):
    rng = np.random.default_rng(3)
    mat = (rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-300, 300, (7, 5)).clip(-30, 30)).astype(dtype)
    mat[0, :4] = [0.0, -0.0, np.inf, np.nan]
    mat[1, 0] = np.finfo(dtype).tiny
    np.savetxt(tmp_path / "numpy.csv", mat, delimiter=",", fmt="%.17g")
    ours = _saved(tmp_path / "ours.csv", mat)
    assert ours == (tmp_path / "numpy.csv").read_bytes() == _percent_g(mat)
    # the same values in a chunk the numpy writer takes, and a stretch of N(0, 1) draws
    fast = np.where((np.abs(mat) > 1e-11) & (np.abs(mat) < 2.0**53), mat, 0.5)
    for mat in (fast, rng.standard_normal((300, 7)).astype(dtype)):
        np.savetxt(tmp_path / "numpy.csv", mat, delimiter=",", fmt="%.17g")
        assert _saved(tmp_path / "ours.csv", mat) == (tmp_path / "numpy.csv").read_bytes() == _percent_g(mat)


def _fast_range_cases() -> np.ndarray:
    """Values the numpy writer formats: exact ties of the 17th digit, powers of
    ten and their neighbours, and the ends of the range, each of both signs."""
    n = np.arange(10**15, 10**15 + 400, dtype=np.float64)
    ties = [n + 0.25, n + 0.75, 2.0**51 - n % 1000 + 0.25, n // 10 + 0.125, n // 10 + 0.375, n // 100 + 0.0625]
    tens = 10.0 ** np.arange(-10, 16)
    ends = [np.nextafter(1e-11, 1), 1e-11 * 1.5, 2.0**53 - 1, 2.0**52, 2.0**52 + 1, 2.0**52 - 0.5, 0.0]
    values = np.concatenate([*ties, tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf), ends])
    return np.concatenate([values, -values])


def test_save_matrix_writes_ties_powers_of_ten_and_range_ends_as_percent_g(tmp_path):
    values = _fast_range_cases()
    assert _saved(tmp_path / "ours.csv", values[:, None]) == _percent_g(values[:, None])
    assert data_mod._csv_text(values, 0, 1).tobytes() == _percent_g(values[:, None])
    # just outside the range: -0 apart, the Python formatter writes these
    outside = np.array([1e-11, np.nextafter(1e-11, 0), 2.0**53, np.nextafter(2.0**53, np.inf), 1e-12, 1e17, 5e-324])
    outside = np.concatenate([outside, -outside, [np.nan, np.inf, -np.inf, -0.0]])
    assert _saved(tmp_path / "ours.csv", outside[:, None]) == _percent_g(outside[:, None])


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
_FAST_FLOAT = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.floats(min_value=1e-11, max_value=2.0**53, exclude_min=True, exclude_max=True).flatmap(
        lambda x: st.sampled_from([x, -x])
    ),
)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 6))
def test_save_matrix_writes_any_float64_as_percent_g(tmp_path_factory, data, cols):
    values = data.draw(st.lists(st.one_of(_ANY_FLOAT, _FAST_FLOAT), max_size=4 * cols))
    mat = np.array(values[: len(values) // cols * cols], dtype=np.float64).reshape(-1, cols)
    assert _saved(tmp_path_factory.mktemp("csv") / "m.csv", mat) == _percent_g(mat)


@settings(max_examples=150, deadline=None)
@given(st.lists(_FAST_FLOAT, min_size=1, max_size=60), st.integers(1, 5), st.integers(0, 4))
def test_the_numpy_writer_gives_percent_g_over_its_range(values, cols, start):
    values = np.array(values)
    ends = (np.arange(start, start + values.size) % cols == cols - 1).tolist()
    want = "".join("%.17g%s" % (v, "\n" if end else ",") for v, end in zip(values.tolist(), ends)).encode()
    assert data_mod._csv_text(values, start, cols).tobytes() == want


@pytest.mark.parametrize(
    "shape, dtype",
    [
        ((0, 3), np.float64),
        ((50, 1), np.float64),
        ((2, data_mod._CSV_CHUNK + 7), np.float64),  # a row wider than a chunk
        ((3 * (data_mod._CSV_CHUNK // 45) + 2, 45), np.float64),  # rows across chunk ends
        ((40, 6), np.float32),
        ((40, 6), np.int64),
    ],
    ids=["no-rows", "one-column", "row-wider-than-a-chunk", "rows-across-chunks", "float32", "int64"],
)
def test_save_matrix_writes_any_shape_and_dtype_as_savetxt(tmp_path, shape, dtype):
    rng = np.random.default_rng(4)
    mat = (rng.standard_normal(shape) * 1e3).astype(dtype)
    if dtype == np.int64 and mat.size:
        mat.flat[0] = 2**60  # beyond 2**53: the Python formatter takes its chunk
    np.savetxt(tmp_path / "numpy.csv", mat, delimiter=",", fmt="%.17g")
    assert _saved(tmp_path / "ours.csv", mat) == (tmp_path / "numpy.csv").read_bytes() == _percent_g(mat)


def test_save_matrix_formats_a_chunk_with_any_value_outside_the_range_in_python(tmp_path, monkeypatch):
    rows = data_mod._CSV_CHUNK // 4
    mat = np.random.default_rng(5).standard_normal((3 * rows, 4))
    mat[rows + 7, 2] = np.nan  # the middle chunk mixes it with values of the range
    mat[rows + 9, 1] = 1e300
    chunks = []
    numpy_writer = data_mod._csv_text

    def counted(values, *rest):
        chunks.append(values.size)
        return numpy_writer(values, *rest)

    monkeypatch.setattr(data_mod, "_csv_text", counted)
    assert _saved(tmp_path / "ours.csv", mat) == _percent_g(mat)
    assert chunks == [rows * 4, rows * 4]  # the first and last chunk


def test_save_matrix_holds_a_chunk_not_the_file(tmp_path):
    mat = np.random.default_rng(6).standard_normal((20_000, 45))
    tracemalloc.start()
    try:
        save_matrix(tmp_path / "m.csv", mat)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = (tmp_path / "m.csv").stat().st_size
    assert text > 9_000_000 and peak < text / 8


def _loadtxt(path) -> np.ndarray:
    """The reader's oracle: ``np.loadtxt`` as ``_load_matrix`` calls it."""
    return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)


def _assert_read_fast_as_loadtxt(path):
    """The numpy reader takes the file where the platform has it, and every
    value of it has the bits ``np.loadtxt`` gives, in the same shape."""
    want = _loadtxt(path)
    got = data_mod._read_csv(path, *want.shape)
    assert (got is not None) == data_mod._EXTENDED
    assert data_mod._load_matrix(path, *want.shape, "v0").tobytes() == want.tobytes()
    assert got is None or (got.shape == want.shape and got.tobytes() == want.tobytes())


# A cell as save_matrix writes one. The numpy reader takes a block only where
# its cells average 16 digits or more, so 16 of these for each short cell
# under test keep a file on it.
_LONG = 0.12345678901234567


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 6))
def test_the_reader_reads_save_matrix_output_of_any_float64_as_loadtxt(tmp_path_factory, data, cols):
    finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)
    values = data.draw(st.lists(st.one_of(finite, _FAST_FLOAT), min_size=cols, max_size=4 * cols))
    mat = np.array(values[: len(values) // cols * cols], dtype=np.float64).reshape(-1, cols)
    mat = np.hstack([mat, np.full((mat.shape[0], 16 * cols), _LONG)])
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    save_matrix(path, mat)
    _assert_read_fast_as_loadtxt(path)
    assert data_mod._load_matrix(path, *mat.shape, "v0").tobytes() == mat.tobytes()  # -0.0 included


def _midpoint_text(x: float, digits: int) -> str:
    """The midpoint between ``x`` and the next float64 up, rounded to
    ``digits`` significant digits, in plain notation."""
    with decimal.localcontext() as context:
        context.prec = 60
        mid = (decimal.Decimal(x) + decimal.Decimal(float(np.nextafter(x, np.inf)))) / 2
        return format(decimal.Decimal(format(mid, f".{digits - 1}e")), "f")


# Cells whose quotient rounds to a float64 midpoint in 64 bits, though the
# decimal is not one: rounded on to 53 bits, that quotient is one float64 off
_DOUBLE_ROUNDING_TRAPS = [
    "8.2787489122662139", "0.66063264594114951", "9834.0048832911516",
    "96.5002776235756059", "9.44932661895571524",
]  # fmt: skip


@pytest.mark.parametrize(
    "cells, fast",
    [
        (["+1", "-0", "-0.0", "0", "+0.000", "007", "-000.5000", "123456789012345678"], True),
        (["5.", ".5", "-.5", "+5."], False),  # bare points are outside the grammar
        (["1234567890123456789", "-9223372036854775807", "9223372036854775808", "99999999999999999999"], True),
        (["1.234567890123456789012345", "-0.000000000000000000000000001", "0.0000000000000000000000000001"], True),
        (["1E+05", "1e5", "-2e-300", "2E-300", "1.5e+300", "-0e0", "4.9406564584124654e-324"], True),
        (_DOUBLE_ROUNDING_TRAPS + ["-" + cell for cell in _DOUBLE_ROUNDING_TRAPS], True),
        ([_midpoint_text(x, digits) for x in (1.0, 0.1, 3.0e10, 2.0**52, 2.0**-20) for digits in (17, 18)], True),
    ],
    ids=["signs-and-zeros", "bare-points", "long-integers", "long-fractions", "exponents", "traps", "midpoints"],
)
def test_the_reader_reads_hand_built_cells_as_loadtxt(tmp_path, cells, fast):
    path = tmp_path / "m.csv"
    cells = cells + [repr(_LONG)] * (16 * len(cells))
    for cols in (1, len(cells)):  # one column, one row
        path.write_text("".join(",".join(row) + "\n" for row in np.reshape(cells, (-1, cols)).tolist()))
        if fast:
            _assert_read_fast_as_loadtxt(path)
        else:
            assert data_mod._read_csv(path, len(cells) // cols, cols) is None
            assert data_mod._load_matrix(path, len(cells) // cols, cols, "v0").tobytes() == _loadtxt(path).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-11, max_value=1e17, allow_subnormal=False), st.sampled_from([17, 18]), st.booleans())
def test_the_reader_reads_float64_midpoints_written_to_17_and_18_digits_as_loadtxt(tmp_path_factory, x, digits, neg):
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    path.write_text(("-" if neg else "") + _midpoint_text(x, digits) + "\n")  # 17 digits or more
    _assert_read_fast_as_loadtxt(path)


@pytest.mark.skipif(not data_mod._EXTENDED, reason="the traps are traps of the x87 long double")
def test_the_double_rounding_traps_need_the_midpoint_test():
    # rounded to float64, the long double quotient of each is one float64 off
    for cell in _DOUBLE_ROUNDING_TRAPS:
        whole, fraction = cell.split(".")
        quotient = np.longdouble(int(whole + fraction)) / data_mod._POW10[len(fraction)]
        assert np.float64(quotient) != float(cell)


_ROWS = b"0.12345678901234567,-2.5000000000000004\n3.3333333333333335,4.2500000000000009\n"


@pytest.mark.parametrize(
    "text, fast",
    [
        (_ROWS, True),
        (_ROWS[:-1], True),  # no final newline
        (_ROWS.replace(b"\n", b"\n\n", 1), False),  # a blank line
        (_ROWS + b"\n", False),
        (_ROWS.replace(b"\n", b"\r\n"), False),
        (_ROWS.replace(b",", b", "), False),
        (b"# two rows\n" + _ROWS, False),
        (b"0.125,-2.5\n3.25,4.25\n", False),  # cells of fewer than 16 digits: np.loadtxt is as fast
    ],
    ids=["plain", "no-final-newline", "blank-line", "blank-last-line", "crlf", "spaces", "comment", "short-cells"],
)
def test_the_reader_takes_only_its_grammar_and_reads_every_layout_as_loadtxt(tmp_path, text, fast):
    path = tmp_path / "m.csv"
    path.write_bytes(text)
    assert (data_mod._read_csv(path, 2, 2) is not None) == (fast and data_mod._EXTENDED)
    want = _loadtxt(path)
    assert want.shape == (2, 2) and data_mod._load_matrix(path, 2, 2, "v0").tobytes() == want.tobytes()


def _rows(*rows: list) -> bytes:
    return "".join(",".join(row) + "\n" for row in rows).encode()


_EIGHT = [repr(_LONG)] * 8


@pytest.mark.parametrize(
    "text",
    [
        _rows(_EIGHT, ["-0"] + _EIGHT[1:]), _rows(_EIGHT, _EIGHT, _EIGHT), _rows(_EIGHT + ["1"], _EIGHT + ["1"]),
        _rows(*[_EIGHT[:1]] * 16), _rows(_EIGHT), _rows(_EIGHT, _EIGHT[1:]), _rows(_EIGHT, _EIGHT + ["1"]),
        _rows(_EIGHT, _EIGHT[4:], _EIGHT[4:]), _rows(_EIGHT, ["oops"] + _EIGHT[1:]),
        _rows(_EIGHT, ["nan"] + _EIGHT[1:]), _rows(_EIGHT, ["1e999"] + _EIGHT[1:]),
        b"", b"\n", _rows(_EIGHT, _EIGHT[1:]).replace(b"\n", b",\xa04\n"), None,
    ],
    ids=[
        "valid", "more-rows", "more-columns", "one-column", "one-row", "short-row", "long-row", "two-short-rows",
        "word", "nan", "overflow", "empty", "blank", "not-utf-8", "missing",
    ],
)
def test_the_loadtxt_path_gives_the_same_matrix_or_error(tmp_path, monkeypatch, text):
    path = tmp_path / "v0.csv"
    if text is not None:
        path.write_bytes(text)

    def outcome():
        try:
            return data_mod._load_matrix(path, 2, 8, "v0").tobytes()
        except LoadError as exc:
            return str(exc)

    fast = outcome()
    monkeypatch.setattr(data_mod, "_EXTENDED", False)  # as on a platform without an 80-bit long double
    assert data_mod._read_csv(path, 2, 8) is None
    assert outcome() == fast


def test_a_manifest_shape_larger_than_the_file_is_reported_not_allocated(tmp_path):
    path = tmp_path / "v0.csv"
    path.write_bytes(_rows(_EIGHT, _EIGHT))
    with pytest.raises(LoadError) as caught:
        data_mod._load_matrix(path, 10**12, 8, "v0")  # 64 PB of float64
    assert str(caught.value) == f"view 'v0': {path} has shape (2, 8), manifest declares ({10**12}, 8)"


def test_the_reader_holds_a_block_not_the_file(tmp_path):
    mat = np.random.default_rng(7).standard_normal((20_000, 45))
    save_matrix(tmp_path / "m.csv", mat)
    tracemalloc.start()
    try:
        got = data_mod._load_matrix(tmp_path / "m.csv", *mat.shape, "v0")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = (tmp_path / "m.csv").stat().st_size
    assert got.tobytes() == mat.tobytes()
    assert text > 9_000_000 and peak - mat.nbytes < text / 8, (peak - mat.nbytes, text)


def test_a_block_of_many_exponent_cells_goes_to_loadtxt(tmp_path):
    # float() per cell is slower than np.loadtxt: numpy's default "%.18e" cells go to it
    mat = np.random.default_rng(8).standard_normal((20, 10))
    np.savetxt(tmp_path / "m.csv", mat, delimiter=",")
    assert data_mod._read_csv(tmp_path / "m.csv", 20, 10) is None
    assert data_mod._load_matrix(tmp_path / "m.csv", 20, 10, "v0").tobytes() == mat.tobytes()


def test_a_line_longer_than_a_block_reads_as_loadtxt(tmp_path):
    # each row is about 1.05 blocks, so some block holds no line end and waits for the next
    mat = np.random.default_rng(9).standard_normal((3, 7000))
    save_matrix(tmp_path / "m.csv", mat)
    assert (tmp_path / "m.csv").stat().st_size / 3 > data_mod._CSV_BLOCK
    got = data_mod._read_csv(tmp_path / "m.csv", *mat.shape)
    assert got.tobytes() == np.loadtxt(tmp_path / "m.csv", delimiter=",", ndmin=2).tobytes() == mat.tobytes()


@pytest.mark.parametrize("tag", [1.5, None, b"x"], ids=repr)
def test_an_rng_tag_must_be_an_int_or_a_string(tag):
    with pytest.raises(TypeError, match=f"^rng tag must be int or str, got {type(tag).__name__}$"):
        rng_for(0, "synth", tag)
