"""Dataset loading, normalization, batching, synthetic generator."""

import itertools
import json
import re

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
from mvclust.data import MultiViewDataset, save_matrix
from mvclust.seeding import check_seed, rng_for


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


def test_manifest_naming_an_unknown_likelihood_is_refused(tmp_path):
    path = _write_dataset(tmp_path, [np.zeros((3, 2))], likelihood="poisson")
    with pytest.raises(LoadError) as caught:
        load_dataset(path)
    assert str(caught.value) == f"manifest {path}: unknown likelihood 'poisson'"


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


@pytest.mark.parametrize("names", [["a"], ["a", "b", "c"]], ids=["fewer", "more"])
def test_a_dataset_needs_one_view_name_per_matrix(names):
    # zip() over the two lists would check only the first len(names) matrices
    with pytest.raises(ValueError, match=rf"^dataset has {len(names)} view names for 2 matrices$"):
        MultiViewDataset(name="x", view_names=names, matrices=[np.zeros((10, 3)), np.ones((5, 2))])


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


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_save_matrix_writes_the_bytes_of_savetxt(tmp_path, dtype):
    rng = np.random.default_rng(3)
    mat = (rng.standard_normal((7, 5)) * 10.0 ** rng.integers(-300, 300, (7, 5)).clip(-30, 30)).astype(dtype)
    mat[0, :4] = [0.0, -0.0, np.inf, np.nan]
    mat[1, 0] = np.finfo(dtype).tiny
    save_matrix(tmp_path / "ours.csv", mat)
    np.savetxt(tmp_path / "numpy.csv", mat, delimiter=",", fmt="%.17g")
    assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "numpy.csv").read_bytes()
