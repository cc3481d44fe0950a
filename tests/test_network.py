import numpy as np
import pytest
from oracles import conv3_backward_edge_loops, conv3_edge_loops

from switchlab import network
from switchlab.errors import DataError
from switchlab.network import (
    NetConfig,
    SegNetParams,
    backward,
    build_layout,
    cosine_lr,
    ema_update,
    forward,
    init_params,
    load_params,
    project,
    project_backward,
    save_params,
    sgd_step,
)

TINY = NetConfig(height=16, width=16, widths=(3, 4), embed_dim=4)


def test_config_validation():
    with pytest.raises(ValueError):
        NetConfig(height=10, width=16)
    with pytest.raises(ValueError):
        NetConfig(widths=(4,))
    with pytest.raises(ValueError):
        NetConfig(embed_dim=0)
    with pytest.raises(ValueError):
        NetConfig(compute_dtype="float16")


def test_layout_deterministic_and_views_alias():
    params = init_params(TINY, np.random.default_rng(0))
    assert params.layout == build_layout(TINY)
    w = params.view("enc0.conv1.w")
    w[0, 0, 0, 0] = 123.0
    assert params.vector[0] == 123.0  # views share the flat vector


def test_zero_params_zero_logits():
    params = SegNetParams(TINY)
    out = forward(params, np.zeros((1, 16, 16)))
    assert np.all(out.logits == 0.0)
    assert out.logits.shape == (1, 2, 16, 16)


def test_forward_shapes_and_determinism():
    rng = np.random.default_rng(1)
    params = init_params(TINY, rng)
    imgs = rng.uniform(size=(3, 16, 16))
    a = forward(params, imgs)
    b = forward(params, imgs)
    assert a.logits.shape == (3, 2, 16, 16)
    assert a.features.shape == (3, 16, 16, 3)  # channels-last
    assert np.array_equal(a.logits, b.logits)
    assert np.all(np.isfinite(a.logits))
    with pytest.raises(ValueError):
        forward(params, np.zeros((1, 8, 8)))
    with pytest.raises(ValueError):
        forward(params, np.zeros((16, 16)))  # one image without the batch axis


def test_project_shapes():
    rng = np.random.default_rng(2)
    cfg = NetConfig(height=32, width=32, widths=(3, 4), embed_dim=5)
    params = init_params(cfg, rng)
    out = forward(params, rng.uniform(size=(2, 32, 32)))
    emb = project(params, out.features)
    assert emb.shape == (2, 5, 64)  # two 2x poolings: K = 32*32/16
    assert np.all(np.isfinite(emb))
    const = np.full((1, 32, 32, 3), 0.7)
    emb_const = project(params, const)
    # constant input stays constant per channel through convs and pooling
    assert np.allclose(emb_const.std(axis=2), 0.0, atol=1e-12)


def test_gradient_full_fd_tiny_net():
    # full coordinate-wise finite differences on every parameter
    rng = np.random.default_rng(3)
    cfg = NetConfig(height=8, width=8, widths=(2, 3), embed_dim=2)
    params = init_params(cfg, rng)
    imgs = rng.uniform(size=(2, 8, 8))
    labels = (rng.uniform(size=(2, 8, 8)) > 0.5).astype(np.uint8)

    from switchlab.losses import pretrain_loss, pretrain_loss_grad

    def loss_of(vec):
        p = SegNetParams(cfg, vec)
        return pretrain_loss(forward(p, imgs).logits, labels)

    cache = {}
    out = forward(params, imgs, cache)
    _, dlogits = pretrain_loss_grad(out.logits, labels)
    grads = backward(params, cache, dlogits)
    eps = 1e-5
    fd = np.zeros(params.size)
    for i in range(params.size):
        vp, vm = params.vector.copy(), params.vector.copy()
        vp[i] += eps
        vm[i] -= eps
        fd[i] = (loss_of(vp) - loss_of(vm)) / (2 * eps)
    num = np.linalg.norm(grads.vector - fd)
    den = max(np.linalg.norm(grads.vector), np.linalg.norm(fd))
    assert num / den < 1e-6


def test_backward_consumes_its_cache():
    rng = np.random.default_rng(4)
    params = init_params(TINY, rng)
    cache, pcache = {}, {}
    out = forward(params, rng.uniform(size=(2, 16, 16)), cache)
    emb = project(params, out.features, pcache)
    grads = SegNetParams(TINY)
    dfeat = project_backward(params, pcache, np.ones_like(emb), grads)
    backward(params, cache, np.ones_like(out.logits), dfeat, grads)
    assert cache == {} and pcache == {}
    assert np.all(np.isfinite(grads.vector)) and np.any(grads.vector != 0.0)


def test_cosine_lr_schedule():
    assert cosine_lr(0, 100, 0.05) == pytest.approx(0.05)
    assert cosine_lr(100, 100, 0.05) == pytest.approx(0.0, abs=1e-18)
    assert cosine_lr(50, 100, 0.05) == pytest.approx(0.025)
    with pytest.raises(ValueError):
        cosine_lr(0, 0, 0.05)
    with pytest.raises(ValueError):
        cosine_lr(101, 100, 0.05)


def test_sgd_step_plain_and_momentum():
    params = SegNetParams(TINY)
    grads = SegNetParams(TINY)
    grads.vector[:] = 1.0
    velocity = np.zeros(params.size)
    sgd_step(params, grads, lr=0.1, momentum=0.0, velocity=velocity)
    assert np.allclose(params.vector, -0.1)
    # two momentum steps against the hand-unrolled recurrence
    p = SegNetParams(TINY)
    v = np.zeros(p.size)
    sgd_step(p, grads, lr=0.1, momentum=0.9, velocity=v)
    sgd_step(p, grads, lr=0.1, momentum=0.9, velocity=v)
    # v1 = 1, p1 = -0.1; v2 = 1.9, p2 = -0.1 - 0.19
    assert np.allclose(p.vector, -(0.1 + 0.19))
    # zero grads leave params unchanged when velocity is zero
    q = SegNetParams(TINY)
    sgd_step(q, SegNetParams(TINY), lr=0.5, momentum=0.9, velocity=np.zeros(q.size))
    assert np.all(q.vector == 0.0)


def test_ema_update_examples_and_contraction():
    teacher = SegNetParams(TINY)
    student = SegNetParams(TINY)
    teacher.vector[:] = 1.0
    ema_update(teacher, student, alpha=0.99)
    assert np.allclose(teacher.vector, 0.99)

    t2 = SegNetParams(TINY)
    s2 = SegNetParams(TINY)
    t2.vector[:] = 1.0
    ema_update(t2, s2, alpha=0.0)
    assert np.array_equal(t2.vector, s2.vector)

    # identical nets stay identical
    t3 = init_params(TINY, np.random.default_rng(4))
    s3 = t3.copy()
    ema_update(t3, s3, alpha=0.7)
    assert np.allclose(t3.vector, s3.vector, atol=1e-15)

    # geometric contraction with a constant student
    rng = np.random.default_rng(5)
    teacher = init_params(TINY, rng)
    student = init_params(TINY, rng)
    d0 = np.linalg.norm(teacher.vector - student.vector)
    for k in range(1, 101):
        ema_update(teacher, student, alpha=0.99)
        dk = np.linalg.norm(teacher.vector - student.vector)
        assert dk == pytest.approx(0.99**k * d0, rel=1e-12)


def test_parameter_count_default_under_100k():
    n = SegNetParams(NetConfig()).size
    print(f"default config parameter count: {n}")
    assert n < 100_000


def test_checkpoint_round_trip(tmp_path):
    params = init_params(TINY, np.random.default_rng(6))
    path = tmp_path / "net.bin"
    save_params(path, params)
    back = load_params(path, TINY)
    assert np.array_equal(back.vector, params.vector)
    raw = path.read_bytes()
    assert raw[:4] == b"SWCH"

    with pytest.raises(DataError):
        load_params(path, NetConfig(height=16, width=16, widths=(4, 4), embed_dim=4))
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(DataError):
        load_params(bad, TINY)
    trunc = tmp_path / "trunc.bin"
    trunc.write_bytes(raw[:-16])
    with pytest.raises(DataError):
        load_params(trunc, TINY)


def test_float32_compute_keeps_float64_params():
    cfg = NetConfig(height=16, width=16, widths=(3, 4), embed_dim=4, compute_dtype="float32")
    params = init_params(cfg, np.random.default_rng(7))
    assert params.vector.dtype == np.float64
    out = forward(params, np.random.default_rng(8).uniform(size=(2, 16, 16)))
    assert out.logits.dtype == np.float32
    # float32 forward tracks the float64 forward closely
    cfg64 = NetConfig(height=16, width=16, widths=(3, 4), embed_dim=4)
    params64 = SegNetParams(cfg64, params.vector.copy())
    out64 = forward(params64, np.random.default_rng(8).uniform(size=(2, 16, 16)))
    assert np.abs(out.logits - out64.logits).max() < 1e-4


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_maxpool_backward_keeps_the_gradient_dtype(dtype):
    from switchlab.network import _maxpool2, _maxpool2_backward

    x = np.random.default_rng(9).normal(size=(2, 4, 4, 3)).astype(dtype)
    out, idx = _maxpool2(x)
    dx = _maxpool2_backward(np.ones_like(out), idx)
    assert dx.dtype == dtype
    # the upstream gradient lands on each window's maximum only
    assert np.array_equal(dx.reshape(2, 2, 2, 2, 2, 3).sum(axis=(2, 4)), np.ones_like(out))
    assert np.sort(x[dx == 1]).tolist() == np.sort(out.ravel()).tolist()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("channels", [1, 3])
def test_conv3_matches_direct_sums_across_chunks(monkeypatch, dtype, channels):
    rng = np.random.default_rng(10)
    n, h, wd, f = 5, 4, 7, 2  # a non-square raster
    x = rng.normal(size=(n, h, wd, channels)).astype(dtype)
    w = rng.normal(size=(f, channels, 3, 3))
    b = rng.normal(size=f)
    one_chunk = network._conv3((x,), w, b)
    # two images per chunk: chunks of 2, 2 and a partial 1
    per_image = (h + 2) * (wd + 2) * max(channels, f) * np.dtype(dtype).itemsize
    monkeypatch.setattr(network, "_CONV_CHUNK_BYTES", 2 * per_image)
    out = network._conv3((x,), w, b)
    assert out.dtype == dtype and out.flags.c_contiguous and out.shape == (n, h, wd, f)
    tol = 1e-5 if dtype == np.float32 else 1e-12
    np.testing.assert_allclose(out, conv3_edge_loops(x, w, b), rtol=tol, atol=tol)
    # chunking regroups whole images only, so every output bit stays the same
    assert out.tobytes() == one_chunk.tobytes()


@pytest.mark.parametrize("input_grad", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("channels", [1, 3])
def test_conv3_backward_matches_direct_sums_across_chunks(monkeypatch, channels, dtype, input_grad):
    rng = np.random.default_rng(12)
    n, h, wd, f = 5, 4, 7, 2  # a non-square raster
    x = rng.normal(size=(n, h, wd, channels)).astype(dtype)
    w = rng.normal(size=(f, channels, 3, 3))
    dout = rng.normal(size=(n, h, wd, f)).astype(dtype)
    one_dxs, one_dw, one_db = network._conv3_backward((x,), w, dout, input_grad)
    # two images per chunk: chunks of 2, 2 and a partial 1
    per_image = (h + 2) * (wd + 2) * max(channels, f) * np.dtype(dtype).itemsize
    monkeypatch.setattr(network, "_CONV_CHUNK_BYTES", 2 * per_image)
    dxs, dw, db = network._conv3_backward((x,), w, dout, input_grad)
    ref_dx, ref_dw, ref_db = conv3_backward_edge_loops(x, w, dout)
    tol = 1e-5 if dtype == np.float32 else 1e-12
    assert dw.dtype == db.dtype == dtype and dw.shape == w.shape
    np.testing.assert_allclose(dw, ref_dw, rtol=tol, atol=tol)
    np.testing.assert_allclose(db, ref_db, rtol=tol, atol=tol)
    # dW sums chunk by chunk; db sums the whole output gradient at once
    np.testing.assert_allclose(dw, one_dw, rtol=tol, atol=tol)
    assert db.tobytes() == one_db.tobytes()
    if not input_grad:
        assert dxs is None and one_dxs is None
        return
    (dx,), (one_dx,) = dxs, one_dxs
    assert dx.dtype == dtype and dx.shape == x.shape
    np.testing.assert_allclose(dx, ref_dx, rtol=tol, atol=tol)
    # each dx element sums its taps in order, whatever the chunks. With one
    # channel the taps' products are matrix-vector products, whose BLAS kernel
    # may round a row by its position in the chunk; the network takes that
    # gradient only when widths[0] is 1.
    if channels > 1:
        assert np.ascontiguousarray(dx).tobytes() == np.ascontiguousarray(one_dx).tobytes()


@pytest.mark.parametrize("images_per_chunk", [1, 2, 5])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_conv3_of_an_upsampled_part_and_a_skip_equals_the_conv_of_their_concatenation(
    monkeypatch, dtype, images_per_chunk
):
    rng = np.random.default_rng(13)
    n, h, wd, ca, cs, f = 5, 4, 6, 3, 2, 4
    a = rng.normal(size=(n, h // 2, wd // 2, ca)).astype(dtype)  # repeated 2x2 by the conv
    skip = rng.normal(size=(n, h, wd, cs)).astype(dtype)
    w = rng.normal(size=(f, ca + cs, 3, 3))
    b = rng.normal(size=f)
    dout = rng.normal(size=(n, h, wd, f)).astype(dtype)
    per_image = (h + 2) * (wd + 2) * max(ca + cs, f) * np.dtype(dtype).itemsize
    monkeypatch.setattr(network, "_CONV_CHUNK_BYTES", images_per_chunk * per_image)
    x = np.concatenate([a.repeat(2, axis=1).repeat(2, axis=2), skip], axis=3)
    out = network._conv3((a, skip), w, b)
    assert out.tobytes() == network._conv3((x,), w, b).tobytes()
    (da, dskip), dw, db = network._conv3_backward((a, skip), w, dout.copy())
    (dx,), ref_dw, ref_db = network._conv3_backward((x,), w, dout.copy())
    assert dw.tobytes() == ref_dw.tobytes() and db.tobytes() == ref_db.tobytes()
    assert da.shape == a.shape and dskip.shape == skip.shape
    assert da.tobytes() == network._upsample2_backward(dx[..., :ca]).tobytes()
    assert dskip.tobytes() == np.ascontiguousarray(dx[..., ca:]).tobytes()


def test_conv3_backward_without_input_gradient_keeps_the_weight_gradient():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(3, 5, 6, 2))
    w = rng.normal(size=(4, 2, 3, 3))
    dout = rng.normal(size=(3, 5, 6, 4))
    (dx,), dw, db = network._conv3_backward((x,), w, dout)
    none, dw_only, db_only = network._conv3_backward((x,), w, dout, input_grad=False)
    assert dx.shape == x.shape and none is None
    assert np.array_equal(dw, dw_only) and np.array_equal(db, db_only)


def test_forward_and_backward_keep_no_padded_or_upsampled_copies():
    # widths of the published config at 64x64, float64, 16 images. A conv
    # cache of edge-padded, upsampled and concatenated input copies, with a
    # full-batch padded input gradient in the backward, peaks at 69.4 MiB
    # here; caching references to arrays the forward keeps anyway, plus the
    # bool ReLU masks, peaks at 51.2 MiB.
    import tracemalloc

    cfg = NetConfig(height=64, width=64, widths=(8, 16, 32), embed_dim=8)
    params = init_params(cfg, np.random.default_rng(14))
    images = np.random.default_rng(15).uniform(size=(16, 64, 64))
    dlogits = np.random.default_rng(16).normal(size=(16, 2, 64, 64))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cache = {}
        forward(params, images, cache)
        backward(params, cache, dlogits)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 60 * 2**20, f"forward+backward peak {peak / 2**20:.1f} MiB"


def _band_budget(monkeypatch, rows, images_per_chunk, h, wd, width, itemsize):
    """Chunks of ``images_per_chunk`` images and bands of ``rows`` image rows of
    a conv whose input and output are ``width`` channels wide; ``rows=None``
    makes a band of the whole chunk."""
    wp = wd + 2
    per_image = (h + 2) * wp * width * itemsize
    monkeypatch.setattr(network, "_CONV_CHUNK_BYTES", images_per_chunk * per_image)
    monkeypatch.setattr(network, "_CONV_BAND_BYTES", per_image if rows is None else rows * wp * width * itemsize)


# (image rows per band, images per chunk): bands of one row; of three rows,
# which leaves a partial band in the forward's 5 or 8 rows per image and in
# the 7 or 10 padded rows the backward's dx bands walk; of one whole image;
# of several whole images.
BAND_CASES = {"one_row": (1, 2), "partial_band": (3, 2), "one_image": (None, 1), "several_images": (None, 3)}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", BAND_CASES)
def test_conv3_bands_keep_every_bit_and_match_direct_sums(monkeypatch, case, dtype):
    rng = np.random.default_rng(17)
    n, h, wd, c = 5, 5, 7, 3  # input and output both c wide, so both passes band alike
    x = rng.normal(size=(n, h, wd, c)).astype(dtype)
    w = rng.normal(size=(c, c, 3, 3))
    b = rng.normal(size=c)
    dout = rng.normal(size=(n, h, wd, c)).astype(dtype)
    one_out = network._conv3((x,), w, b)  # the whole batch is one chunk and one band
    (one_dx,), one_dw, one_db = network._conv3_backward((x,), w, dout)
    rows, images = BAND_CASES[case]
    _band_budget(monkeypatch, rows, images, h, wd, c, np.dtype(dtype).itemsize)
    out = network._conv3((x,), w, b)
    (dx,), dw, db = network._conv3_backward((x,), w, dout)
    ref_dx, ref_dw, ref_db = conv3_backward_edge_loops(x, w, dout)
    tol = 1e-5 if dtype == np.float32 else 1e-12
    np.testing.assert_allclose(out, conv3_edge_loops(x, w, b), rtol=tol, atol=tol)
    np.testing.assert_allclose(dx, ref_dx, rtol=tol, atol=tol)
    np.testing.assert_allclose(dw, ref_dw, rtol=tol, atol=tol)
    np.testing.assert_allclose(db, ref_db, rtol=tol, atol=tol)
    # each output and dx element sums the same products in the same order
    assert out.tobytes() == one_out.tobytes()
    assert dx.tobytes() == one_dx.tobytes()
    assert db.tobytes() == one_db.tobytes()
    np.testing.assert_allclose(dw, one_dw, rtol=tol, atol=tol)  # dW sums chunk by chunk


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", BAND_CASES)
def test_conv3_bands_of_an_upsampled_part_and_a_skip_keep_every_bit(monkeypatch, case, dtype):
    rng = np.random.default_rng(18)
    n, h, wd, ca, cs = 3, 8, 4, 2, 2  # input and output both ca + cs wide
    f = ca + cs
    a = rng.normal(size=(n, h // 2, wd // 2, ca)).astype(dtype)
    skip = rng.normal(size=(n, h, wd, cs)).astype(dtype)
    w = rng.normal(size=(f, f, 3, 3))
    b = rng.normal(size=f)
    dout = rng.normal(size=(n, h, wd, f)).astype(dtype)
    one_out = network._conv3((a, skip), w, b)
    (one_da, one_dskip), _, _ = network._conv3_backward((a, skip), w, dout.copy())
    rows, images = BAND_CASES[case]
    _band_budget(monkeypatch, rows, images, h, wd, f, np.dtype(dtype).itemsize)
    out = network._conv3((a, skip), w, b)
    (da, dskip), dw, db = network._conv3_backward((a, skip), w, dout.copy())
    x = np.concatenate([a.repeat(2, axis=1).repeat(2, axis=2), skip], axis=3)
    ref_dx, ref_dw, _ = conv3_backward_edge_loops(x, w, dout)
    tol = 1e-5 if dtype == np.float32 else 1e-12
    np.testing.assert_allclose(out, conv3_edge_loops(x, w, b), rtol=tol, atol=tol)
    np.testing.assert_allclose(da, network._upsample2_backward(ref_dx[..., :ca]), rtol=tol, atol=tol)
    np.testing.assert_allclose(dskip, ref_dx[..., ca:], rtol=tol, atol=tol)
    np.testing.assert_allclose(dw, ref_dw, rtol=tol, atol=tol)
    assert out.tobytes() == one_out.tobytes()
    assert da.tobytes() == one_da.tobytes() and dskip.tobytes() == one_dskip.tobytes()


@pytest.mark.parametrize("images_per_chunk", [1, 2, 4])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_channel_conv3_sums_the_bias_and_its_taps_in_order(monkeypatch, dtype, images_per_chunk):
    rng = np.random.default_rng(19)
    n, h, wd, f = 4, 5, 6, 3
    x = rng.normal(size=(n, h, wd, 1)).astype(dtype)
    w = rng.normal(size=(f, 1, 3, 3))
    b = rng.normal(size=f)
    per_image = (h + 2) * (wd + 2) * f * np.dtype(dtype).itemsize
    monkeypatch.setattr(network, "_CONV_CHUNK_BYTES", images_per_chunk * per_image)
    out = network._conv3((x,), w, b)
    tol = 1e-5 if dtype == np.float32 else 1e-12
    np.testing.assert_allclose(out, conv3_edge_loops(x, w, b), rtol=tol, atol=tol)
    # direct sums in the compute dtype: the bias, then tap by tap one rounded
    # product each, as the K = 1 GEMMs that this path replaces gave them
    xp = np.pad(x[..., 0], ((0, 0), (1, 1), (1, 1)), mode="edge")
    wt = w.astype(dtype)
    ref = np.empty_like(out)
    for o in range(f):
        acc = np.full((n, h, wd), b[o], dtype=dtype)
        for di in range(3):
            for dj in range(3):
                acc = acc + xp[:, di : di + h, dj : dj + wd] * wt[o, 0, di, dj]
        ref[..., o] = acc
    assert out.dtype == dtype and out.tobytes() == ref.tobytes()


@pytest.mark.parametrize("compute_dtype", ["float32", "float64"])
def test_network_outputs_and_gradient_do_not_depend_on_the_band_size(monkeypatch, compute_dtype):
    cfg = NetConfig(height=16, width=24, widths=(3, 5), embed_dim=4, compute_dtype=compute_dtype)
    params = init_params(cfg, np.random.default_rng(20))
    rng = np.random.default_rng(21)
    images = rng.uniform(size=(3, 16, 24))
    dlogits = rng.normal(size=(3, 2, 16, 24))
    demb = rng.normal(size=(2, 4, 24))

    def run():
        cache, pcache = {}, {}
        out = forward(params, images, cache)
        emb = project(params, out.features[:2], pcache)
        grads = SegNetParams(cfg)
        dfeat = project_backward(params, pcache, demb, grads)
        backward(params, cache, dlogits, dfeat, grads)
        return out.logits, emb, grads.vector

    whole = run()  # every image fits one band
    monkeypatch.setattr(network, "_CONV_BAND_BYTES", 1)  # bands of one image row
    for a, b in zip(whole, run()):
        assert a.tobytes() == b.tobytes()


def test_feature_gradient_of_the_leading_images_equals_a_zero_padded_one():
    rng = np.random.default_rng(22)
    params = init_params(TINY, rng)
    images = rng.uniform(size=(4, 16, 16))
    dlogits = rng.normal(size=(4, 2, 16, 16))
    dfeat = rng.normal(size=(2, 16, 16, 3))
    padded = np.concatenate([dfeat, np.zeros_like(dfeat)])
    grads = []
    for d in (dfeat, padded):
        cache = {}
        forward(params, images, cache)
        grads.append(backward(params, cache, dlogits.copy(), d).vector)
    assert np.array_equal(grads[0], grads[1])
