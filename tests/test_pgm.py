import numpy as np
import pytest

from switchlab import pgm
from switchlab.errors import DataError


def test_image_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.uniform(size=(9, 13))
    path = tmp_path / "img.pgm"
    pgm.write_pgm(path, img)
    back = pgm.read_pgm(path)
    assert back.shape == img.shape
    # 8-bit quantization: half a grey level each way
    assert np.abs(back - img).max() <= 0.5 / 255 + 1e-12


def test_mask_round_trip(tmp_path):
    mask = (np.arange(20).reshape(4, 5) % 3 == 0).astype(np.uint8)
    path = tmp_path / "msk.pgm"
    pgm.write_mask_pgm(path, mask)
    assert np.array_equal(pgm.read_mask_pgm(path), mask)


def test_mask_rejects_grey_values(tmp_path):
    path = tmp_path / "grey.pgm"
    pgm.write_pgm(path, np.full((3, 3), 0.5))
    with pytest.raises(DataError):
        pgm.read_mask_pgm(path)


def test_header_with_comments(tmp_path):
    path = tmp_path / "c.pgm"
    payload = bytes(range(6))
    path.write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + payload)
    img = pgm.read_pgm(path)
    assert img.shape == (2, 3)
    assert img[0, 0] == 0.0


def test_rejects_wrong_magic_and_truncation(tmp_path):
    p1 = tmp_path / "p2.pgm"
    p1.write_bytes(b"P2\n2 2\n255\n0 0 0 0")
    with pytest.raises(DataError):
        pgm.read_pgm(p1)
    p2 = tmp_path / "short.pgm"
    p2.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(DataError):
        pgm.read_pgm(p2)


@pytest.mark.parametrize("size", [b"-32 -32", b"0 4", b"4 0"])
def test_rejects_non_positive_size(tmp_path, size):
    path = tmp_path / "size.pgm"
    path.write_bytes(b"P5\n" + size + b"\n255\n" + bytes(1024))
    with pytest.raises(DataError, match="PGM width and height must be positive"):
        pgm.read_pgm(path)


def test_values_clip_and_scale(tmp_path):
    img = np.array([[-0.5, 0.0], [1.0, 2.0]])
    path = tmp_path / "clip.pgm"
    pgm.write_pgm(path, img)
    back = pgm.read_pgm(path)
    assert back[0, 0] == 0.0 and back[0, 1] == 0.0
    assert back[1, 0] == 1.0 and back[1, 1] == 1.0
