import numpy as np
import pytest
from hypothesis import strategies as st

from shadesearch.image import GrayImage, RgbImage


def random_rgb(rng: np.random.Generator, width: int, height: int) -> RgbImage:
    return RgbImage(rng.integers(0, 256, size=(height, width, 3), dtype=np.uint8))


class FailingWriter:
    """A file whose first write stores half its data and then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        self.fh.flush()
        raise OSError("disk full")


@st.composite
def rgb_images(draw, max_side: int = 8) -> RgbImage:
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    data = draw(st.binary(min_size=3 * w * h, max_size=3 * w * h))
    return RgbImage(np.frombuffer(data, dtype=np.uint8).reshape(h, w, 3))


@st.composite
def gray_images(draw, max_side: int = 8) -> GrayImage:
    w = draw(st.integers(1, max_side))
    h = draw(st.integers(1, max_side))
    data = draw(st.binary(min_size=w * h, max_size=w * h))
    return GrayImage(np.frombuffer(data, dtype=np.uint8).reshape(h, w))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
