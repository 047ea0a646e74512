import numpy as np
import pytest

from reference import per_entry_csv
from lolrec.errors import EmptyInput, FormatError, IoError, ParseError
from lolrec.matrix_io import (ImageGrid, image_to_matrix, load_matrix_csv, load_pgm,
                              matrix_to_image, save_matrix_csv, save_pgm, tile_images)


class TestCsv:
    def test_basic(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,4\n")
        np.testing.assert_array_equal(load_matrix_csv(p), [[1, 2], [3, 4]])

    def test_single_entry(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("0\n")
        np.testing.assert_array_equal(load_matrix_csv(p), [[0.0]])

    def test_round_trip(self, tmp_path, rng):
        M = rng.standard_normal((50, 60))
        p = tmp_path / "m.csv"
        save_matrix_csv(M, p)
        back = load_matrix_csv(p)
        assert np.max(np.abs(back - M)) <= 1e-12 * np.max(np.abs(M))

    def test_save_format(self, tmp_path):
        p = tmp_path / "m.csv"
        save_matrix_csv(np.array([[1.0, 2.0], [3.0, 4.0]]), p)
        assert p.read_text() == "1,2\n3,4\n"

    @pytest.mark.parametrize("M", [
        np.array([[-0.0, 5e-324, 1e308], [-1e308, np.nan, np.inf], [-np.inf, 0.1, 1.0 / 3.0]]),
        np.zeros((3, 0)),
        np.zeros((0, 3)),
    ], ids=["special-values", "no-columns", "no-rows"])
    def test_save_bytes_match_per_entry_format(self, tmp_path, M):
        p = tmp_path / "m.csv"
        save_matrix_csv(M, p)
        assert p.read_bytes() == per_entry_csv(M).encode()

    def test_ragged_rows(self, tmp_path):
        """The error names the line of the file, blank lines counted."""
        p = tmp_path / "m.csv"
        for text, line in (("1,2\n3\n", 2), ("1,2\n\n3\n", 3)):
            p.write_text(text)
            with pytest.raises(FormatError, match=f"^line {line}: "):
                load_matrix_csv(p)

    def test_non_numeric(self, tmp_path):
        p = tmp_path / "m.csv"
        for text, line in (("1,x\n", 1), ("1,2\n\n\n3,x\n", 4)):
            p.write_text(text)
            with pytest.raises(ParseError, match=f"^line {line}: "):
                load_matrix_csv(p)

    def test_empty(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("")
        with pytest.raises(EmptyInput):
            load_matrix_csv(p)


class TestPgm:
    def test_p2_parse(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_text("P2 2 2 255 0 255 128 64")
        g = load_pgm(p)
        np.testing.assert_array_equal(g.pixels.ravel(), [0, 255, 128, 64])

    @pytest.mark.parametrize("text", [
        "P2\n# a comment line\n2 2 255\n0 255 128 64\n",
        "P2# a comment right after the magic\n2 2 255\n0 255 128 64\n",
        "P2 2 # a comment between width and height\n 2 255 0 255 128 64",
    ], ids=["comment-line", "comment-after-magic", "comment-between-dimensions"])
    def test_header_comments_are_skipped(self, tmp_path, text):
        p = tmp_path / "a.pgm"
        p.write_text(text)
        np.testing.assert_array_equal(load_pgm(p).pixels, [[0, 255], [128, 64]])

    @pytest.mark.parametrize("data,error", [
        (b"P2 2 x 255 0 0 0 0", ParseError),
        (b"P2 2 0 255", FormatError),
        (b"P5 -3 2 255 \x00", FormatError),
        (b"P2 2 2", ParseError),
        (b"P2 2 # 2 255", ParseError),
        (b"P2 2 2 255 0 1 x 3", ParseError),
        (b"P2 2 2 255 0 1 2", ParseError),
        (b"P2 2 2 255 0 1 2 256", ParseError),
    ], ids=["non-integer-token", "zero-height", "negative-width", "truncated-header",
            "header-ends-in-comment", "p2-bad-token", "p2-short-body", "p2-pixel-above-255"])
    def test_malformed_header_or_p2_body(self, tmp_path, data, error):
        p = tmp_path / "a.pgm"
        p.write_bytes(data)
        with pytest.raises(error):
            load_pgm(p)

    def test_p5_round_trip(self, tmp_path, rng):
        g = ImageGrid(rng.integers(0, 256, (13, 17)))
        p = tmp_path / "a.pgm"
        save_pgm(g, p)
        np.testing.assert_array_equal(load_pgm(p).pixels, g.pixels)

    def test_constant_resize(self, tmp_path):
        p = tmp_path / "a.pgm"
        save_pgm(ImageGrid(np.full((4, 4), 77)), p)
        g = load_pgm(p, resize=(2, 2))
        np.testing.assert_array_equal(g.pixels, np.full((2, 2), 77))

    def test_resize_index_oracle(self, tmp_path):
        # nearest-neighbor must pick source index floor(i * src / dst)
        ramp = np.arange(32 * 32).reshape(32, 32) % 256
        p = tmp_path / "a.pgm"
        save_pgm(ImageGrid(ramp), p)
        g = load_pgm(p, resize=(10, 10))
        for i in [0, 3, 7, 9]:
            for j in [0, 4, 9]:
                assert g.pixels[i, j] == ramp[(i * 32) // 10, (j * 32) // 10]

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P6 1 1 255 \x00")
        with pytest.raises(FormatError):
            load_pgm(p)

    def test_bad_maxval(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_text("P2 1 1 65535 0")
        with pytest.raises(FormatError):
            load_pgm(p)

    def test_truncated(self, tmp_path):
        p = tmp_path / "a.pgm"
        p.write_bytes(b"P5 4 4 255 \x00\x00")
        with pytest.raises(ParseError):
            load_pgm(p)

    def test_value_clamp_on_emit(self):
        g = matrix_to_image(np.array([[-0.5, 0.5], [1.5, 1.0]]), 2, 2)
        np.testing.assert_array_equal(g.pixels, [[0, 128], [255, 255]])

    def test_scale_round_trip(self):
        px = np.arange(256).reshape(16, 16)
        back = matrix_to_image(image_to_matrix(ImageGrid(px)), 16, 16)
        np.testing.assert_array_equal(back.pixels, px)

    @pytest.mark.parametrize("pixels", [np.zeros(4), np.zeros((2, 2, 2)), [[0, -1]], [[256]]],
                             ids=["1-d", "3-d", "below-0", "above-255"])
    def test_image_grid_rejects(self, pixels):
        with pytest.raises(FormatError):
            ImageGrid(pixels)

    def test_save_to_a_directory_is_an_io_error(self, tmp_path):
        with pytest.raises(IoError, match="cannot write"):
            save_pgm(ImageGrid(np.zeros((2, 2))), tmp_path)

    @pytest.mark.parametrize("shapes,error", [([], EmptyInput), ([(3, 3), (3, 4)], FormatError)],
                             ids=["no-images", "mixed-shapes"])
    def test_tiling_rejects(self, shapes, error):
        with pytest.raises(error):
            tile_images([ImageGrid(np.zeros(s)) for s in shapes], cols=2)

    def test_tiling_separators(self):
        tiles = [ImageGrid(np.zeros((3, 3))) for _ in range(4)]
        canvas = tile_images(tiles, cols=2)
        assert canvas.pixels.shape == (8, 8)
        assert np.all(canvas.pixels[3:5, :] == 255)
        assert np.all(canvas.pixels[:, 3:5] == 255)


@pytest.mark.parametrize("load", [load_matrix_csv, load_pgm])
def test_missing_path_is_an_io_error(tmp_path, load):
    with pytest.raises(IoError, match="cannot read"):
        load(tmp_path / "missing")
