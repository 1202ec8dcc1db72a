import numpy as np
import pytest

from svkit import checkpoint
from svkit.errors import ParseError


class TestContainer:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        params = {
            "W": rng.standard_normal((3, 4)),
            "b": rng.standard_normal(3),
            "k": np.float64(2.5),
            "tensor3": rng.standard_normal((2, 3, 2)),
        }
        path = tmp_path / "ckpt.txt"
        checkpoint.save_params(path, params, {"kind": "test", "note": "two words"})
        loaded, meta = checkpoint.load_params(path)
        assert meta == {"kind": "test", "note": "two words"}
        assert set(loaded) == set(params)
        for name in params:
            assert np.array_equal(loaded[name], np.asarray(params[name]))
            assert loaded[name].shape == np.asarray(params[name]).shape

    def test_save_load_save_stable(self, tmp_path):
        rng = np.random.default_rng(1)
        params = {"W": rng.standard_normal((2, 2)) * 1e-17, "v": rng.standard_normal(5)}
        p1, p2 = tmp_path / "a", tmp_path / "b"
        checkpoint.save_params(p1, params)
        loaded, meta = checkpoint.load_params(p1)
        checkpoint.save_params(p2, loaded, meta)
        assert p1.read_text() == p2.read_text()

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("not-a-checkpoint\n")
        with pytest.raises(ParseError):
            checkpoint.load_params(path)

    def test_truncated_param(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("svkit-params v1\nparam W 2 2 2\n1 2\n")
        with pytest.raises(ParseError):
            checkpoint.load_params(path)

    def test_missing_end(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("svkit-params v1\nparam v 1 2\n1 2\n")
        with pytest.raises(ParseError):
            checkpoint.load_params(path)

    def test_ragged_rows_name_their_line(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("svkit-params v1\nparam W 2 2 2\n1 2 3\n4\nend\n")
        with pytest.raises(ParseError) as exc:
            checkpoint.load_params(path)
        assert exc.value.line_no == 4

    def test_wrong_value_count(self, tmp_path):
        path = tmp_path / "bad"
        path.write_text("svkit-params v1\nparam v 1 3\n1 2\nend\n")
        with pytest.raises(ParseError):
            checkpoint.load_params(path)
