import json

import numpy as np
import pytest

from ceqaoa.encoded import DimensionCapError
from ceqaoa.instances import InstanceParseError, parse_instance

MATRIX_4 = [[0, 10, 15, 20], [10, 0, 35, 25], [15, 35, 0, 30], [20, 25, 30, 0]]
MATRIX_3 = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestJson:
    def test_round_trip(self, tmp_path):
        path = write(
            tmp_path, "ex4.json", json.dumps({"name": "ex4", "n": 4, "matrix": MATRIX_4})
        )
        inst = parse_instance(path)
        assert inst.name == "ex4"
        assert inst.n_cities == 4
        assert np.array_equal(inst.distances, np.asarray(MATRIX_4, float))

    def test_negative_entry(self, tmp_path):
        bad = [row[:] for row in MATRIX_4]
        bad[1][2] = -1
        path = write(tmp_path, "bad.json", json.dumps({"matrix": bad}))
        with pytest.raises(InstanceParseError, match="negative"):
            parse_instance(path)

    def test_non_square(self, tmp_path):
        path = write(tmp_path, "bad.json", json.dumps({"matrix": [[0, 1], [1, 0], [2, 2]]}))
        with pytest.raises(InstanceParseError) as err:
            parse_instance(path)
        assert str(err.value) == f"{path}: instance 'bad': distance matrix is not square (shape (3, 2))"

    def test_n_mismatch(self, tmp_path):
        path = write(tmp_path, "bad.json", json.dumps({"n": 5, "matrix": MATRIX_4}))
        with pytest.raises(InstanceParseError):
            parse_instance(path)

    @pytest.mark.parametrize(
        "body, message",
        [
            ({"n": 3.5, "matrix": MATRIX_3}, '"n" must be a JSON integer, got 3.5'),
            ({"n": "abc", "matrix": MATRIX_3}, '"n" must be a JSON integer, got "abc"'),
            ({"n": True, "matrix": MATRIX_3}, '"n" must be a JSON integer, got true'),
            ({"matrix": [[0, 1, 2], [1, 0], [2, 1, 0]]}, "matrix is not rows of numbers"),
            ({"matrix": [[0, 1, "x"], [1, 0, 1], [2, 1, 0]]}, "matrix is not rows of numbers"),
            ({"matrix": [[0, 1, {}], [1, 0, 1], [2, 1, 0]]}, "matrix is not rows of numbers"),
            (
                {"matrix": [[0, "1", True], ["1", 0, 1], [True, 1, 0]]},
                'matrix is not rows of numbers (entry "1" is not a JSON number)',
            ),
            (
                {"matrix": [[0, 1, 1], [1, 0, True], [1, 1, 0]]},
                "matrix is not rows of numbers (entry true is not a JSON number)",
            ),
            (
                {"matrix": [[0, 1, 1], [1, 0, 1], [None, 1, 0]]},
                "matrix is not rows of numbers (entry null is not a JSON number)",
            ),
            ({"matrix": [[0, 1, 1], [10**400, 0, 1], [1, 1, 0]]}, "matrix is not rows of numbers"),
        ],
        ids=[
            "n-float",
            "n-string",
            "n-bool",
            "ragged",
            "string-entry",
            "object-entry",
            "numeric-string-entry",
            "bool-entry",
            "null-entry",
            "integer-past-float64",
        ],
    )
    def test_malformed_body_names_the_file(self, tmp_path, body, message):
        path = write(tmp_path, "bad.json", json.dumps(body))
        with pytest.raises(InstanceParseError) as err:
            parse_instance(path)
        text = str(err.value)
        assert text.startswith(f"{path}: {message}")
        assert "\n" not in text

    def test_rows_over_the_cap_are_refused_before_the_entries_are_read(self, tmp_path, monkeypatch):
        # 5 rows: the anchored layout has 4**4 = 256 labels.  The entries are
        # not numbers, which only the scan of the entries would find.
        path = write(tmp_path, "big.json", json.dumps({"matrix": [["x"] * 5] * 5}))
        monkeypatch.setenv("CEQAOA_MAX_DIM", "255")
        with pytest.raises(DimensionCapError) as err:
            parse_instance(path)
        assert str(err.value) == (
            f"{path}: a matrix of 5 rows needs encoded dimension 4**4, over the cap 255 "
            "(override with CEQAOA_MAX_DIM)"
        )
        monkeypatch.setenv("CEQAOA_MAX_DIM", "256")
        with pytest.raises(InstanceParseError, match="is not a JSON number"):
            parse_instance(path)

    def test_invalid_json_reports_line(self, tmp_path):
        path = write(tmp_path, "bad.json", '{"matrix": [[0, 1],\n [1, }')
        with pytest.raises(InstanceParseError) as err:
            parse_instance(path)
        assert err.value.line == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_instance(tmp_path / "absent.json")


class TestTsplib:
    def test_full_matrix(self, tmp_path):
        rows = "\n".join(" ".join(str(v) for v in row) for row in MATRIX_4)
        text = (
            "NAME: ex4\nTYPE: TSP\nDIMENSION: 4\nEDGE_WEIGHT_TYPE: EXPLICIT\n"
            f"EDGE_WEIGHT_FORMAT: FULL_MATRIX\nEDGE_WEIGHT_SECTION\n{rows}\nEOF\n"
        )
        inst = parse_instance(write(tmp_path, "ex4.tsp", text))
        assert inst.name == "ex4"
        assert np.array_equal(inst.distances, np.asarray(MATRIX_4, float))

    def test_euclidean_rounded(self, tmp_path):
        text = (
            "NAME: pts\nTYPE: TSP\nDIMENSION: 3\nEDGE_WEIGHT_TYPE: EUC_2D\n"
            "NODE_COORD_SECTION\n1 0 0\n2 3 4\n3 1 1\nEOF\n"
        )
        inst = parse_instance(write(tmp_path, "pts.tsp", text))
        assert inst.distances[0, 1] == 5.0  # exact integer distance
        assert inst.distances[0, 2] == 1.0  # sqrt(2) rounds to 1

    def test_euclidean_exact_mode(self, tmp_path):
        text = (
            "NAME: pts\nDIMENSION: 2\nEDGE_WEIGHT_TYPE: EUC_2D\n"
            "NODE_COORD_SECTION\n1 0 0\n2 1 1\nEOF\n"
        )
        inst = parse_instance(write(tmp_path, "pts.tsp", text), euclidean_rounding=False)
        assert inst.distances[0, 1] == pytest.approx(np.sqrt(2))

    def test_wrong_entry_count_reports_line(self, tmp_path):
        text = (
            "DIMENSION: 4\nEDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_WEIGHT_FORMAT: FULL_MATRIX\n"
            "EDGE_WEIGHT_SECTION\n0 1 2\nEOF\n"
        )
        with pytest.raises(InstanceParseError) as err:
            parse_instance(write(tmp_path, "bad.tsp", text))
        assert err.value.line == 4

    def test_unsupported_weight_type(self, tmp_path):
        text = "DIMENSION: 3\nEDGE_WEIGHT_TYPE: GEO\nEOF\n"
        with pytest.raises(InstanceParseError, match="EDGE_WEIGHT_TYPE"):
            parse_instance(write(tmp_path, "bad.tsp", text))

    def test_lower_diag_rejected(self, tmp_path):
        text = (
            "DIMENSION: 3\nEDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_WEIGHT_FORMAT: LOWER_DIAG_ROW\n"
            "EDGE_WEIGHT_SECTION\n0\n1 0\n2 3 0\nEOF\n"
        )
        with pytest.raises(InstanceParseError, match="FULL_MATRIX"):
            parse_instance(write(tmp_path, "bad.tsp", text))

    def test_bad_coordinate_reports_line(self, tmp_path):
        text = "DIMENSION: 2\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 0 0\n2 x y\nEOF\n"
        with pytest.raises(InstanceParseError) as err:
            parse_instance(write(tmp_path, "bad.tsp", text))
        assert err.value.line == 5

    @pytest.mark.parametrize(
        "cap,dimension,refused", [("27", 4, False), ("27", 5, True), ("1", 2, False)]
    )
    def test_dimension_over_the_cap_is_refused(
        self, tmp_path, monkeypatch, cap, dimension, refused
    ):
        # the anchored layout has (d-1)**(d-1) labels: 27 at d = 4, 256 at
        # d = 5 and 1 at d = 2, where BlockLayout(1, 1) itself is invalid
        monkeypatch.setenv("CEQAOA_MAX_DIM", cap)
        coords = "".join(f"{i} {i} {2 * i}\n" for i in range(1, dimension + 1))
        header = f"DIMENSION: {dimension}\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n"
        path = write(tmp_path, "pts.tsp", f"{header}{coords}EOF\n")
        if refused:
            with pytest.raises(DimensionCapError, match=f"DIMENSION {dimension} needs"):
                parse_instance(path)
        else:
            assert parse_instance(path).n_cities == dimension

    @pytest.mark.parametrize(
        "value,error",
        [("9" * 300, DimensionCapError), ("-" + "9" * 300, InstanceParseError),
         ("x" * 300, InstanceParseError)],
        ids=["over-the-cap", "negative", "not-an-integer"],
    )
    def test_long_dimension_is_clipped_in_its_one_line(self, tmp_path, monkeypatch, value, error):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("CEQAOA_MAX_DIM", raising=False)
        write(tmp_path, "long.tsp", f"DIMENSION: {value}\nEDGE_WEIGHT_TYPE: EUC_2D\nEOF\n")
        with pytest.raises(error) as err:
            parse_instance("long.tsp")
        message = str(err.value)
        assert len(message) < 200 and "..." in message and message.startswith("long.tsp")
