import json
import math

import pytest

from zetalab.reporting import csv_text, format_float, json_dumps


class TestJsonDumps:
    def test_complex_becomes_re_im(self):
        text = json_dumps({"z": complex(0.5, -14.0), "values": [2 + 0j]})
        assert json.loads(text) == {"z": {"re": 0.5, "im": -14.0},
                                    "values": [{"re": 2.0, "im": 0.0}]}
        assert '"im": 0.0' in text

    def test_floats_read_back_exactly(self):
        values = [0.1, 1 / 3, 2.0, -0.0, 5e-324, 1e300, math.pi]
        got = json.loads(json_dumps(values))
        assert [x.hex() for x in got] == [x.hex() for x in values]
        assert all(type(x) is float for x in got)

    def test_layout(self):
        text = json_dumps({"b": 1, "a": [True, None], "c": {}, "ü": "é\n"})
        assert text == ('{\n  "b": 1,\n  "a": [\n    true,\n    null\n  ],\n'
                        '  "c": {},\n  "ü": "é\\n"\n}\n')

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
    def test_non_finite_raises(self, bad):
        with pytest.raises(ValueError):
            json_dumps({"x": [bad]})

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            json_dumps({"x": object()})


class TestCsvText:
    def test_layout(self):
        text = csv_text(["n", "error", "ok"], [[1, 0.5, True], [2, None, False]],
                        {"hl_constant": 2.0})
        assert text == '# config: {"hl_constant": 2.0}\nn,error,ok\n1,0.5,true\n2,,false\n'

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_raises(self, bad):
        with pytest.raises(ValueError):
            csv_text(["x"], [[bad]], {})
        with pytest.raises(ValueError):
            csv_text(["x"], [[1.0]], {"x": bad})


def test_format_float_is_shortest_round_trip():
    assert format_float(0.1) == "0.1"
    assert format_float(2.0) == "2.0"
    assert float(format_float(1 / 3)) == 1 / 3
