import contextlib
import dataclasses
import importlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agreekit
from agreekit import io as aio
from agreekit.cli import main
from agreekit.dataset import AnnotationRecord, Dataset
from agreekit.errors import DataError

from conftest import NER_ENTRIES, PAYLOAD_MAKERS, make_payloads, uniform_random_vector_dataset


def small_dataset(kind: str, meta=None) -> Dataset:
    payloads = make_payloads(kind, 6, seed=7)
    records = tuple(
        AnnotationRecord(item_id=f"i{i}", annotator_id=f"a{j}", payload=payloads[2 * i + j])
        for i in range(3)
        for j in range(2)
    )
    return Dataset(records=records, meta=meta or {})


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def count_calls(monkeypatch, calls: Counter, module, name: str) -> None:
    """Replace module.name with a wrapper that counts its calls in calls[name]."""
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


class TestDatasetIo:
    @pytest.mark.parametrize("kind", sorted(PAYLOAD_MAKERS))
    def test_roundtrip_every_kind(self, kind, tmp_path):
        dataset = small_dataset(kind, meta={"note": [1, 2]})
        path = str(tmp_path / "d.jsonl")
        aio.write_dataset(path, dataset)
        loaded = aio.load_dataset(path)
        assert loaded.meta == {"note": [1, 2]}
        assert len(loaded.records) == len(dataset.records)
        for got, want in zip(loaded.records, dataset.records):
            assert (got.item_id, got.annotator_id) == (want.item_id, want.annotator_id)
            # compare through JSON: token sequences gain a derived sentence_id on load
            assert aio.payload_to_json(got.payload) == aio.payload_to_json(want.payload)

    def test_rewrite_is_byte_identical(self, tmp_path):
        dataset = small_dataset("boxes", meta={"image_extent": [64.0, 64.0]})
        p1, p2 = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        aio.write_dataset(p1, dataset)
        aio.write_dataset(p2, aio.load_dataset(p1))
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_tokens_sentence_ids(self, tmp_path):
        path = write_lines(
            tmp_path / "t.jsonl",
            [
                json.dumps({"meta": {"lang": "en"}}),
                json.dumps({"item": "s1", "annotator": "x", "kind": "tokens", "label": ["a", "b"]}),
                json.dumps(
                    {
                        "item": "s1",
                        "annotator": "y",
                        "kind": "tokens",
                        "label": {"tokens": ["a"], "sentence_id": "custom"},
                    }
                ),
            ],
        )
        loaded = aio.load_dataset(path)
        assert loaded.meta == {"lang": "en"}
        by_ann = {r.annotator_id: r.payload for r in loaded.records}
        assert by_ann["x"].sentence_id == "s1::x"
        assert by_ann["y"].sentence_id == "custom"

    def test_blank_lines_skipped(self, tmp_path):
        path = write_lines(
            tmp_path / "t.jsonl",
            [
                "",
                json.dumps({"item": "i", "annotator": "a", "kind": "vector", "label": [1.0]}),
                "   ",
                json.dumps({"item": "i", "annotator": "b", "kind": "vector", "label": [2.0]}),
            ],
        )
        assert len(aio.load_dataset(path).records) == 2

    def test_malformed_json_names_line(self, tmp_path):
        path = write_lines(
            tmp_path / "t.jsonl",
            [json.dumps({"item": "i", "annotator": "a", "kind": "vector", "label": [1.0]}), "{oops"],
        )
        with pytest.raises(DataError, match=r":2: malformed JSON"):
            aio.load_dataset(path)

    @pytest.mark.parametrize("line", [
        "\ufeff{}", "{} x", "{}   x", "{} \t\r\n x", '{"a": [1,', "", "x", "[NaN, Infinity, -Infinity]",
        "1" * 5000, '"\\ud800"', "{}\u00a0", " \t{} ", '{"a": 1} ', "[1e999, -0.0, 5e-324]",
    ], ids=["bom", "extra", "extra-after-spaces", "extra-after-json-whitespace", "unterminated",
            "empty", "no-value", "constants", "5000-digits", "lone-surrogate", "trailing-nbsp",
            "surrounding-whitespace", "trailing-space", "floats"])
    def test_the_line_decoder_gives_what_json_loads_gives(self, line):
        try:
            want = json.loads(line)
        except ValueError as exc:  # a JSONDecodeError, or an integer over the digit limit
            with pytest.raises(type(exc)) as raised:
                aio._decode(line)
            assert str(raised.value) == str(exc)
        else:
            assert repr(aio._decode(line)) == repr(want)  # nan != nan; -0.0 == 0.0

    def test_extra_data_after_a_record_names_its_line(self, tmp_path, capsys):
        good = json.dumps({"item": "i", "annotator": "a", "kind": "vector", "label": [1.0]})
        path = write_lines(tmp_path / "t.jsonl", [good, good.replace('"a"', '"b"') + "   x"])
        assert main(["compute", "--input", path, "--distance", "binary"]) == 3
        at = len(good) + 3  # the x, after the whitespace
        assert capsys.readouterr().err == (
            f"error: {path}:2: malformed JSON: Extra data: line 1 column {at + 1} (char {at})\n")

    def test_missing_field_names_line(self, tmp_path):
        path = write_lines(tmp_path / "t.jsonl", [json.dumps({"item": "i", "annotator": "a"})])
        with pytest.raises(DataError, match=r":1: missing field"):
            aio.load_dataset(path)

    def test_non_object_line_rejected(self, tmp_path):
        path = write_lines(tmp_path / "t.jsonl", ["[1, 2, 3]"])
        with pytest.raises(DataError, match=r":1: expected a JSON object"):
            aio.load_dataset(path)

    def test_mixed_kinds_rejected(self, tmp_path):
        path = write_lines(
            tmp_path / "t.jsonl",
            [
                json.dumps({"item": "i", "annotator": "a", "kind": "vector", "label": [1.0]}),
                json.dumps({"item": "i", "annotator": "b", "kind": "ranking", "label": ["x", "y"]}),
            ],
        )
        with pytest.raises(DataError, match=r":2: .*differs"):
            aio.load_dataset(path)

    def test_bad_payload_names_line_and_kind(self, tmp_path):
        path = write_lines(
            tmp_path / "t.jsonl",
            [json.dumps({"item": "i", "annotator": "a", "kind": "vector", "label": {"x": 1}})],
        )
        with pytest.raises(DataError, match=r":1: malformed vector payload"):
            aio.load_dataset(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = write_lines(
            tmp_path / "t.jsonl",
            [json.dumps({"item": "i", "annotator": "a", "kind": "audio", "label": []})],
        )
        with pytest.raises(DataError, match="unknown payload kind"):
            aio.load_dataset(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write_lines(tmp_path / "t.jsonl", [""])
        with pytest.raises(DataError, match="empty dataset"):
            aio.load_dataset(path)

    def test_meta_only_file_rejected(self, tmp_path):
        path = write_lines(tmp_path / "t.jsonl", [json.dumps({"meta": {"a": 1}})])
        with pytest.raises(DataError, match="empty dataset"):
            aio.load_dataset(path)


class TestEmbeddingsIo:
    def test_load_and_lookup(self, tmp_path):
        path = write_lines(
            tmp_path / "e.jsonl",
            [
                json.dumps({"sentence_id": "s1", "vectors": [[1.0, 0.0], [0.0, 1.0]]}),
                json.dumps({"sentence_id": "s2", "vectors": [[1.0, 1.0]]}),
            ],
        )
        from agreekit.payloads import TokenSequence

        table = aio.load_embeddings(path)
        assert table.lookup(TokenSequence(tokens=("a", "b"), sentence_id="s1")).shape == (2, 2)
        assert table.lookup(TokenSequence(tokens=("c",), sentence_id="s2")).shape == (1, 2)

    def test_malformed_line_reported(self, tmp_path):
        path = write_lines(tmp_path / "e.jsonl", [json.dumps({"vectors": [[1.0]]})])
        with pytest.raises(DataError, match=r":1: malformed embedding"):
            aio.load_embeddings(path)

    def test_empty_rejected(self, tmp_path):
        path = write_lines(tmp_path / "e.jsonl", [""])
        with pytest.raises(DataError, match="no embeddings"):
            aio.load_embeddings(path)


class TestReportSerialization:
    def test_sorted_keys_and_trailing_newline(self):
        text = aio.report_json({"b": 1, "a": {"z": 1, "y": 2}})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert text.index('"y"') < text.index('"z"')

    def test_real_report_matches_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        sim = str(tmp_path / "d.jsonl")
        out = str(tmp_path / "r.json")
        assert main(["simulate", "--task", "vector", "--items", "8", "--seed", "3", "--out", sim]) == 0
        assert main(["compute", "--input", sim, "--distance", "euclidean", "--out", out]) == 0
        report = json.loads(open(out, "r", encoding="utf-8").read())
        jsonschema.validate(report, aio.REPORT_SCHEMA)
        assert report["distance"]["name"] == "euclidean"
        assert len(report["histograms"]["observed"]) == 50
        assert len(report["histograms"]["expected"]) == 50


@pytest.fixture()
def vector_file(tmp_path):
    path = str(tmp_path / "vec.jsonl")
    assert main(["simulate", "--task", "vector", "--items", "10", "--noise", "0.3", "--seed", "11", "--out", path]) == 0
    return path


@pytest.fixture()
def ranking_file(tmp_path):
    path = str(tmp_path / "rank.jsonl")
    assert main(["simulate", "--task", "ranking", "--items", "10", "--noise", "0.4", "--seed", "5", "--out", path]) == 0
    return path


class TestCliCompute:
    def test_prints_summary_and_writes_identical_reports(self, vector_file, tmp_path, capsys):
        out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert main(["compute", "--input", vector_file, "--distance", "euclidean", "--out", out1]) == 0
        text = capsys.readouterr().out
        assert "alpha" in text and "sigma" in text and "ks" in text
        assert main(["compute", "--input", vector_file, "--distance", "euclidean", "--out", out2]) == 0
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_builds_one_dataset(self, vector_file, monkeypatch, capsys):
        # merging --meta into a second Dataset sorted every record again
        calls = Counter()
        count_calls(monkeypatch, calls, Dataset, "from_columns")
        count_calls(monkeypatch, calls, Dataset, "__init__")
        ranges = json.dumps([[0, 1]] * 5)
        assert main(["compute", "--input", vector_file, "--distance", "euclidean",
                     "--meta", f"ranges={ranges}"]) == 0
        capsys.readouterr()
        assert calls == {"from_columns": 1}

    def test_p_and_de_samples_flow_into_report(self, vector_file, tmp_path):
        out = str(tmp_path / "r.json")
        assert main([
            "compute", "--input", vector_file, "--distance", "binary",
            "--p", "0.1", "--de-samples", "17", "--out", out,
        ]) == 0
        report = json.loads(open(out).read())
        assert report["p_threshold"] == 0.1
        assert report["counts"]["expected_pairs_used"] == 17

    def test_de_samples_all_uses_every_pair(self, vector_file, tmp_path):
        out = str(tmp_path / "r.json")
        assert main([
            "compute", "--input", vector_file, "--distance", "binary",
            "--de-samples", "all", "--out", out,
        ]) == 0
        counts = json.loads(open(out).read())["counts"]
        assert counts["expected_pairs_used"] == counts["expected_pairs_available"]

    def test_exact_ks_and_exclude_same_annotator(self, vector_file, tmp_path):
        out = str(tmp_path / "r.json")
        assert main([
            "compute", "--input", vector_file, "--distance", "euclidean",
            "--exact-ks", "200", "--exclude-same-annotator", "--kde-bandwidth", "0.05",
            "--out", out,
        ]) == 0
        report = json.loads(open(out).read())
        assert 0.0 < report["ks"]["pvalue"] <= 1.0

    def test_param_json_values(self, ranking_file, capsys):
        assert main([
            "compute", "--input", ranking_file, "--distance", "tau_at_k", "--param", "k=3",
        ]) == 0
        assert '"k": 3' in capsys.readouterr().out

    def test_unknown_distance_lists_registry(self, vector_file, capsys):
        assert main(["compute", "--input", vector_file, "--distance", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown distance" in err and "euclidean" in err

    def test_kind_mismatch_is_usage_error(self, vector_file):
        assert main(["compute", "--input", vector_file, "--distance", "tau"]) == 2

    def test_unknown_param_is_usage_error(self, vector_file):
        assert main(["compute", "--input", vector_file, "--distance", "binary", "--param", "zap=1"]) == 2

    def test_malformed_param_is_usage_error(self, vector_file):
        assert main(["compute", "--input", vector_file, "--distance", "binary", "--param", "k"]) == 2

    @pytest.mark.parametrize("task, distance, param", [
        ("boxes", "box_l2", "l2_scale=x"),
        ("ranking", "tau_at_k", "k=x"),
        ("vector", "euclidean", "ranges=[1,2]"),
        ("boxes", "box_l2", "l2_scale=NaN"),
        ("boxes", "box_l2", "l2_scale=Infinity"),
        ("boxes", "box_l2", "l2_scale=0"),
        ("boxes", "box_l2", "l2_scale=-1"),
    ])
    def test_malformed_param_value_is_usage_error(self, tmp_path, capsys, task, distance, param):
        path = str(tmp_path / f"{task}.jsonl")
        assert main(["simulate", "--task", task, "--items", "6", "--seed", "3", "--out", path]) == 0
        assert main(["compute", "--input", path, "--distance", distance, "--param", param]) == 2
        assert repr(distance) in capsys.readouterr().err

    @pytest.mark.parametrize("k", ["1.5", "true", "0", "-2"])
    def test_tau_at_k_needs_a_positive_integer_k(self, ranking_file, tmp_path, capsys, k):
        out = tmp_path / "r.json"
        argv = ["compute", "--input", ranking_file, "--distance", "tau_at_k", "--param", f"k={k}"]
        assert main(argv + ["--out", str(out)]) == 2
        assert "k must be an integer of at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_de_samples_is_usage_error(self, vector_file):
        assert main(["compute", "--input", vector_file, "--distance", "binary", "--de-samples", "zero"]) == 2
        assert main(["compute", "--input", vector_file, "--distance", "binary", "--de-samples", "0"]) == 2

    @pytest.mark.parametrize("argv, flag", [
        (["compute", "--distance", "binary", "--de-samples", "0"], "--de-samples"),
        (["compute", "--distance", "binary", "--de-samples", "zero"], "--de-samples"),
        (["hist", "--distance", "nosuch"], "unknown distance 'nosuch'"),
        (["compare", "--distances", "binary,nosuch"], "unknown distance 'nosuch'"),
        (["check-metric", "--distance", "nosuch"], "unknown distance 'nosuch'"),
        (["compute", "--distance", "tau", "--param", "k"], "--param expects key=value, got 'k'"),
        (["compute", "--distance", "binary", "--meta", "k"], "--meta expects key=value, got 'k'"),
        (["check-metric", "--distance", "tau", "--param", "k"],
         "--param expects key=value, got 'k'"),
        (["check-metric", "--distance", "binary", "--meta", "k"],
         "--meta expects key=value, got 'k'"),
    ], ids=["de-samples-0", "de-samples-word", "hist", "compare", "check-metric",
            "compute-param", "compute-meta", "check-metric-param", "check-metric-meta"])
    def test_flags_are_checked_before_the_input_is_read(self, tmp_path, capsys, argv, flag):
        # the input does not exist, which would be exit 3 if it were read first
        assert main([*argv, "--input", str(tmp_path / "missing.jsonl")]) == 2
        assert flag in capsys.readouterr().err

    def test_missing_required_flag_is_usage_error(self, vector_file, capsys):
        assert main(["compute", "--input", vector_file]) == 2
        capsys.readouterr()

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["compute", "--input", str(tmp_path / "nope.jsonl"), "--distance", "binary"]) == 3

    def test_malformed_file_is_data_error(self, tmp_path, capsys):
        path = write_lines(tmp_path / "bad.jsonl", ["{oops"])
        assert main(["compute", "--input", path, "--distance", "binary"]) == 3
        assert "malformed JSON" in capsys.readouterr().err

    def test_degenerate_distances_are_numeric_error(self, tmp_path, capsys):
        lines = [
            json.dumps({"item": f"i{i}", "annotator": f"a{j}", "kind": "vector", "label": [0.5]})
            for i in range(3)
            for j in range(2)
        ]
        path = write_lines(tmp_path / "flat.jsonl", lines)
        assert main(["compute", "--input", path, "--distance", "binary"]) == 4
        assert "degenerate" in capsys.readouterr().err


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ranges, values", [
        ([[-1e308, 0]], [1e308, -1e308, 0, 0]),  # a difference overflows
        ([[0, 5e-324]], [0, 5e-324, 1, 0]),  # a difference over its width overflows
    ])
    def test_non_finite_distances_are_numeric_error(self, tmp_path, capsys, ranges, values):
        lines = [
            json.dumps({"item": f"i{k // 2}", "annotator": f"a{k % 2}", "kind": "vector",
                        "label": [value]})
            for k, value in enumerate(values)
        ]
        path = write_lines(tmp_path / "huge.jsonl", lines)
        argv = ["compute", "--input", path, "--distance", "euclidean", "--allow-violations",
                "--meta", f"ranges={json.dumps(ranges)}"]
        assert main(argv) == 4
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("error:")] == [
            "error: observed euclidean distances are not all finite"]

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("distance", ["box_iou", "box_giou"])
    def test_boxes_at_the_float_limit_compute(self, tmp_path, capsys, distance):
        # widths, areas and hulls of these corners overflow unless the kernel scales them down
        labels = [[[-1e308, -1e308, 1e308, 1e308]], [[-1e308, 0, 1e308, 1e308]],
                  [[0, 0, 1e308, 5e307]], [[-5e307, -1e308, 1e308, 0]]]
        lines = [json.dumps({"item": f"i{k // 2}", "annotator": f"a{k % 2}", "kind": "boxes",
                             "label": label}) for k, label in enumerate(labels)]
        path, out = write_lines(tmp_path / "huge.jsonl", lines), tmp_path / "r.json"
        assert main(["compute", "--input", path, "--distance", distance, "--out", str(out)]) == 0
        assert "error:" not in capsys.readouterr().err
        assert math.isfinite(json.loads(out.read_text())["alpha"])

    @pytest.mark.parametrize("flag, value", [
        ("--param", "scale_default=0"),
        ("--param", "k_default=0"),
        ("--param", "scale_default=-1"),
        ("--param", "k_default=Infinity"),
        ("--meta", "oks_scale_default=NaN"),
        ("--meta", "oks_k_default=-1"),
    ])
    def test_oks_defaults_must_be_positive_and_finite(self, tmp_path, capsys, flag, value):
        # objects without their own scale and constants: the defaults are what OKS divides by
        lines = [
            json.dumps({"item": f"i{i}", "annotator": f"a{j}", "kind": "keypoints",
                        "label": [{"points": [[i, j], [1 + i, 2 * j]]}]})
            for i in range(3)
            for j in range(2)
        ]
        path = write_lines(tmp_path / "kp.jsonl", lines)
        out = tmp_path / "r.json"
        argv = ["compute", "--input", path, "--distance", "oks", "--meta", "oks_scale_default=2",
                "--meta", "oks_k_default=1", flag, value, "--out", str(out)]
        assert main(argv) == 2
        assert "must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scale, params, coincide", [
        (1e-170, ["k_default=1"], False),
        (1e-170, ["k_default=1"], True),
        (None, ["scale_default=1", "k_default=1e-160"], False),
        (None, ["scale_default=1", "k_default=1e-160"], True),
    ])
    def test_underflowing_oks_denominator_is_data_error(self, tmp_path, capsys, scale, params,
                                                        coincide):
        # 2 s^2 k^2 underflows: each term would be exp(-inf) = 0, or 0 / 0 where points coincide
        lines = [
            json.dumps({"item": f"i{i}", "annotator": f"a{j}", "kind": "keypoints",
                        "label": [{"points": [[i, 0 if coincide else j], [1 + i, 2]],
                                   **({} if scale is None else {"scale": scale})}]})
            for i in range(3)
            for j in range(2)
        ]
        path = write_lines(tmp_path / "kp.jsonl", lines)
        out = tmp_path / "r.json"
        argv = ["compute", "--input", path, "--distance", "oks", "--out", str(out)]
        for param in params:
            argv += ["--param", param]
        assert main(argv) == 3
        assert "2 s^2 k^2 underflows" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_box_square_is_numeric_error(self, tmp_path, capsys):
        # corners 1e200 apart: the square of their difference overflows
        lines = [
            json.dumps({"item": f"i{i}", "annotator": f"a{j}", "kind": "boxes",
                        "label": [[0, 0, 1e200 * (1 + i + j), 1]]})
            for i in range(3)
            for j in range(2)
        ]
        path = write_lines(tmp_path / "far.jsonl", lines)
        out = tmp_path / "r.json"
        assert main(["compute", "--input", path, "--distance", "box_l2", "--out", str(out)]) == 4
        assert "a squared difference overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_box_difference_is_numeric_error(self, tmp_path, capsys):
        # one-point boxes at x = -1e308 and 1e308: the difference itself overflows
        lines = [
            json.dumps({"item": f"i{i}", "annotator": f"a{j}", "kind": "boxes",
                        "label": [[1e308 * (-1) ** j, i, 1e308 * (-1) ** j, i]]})
            for i in range(3)
            for j in range(2)
        ]
        path = write_lines(tmp_path / "far.jsonl", lines)
        out = tmp_path / "r.json"
        assert main(["compute", "--input", path, "--distance", "box_l2", "--out", str(out)]) == 4
        assert "a squared difference overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_vector_square_is_numeric_error(self, tmp_path, capsys):
        lines = [
            json.dumps({"item": f"i{i}", "annotator": f"a{j}", "kind": "vector",
                        "label": [0.5, 1e300 if (i, j) == (1, 1) else 0.25]})
            for i in range(3)
            for j in range(2)
        ]
        path = write_lines(tmp_path / "big.jsonl", lines)
        out = tmp_path / "r.json"
        argv = ["compute", "--input", path, "--distance", "euclidean", "--allow-violations",
                "--meta", "ranges=[[0,1],[0,1]]", "--out", str(out)]
        assert main(argv) == 4
        assert "a squared difference overflows" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ranges", ["[1,2,3,4,5]", "5", "[[0,1],[0,1],[0,1],[0,1],[0]]",
                                        '[[0,1],[0,1],[0,1],[0,1],["0","1"]]'])
    def test_malformed_ranges_meta_is_data_error(self, vector_file, tmp_path, capsys, ranges):
        out = tmp_path / "r.json"
        argv = ["compute", "--input", vector_file, "--distance", "binary",
                "--meta", f"ranges={ranges}", "--out", str(out)]
        assert main(argv) == 3
        assert "ranges must be a list of [lo, hi] pairs of numbers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("meta", [5, "xy", [["universe", ["a"]]]])
    def test_malformed_meta_line_is_data_error(self, ranking_file, tmp_path, capsys, meta):
        lines = open(ranking_file).read().splitlines()
        lines.insert(2, json.dumps({"meta": meta}))
        path = write_lines(tmp_path / "m.jsonl", lines)
        out = tmp_path / "r.json"
        assert main(["compute", "--input", path, "--distance", "tau", "--out", str(out)]) == 3
        assert f"{path}:3: meta must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source, universe", [("flag", "5"), ("flag", "abc"), ("line", 5),
                                                  ("line", "abc")])
    def test_malformed_universe_is_data_error(self, ranking_file, tmp_path, capsys, source,
                                              universe):
        out = tmp_path / "r.json"
        argv = ["compute", "--distance", "tau", "--out", str(out), "--input"]
        if source == "flag":
            argv += [ranking_file, "--meta", f"universe={universe}"]
        else:
            # a later meta line overrides the simulated universe
            lines = open(ranking_file).read().splitlines()
            argv.append(write_lines(tmp_path / "u.jsonl",
                                    lines + [json.dumps({"meta": {"universe": universe}})]))
        assert main(argv) == 3
        assert "universe must be a list of elements" in capsys.readouterr().err
        assert not out.exists()

    def test_deeply_nested_line_is_data_error(self, tmp_path, capsys):
        # a tree 495 levels deep: 990 nested arrays overflow the JSON decoder's recursion
        deep = '["x", [' * 495 + '"x"' + "]]" * 495
        lines = [
            '{"item": "i%d", "annotator": "a%d", "kind": "tree", "label": %s}'
            % (i, j, deep if (i, j) == (1, 1) else '["x", [["y"]]]')
            for i in range(3)
            for j in range(2)
        ]
        path = write_lines(tmp_path / "deep.jsonl", lines)
        out = tmp_path / "r.json"
        assert main(["compute", "--input", path, "--distance", "ted", "--out", str(out)]) == 3
        assert f"{path}:4: nested too deeply" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("label, message", [
        ([[2.7, 5.2, "ORG"]], "span start must be a whole number, got 2.7"),
        ([[1, 5.5, "ORG"]], "span end must be a whole number, got 5.5"),
        ([[True, 5, "ORG"]], "span start must be a whole number, got True"),
        ([[0, math.inf, "ORG"]], "span end must be a whole number, got inf"),
    ])
    def test_span_offset_that_is_not_whole_is_data_error(self, tmp_path, capsys, label, message):
        lines = [
            json.dumps({"item": f"i{i}", "annotator": f"a{j}", "kind": "spans",
                        "label": label if (i, j) == (1, 1) else [[2.0, 5, "ORG"]]})
            for i in range(2)
            for j in range(2)
        ]
        path = write_lines(tmp_path / "spans.jsonl", lines)
        assert main(["compute", "--input", path, "--distance", "ner_both_lenient"]) == 3
        assert f"{path}:4: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("distance", [*NER_ENTRIES, "count_diff"])
    @pytest.mark.parametrize("label, message", [
        ([[0, 2**31, "ORG"]],
         "span [0, 2147483648) must end below 2**63 and be under 2**31 tokens wide"),
        ([[2**63, 2**63 + 2, "ORG"]], "span [9223372036854775808, 9223372036854775810) "
                                      "must end below 2**63 and be under 2**31 tokens wide"),
    ], ids=["too-wide", "beyond-int64"])
    def test_span_beyond_the_int64_bounds_is_data_error(self, tmp_path, capsys, distance, label,
                                                         message):
        lines = [
            json.dumps({"item": f"i{i}", "annotator": f"a{j}", "kind": "spans",
                        "label": label if (i, j) == (1, 1) else [[2, 5, "ORG"]]})
            for i in range(2)
            for j in range(2)
        ]
        path = write_lines(tmp_path / "spans.jsonl", lines)
        out = tmp_path / "r.json"
        assert main(["compute", "--input", path, "--distance", distance, "--out", str(out)]) == 3
        assert f"{path}:4: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_single_item_is_data_error(self, tmp_path, capsys):
        lines = [
            json.dumps({"item": "i0", "annotator": f"a{j}", "kind": "vector", "label": [0.1 * j]})
            for j in range(3)
        ]
        path = write_lines(tmp_path / "single.jsonl", lines)
        assert main(["compute", "--input", path, "--distance", "binary"]) == 3
        assert "expected pairs require at least two items" in capsys.readouterr().err


GOOD_LABELS = {"vector": [0.5, 0.5], "boxes": [[0, 0, 1, 1]],
               "keypoints": [{"points": [[0, 0], [1, 1]], "scale": 1.0}]}


class TestCliNonFiniteNumbers:
    # Python's json reads NaN, Infinity and -Infinity
    @pytest.mark.parametrize("kind, distance, label", [
        ("vector", "binary", [0.5, math.nan]),
        ("vector", "euclidean", [math.inf, 0.5]),
        ("boxes", "box_iou", [[0, 0, math.nan, 1]]),
        ("boxes", "box_l2", [[-math.inf, 0, 1, 1]]),
        ("keypoints", "oks", [{"points": [[0, 0], [1, math.nan]], "scale": 1.0}]),
        ("keypoints", "oks", [{"points": [[0, 0], [1, 1]], "scale": math.inf}]),
        ("keypoints", "oks", [{"points": [[0, 0], [1, 1]], "scale": 1.0, "k": [1.0, math.nan]}]),
    ])
    def test_non_finite_payload_numbers_are_data_error(self, tmp_path, capsys, kind, distance,
                                                       label):
        lines = [json.dumps({"meta": {"ranges": [[0, 1], [0, 1]]}})] + [
            json.dumps({"item": f"i{i}", "annotator": f"a{j}", "kind": kind,
                        "label": label if (i, j) == (1, 1) else GOOD_LABELS[kind]})
            for i in range(2)
            for j in range(2)
        ]
        path = write_lines(tmp_path / "bad.jsonl", lines)
        assert main(["compute", "--input", path, "--distance", distance]) == 3
        err = capsys.readouterr().err
        assert "bad.jsonl:5: " in err and "finite" in err

    @pytest.mark.parametrize("bounds, allow", [
        ("[0,Infinity]", False), ("[0,Infinity]", True),
        ("[-Infinity,1]", False), ("[-Infinity,1]", True),
        ("[0,NaN]", True),
    ])
    def test_non_finite_range_is_data_error(self, vector_file, tmp_path, capsys, bounds, allow):
        # an infinite width would drop its dimension from euclidean: (x - y) / inf is 0
        out = tmp_path / "r.json"
        ranges = ",".join(["[0,1]"] * 2 + [bounds] + ["[0,1]"] * 2)
        argv = ["compute", "--input", vector_file, "--distance", "euclidean",
                "--meta", f"ranges=[{ranges}]", "--out", str(out)]
        assert main(argv + ["--allow-violations"] * allow) == 3
        assert "non-finite range [" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_range_is_one_violation(self, vector_file, capsys):
        # 10 items x 3 annotators: checked value by value it was one violation per record
        ranges = ",".join(["[0,1]"] * 2 + ["[0,NaN]"] + ["[0,1]"] * 2)
        argv = ["compute", "--input", vector_file, "--distance", "euclidean",
                "--meta", f"ranges=[{ranges}]"]
        assert main(argv) == 3
        lines = [ln for ln in capsys.readouterr().err.splitlines() if ln.startswith("validation:")]
        assert lines == ["validation: range [0, nan] at dimension 2 has a NaN bound"]

    def test_non_finite_embeddings_are_data_error(self, tmp_path, capsys):
        data, _ = token_files(tmp_path)
        emb = write_lines(tmp_path / "nan.jsonl",
                          [json.dumps({"sentence_id": "s", "vectors": [[1.0, math.nan]]})])
        assert main(["compute", "--input", data, "--distance", "embedding_f1",
                     "--embeddings", emb]) == 3
        assert "embeddings for sentence 's' are not all finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--embeddings", "--param"])
    def test_embeddings_whose_norm_overflows_are_data_error(self, tmp_path, capsys, flag):
        data, emb = token_files(tmp_path)
        lines = open(emb).read().splitlines()
        lines[0] = '{"sentence_id": "i0::x", "vectors": [[1e155, 0.0], [0.0, 1.0]]}'
        write_lines(tmp_path / "emb.jsonl", lines)
        out = tmp_path / "r.json"
        value = emb if flag == "--embeddings" else f"embeddings={emb}"
        assert main(["compute", "--input", data, "--distance", "embedding_f1", flag, value,
                     "--out", str(out)]) == 3
        assert ("embeddings for sentence 'i0::x' have a row whose squared norm overflows"
                in capsys.readouterr().err)
        assert not out.exists()


# a 400-digit integer overflows float(), and a 5,001-digit one exceeds the digit limit
# of Python's int parsing, which json.loads raises as a ValueError of its own
BIG, HUGE = "9" * 400, "9" * 5001


def raw_label_file(tmp_path, kind, label):
    """2 items x 2 annotators of GOOD_LABELS[kind], the last line's label the raw JSON label."""
    lines = [json.dumps({"item": f"i{i}", "annotator": f"a{j}", "kind": kind,
                         "label": GOOD_LABELS[kind]}) for i in range(2) for j in range(2)]
    lines[-1] = lines[-1][: lines[-1].index('"label": ')] + f'"label": {label}}}'
    return write_lines(tmp_path / "big.jsonl", lines)


class TestCliIntegersTooLargeForAFloat:
    @pytest.mark.parametrize("kind, distance, label", [
        ("vector", "euclidean", "[{n}, 0.5]"),
        ("boxes", "box_iou", "[[0, 0, {n}, 1]]"),
        ("keypoints", "oks", '[{{"points": [[0, 0], [1, {n}]], "scale": 1.0}}]'),
        ("keypoints", "oks", '[{{"points": [[0, 0], [1, 1]], "scale": {n}}}]'),
    ], ids=["vector_value", "box_coordinate", "keypoint_coordinate", "keypoint_scale"])
    @pytest.mark.parametrize("digits, message", [
        (BIG, "malformed {kind} payload: int too large to convert to float"),
        (HUGE, "malformed JSON: Exceeds the limit"),
    ], ids=["400_digits", "5001_digits"])
    def test_payload_number_is_data_error(self, tmp_path, capsys, kind, distance, label, digits,
                                          message):
        path, out = raw_label_file(tmp_path, kind, label.format(n=digits)), tmp_path / "r.json"
        assert main(["compute", "--input", path, "--distance", distance, "--out", str(out)]) == 3
        assert f"big.jsonl:4: {message.format(kind=kind)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind, distance, flag, value", [
        ("boxes", "box_l2", "--param", "l2_scale={n}"),
        ("keypoints", "oks", "--param", "scale_default={n}"),
        ("vector", "euclidean", "--param", "ranges=[[0, {n}], [0, 1]]"),
        ("vector", "euclidean", "--meta", "ranges=[[0, {n}], [0, 1]]"),
        ("keypoints", "oks", "--meta", "oks_scale_default={n}"),
    ], ids=["param_l2_scale", "param_scale_default", "param_ranges", "meta_ranges",
            "meta_oks_scale_default"])
    @pytest.mark.parametrize("digits, message", [
        (BIG, "cannot configure distance '{distance}': int too large to convert to float"),
        (HUGE, "{flag} {key}: Exceeds the limit"),
    ], ids=["400_digits", "5001_digits"])
    def test_flag_number_is_usage_error(self, tmp_path, capsys, kind, distance, flag, value,
                                        digits, message):
        path = raw_label_file(tmp_path, kind, json.dumps(GOOD_LABELS[kind]))
        out, key = tmp_path / "r.json", value.split("=")[0]
        argv = ["compute", "--input", path, "--distance", distance, flag, value.format(n=digits)]
        assert main(argv + ["--out", str(out)]) == 2
        assert message.format(distance=distance, flag=flag, key=key) in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("digits, message", [
        (BIG, "embeddings for sentence 'i0::x' are not numeric: int too large to convert"),
        (HUGE, "emb.jsonl:1: malformed embedding line: Exceeds the limit"),
    ], ids=["400_digits", "5001_digits"])
    def test_embedding_number_is_data_error(self, tmp_path, capsys, digits, message):
        data, emb = token_files(tmp_path)
        lines = open(emb).read().splitlines()
        lines[0] = '{"sentence_id": "i0::x", "vectors": [[%s, 0.0], [0.0, 1.0]]}' % digits
        write_lines(tmp_path / "emb.jsonl", lines)
        out = tmp_path / "r.json"
        assert main(["compute", "--input", data, "--distance", "embedding_f1",
                     "--embeddings", emb, "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestCliNumericParametersMustBeNumbers:
    # JSON true and "1" are not numbers, though float() reads them as 1.0
    @pytest.mark.parametrize("kind, distance, flag, value, message", [
        ("boxes", "box_l2", "--param", "l2_scale=true", "l2_scale must be a number, got True"),
        ("boxes", "box_l2", "--param", 'l2_scale="20"', "l2_scale must be a number, got '20'"),
        ("keypoints", "oks", "--param", "scale_default=true",
         "scale_default must be a number, got True"),
        ("keypoints", "oks", "--param", 'k_default="1"', "k_default must be a number, got '1'"),
        ("keypoints", "oks", "--meta", "oks_scale_default=true",
         "scale_default must be a number, got True"),
        ("keypoints", "oks", "--meta", 'oks_k_default="1"', "k_default must be a number, got '1'"),
        ("vector", "euclidean", "--param", "ranges=[[false, true], [0, 1]]",
         "a ranges bound must be a number, got False"),
        ("vector", "euclidean", "--param", 'ranges=[["0", "1"], [0, 1]]',
         "a ranges bound must be a number, got '0'"),
    ], ids=["param_l2_scale_bool", "param_l2_scale_string", "param_scale_default_bool",
            "param_k_default_string", "meta_oks_scale_default_bool", "meta_oks_k_default_string",
            "param_ranges_bool", "param_ranges_string"])
    def test_a_bool_or_string_is_usage_error(self, tmp_path, capsys, kind, distance, flag, value,
                                             message):
        path, out = raw_label_file(tmp_path, kind, json.dumps(GOOD_LABELS[kind])), tmp_path / "r.json"
        argv = ["compute", "--input", path, "--distance", distance, flag, value, "--out", str(out)]
        assert main(argv) == 2
        assert f"error: cannot configure distance '{distance}': {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ['[["0", "1"], [0, 1]]', "[[false, true], [0, 1]]"])
    def test_meta_ranges_of_bools_or_strings_stay_a_data_error(self, tmp_path, capsys, value):
        path = raw_label_file(tmp_path, "vector", json.dumps(GOOD_LABELS["vector"]))
        argv = ["compute", "--input", path, "--distance", "euclidean", "--meta", f"ranges={value}"]
        assert main(argv) == 3
        assert "ranges must be a list of [lo, hi] pairs of numbers" in capsys.readouterr().err


class TestCliMeasureFlags:
    @pytest.mark.parametrize("command", ["compute", "compare", "hist"])
    @pytest.mark.parametrize("flag, value", [
        ("--p", "1.5"), ("--p", "-1"), ("--p", "0"), ("--p", "nan"),
        ("--kde-bandwidth", "nan"), ("--kde-bandwidth", "inf"),
        ("--kde-bandwidth", "0"), ("--kde-bandwidth", "-0.1"),
        ("--exact-ks", "-3"),
    ])
    def test_out_of_range_is_usage_error(self, vector_file, tmp_path, capsys, command, flag, value):
        out = tmp_path / "r.out"
        distance = "--distances" if command == "compare" else "--distance"
        argv = [command, "--input", vector_file, distance, "euclidean", flag, value, "--out", str(out)]
        assert main(argv) == 2
        assert flag in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compute", "compare", "hist", "simulate"])
    def test_negative_seed_is_usage_error(self, vector_file, tmp_path, capsys, command):
        out = tmp_path / "r.out"
        if command == "simulate":
            argv = [command, "--task", "vector", "--items", "3"]
        else:
            distance = "--distances" if command == "compare" else "--distance"
            argv = [command, "--input", vector_file, distance, "euclidean"]
        assert main(argv + ["--seed", "-1", "--out", str(out)]) == 2
        assert "--seed" in capsys.readouterr().err
        assert not out.exists()

    def test_p_of_one_is_accepted(self, vector_file, tmp_path):
        out = str(tmp_path / "r.json")
        assert main(["compute", "--input", vector_file, "--distance", "euclidean", "--p", "1", "--out", out]) == 0
        assert json.loads(open(out).read())["p_threshold"] == 1.0


def run_python(code, *argv):
    """Run code in a fresh interpreter that imports this checkout's agreekit."""
    src = os.path.dirname(os.path.dirname(agreekit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=300
    )


# runs `agree` argv under a 4 GB address-space limit; prints ru_maxrss (KB)
LIMITED_AGREE = """
import resource, sys
limit = 4096 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from agreekit.cli import main
code = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
sys.exit(code)
"""


def test_ten_thousand_items_compute_under_two_gigabytes(tmp_path):
    data, out = str(tmp_path / "vec.jsonl"), str(tmp_path / "r.json")
    assert main(["simulate", "--task", "vector", "--items", "10000", "--annotators", "3", "--out", data]) == 0
    proc = run_python(LIMITED_AGREE, "compute", "--input", data, "--distance", "euclidean", "--out", out)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert int(proc.stdout.splitlines()[-1]) / 1024 < 2048
    counts = json.loads(open(out).read())["counts"]
    assert (counts["observed_pairs"], counts["expected_pairs_used"]) == (30_000, 300_000)


# runs `agree` argv and prints the child's own peak resident set (VmHWM, KB); its ru_maxrss
# would start at the parent's peak, which Linux carries across execve
PEAK_AGREE = """
import sys
from agreekit.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM is Linux's")
@pytest.mark.parametrize("task, distance", [("spans", "ner_both_lenient"), ("boxes", "box_iou")])
def test_ten_thousand_item_set_lifts_peak_under_256_megabytes(tmp_path, task, distance):
    # the set kernels score one shape group of pairs at a time, not every object pair at once.
    # 10,000 x 3: ten copies of a simulated 1,000 x 3 set, each under its own item names
    small, out = str(tmp_path / "small.jsonl"), str(tmp_path / "r.json")
    assert main(["simulate", "--task", task, "--items", "1000", "--annotators", "3", "--out", small]) == 0
    meta, *lines = open(small).read().splitlines()
    records = [json.loads(line) for line in lines]
    data = write_lines(tmp_path / "data.jsonl", [meta] + [
        json.dumps(dict(record, item=f"{record['item']}-{copy}"))
        for copy in range(10) for record in records])
    proc = run_python(PEAK_AGREE, "compute", "--input", data, "--distance", distance, "--out", out)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert int(proc.stdout.splitlines()[-1]) / 1024 < 256
    assert json.loads(open(out).read())["counts"]["expected_pairs_used"] == 300_000


@pytest.mark.parametrize("distance, alpha", [("ner_both_lenient", 0.75), ("ner_strict_tag", 0.75),
                                             ("ner_strict_range", 0.5), ("ner_both_strict", 0.5)])
def test_far_span_offsets_compute_under_one_gigabyte(tmp_path, distance, alpha):
    # two annotators of two items; the first item's 2-token spans lie 10**10 tokens in
    labels = [[[10**10, 10**10 + 2, "X"]], [[10**10 + 1, 10**10 + 3, "X"]], [[0, 2, "X"]],
              [[0, 2, "X"]]]
    path = write_lines(tmp_path / "far.jsonl", [
        json.dumps({"item": f"i{k // 2}", "annotator": f"a{k % 2}", "kind": "spans", "label": label})
        for k, label in enumerate(labels)
    ])
    out = str(tmp_path / "r.json")
    proc = run_python(LIMITED_AGREE.replace("4096 * 2**20", "1024 * 2**20"), "compute",
                      "--input", path, "--distance", distance, "--out", out)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(open(out).read())["alpha"] == alpha


# offsets at and around the span bounds and the float and JSON integer limits, and values
# that are no offsets; tags empty, NUL or ending in one
FUZZ_OFFSETS = [0, 1, 2**31 - 1, 2**31 + 1, 2**53 + 1, 2**62, 2**63 - 1, 2**63 + 1, 10**30, -1,
                3.0, 2.7, True, False]
FUZZ_TAGS = ["X", "Y", "", "\u0000", "X\u0000"]


@st.composite
def fuzz_span_files(draw):
    """4-6 spans labels of 0-2 spans, for items of 2 annotators. A file's spans start at
    one of 1-2 drawn offsets and end 1-3 tokens past it, or, in one file of two, at a
    drawn offset half the time."""
    starts = st.sampled_from(draw(st.lists(st.sampled_from(FUZZ_OFFSETS), min_size=1, max_size=2)))
    wild_ends = draw(st.booleans())

    def span():
        start = draw(starts)
        end = (draw(st.sampled_from(FUZZ_OFFSETS)) if wild_ends and draw(st.booleans())
               else start + draw(st.integers(1, 3)))
        return [start, end, draw(st.sampled_from(FUZZ_TAGS))]

    return [
        json.dumps({"item": f"i{k // 2}", "annotator": f"a{k % 2}", "kind": "spans",
                    "label": [span() for _ in range(draw(st.integers(0, 2)))]})
        for k in range(draw(st.integers(4, 6)))
    ]


@settings(max_examples=150, deadline=None)
@given(lines=fuzz_span_files(), distance=st.sampled_from([*NER_ENTRIES, "count_diff"]))
def test_spans_compute_ends_in_a_clean_exit(lines, distance):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spans.jsonl")
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        out = os.path.join(tmp, "r.json")
        code = main(["compute", "--input", path, "--distance", distance, "--out", out])
        assert code in {0, 2, 3, 4}
        assert os.path.exists(out) == (code == 0)


# tokens: empty and NUL strings, numbers at the float and JSON integer limits, booleans, null
# and nested lists; sentence ids numeric, boolean, null or text; embedding values at the limits
FUZZ_TOKENS = ["a", "b", "", "\u0000", "a\u0000", 0, -1.5, 2**53 + 1, 10**30, 1e308, 5e-324,
               True, False, None, [], ["a", [0]]]
FUZZ_SENTENCE_IDS = [0, 5, -1, 2**53 + 1, 1.5, True, False, None, "5", ""]
FUZZ_VECTOR_VALUES = [0.0, 1.0, -1.0, 1e308, 5e-324]
# tree labels, and the depths of the one chain a file may hold (494 is the deepest that loads
# in a fresh interpreter; in process, under the test runner's frames, it is a data error)
FUZZ_TREE_LABELS = ["x", "y", "", "\u0000", 0, -1.5, 10**30, True, None, [], ["x", [0]]]
FUZZ_DEPTHS = [2, 60, 300, 494]
TOKEN_AND_TREE_ENTRIES = ["levenshtein", "bleu", "gleu", "embedding_f1", "ted", "ted_norm", "ted_diff"]


@st.composite
def fuzz_token_files(draw):
    """4-6 labels, for items of 2 annotators, half of them objects with a drawn sentence_id,
    and an embedding line per label. In one file of two, labels hold 1-3 tokens, the drawn
    ids differ as text and each label has one row per token; in the other, labels hold 0-3
    tokens, ids may repeat or be null, and the rows are one per token give or take one."""
    tidy, values = draw(st.booleans()), st.sampled_from(FUZZ_VECTOR_VALUES)
    n = draw(st.integers(4, 6))
    ids = draw(st.lists(st.sampled_from([i for i in FUZZ_SENTENCE_IDS if not tidy or i is not None]),
                        min_size=n, max_size=n, unique_by=str if tidy else None))
    lines, embeddings = [], []
    for k, sid in enumerate(ids):
        tokens = draw(st.lists(st.sampled_from(FUZZ_TOKENS), min_size=int(tidy), max_size=3))
        label = {"tokens": tokens, "sentence_id": sid}
        if draw(st.booleans()):
            label, sid = tokens, f"i{k // 2}::a{k % 2}"
        rows = len(tokens) + (0 if tidy else draw(st.integers(-1, 1)))
        lines.append(json.dumps({"item": f"i{k // 2}", "annotator": f"a{k % 2}", "kind": "tokens",
                                 "label": label}))
        embeddings.append(json.dumps({"sentence_id": sid, "vectors": [
            [draw(values), draw(values)] for _ in range(max(rows, 0))]}))
    return lines, embeddings


@st.composite
def fuzz_tree_files(draw):
    """4-6 trees of up to 3 levels, for items of 2 annotators, with nodes as [label], a bare
    label or [label, [children]]; half the files make one tree a chain of a drawn depth."""
    labels = st.sampled_from(FUZZ_TREE_LABELS)

    def node(levels):
        if levels and draw(st.booleans()):
            return [draw(labels), [node(levels - 1) for _ in range(draw(st.integers(0, 2)))]]
        return [draw(labels)] if draw(st.booleans()) else draw(labels)

    trees = [json.dumps(node(3)) for _ in range(draw(st.integers(4, 6)))]
    if draw(st.booleans()):
        depth = draw(st.sampled_from(FUZZ_DEPTHS))
        trees[draw(st.integers(0, len(trees) - 1))] = '["x", [' * depth + '"x"' + "]]" * depth
    return [
        '{"item": "i%d", "annotator": "a%d", "kind": "tree", "label": %s}' % (k // 2, k % 2, tree)
        for k, tree in enumerate(trees)
    ], []


@settings(max_examples=150, deadline=None)
@given(data=st.data(), distance=st.sampled_from(TOKEN_AND_TREE_ENTRIES))
def test_tokens_and_trees_compute_ends_in_a_clean_exit(data, distance):
    files = fuzz_tree_files() if distance.startswith("ted") else fuzz_token_files()
    lines, embeddings = data.draw(files)
    with tempfile.TemporaryDirectory() as tmp:
        path, emb, out = (os.path.join(tmp, name) for name in ("d.jsonl", "e.jsonl", "r.json"))
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        with open(emb, "w", encoding="utf-8") as f:
            f.write("\n".join(embeddings) + "\n")
        argv = ["compute", "--input", path, "--distance", distance, "--out", out]
        code = main(argv + (["--embeddings", emb] if distance == "embedding_f1" else []))
        assert code in {0, 2, 3, 4}
        assert os.path.exists(out) == (code == 0)


# numbers at the float and JSON integer limits, and Python json's NaN and Infinity tokens;
# ranking elements empty, NUL, numeric, boolean or null; tau_at_k k values, whole or not
FUZZ_NUMBERS = [0, 1, -1, 0.5, 2, 1e308, -1e308, 5e-324, 2**53 + 1, 1e30, -1e30, math.nan,
                math.inf, -math.inf]
FUZZ_ELEMENTS = ["a", "b", "c", "", "\u0000", "a\u0000", 0, -1.5, 2**53 + 1, 1e308, True, None]
FUZZ_KS = [1, 2, 3, 2**53 + 1, 10**30, 0, -1, 1.5, 1e308, math.nan, True, "x"]
NUMERIC_ENTRIES = {"vector": ["binary", "euclidean"],
                   "boxes": ["box_l2", "box_iou", "box_giou", "count_diff"],
                   "keypoints": ["oks", "bbox_iou", "count_diff"],
                   "ranking": ["tau", "rho", "tau_at_k"]}


@st.composite
def fuzz_numeric_files(draw, kind, distance):
    """Lines of 4-6 labels of the kind, for items of 2 annotators, with a meta line, and the
    --param flags. In one file of two, items are whole, numbers finite, boxes' corners in
    order, keypoint objects of one size, rankings permutations of one universe, and meta and
    params well formed and meant for the distance; in the other, numbers may be NaN or
    infinite, and shapes, lengths, meta and params are anything drawn."""
    tidy = draw(st.booleans())
    mine = draw(st.booleans()) if tidy else True  # a param for the distance, or any param
    numbers = st.sampled_from([x for x in FUZZ_NUMBERS if not tidy or math.isfinite(x)])
    anything = st.sampled_from([*FUZZ_NUMBERS, "x", None, [], [1, 2, 3], [[0]], [[0, "1"]]])

    def pair():
        lo_hi = [draw(numbers), draw(numbers)]
        return sorted(lo_hi) if tidy else lo_hi

    def positive():
        return draw(st.sampled_from([x for x in FUZZ_NUMBERS if x > 0]) if tidy else numbers)

    def or_wild(value):
        """The value, or in a wild file, one time in two, anything drawn."""
        return value if tidy or draw(st.booleans()) else draw(anything)

    n, meta, params = draw(st.sampled_from([4, 6] if tidy else [4, 5, 6])), {}, {}
    if kind == "vector":
        dim = draw(st.integers(1, 3))
        labels = [[draw(numbers) for _ in range(dim if tidy else draw(st.integers(0, 3)))]
                  for _ in range(n)]
        if tidy or draw(st.booleans()):
            meta["ranges"] = or_wild([pair() for _ in range(dim)])
    elif kind == "boxes":
        def box():
            (x0, x1), (y0, y1) = pair(), pair()
            return [x0, y0, x1, y1]

        labels = [[box() for _ in range(draw(st.integers(0, 2)))] for _ in range(n)]
        if draw(st.booleans()) and (distance == "box_l2" or not mine):
            params["l2_scale"] = positive()
    elif kind == "keypoints":
        size = draw(st.integers(1, 3))

        def obj():
            points = [[draw(numbers), draw(numbers)]
                      for _ in range(size if tidy else draw(st.integers(1, 3)))]
            out = {"points": points}
            if draw(st.booleans()):
                out["scale"] = positive()
            if draw(st.booleans()):
                out["k"] = or_wild([positive() for _ in points])
            return out

        labels = [[obj() for _ in range(draw(st.integers(0, 2)))] for _ in range(n)]
        for key in ("oks_scale_default", "oks_k_default"):
            if tidy or draw(st.booleans()):
                meta[key] = or_wild(positive())
        for key in ("scale_default", "k_default"):
            if draw(st.booleans()) and (distance == "oks" or not mine):
                params[key] = positive()
    else:
        universe = draw(st.lists(st.sampled_from(FUZZ_ELEMENTS), min_size=1, max_size=4,
                                 unique_by=str))
        labels = [draw(st.permutations(universe)) if tidy or draw(st.booleans())
                  else draw(st.lists(st.sampled_from(FUZZ_ELEMENTS), max_size=4))
                  for _ in range(n)]
        if draw(st.booleans()):
            meta["universe"] = or_wild(universe)
        if draw(st.booleans()) and (distance == "tau_at_k" or not mine):
            params["k"] = draw(st.sampled_from(FUZZ_KS[:5] if tidy else FUZZ_KS))
    lines = [json.dumps({"meta": meta})] + [
        json.dumps({"item": f"i{k // 2}", "annotator": f"a{k % 2}", "kind": kind, "label": label})
        for k, label in enumerate(labels)
    ]
    return lines, params


@pytest.mark.parametrize("kind", sorted(NUMERIC_ENTRIES))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_numeric_kinds_compute_ends_in_a_clean_exit(kind, data):
    distance = data.draw(st.sampled_from(NUMERIC_ENTRIES[kind]), label="distance")
    lines, params = data.draw(fuzz_numeric_files(kind, distance), label="file")
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "d.jsonl"), os.path.join(tmp, "r.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        argv = ["compute", "--input", path, "--distance", distance, "--out", out]
        for key, value in params.items():
            argv += ["--param", f"{key}={json.dumps(value)}"]
        if data.draw(st.booleans(), label="--allow-violations"):
            argv.append("--allow-violations")
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        assert code in {0, 2, 3, 4}
        assert os.path.exists(out) == (code == 0)
        if distance in ("box_iou", "box_giou"):  # scale-free: no finite box overflows them
            assert "not all finite" not in err.getvalue()


@pytest.mark.parametrize("distance", ["ted", "ted_norm", "ted_diff"])
def test_the_deepest_tree_that_loads_computes(tmp_path, distance):
    # 494 levels: 988 nested arrays, the most a fresh interpreter's JSON decoder reads
    deep = '["x", [' * 494 + '"x"' + "]]" * 494
    path = write_lines(tmp_path / "deep.jsonl", [
        '{"item": "i%d", "annotator": "a%d", "kind": "tree", "label": %s}'
        % (i, j, deep if (i, j) == (1, 1) else '["x", [["y"]]]')
        for i in range(3)
        for j in range(2)
    ])
    out = str(tmp_path / "r.json")
    proc = run_python(LIMITED_AGREE, "compute", "--input", path, "--distance", distance, "--out", out)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(open(out).read())["counts"]["observed_pairs"] == 3


# a fresh interpreter that runs `agree` argv and exits with its code
AGREE = """
import sys
from agreekit.cli import main
sys.exit(main(sys.argv[1:]))
"""


def under_frames(depth, fn, *args):
    """fn(*args), called depth frames further down the stack."""
    return fn(*args) if depth == 0 else under_frames(depth - 1, fn, *args)


@pytest.mark.parametrize("levels, code", [(490, 0), (500, 3)])
def test_tree_depth_does_not_depend_on_the_callers_stack(tmp_path, capsys, levels, code):
    # 2 * levels nested arrays on line 1, read 100 frames down in this process and in a
    # fresh one: the same exit code, output and report, or the same error line
    deep = '["x", [' * levels + '"x"' + "]]" * levels
    path = write_lines(tmp_path / "deep.jsonl", [
        '{"item": "i%d", "annotator": "a%d", "kind": "tree", "label": %s}'
        % (i, j, deep if (i, j) == (0, 0) else '["x", [["y"]]]')
        for i in range(2)
        for j in range(2)
    ])
    argv = ["compute", "--input", path, "--distance", "ted", "--out"]
    here, there = tmp_path / "here.json", tmp_path / "there.json"
    assert under_frames(100, main, argv + [str(here)]) == code
    captured = capsys.readouterr()
    proc = run_python(AGREE, *argv, str(there))
    assert proc.returncode == code, proc.stderr[-2000:]
    assert (captured.out, captured.err) == (proc.stdout, proc.stderr)
    if code:
        assert proc.stderr == f"error: {path}:1: nested too deeply\n"
        assert not here.exists() and not there.exists()
    else:
        assert here.read_text() == there.read_text()


def test_load_dataset_raises_what_the_reading_thread_raises(tmp_path):
    # the file is read in a worker thread; its errors reach the caller as they were raised,
    # and no thread is left behind
    before = threading.active_count()
    absent = str(tmp_path / "absent.jsonl")
    with pytest.raises(FileNotFoundError) as missing:
        aio.load_dataset(absent)
    assert missing.value.filename == absent
    path = write_lines(tmp_path / "t.jsonl", [json.dumps({"item": "i", "annotator": "a"})])
    with pytest.raises(DataError, match=r":1: missing field"):
        aio.load_dataset(path)
    assert threading.active_count() == before


def test_check_metric_compares_trees_of_any_depth(tmp_path, capsys):
    # check-metric skips repeated payloads; the dataclass == recursed through each of the 490
    # levels of two equal trees that compute scores, and ended in a RecursionError traceback
    deep = '["x", [' * 490 + '"x"' + "]]" * 490
    path = write_lines(tmp_path / "deep.jsonl", [
        '{"item": "i%d", "annotator": "a%d", "kind": "tree", "label": %s}'
        % (i, j, deep if j == 0 else '["x", [["y"]]]')
        for i in range(2)
        for j in range(2)
    ])
    argv = ["check-metric", "--input", path, "--distance", "ted"]
    assert under_frames(100, main, argv) == 0
    captured = capsys.readouterr()
    proc = run_python(AGREE, *argv)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert captured.out == proc.stdout
    assert proc.stdout.startswith("payloads=2, ") and proc.stdout.endswith("\nok\n")


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("flag", ["--input", "--embeddings"])
def test_bytes_that_are_not_utf8_are_a_fault_of_their_line(tmp_path, capsys, flag, end):
    # the byte 0xff on line 4 alone: text decoding read ahead and raised before line 1 was
    # read, a traceback; it is line 4's fault, unless an earlier line is faulty
    data, emb = token_files(tmp_path)
    path = data if flag == "--input" else emb
    argv = ["compute", "--input", data, "--distance", "embedding_f1", "--embeddings", emb]

    def run(lines):
        with open(path, "wb") as f:
            f.write(end.encode().join(lines) + end.encode())
        return main(argv), capsys.readouterr().err

    lines = open(path, "rb").read().splitlines()
    assert run(lines) == (0, "")
    lines[3] = lines[3].replace(b'y"', b'\xffy"')
    with pytest.raises(UnicodeDecodeError) as bad:
        lines[3].decode("utf-8")
    assert run(lines) == (3, f"error: {path}:4: not UTF-8: {bad.value}\n")
    lines[1] = lines[1][:-1]  # a malformed line 2 comes first
    code, err = run(lines)
    malformed = "malformed JSON" if flag == "--input" else "malformed embedding line"
    assert code == 3 and err.startswith(f"error: {path}:2: {malformed}") and err.count("\n") == 1


def test_de_samples_all_above_two_million_candidates(tmp_path):
    # 2,002 annotations: 2,003,001 candidate pairs, above the 2,000,000 past which a sample is
    # rejection-sampled; "all" takes every admissible pair instead
    data, out = str(tmp_path / "vec.jsonl"), str(tmp_path / "r.json")
    aio.write_dataset(data, uniform_random_vector_dataset(1001, 2, 1, seed=0))
    proc = run_python(LIMITED_AGREE, "compute", "--input", data, "--distance", "binary",
                      "--de-samples", "all", "--out", out)
    assert proc.returncode == 0, proc.stderr[-2000:]
    counts = json.loads(open(out).read())["counts"]
    assert counts["observed_pairs"] == 1001
    assert counts["expected_pairs_used"] == counts["expected_pairs_available"] == 2_002_000


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    readme = open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8").read()
    (code,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    monkeypatch.chdir(tmp_path)
    assert main([
        "simulate", "--task", "ranking", "--items", "30", "--annotators", "3", "--noise", "0.25",
        "--seed", "7", "--out", "demo.jsonl",
    ]) == 0
    exec(compile(code, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # the same figures as the README's quick-start compute and compare
    assert f"{float(lines[0].split()[0]):.4f}" == "0.7430"
    assert [(ln.split()[0], f"{float(ln.split()[1]):.4f}") for ln in lines[1:]] == [
        ("tau", "0.7430"), ("rho", "0.8798")
    ]


# runs `agree` argv in a fresh interpreter; prints whether numpy.ma was imported
AGREE_REPORTING_NUMPY_MA = """
import sys
from agreekit.cli import main
code = main(sys.argv[1:])
print("numpy.ma" in sys.modules)
sys.exit(code)
"""


@pytest.mark.parametrize("task, shape, argv", [
    pytest.param("ranking", ("30", "3"), ["compute", "--distance", "tau"], id="ranking-tau"),
    pytest.param("vector", ("30", "3"), ["compute", "--distance", "euclidean"],
                 id="vector-euclidean"),
    pytest.param("spans", ("30", "3"), ["compute", "--distance", "ner_both_lenient"],
                 id="spans-ner"),
    pytest.param("boxes", ("30", "3"), ["compute", "--distance", "box_iou"], id="boxes-iou"),
    # 2,002 records: over 2,000,000 candidate pairs, so the rejection sampler runs too
    pytest.param("boxes", ("1001", "2"), ["compare", "--distances", "box_iou,count_diff",
                                          "--exact-ks", "50"], id="boxes-compare"),
])
def test_reports_leave_numpy_ma_unimported(tmp_path, task, shape, argv):
    # np.unique, np.quantile, np.percentile and np.isin import numpy.ma on first use, which
    # costs a cold report ~10 ms
    demo, out = str(tmp_path / "demo.jsonl"), str(tmp_path / "r.json")
    items, annotators = shape
    assert main(["simulate", "--task", task, "--items", items, "--annotators", annotators,
                 "--out", demo]) == 0
    proc = run_python(AGREE_REPORTING_NUMPY_MA, *argv, "--input", demo, "--out", out)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "False"


# a bare `import agreekit`, then `agree` argv; prints the agreekit modules loaded after each
AGREE_LISTING_MODULES = """
import json, sys
import agreekit
bare = sorted(m for m in sys.modules if m.startswith("agreekit."))
from agreekit.cli import main
code = main(sys.argv[1:])
print(json.dumps([bare, sorted(m for m in sys.modules if m.startswith("agreekit."))]))
sys.exit(code)
"""


@pytest.mark.parametrize("argv", [
    ["compute", "--distance", "tau"],
    ["compare", "--distances", "tau,rho", "--exact-ks", "20"],
    ["hist", "--distance", "rho"],
], ids=lambda argv: argv[0])
def test_reports_leave_the_simulator_and_the_checker_unimported(tmp_path, argv):
    demo = str(tmp_path / "demo.jsonl")
    assert main(["simulate", "--task", "ranking", "--items", "20", "--out", demo]) == 0
    proc = run_python(AGREE_LISTING_MODULES, *argv, "--input", demo, "--out",
                      str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr[-2000:]
    bare, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert bare == []
    assert "agreekit.stats" in loaded
    assert "agreekit.noise" not in loaded and "agreekit.properties" not in loaded


# today's public root names, by the module that defines each
ROOT_API = {
    "dataset": ("AnnotationRecord", "Dataset", "validate_dataset"),
    "errors": ("AgreeError", "DataError", "NumericError", "UsageError"),
    "kde": ("KdeModel", "fit_kde", "kde_cdf", "scott_bandwidth"),
    "noise": ("NoiseSpec", "generate_cst_dataset", "perturb", "random_gold"),
    "payloads": ("Box", "BoxSet", "KeypointObject", "KeypointSet", "NumericVector",
                 "OrderedTree", "Ranking", "Span", "SpanSet", "TokenSequence"),
    "properties": ("PropertyReport", "check_metric_properties"),
    "registry": ("DistanceSpec", "make_spec", "registry_names", "registry_summary"),
    "stats": ("AgreementReport", "DistanceSamples", "KsResult", "agreement_report",
              "agreement_reports", "expected_pairs", "krippendorff_alpha", "ks_measure",
              "ks_statistic", "observed_pairs", "sigma_measure"),
}


def test_the_root_names_are_the_defining_modules_objects():
    names = sorted([name for names in ROOT_API.values() for name in names] + ["__version__"])
    assert len(names) == 43
    assert sorted(agreekit.__all__) == names
    star: dict = {}
    exec("from agreekit import *", star)
    for module, defined in ROOT_API.items():
        for name in defined:
            obj = getattr(importlib.import_module(f"agreekit.{module}"), name)
            assert getattr(agreekit, name) is obj and star[name] is obj, name
    assert star["__version__"] == agreekit.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        agreekit.no_such_name
    # each module that `import agreekit` alone made reachable as agreekit.<module> still is
    modules = [*ROOT_API, "distances"]
    proc = run_python("import sys, agreekit; print(all(getattr(agreekit, m) is "
                      "sys.modules['agreekit.' + m] for m in sys.argv[1:]))", *modules)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "True"


def test_simulate_rejects_a_task_it_cannot_generate(capsys):
    assert main(["simulate", "--task", "tree"]) == 2
    err = capsys.readouterr().err
    assert "argument --task: invalid choice: 'tree'" in err
    # some Python versions quote the choices, others do not
    assert re.search(r"choose from '?ranking'?, '?vector'?, '?spans'?, '?boxes'?\)", err), err


# what perfbench/tracing.py wraps by name, and what perfbench/run.py's probe calls
BENCHMARK_HOOKS = {
    "io": ("load_dataset", "write_report"),
    "cli": ("validate_dataset", "count_expected_pairs"),
    "stats": ("validate_dataset", "count_expected_pairs", "observed_pairs", "expected_pairs",
              "sigma_measure", "ks_measure", "histogram", "diagnostics_flags"),
    "registry": ("make_spec", "registry_summary"),
}


def test_the_benchmark_hooks_resolve():
    from agreekit import cli, noise, registry, stats

    modules = {"io": aio, "cli": cli, "stats": stats, "registry": registry}
    missing = [f"{module}.{name}" for module, names in BENCHMARK_HOOKS.items()
               for name in names if not callable(getattr(modules[module], name, None))]
    assert not missing
    for task in noise.TASKS:
        gold, meta = noise.random_gold(task, 12, 3)
        ds = noise.generate_cst_dataset(gold, noise.NoiseSpec(task, 0.25, 3, 3), meta=meta)
        planned = stats.observed_pairs(ds) + stats.expected_pairs(
            ds, min(60, stats.count_expected_pairs(ds)), 3)
        pairs = [(a.payload, b.payload) for a, b in planned]
        for entry, kinds, _summary, _dissimilarity in registry.registry_summary():
            if task not in kinds:
                continue
            spec = registry.make_spec(entry, task, meta=ds.meta)
            flat = [payload for pair in pairs for payload in pair]
            batch = spec.batch(flat, np.arange(0, len(flat), 2), np.arange(1, len(flat), 2)).tolist()
            assert [spec.fn(a, b) for a, b in pairs] == batch, entry
            # the tracer swaps fn by dataclasses.replace; the batch path keeps its kernel
            traced = dataclasses.replace(spec, fn=lambda a, b: -1.0)
            assert traced.fn(*pairs[0]) == -1.0
            assert traced.batch(flat, np.array([0]), np.array([1])).tolist() == batch[:1]


# runs `agree` argv in a fresh interpreter; with "block" first, every scipy import raises
AGREE_WITHOUT_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"{name} is not installed")

if sys.argv[1] == "block":
    sys.meta_path.insert(0, NoScipy())
from agreekit.cli import main
sys.exit(main(sys.argv[2:]))
"""


def test_agree_runs_without_scipy(tmp_path):
    demo = str(tmp_path / "demo.jsonl")
    assert main([
        "simulate", "--task", "ranking", "--items", "30", "--annotators", "3", "--noise", "0.25",
        "--seed", "7", "--out", demo,
    ]) == 0
    for argv, figure in [
        (["compute", "--input", demo, "--distance", "tau", "--seed", "7"], "alpha      : 0.7430"),
        (["compare", "--input", demo, "--distances", "tau,rho,tau_at_k", "--param", "k=3", "--seed", "7"],
         "1     rho                   0.8798"),
    ]:
        outputs = []
        for mode in ("block", "allow"):
            report = tmp_path / f"{argv[0]}-{mode}.json"
            proc = run_python(AGREE_WITHOUT_SCIPY, mode, *argv, "--out", str(report))
            assert proc.returncode == 0, proc.stderr[-2000:]
            outputs.append((proc.stdout, report.read_bytes()))
        assert outputs[0] == outputs[1]
        assert figure in outputs[0][0]
    proc = run_python("import sys, agreekit.cli; print([m for m in sys.modules if m.partition('.')[0] == 'scipy'])")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


def test_cli_import_builds_only_the_dataclasses_whose_methods_are_used():
    # a dataclass costs an exec per generated method at import; the records stay dataclasses
    # only where ==, hash, frozenness or dataclasses.replace is used
    proc = run_python("""
import dataclasses, json, sys, agreekit.cli
print(json.dumps(sorted(name for module, mod in list(sys.modules.items())
                        if module.startswith("agreekit.")
                        for name, obj in vars(mod).items()
                        if isinstance(obj, type) and obj.__module__ == module
                        and dataclasses.is_dataclass(obj))))
""")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert json.loads(proc.stdout) == sorted([
        "AnnotationRecord", "Box", "BoxSet", "DistanceSpec", "KdeModel", "KeypointObject",
        "KeypointSet", "NumericVector", "OrderedTree", "Ranking", "Span", "SpanSet",
        "TokenSequence"])


def test_cli_import_leaves_scipy_stats_unloaded():
    proc = run_python("import sys, agreekit.cli; print('scipy.stats' in sys.modules)")
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"


class TestCliValidation:
    def test_violations_block_unless_allowed(self, tmp_path, capsys):
        lines = [
            json.dumps({"item": "i0", "annotator": "a", "kind": "vector", "label": [0.2, 0.4]}),
            json.dumps({"item": "i0", "annotator": "b", "kind": "vector", "label": [0.6, 0.1]}),
            json.dumps({"item": "i1", "annotator": "a", "kind": "vector", "label": [0.9, 0.8]}),
            json.dumps({"item": "i1", "annotator": "b", "kind": "vector", "label": [0.3, 0.7]}),
            json.dumps({"item": "lone", "annotator": "a", "kind": "vector", "label": [0.5, 0.5]}),
        ]
        path = write_lines(tmp_path / "v.jsonl", lines)
        assert main(["compute", "--input", path, "--distance", "binary"]) == 3
        err = capsys.readouterr().err
        assert "validation:" in err and "--allow-violations" in err
        assert main(["compute", "--input", path, "--distance", "binary", "--allow-violations"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("flags", [
        ["--param", "ranges=[[0,1]]"],
        ["--meta", "ranges=[[0,1]]", "--allow-violations"],
    ], ids=["param-ranges", "allowed-violations"])
    def test_expected_distances_above_the_upper_bound_name_it(self, tmp_path, capsys, flags):
        # item i1 lies far outside the range [0, 1], so its cross-item distances exceed 1
        lines = [json.dumps({"item": item, "annotator": a, "kind": "vector", "label": [v]})
                 for item, a, v in [("i0", "a0", 0.0), ("i0", "a1", 0.2),
                                    ("i1", "a0", 5.0), ("i1", "a1", 5.2)]]
        path = write_lines(tmp_path / "far.jsonl", lines)
        assert main(["compute", "--input", path, "--distance", "euclidean", *flags]) == 3
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: expected euclidean distances exceed the distance's upper bound 1.0: "
            "the largest is 5.2")

    def test_duplicate_records_count_each_cross_item_pair_once(self, tmp_path, capsys):
        # 3 items x 2 annotators plus a second record for (i1, a)
        cells = [("i1", "a"), ("i1", "a"), ("i1", "b"), ("i2", "a"), ("i2", "b"), ("i3", "a"), ("i3", "b")]
        lines = [
            json.dumps({"item": item, "annotator": ann, "kind": "vector", "label": [0.1 * k]})
            for k, (item, ann) in enumerate(cells)
        ]
        path = write_lines(tmp_path / "dup.jsonl", lines)
        out = str(tmp_path / "r.json")
        assert main([
            "compute", "--input", path, "--distance", "binary", "--allow-violations",
            "--exclude-same-annotator", "--de-samples", "all", "--out", out,
        ]) == 0
        capsys.readouterr()
        brute = sum(
            1 for (i1, a1), (i2, a2) in itertools.combinations(cells, 2) if i1 != i2 and a1 != a2
        )
        assert brute == 8
        counts = json.loads(open(out).read())["counts"]
        assert counts["expected_pairs_used"] == counts["expected_pairs_available"] == brute

    def test_exclude_same_annotator_leaving_no_cross_item_pairs(self, tmp_path, capsys):
        # two items, one annotator, each record duplicated: every cross-item pair shares it
        cells = [("i1", "a"), ("i1", "a"), ("i2", "a"), ("i2", "a")]
        lines = [
            json.dumps({"item": item, "annotator": ann, "kind": "vector", "label": [0.1 * k]})
            for k, (item, ann) in enumerate(cells)
        ]
        path = write_lines(tmp_path / "one_annotator.jsonl", lines)
        args = ["compute", "--input", path, "--distance", "binary", "--allow-violations"]
        assert main(args + ["--exclude-same-annotator"]) == 3
        assert "no cross-item pairs available" in capsys.readouterr().err
        assert main(args) == 0
        capsys.readouterr()

    def test_meta_override_can_introduce_violations(self, vector_file, capsys):
        # shrink the configured ranges so the simulated values fall outside them
        args = [
            "compute", "--input", vector_file, "--distance", "binary",
            "--meta", "ranges=[[0.4, 0.6], [0.4, 0.6], [0.4, 0.6], [0.4, 0.6], [0.4, 0.6]]",
        ]
        assert main(args) == 3
        assert "outside range" in capsys.readouterr().err


class TestCliCompare:
    def test_ranks_and_writes_json(self, vector_file, tmp_path, capsys):
        out = str(tmp_path / "cmp.json")
        assert main([
            "compare", "--input", vector_file, "--distances", "binary,euclidean", "--out", out,
        ]) == 0
        text = capsys.readouterr().out
        assert "rank" in text and "binary" in text and "euclidean" in text
        payload = json.loads(open(out).read())
        assert sorted(payload["ranking"]) == ["binary", "euclidean"]
        assert [r["distance"]["name"] for r in payload["reports"]] == payload["ranking"]

    def test_params_filtered_per_distance(self, ranking_file, capsys):
        # k only applies to tau_at_k; tau must not reject it
        assert main([
            "compare", "--input", ranking_file, "--distances", "tau", "--distances", "tau_at_k",
            "--param", "k=3",
        ]) == 0
        capsys.readouterr()

    def test_empty_distance_list_is_usage_error(self, vector_file):
        assert main(["compare", "--input", vector_file, "--distances", ","]) == 2

    def test_param_no_distance_accepts_is_usage_error(self, ranking_file, capsys):
        assert main([
            "compare", "--input", ranking_file, "--distances", "tau,rho", "--param", "kk=3",
        ]) == 2
        assert "unknown parameter(s) for 'tau': kk" in capsys.readouterr().err

    def test_counts_expected_pairs_once(self, ranking_file, monkeypatch, capsys):
        from agreekit import cli, stats

        calls = Counter()
        for module, name in ((stats, "_partners"), (stats, "count_expected_pairs"),
                             (cli, "count_expected_pairs")):
            count_calls(monkeypatch, calls, module, name)
        for extra in ([], ["--de-samples", "all"],
                      ["--de-samples", "all", "--exclude-same-annotator"]):
            calls.clear()
            assert main(["compare", "--input", ranking_file, "--distances", "tau,rho", *extra]) == 0
            capsys.readouterr()
            assert calls == {"_partners": 1}, extra

    def test_validates_and_plans_once_for_all_distances(self, ranking_file, monkeypatch, capsys):
        from agreekit import cli, stats

        calls = Counter()
        for module, name in ((cli, "validate_dataset"), (stats, "validate_dataset"),
                             (stats, "_observed_indices"), (stats, "_expected_indices")):
            count_calls(monkeypatch, calls, module, name)
        assert main([
            "compare", "--input", ranking_file, "--distances", "tau,rho,tau_at_k",
            "--param", "k=3",
        ]) == 0
        capsys.readouterr()
        assert calls == {"validate_dataset": 1, "_observed_indices": 1, "_expected_indices": 1}

    @pytest.mark.parametrize("command", ["compute", "hist"])
    def test_compute_and_hist_validate_once(self, ranking_file, monkeypatch, capsys, command):
        from agreekit import cli, dataset, stats

        calls = Counter()
        for module in (cli, dataset, stats):
            count_calls(monkeypatch, calls, module, "validate_dataset")
        count_calls(monkeypatch, calls, stats, "_partners")
        assert main([command, "--input", ranking_file, "--distance", "tau"]) == 0
        capsys.readouterr()
        assert calls == {"validate_dataset": 1, "_partners": 1}


# ids equal but for trailing NULs, which numpy str arrays would merge
COUNT_IDS = ["a", "a\u0000", "a\u0000\u0000", "b", ""]


@st.composite
def count_files(draw):
    """A vector file of 2-5 items with 1-4 records each (2-4 for the first), annotators
    repeated within an item (duplicate records) and drawn from 2-5 names. Every record has
    its own value, so no expected sample is all zeros."""
    annotators = st.sampled_from(draw(st.lists(st.sampled_from(COUNT_IDS), min_size=2,
                                               max_size=5, unique=True)))
    items = draw(st.lists(st.sampled_from(COUNT_IDS), min_size=2, max_size=5, unique=True))
    cells = [(item, draw(annotators)) for k, item in enumerate(items)
             for _ in range(draw(st.integers(1 + (k == 0), 4)))]
    return [json.dumps({"meta": {"ranges": [[0, 1]]}})] + [
        json.dumps({"item": item, "annotator": annotator, "kind": "vector",
                    "label": [k / len(cells)]})
        for k, (item, annotator) in enumerate(cells)
    ]


@settings(max_examples=100, deadline=None)
@given(lines=count_files(), exclude=st.booleans())
def test_report_counts_are_the_validation_counts(lines, exclude):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = os.path.join(tmp, "v.jsonl"), os.path.join(tmp, "r.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write("\n".join(lines) + "\n")
        argv = ["compute", "--input", path, "--distance", "euclidean", "--allow-violations",
                "--out", out] + (["--exclude-same-annotator"] if exclude else [])
        code = main(argv)
        if code:  # no observed or no cross-item pairs
            assert code == 3 and not os.path.exists(out)
            return
        records = [json.loads(text) for text in lines[1:]]  # line 1 is the meta line
        counts = json.loads(open(out).read())["counts"]
        assert (counts["items"], counts["annotators"], counts["annotations"]) == (
            len({r["item"] for r in records}), len({r["annotator"] for r in records}),
            len(records))


class TestCliHist:
    def test_distances_a_few_ulps_apart(self, tmp_path, capsys):
        # box_iou gives 1 - 1e-15 and 1, 9 float steps apart: np.histogram could not bin them
        labels = {("i0", "a0"): [[0, 0, 1, 1]], ("i0", "a1"): [[0, 0, 1, 1e-15]],
                  ("i1", "a0"): [[5, 5, 6, 6]], ("i1", "a1"): [[5, 5, 6, 5 + 1e-15]]}
        path = write_lines(tmp_path / "b.jsonl", [
            json.dumps({"item": i, "annotator": a, "kind": "boxes", "label": label})
            for (i, a), label in labels.items()])
        assert main(["hist", "--input", path, "--distance", "box_iou"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 100 and rows[0].startswith("observed,0.999999999999999,")

    def test_csv_shape(self, vector_file, capsys):
        assert main(["hist", "--input", vector_file, "--distance", "euclidean"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "sample,bin_lo,bin_hi,count"
        assert len(lines) == 1 + 100
        observed = [ln for ln in lines[1:] if ln.startswith("observed,")]
        expected = [ln for ln in lines[1:] if ln.startswith("expected,")]
        assert len(observed) == 50 and len(expected) == 50

    def test_out_file(self, vector_file, tmp_path):
        out = str(tmp_path / "h.csv")
        assert main(["hist", "--input", vector_file, "--distance", "euclidean", "--out", out]) == 0
        assert open(out).readline().strip() == "sample,bin_lo,bin_hi,count"


class TestCliSimulate:
    def test_stdout_lines(self, capsys):
        assert main(["simulate", "--task", "ranking", "--items", "4", "--annotators", "2", "--seed", "1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert "meta" in lines[0]
        assert len(lines) == 1 + 4 * 2

    def test_deterministic_files(self, tmp_path):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        args = ["simulate", "--task", "boxes", "--items", "5", "--noise", "0.5", "--seed", "9"]
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_seed_changes_output(self, tmp_path):
        a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
        assert main(["simulate", "--task", "spans", "--items", "5", "--seed", "1", "--out", a]) == 0
        assert main(["simulate", "--task", "spans", "--items", "5", "--seed", "2", "--out", b]) == 0
        assert open(a, "rb").read() != open(b, "rb").read()

    def test_bad_noise_and_counts_are_usage_errors(self):
        assert main(["simulate", "--task", "vector", "--noise", "1.5"]) == 2
        assert main(["simulate", "--task", "vector", "--annotators", "1"]) == 2

    def test_unknown_task_is_usage_error(self, capsys):
        assert main(["simulate", "--task", "audio"]) == 2
        capsys.readouterr()


class TestCliCheckMetric:
    def test_metric_passes(self, vector_file, capsys):
        assert main(["check-metric", "--input", vector_file, "--distance", "euclidean"]) == 0
        out = capsys.readouterr().out
        assert "violations=0" in out and out.strip().endswith("ok")

    def test_dissimilarity_note(self, ranking_file, capsys):
        assert main(["check-metric", "--input", ranking_file, "--distance", "tau_at_k", "--param", "k=3"]) == 0
        assert "dissimilarity" in capsys.readouterr().out

    @pytest.mark.parametrize("size", ["0", "-4"])
    def test_sample_size_below_one_is_usage_error(self, vector_file, capsys, size):
        argv = ["check-metric", "--input", vector_file, "--distance", "euclidean", "--sample-size", size]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "--sample-size" in captured.err and "ok" not in captured.out

    @pytest.mark.parametrize("tolerance", ["-1", "nan", "inf"])
    def test_bad_tolerance_is_usage_error_before_the_input_is_read(self, vector_file, tmp_path,
                                                                   capsys, tolerance):
        # a missing input file would be exit 3; the flag is checked first
        for path in (vector_file, str(tmp_path / "missing.jsonl")):
            argv = ["check-metric", "--input", path, "--distance", "euclidean",
                    "--tolerance", tolerance]
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert "--tolerance" in captured.err and "ok" not in captured.out


class TestCliEmbeddings:
    def test_embedding_f1_requires_table(self, tmp_path, capsys):
        lines = [
            json.dumps({"item": f"i{i}", "annotator": a, "kind": "tokens", "label": ["w1", "w2"]})
            for i in range(2)
            for a in ("x", "y")
        ]
        data = write_lines(tmp_path / "tok.jsonl", lines)
        assert main(["compute", "--input", data, "--distance", "embedding_f1"]) == 2
        capsys.readouterr()

        emb_lines = [
            json.dumps({"sentence_id": f"i{i}::{a}", "vectors": [[1.0, 0.0], [0.0, 1.0]]})
            for i in range(2)
            for a in ("x", "y")
        ]
        emb = write_lines(tmp_path / "emb.jsonl", emb_lines)
        assert main([
            "compute", "--input", data, "--distance", "embedding_f1", "--embeddings", emb,
            "--de-samples", "all",
        ]) == 4  # identical annotations everywhere: expected distances degenerate to 0
        capsys.readouterr()

    def test_embedding_f1_end_to_end(self, tmp_path, capsys):
        data, emb = token_files(tmp_path)
        assert main([
            "compute", "--input", data, "--distance", "embedding_f1", "--embeddings", emb,
            "--de-samples", "all",
        ]) == 0
        capsys.readouterr()

    def test_compare_reads_embeddings_once(self, tmp_path, monkeypatch, capsys):
        data, emb = token_files(tmp_path)
        calls = Counter()
        count_calls(monkeypatch, calls, aio, "load_embeddings")
        assert main([
            "compare", "--input", data, "--distances", "embedding_f1,bleu", "--embeddings", emb,
            "--de-samples", "all",
        ]) == 0
        capsys.readouterr()
        assert calls["load_embeddings"] == 1

    def test_numeric_sentence_ids_match_their_embeddings(self, tmp_path, capsys):
        # the token_files rows with sentence ids 0-3, written as numbers and then as text
        reports = []
        for form in (int, str):
            rows = [(["cat", "dog"], [[1.0, 0.0], [0.0, 1.0]]), (["cat"], [[1.0, 0.0]]),
                    (["bird"], [[0.5, 0.5]]), (["bird", "fish"], [[0.5, 0.5], [0.0, 1.0]])]
            data = write_lines(tmp_path / f"tok-{form.__name__}.jsonl", [
                json.dumps({"item": f"i{k // 2}", "annotator": f"a{k % 2}", "kind": "tokens",
                            "label": {"tokens": tokens, "sentence_id": form(k)}})
                for k, (tokens, _) in enumerate(rows)
            ])
            emb = write_lines(tmp_path / f"emb-{form.__name__}.jsonl", [
                json.dumps({"sentence_id": form(k), "vectors": vectors})
                for k, (_, vectors) in enumerate(rows)
            ])
            out = tmp_path / f"r-{form.__name__}.json"
            assert main(["compute", "--input", data, "--distance", "embedding_f1", "--embeddings",
                         emb, "--de-samples", "all", "--out", str(out)]) == 0, capsys.readouterr().err
            reports.append(out.read_text())
        capsys.readouterr()
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("via", ["--embeddings", "--param"])
    def test_non_numeric_embeddings_are_data_error(self, tmp_path, capsys, via):
        data, _ = token_files(tmp_path)
        emb = write_lines(tmp_path / "bad.jsonl", [json.dumps({"sentence_id": "s", "vectors": [["a"]]})])
        flag = [via, emb] if via == "--embeddings" else [via, f"embeddings={emb}"]
        assert main(["compute", "--input", data, "--distance", "embedding_f1", *flag]) == 3
        assert "embeddings for sentence 's' are not numeric" in capsys.readouterr().err

    @pytest.mark.parametrize("via", ["--embeddings", "--param"])
    def test_deeply_nested_embedding_line_is_data_error(self, tmp_path, capsys, via):
        data, _ = token_files(tmp_path)
        deep = "[" * 100_000 + "]" * 100_000  # past the JSON decoder's recursion limit
        emb = write_lines(tmp_path / "deep.jsonl", [
            json.dumps({"sentence_id": "s", "vectors": [[1.0]]}),
            '{"sentence_id": "t", "vectors": %s}' % deep,
        ])
        flag = [via, emb] if via == "--embeddings" else [via, f"embeddings={emb}"]
        assert main(["compute", "--input", data, "--distance", "embedding_f1", *flag]) == 3
        assert f"{emb}:2: nested too deeply" in capsys.readouterr().err


def token_files(tmp_path):
    """A two-item tokens dataset and an embedding table for every sentence."""
    rows = {
        ("i0", "x"): (["cat", "dog"], [[1.0, 0.0], [0.0, 1.0]]),
        ("i0", "y"): (["cat"], [[1.0, 0.0]]),
        ("i1", "x"): (["bird"], [[0.5, 0.5]]),
        ("i1", "y"): (["bird", "fish"], [[0.5, 0.5], [0.0, 1.0]]),
    }
    data = write_lines(
        tmp_path / "tok.jsonl",
        [
            json.dumps({"item": i, "annotator": a, "kind": "tokens", "label": toks})
            for (i, a), (toks, _) in rows.items()
        ],
    )
    emb = write_lines(
        tmp_path / "emb.jsonl",
        [
            json.dumps({"sentence_id": f"{i}::{a}", "vectors": vecs})
            for (i, a), (_, vecs) in rows.items()
        ],
    )
    return data, emb
