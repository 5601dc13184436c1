import itertools
import json
import os
import subprocess
import sys

import pytest

import agreekit
from agreekit import io as aio
from agreekit.cli import main
from agreekit.dataset import AnnotationRecord, Dataset
from agreekit.errors import DataError

from conftest import PAYLOAD_MAKERS, make_payloads


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

    def test_bad_de_samples_is_usage_error(self, vector_file):
        assert main(["compute", "--input", vector_file, "--distance", "binary", "--de-samples", "zero"]) == 2
        assert main(["compute", "--input", vector_file, "--distance", "binary", "--de-samples", "0"]) == 2

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


class TestCliHist:
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

    def test_negative_tolerance_fails_with_data_error(self, vector_file, capsys):
        assert main(["check-metric", "--input", vector_file, "--distance", "euclidean", "--tolerance", "-1"]) == 3
        capsys.readouterr()


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
        assert main([
            "compute", "--input", data, "--distance", "embedding_f1", "--embeddings", emb,
            "--de-samples", "all",
        ]) == 0
        capsys.readouterr()
