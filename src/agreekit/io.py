"""Dataset and report file formats.

Dataset files are JSONL. An optional first line {"meta": {...}} configures
the dataset (vector ranges, ranking universe, OKS defaults). Every other
line is one annotation:

    {"item": str, "annotator": str, "kind": K, "label": payload}

with kind-specific payloads (documented bit-exactly in the README):

    vector    [x, ...]
    tokens    [token, ...] or {"tokens": [...], "sentence_id": str}
    boxes     [[x0, y0, x1, y1], ...]
    keypoints [{"points": [[x, y], ...], "scale": s, "k": [k_i, ...]}, ...]
    spans     [[start, end, tag], ...]
    tree      [label, [child, ...]]
    ranking   [element, ...]  (best first)

Reports serialize with sorted keys and a trailing newline so equal runs give
byte-identical files.
"""

from __future__ import annotations

import json
import threading
from json.decoder import WHITESPACE
from typing import Optional

from .dataset import PACKERS, Dataset
from .errors import DataError
from .payloads import parse_payload, payload_to_json
from .distances.vector_text import TokenEmbeddingTable


def load_dataset(path: str) -> Dataset:
    """Parse and structurally validate a JSONL dataset file.

    Errors carry the 1-based line number of the first faulty line. Token sequences get
    the sentence id "<item>::<annotator>" unless the line provides one, matching the
    embedding-file convention. Every label is parsed after the read, in file order. The
    labels of a vector, ranking or set kind are checked and packed together instead
    (dataset.PACKERS), and parsed only if one is not in the plain form or is rejected, or
    if payloads are asked for.

    The file is read in a new thread. The JSON reader and the tree parser count nesting against
    the recursion limit, and a new thread starts at depth 0, so how deep a line may nest
    does not depend on the caller's stack. What the thread raises is raised here.
    """
    loaded: list = []

    def run() -> None:
        try:
            loaded.append(_load(path))
        except BaseException as exc:  # raised again in the calling thread
            loaded.append(exc)

    thread = threading.Thread(target=run, daemon=True)  # an interrupt need not wait for it
    thread.start()
    thread.join()
    if isinstance(loaded[0], BaseException):
        raise loaded[0]
    return loaded[0]


def _load(path: str) -> Dataset:
    items: list[str] = []
    annotators: list[str] = []
    labels: list = []
    linenos: list[int] = []
    meta: dict = {}
    kind: Optional[str] = None
    fault: Optional[DataError] = None  # the first faulty line's, raised after the labels before it
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                _check_utf8(line)
                try:
                    obj = _decode(line)
                except ValueError as exc:  # a JSONDecodeError, or an integer over the digit limit
                    raise DataError(f"malformed JSON: {exc}") from exc
                if not isinstance(obj, dict):
                    raise DataError("expected a JSON object")
                if "meta" in obj and "item" not in obj:
                    if not isinstance(obj["meta"], dict):
                        raise DataError("meta must be a JSON object")
                    meta.update(obj["meta"])
                    continue
                try:
                    item, annotator = str(obj["item"]), str(obj["annotator"])
                    line_kind, label = str(obj["kind"]), obj["label"]
                except KeyError as exc:
                    raise DataError(f"missing field {exc}") from exc
                if kind is None:
                    kind = line_kind
                elif line_kind != kind:
                    raise DataError(f"payload kind {line_kind!r} differs from {kind!r}")
            except DataError as exc:
                fault = DataError(f"{path}:{lineno}: {exc}")
                break
            except RecursionError:
                fault = DataError(f"{path}:{lineno}: nested too deeply")
                break
            items.append(item)
            annotators.append(annotator)
            labels.append(label)
            linenos.append(lineno)
    if not labels:
        raise fault or DataError(f"{path}: empty dataset")
    order = sorted(range(len(labels)), key=list(zip(items, annotators)).__getitem__)

    def parse() -> list:
        """Every record's payload, in canonical order, parsed in file order."""
        payloads = []
        for item, annotator, label, lineno in zip(items, annotators, labels, linenos):
            try:
                payloads.append(parse_payload(kind, label, sentence_id=f"{item}::{annotator}"))
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            except RecursionError:
                raise DataError(f"{path}:{lineno}: nested too deeply") from None
        return [payloads[k] for k in order]

    if kind in PACKERS:
        columns = PACKERS[kind]([labels[k] for k in order], parse)
    else:
        columns = parse()
        parse = columns.copy  # the payloads, parsed once
    if fault is not None:
        raise fault
    return Dataset.from_columns(kind, [items[k] for k in order], [annotators[k] for k in order],
                                columns, parse, meta)


_scan = json.JSONDecoder().scan_once


def _decode(line: str) -> object:
    """json.loads(line), in one scan of the line: the same value, or the same error."""
    if line.startswith("\ufeff"):
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", line, 0)
    try:
        obj, end = _scan(line, WHITESPACE.match(line).end())
    except StopIteration as err:
        raise json.JSONDecodeError("Expecting value", line, err.value) from None
    if end != len(line):
        end = WHITESPACE.match(line, end).end()
        if end != len(line):
            raise json.JSONDecodeError("Extra data", line, end)
    return obj


def _check_utf8(line: str) -> None:
    """DataError if line held bytes that are not UTF-8 (errors="surrogateescape" kept them)."""
    if not line.isascii():
        try:
            line.encode("utf-8", "surrogateescape").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"not UTF-8: {exc}") from None


def dataset_lines(dataset: Dataset):
    if dataset.meta:
        yield json.dumps({"meta": dataset.meta}, sort_keys=True)
    for rec in dataset.records:
        yield json.dumps(
            {
                "item": rec.item_id,
                "annotator": rec.annotator_id,
                "kind": rec.payload.kind,
                "label": payload_to_json(rec.payload),
            },
            sort_keys=True,
        )


def write_dataset(path: str, dataset: Dataset) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in dataset_lines(dataset):
            fh.write(line + "\n")


def load_embeddings(path: str) -> TokenEmbeddingTable:
    """JSONL embedding file: {"sentence_id": str, "vectors": [[...], ...]} per line."""
    table: dict = {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                _check_utf8(line)
                obj = _decode(line)
                table[str(obj["sentence_id"])] = obj["vectors"]
            except (ValueError, KeyError, TypeError) as exc:
                raise DataError(f"{path}:{lineno}: malformed embedding line: {exc}") from exc
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            except RecursionError as exc:
                raise DataError(f"{path}:{lineno}: nested too deeply") from exc
    if not table:
        raise DataError(f"{path}: no embeddings found")
    return TokenEmbeddingTable(table)


def report_json(report_dict: dict) -> str:
    return json.dumps(report_dict, sort_keys=True, indent=2) + "\n"


def write_report(path: str, report_dict: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_json(report_dict))


REPORT_SCHEMA = {
    "type": "object",
    "required": [
        "distance",
        "alpha",
        "sigma",
        "ks",
        "p_threshold",
        "counts",
        "diagnostics",
        "histograms",
        "seed",
    ],
    "additionalProperties": False,
    "properties": {
        "distance": {
            "type": "object",
            "required": ["name", "params"],
            "properties": {"name": {"type": "string"}, "params": {"type": "object"}},
        },
        "alpha": {"type": "number", "maximum": 1.0},
        "sigma": {"type": "number", "minimum": 0.0, "maximum": 1.0},
        "ks": {
            "type": "object",
            "required": ["statistic", "pvalue", "measure"],
            "properties": {
                "statistic": {"type": "number", "minimum": 0.0, "maximum": 1.0},
                "pvalue": {"type": "number", "minimum": 0.0, "maximum": 1.0},
                "measure": {"type": "number", "minimum": 0.0, "maximum": 1.0},
            },
        },
        "p_threshold": {"type": "number", "exclusiveMinimum": 0.0, "maximum": 1.0},
        "counts": {
            "type": "object",
            "required": [
                "items",
                "annotators",
                "annotations",
                "observed_pairs",
                "expected_pairs_available",
                "expected_pairs_used",
            ],
            "additionalProperties": {"type": "integer"},
        },
        "diagnostics": {"type": "array", "items": {"type": "string"}},
        "histograms": {
            "type": "object",
            "required": ["observed", "expected"],
            "properties": {
                "observed": {"type": "array", "items": {"type": "array"}},
                "expected": {"type": "array", "items": {"type": "array"}},
            },
        },
        "seed": {"type": "integer"},
    },
}
