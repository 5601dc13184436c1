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
from typing import Optional

from .dataset import AnnotationRecord, Dataset
from .errors import DataError
from .payloads import (
    Box,
    BoxSet,
    KeypointObject,
    KeypointSet,
    LabelPayload,
    NumericVector,
    Ranking,
    Span,
    SpanSet,
    TokenSequence,
    tree_from_nested,
    tree_to_nested,
)
from .distances.vector_text import TokenEmbeddingTable


def parse_payload(kind: str, label: object, sentence_id: Optional[str] = None) -> LabelPayload:
    try:
        if kind == "vector":
            return NumericVector(values=tuple(label))
        if kind == "tokens":
            if isinstance(label, dict):
                return TokenSequence(
                    tokens=tuple(label["tokens"]),
                    sentence_id=label.get("sentence_id", sentence_id),
                )
            return TokenSequence(tokens=tuple(label), sentence_id=sentence_id)
        if kind == "boxes":
            return BoxSet(boxes=tuple(Box(*b) for b in label))
        if kind == "keypoints":
            objs = []
            for obj in label:
                objs.append(
                    KeypointObject(
                        points=tuple((p[0], p[1]) for p in obj["points"]),
                        scale=obj.get("scale"),
                        per_point_constant=(
                            tuple(obj["k"]) if obj.get("k") is not None else None
                        ),
                    )
                )
            return KeypointSet(objects=tuple(objs))
        if kind == "spans":
            return SpanSet(spans=tuple(Span(start=s[0], end=s[1], tag=str(s[2])) for s in label))
        if kind == "tree":
            return tree_from_nested(label)
        if kind == "ranking":
            return Ranking(order=tuple(label))
    except DataError:
        raise
    except (TypeError, ValueError, KeyError, IndexError, OverflowError) as exc:
        raise DataError(f"malformed {kind} payload: {exc}") from exc
    raise DataError(f"unknown payload kind {kind!r}")


def payload_to_json(payload: LabelPayload) -> object:
    if isinstance(payload, NumericVector):
        return list(payload.values)
    if isinstance(payload, TokenSequence):
        return list(payload.tokens)
    if isinstance(payload, BoxSet):
        return [[b.x0, b.y0, b.x1, b.y1] for b in payload.boxes]
    if isinstance(payload, KeypointSet):
        out = []
        for obj in payload.objects:
            entry: dict = {"points": [[x, y] for x, y in obj.points]}
            if obj.scale is not None:
                entry["scale"] = obj.scale
            if obj.per_point_constant is not None:
                entry["k"] = list(obj.per_point_constant)
            out.append(entry)
        return out
    if isinstance(payload, SpanSet):
        return [[s.start, s.end, s.tag] for s in payload.spans]
    if isinstance(payload, Ranking):
        return list(payload.order)
    return tree_to_nested(payload)


def load_dataset(path: str) -> Dataset:
    """Parse and structurally validate a JSONL dataset file.

    Errors carry the 1-based line number. Token sequences get the sentence id
    "<item>::<annotator>" unless the line provides one, matching the
    embedding-file convention.
    """
    records: list[AnnotationRecord] = []
    meta: dict = {}
    kind: Optional[str] = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except ValueError as exc:  # a JSONDecodeError, or an integer over the digit limit
                raise DataError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
            except RecursionError as exc:
                raise DataError(f"{path}:{lineno}: nested too deeply") from exc
            if not isinstance(obj, dict):
                raise DataError(f"{path}:{lineno}: expected a JSON object")
            if "meta" in obj and "item" not in obj:
                if not isinstance(obj["meta"], dict):
                    raise DataError(f"{path}:{lineno}: meta must be a JSON object")
                meta.update(obj["meta"])
                continue
            try:
                item = str(obj["item"])
                annotator = str(obj["annotator"])
                line_kind = str(obj["kind"])
                label = obj["label"]
            except KeyError as exc:
                raise DataError(f"{path}:{lineno}: missing field {exc}") from exc
            if kind is None:
                kind = line_kind
            elif line_kind != kind:
                raise DataError(
                    f"{path}:{lineno}: payload kind {line_kind!r} differs from {kind!r}"
                )
            try:
                payload = parse_payload(line_kind, label, sentence_id=f"{item}::{annotator}")
            except DataError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            except RecursionError as exc:
                raise DataError(f"{path}:{lineno}: nested too deeply") from exc
            records.append(AnnotationRecord(item_id=item, annotator_id=annotator, payload=payload))
    if not records:
        raise DataError(f"{path}: empty dataset")
    return Dataset(records=tuple(records), meta=meta)


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
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                table[str(obj["sentence_id"])] = obj["vectors"]
            except (ValueError, KeyError, TypeError) as exc:
                raise DataError(f"{path}:{lineno}: malformed embedding line: {exc}") from exc
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
