import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boxvote import data_io
from boxvote.consensus import ContributionReport
from boxvote.errors import ManifestError, ParseError
from boxvote.evaluation import F1Curve
from boxvote.fusion import FusedBox, FusionParams, fused_order, wbf
from boxvote.geometry import Box, DetectionSet, validate_box
from oracles import random_box


class TestDetectionFiles:
    def test_single_line(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("img1 0 0.1 0.1 0.5 0.5 0.93\n")
        out = data_io.parse_detections(p)
        assert list(out) == ["img1"]
        [b] = out["img1"]
        assert (b.cls, b.x1, b.confidence) == (0, 0.1, 0.93)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("")
        assert data_io.parse_detections(p) == {}

    def test_zero_area_dropped_with_warning(self, tmp_path, caplog):
        p = tmp_path / "d.txt"
        p.write_text("img1 0 0.5 0.5 0.5 0.5 0.9\nimg1 0 0 0 1 1 0.8\n")
        with caplog.at_level("WARNING"):
            out = data_io.parse_detections(p)
        assert len(out["img1"]) == 1
        assert "zero-area" in caplog.text

    @pytest.mark.parametrize("line", [
        "img1 0 0.3 0.1 0.3 0.5 0.9",
        "img1 0 0.1 0.4 0.5 0.4 0.9",
        "img1 0 0 0 1e-200 1e-200 0.9",  # ordered corners, but the area underflows to 0
    ], ids=["x1 == x2", "y1 == y2", "area underflow"])
    def test_in_range_zero_area_dropped(self, tmp_path, line):
        p = tmp_path / "d.txt"
        p.write_text(f"{line}\nimg1 0 0 0 1 1 0.8\n")
        [b] = data_io.parse_detections(p)["img1"]
        assert b.confidence == 0.8

    def test_bad_field_count(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("img1 0 0.1 0.1 0.5\n")
        with pytest.raises(ParseError):
            data_io.parse_detections(p)

    def test_invalid_box_has_line_context(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("img1 0 0.9 0.1 0.5 0.5 0.9\n")
        with pytest.raises(ParseError) as exc:
            data_io.parse_detections(p)
        assert exc.value.line == 1

    def test_round_trip_canonical(self, tmp_path):
        rng = np.random.default_rng(131)
        per_image = {
            f"im{j}": DetectionSet(f"im{j}", tuple(random_box(rng) for _ in range(4)))
            for j in range(3)
        }
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        data_io.write_detections(per_image, p1)
        reparsed = data_io.parse_detections(p1)
        data_io.write_detections(reparsed, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_fused_boxes_write_as_the_same_boxes_converted(self, tmp_path):
        rng = np.random.default_rng(17)
        per_image = {}
        for j in range(4):
            per_model = [
                DetectionSet(f"im{j}", tuple(random_box(rng, source=s) for _ in range(6)))
                for s in (1, 2, 3)
            ]
            per_image[f"im{j}"] = wbf(per_model, FusionParams())
        per_image["im4"] = []
        as_boxes = {
            iid: DetectionSet(iid, tuple(
                Box(cls=f.cls, x1=f.x1, y1=f.y1, x2=f.x2, y2=f.y2, confidence=f.confidence)
                for f in fused
            ))
            for iid, fused in per_image.items()
        }
        assert any(len(fused) > 1 for fused in per_image.values())
        data_io.write_detections(per_image, tmp_path / "fused.txt")
        data_io.write_detections(as_boxes, tmp_path / "boxes.txt")
        assert (tmp_path / "fused.txt").read_bytes() == (tmp_path / "boxes.txt").read_bytes()


class TestLineEndings:
    LINES = [
        "# a comment",
        "img1 0 0.1 0.1 0.5 0.5 0.93",
        "",
        "img2 1 0.2 0.3 0.4 0.6 0.5 2",
        "img1 2 0 0 1 1 1",
    ]

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "lone-cr"])
    def test_same_boxes_as_lf(self, tmp_path, newline):
        lf, other = tmp_path / "lf.txt", tmp_path / "other.txt"
        lf.write_bytes("\n".join(self.LINES).encode() + b"\n")
        other.write_bytes(newline.join(self.LINES).encode() + newline.encode())
        assert data_io.parse_detections(other) == data_io.parse_detections(lf)
        assert len(data_io.parse_detections(lf)["img1"]) == 2

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "lone-cr"])
    @pytest.mark.parametrize("bad", ["img3 0 0.9 0.1 0.5 0.5 0.9", "img3 0 0.1 0.1 0.5"],
                             ids=["inverted corners", "field count"])
    def test_same_error_line(self, tmp_path, newline, bad):
        p = tmp_path / "d.txt"
        p.write_bytes(newline.join([*self.LINES, bad, self.LINES[1]]).encode())
        with pytest.raises(ParseError) as exc:
            data_io.parse_detections(p)
        assert exc.value.line == 6

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "lone-cr"])
    def test_same_non_utf8_line(self, tmp_path, newline):
        p = tmp_path / "d.txt"
        p.write_bytes(newline.join(self.LINES).encode() + newline.encode() + b"\xffimg3")
        with pytest.raises(ParseError, match="not UTF-8") as exc:
            data_io.parse_detections(p)
        assert exc.value.line == 6


class TestByteOrderMark:
    """A UTF-8 byte-order mark at the start of a file is not part of its first line."""

    @pytest.mark.parametrize("parse,text", [
        (data_io.parse_detections,
         "img_00000 0 0.1 0.1 0.5 0.5 0.9\nimg_00000 1 0.2 0.2 0.6 0.6 0.8\n"),
        (data_io.parse_ground_truth, "img_00000 0 0.1 0.1 0.5 0.5\nimg_00000 1 0 0 1 1\n"),
        (data_io.parse_pseudo_labels,
         "# empty img_00000\nimg_00001 0 0.1 0.1 0.5 0.5 0.9 2\n"),
    ], ids=["detections", "ground truth", "pseudo-labels"])
    def test_same_as_without(self, tmp_path, parse, text):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        got = parse(marked)
        assert got == parse(plain)
        images = got.entries if parse is data_io.parse_ground_truth else got
        assert "img_00000" in images and not any("\ufeff" in k for k in images)

    def test_manifest_and_report_same_as_without(self, tmp_path):
        p = minimal_manifest(tmp_path)
        plain = data_io.parse_manifest(p)
        p.write_bytes(b"\xef\xbb\xbf" + p.read_bytes())
        assert data_io.parse_manifest(p) == plain
        report = ContributionReport(q_full=1.5, q_leave_one_out={1: 0.5}, cf={1: 1.0},
                                    cf_clamped={1: 1.0}, alpha={1: 0.75},
                                    alpha_extended=0.25)
        r = tmp_path / "r.json"
        data_io.write_contribution_report(report, r)
        r.write_bytes(b"\xef\xbb\xbf" + r.read_bytes())
        assert data_io.parse_contribution_report(r) == report

    def test_same_error_line(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_bytes(b"\xef\xbb\xbfim0 0 0.1 0.1 0.5 0.5\nim0 1 0.1 0.1 0.5 0.5\xff\n")
        with pytest.raises(ParseError, match="not UTF-8") as exc:
            data_io.parse_ground_truth(p)
        assert exc.value.line == 2


class TestNonUtf8Line:
    def test_bad_byte_on_line_2(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_bytes(b"im0 0 0.1 0.1 0.5 0.5\nim0 1 0.1 0.1 0.5 0.5\xff\nim1 0 0 0 1 1\n")
        with pytest.raises(ParseError, match="not UTF-8") as exc:
            data_io.parse_ground_truth(p)
        assert exc.value.line == 2
        assert str(exc.value).startswith(f"{p}:2: ")

    def test_bad_byte_past_the_first_8_kib(self, tmp_path):
        # text mode decodes in 8 KiB chunks; the line is counted from the raw bytes
        line = b"im0 0 0.1 0.1 0.5 0.5\n"
        n_before = 8192 // len(line) + 40
        p = tmp_path / "gt.txt"
        p.write_bytes(line * n_before + b"im0 0 0.1 \xc3\x28 0.5 0.5\n" + line * 5)
        with pytest.raises(ParseError, match="not UTF-8") as exc:
            data_io.parse_ground_truth(p)
        assert exc.value.line == n_before + 1


class TestPseudoLabelFiles:
    def _dataset(self):
        rng = np.random.default_rng(132)
        entries = {}
        for j in range(3):
            iid = f"im{j}"
            boxes = []
            for _ in range(int(rng.integers(0, 4))):
                b = random_box(rng)
                boxes.append(
                    FusedBox(cls=b.cls, x1=b.x1, y1=b.y1, x2=b.x2, y2=b.y2,
                             confidence=b.confidence,
                             support_count=int(rng.integers(1, 4)), members=())
                )
            entries[iid] = tuple(boxes)
        return entries

    def test_round_trip_preserves_support_count(self, tmp_path):
        ds = self._dataset()
        p = tmp_path / "pl.txt"
        data_io.write_pseudo_labels(ds, p)
        back = data_io.parse_pseudo_labels(p)
        assert set(back) == set(ds)
        for iid in ds:
            want = sorted(
                (f.cls, round(f.x1, 9), f.support_count, round(f.confidence, 9))
                for f in ds[iid]
            )
            got = sorted(
                (f.cls, round(f.x1, 9), f.support_count, round(f.confidence, 9))
                for f in back[iid]
            )
            assert got == want

    def test_rows_follow_fused_order_on_equal_confidence(self, tmp_path):
        # equal confidences, handed over against fused_order
        boxes = [
            FusedBox(cls, x1, 0.1, x1 + 0.2, 0.5, 0.5, 1, ())
            for cls, x1 in [(1, 0.3), (1, 0.1), (0, 0.6), (0, 0.2)]
        ]
        assert boxes != sorted(boxes, key=fused_order)
        p = tmp_path / "pl.txt"
        data_io.write_pseudo_labels({"im0": boxes}, p)
        rows = [(int(line.split()[1]), float(line.split()[2]))
                for line in p.read_text().splitlines()]
        assert rows == [(f.cls, f.x1) for f in sorted(boxes, key=fused_order)]

    def test_write_is_deterministic(self, tmp_path):
        ds = self._dataset()
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        data_io.write_pseudo_labels(ds, p1)
        data_io.write_pseudo_labels(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize(
        "line",
        [
            "im0 0 nan 0.1 0.5 0.5 0.9 1",
            "im0 0 0.6 0.1 0.5 0.5 0.9 1",
            "im0 0 0.1 0.1 0.5 0.5 7.0 1",
            "im0 -2 0.1 0.1 0.5 0.5 0.9 1",
        ],
        ids=["nan coordinate", "inverted corners", "confidence above 1", "negative class"],
    )
    def test_invalid_box_rejected(self, tmp_path, line):
        p = tmp_path / "pl.txt"
        p.write_text(f"# empty im1\n{line}\n")
        with pytest.raises(ParseError) as exc:
            data_io.parse_pseudo_labels(p)
        assert exc.value.line == 2

    @pytest.mark.parametrize("support", ["x", "0"])
    def test_bad_support_count_names_the_line(self, tmp_path, support):
        p = tmp_path / "pl.txt"
        p.write_text(f"# empty im1\nim0 0 0.1 0.1 0.5 0.5 0.9 {support}\n")
        with pytest.raises(ParseError) as exc:
            data_io.parse_pseudo_labels(p)
        assert exc.value.line == 2
        assert str(exc.value).startswith(f"{p}:2: ")


class TestGroundTruthFiles:
    def test_coordinate_within_slop_stored_clamped(self, tmp_path):
        p = tmp_path / "gt.txt"
        p.write_text("im0 0 -5e-07 0.1 1.0000005 0.5\n")
        [b] = data_io.parse_ground_truth(p).entries["im0"]
        assert (b.x1, b.y1, b.x2, b.y2) == (0.0, 0.1, 1.0, 0.5)


# Arbitrary text lines, plus box-shaped lines whose fields sit on and around
# the reader's limits, so that both accepted and rejected lines are common.
_NUMBER = st.one_of(
    st.floats(-0.1, 1.1).map(repr),
    st.integers(-2, 9).map(str),
    st.sampled_from(["nan", "inf", "-inf", "-0.0", "-5e-07", "1.0000005", "1e999", "1_0"]),
)
_FIELD = st.one_of(_NUMBER, st.text(st.characters(blacklist_categories=("Cs",)), max_size=6))
_LINE = st.one_of(
    st.lists(_FIELD, max_size=9).map(" ".join),
    st.tuples(st.integers(-1, 3), st.lists(_NUMBER, min_size=4, max_size=6)).map(
        lambda t: " ".join(["im0", str(t[0])] + t[1])
    ),
    st.sampled_from(["", "#", "# empty im1", "  # note"]),
)

# What each public parser returns, flattened to Boxes that validate_box can check.
_PARSED_BOXES = {
    "detections": (
        data_io.parse_detections,
        lambda out: [b for boxes in out.values() for b in boxes],
    ),
    "ground truth": (
        data_io.parse_ground_truth,
        lambda gt: [Box(b.cls, b.x1, b.y1, b.x2, b.y2, 1.0)
                    for boxes in gt.entries.values() for b in boxes],
    ),
    "pseudo-labels": (
        data_io.parse_pseudo_labels,
        lambda out: [Box(f.cls, f.x1, f.y1, f.x2, f.y2, f.confidence)
                     for boxes in out.values() for f in boxes],
    ),
}


@pytest.fixture(scope="module")
def fuzz_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "lines.txt"


@pytest.mark.parametrize("fmt", list(_PARSED_BOXES))
@settings(max_examples=120, deadline=None)
@given(lines=st.lists(_LINE, max_size=6))
def test_reader_accepts_valid_boxes_or_raises_parse_error(fuzz_file, fmt, lines):
    parse, boxes_of = _PARSED_BOXES[fmt]
    fuzz_file.write_text("\n".join(lines), encoding="utf-8")
    try:
        out = parse(fuzz_file)
    except ParseError:
        return
    for b in boxes_of(out):
        assert validate_box(b) == b



_UNIT = st.floats(0.0, 1.0)
_CONF = _UNIT.map(repr)
_SUPPORT = st.integers(1, 9).map(str)


def _valid_lines(tail):
    """Box lines that the format's reader keeps: an image id, a class, corners
    of positive area inside [0, 1], then the fields that `tail` draws."""
    corners = st.tuples(_UNIT, _UNIT, _UNIT, _UNIT).map(
        lambda c: (min(c[0], c[2]), min(c[1], c[3]), max(c[0], c[2]), max(c[1], c[3]))
    ).filter(lambda c: (c[2] - c[0]) * (c[3] - c[1]) > 0.0)
    return st.tuples(st.sampled_from(["im0", "im1"]), st.integers(0, 9), corners, tail).map(
        lambda t: " ".join([t[0], str(t[1]), *map(repr, t[2]), *t[3]])
    )


_VALID_LINE = {
    "detections": _valid_lines(st.one_of(st.tuples(_CONF), st.tuples(_CONF, _SUPPORT))),
    "ground truth": _valid_lines(st.just(())),
    "pseudo-labels": _valid_lines(st.tuples(_CONF, _SUPPORT)),
}


@pytest.mark.parametrize("fmt", list(_PARSED_BOXES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reader_parses_every_valid_line(fuzz_file, fmt, data):
    lines = data.draw(st.lists(_VALID_LINE[fmt], min_size=1, max_size=6))
    parse, boxes_of = _PARSED_BOXES[fmt]
    fuzz_file.write_text("\n".join(lines), encoding="utf-8")
    boxes = boxes_of(parse(fuzz_file))
    assert len(boxes) == len(lines)
    for b in boxes:
        assert validate_box(b) == b

def minimal_manifest(tmp_path, **overrides):
    (tmp_path / "dets.txt").write_text("img1 0 0.1 0.1 0.5 0.5 0.9\n")
    doc = {
        "classes": ["car", "person"],
        "sources": [{"name": "m1", "detections_path": "dets.txt"}],
        "target": {"image_ids": ["img1"]},
    }
    doc.update(overrides)
    p = tmp_path / "manifest.json"
    p.write_text(json.dumps(doc))
    return p


class TestManifest:
    def test_minimal_defaults(self, tmp_path):
        m = data_io.parse_manifest(minimal_manifest(tmp_path))
        assert m.gates.default_gate == 0.0
        assert m.sources[0].dataset_size == 1  # documented default
        assert m.fusion.iou_threshold == 0.55

    def test_unknown_top_key_rejected(self, tmp_path):
        with pytest.raises(ManifestError):
            data_io.parse_manifest(minimal_manifest(tmp_path, bogus=1))

    def test_unknown_gate_class_rejected(self, tmp_path):
        p = minimal_manifest(tmp_path, gates={"per_class": {"bicycle": 0.5}})
        with pytest.raises(ManifestError):
            data_io.parse_manifest(p)

    def test_missing_detections_file_rejected(self, tmp_path):
        p = minimal_manifest(tmp_path)
        os.remove(tmp_path / "dets.txt")
        with pytest.raises(ManifestError):
            data_io.parse_manifest(p)

    def test_gate_names_map_to_class_ids(self, tmp_path):
        p = minimal_manifest(
            tmp_path, gates={"default": 0.8, "per_class": {"person": 0.5}}
        )
        m = data_io.parse_manifest(p)
        assert m.gates.gate(1) == 0.5
        assert m.gates.gate(0) == 0.8

    def test_round_trip(self, tmp_path):
        for overrides in [
            {"gates": {"default": 0.3, "per_class": {"car": 0.1}}},
            {"filter": {"mode": "keep_listed", "classes": ["person"]},
             "fusion": {"model_weights": [2.5]}},
        ]:
            m = data_io.parse_manifest(minimal_manifest(tmp_path, **overrides))
            out = tmp_path / "round.json"
            data_io.write_manifest(m, out)
            again = data_io.parse_manifest(out)
            assert data_io.manifest_to_dict(again) == data_io.manifest_to_dict(m)
            assert (again.label_filter, again.fusion) == (m.label_filter, m.fusion)
        assert again.label_filter.classes == {1}
        assert again.fusion.model_weights == (2.5,)

    def test_load_ensemble_assigns_source_ids(self, tmp_path):
        (tmp_path / "d2.txt").write_text("img1 1 0.2 0.2 0.6 0.6 0.7\n")
        p = minimal_manifest(
            tmp_path,
            sources=[
                {"name": "m1", "detections_path": "dets.txt", "dataset_size": 5},
                {"name": "m2", "detections_path": "d2.txt"},
            ],
        )
        m = data_io.parse_manifest(p)
        ensemble = data_io.load_ensemble(m)
        assert [s.source_id for s in ensemble.sources] == [1, 2]
        assert ensemble.sources[1].detections["img1"][0].source == 2
        assert data_io.load_ground_truth(m) is None

    def test_target_set_without_image_ids_is_sorted_union(self, tmp_path):
        (tmp_path / "d2.txt").write_text("img3 1 0.2 0.2 0.6 0.6 0.7\n")
        # img0 and img2 have ground truth that no source detects
        (tmp_path / "gt.txt").write_text(
            "img2 0 0.1 0.1 0.5 0.5\nimg1 0 0.1 0.1 0.5 0.5\nimg0 1 0.2 0.2 0.4 0.4\n"
        )
        p = minimal_manifest(
            tmp_path,
            sources=[
                {"name": "m1", "detections_path": "dets.txt"},
                {"name": "m2", "detections_path": "d2.txt"},
            ],
            target={"ground_truth_path": "gt.txt"},
        )
        ensemble = data_io.load_ensemble(data_io.parse_manifest(p))
        assert ensemble.target_image_ids == ("img0", "img1", "img2", "img3")


class TestReports:
    def _report(self):
        r = ContributionReport(
            q_full=3.25,
            q_leave_one_out={1: 2.0, 2: 1.5},
            cf={1: 1.25, 2: 1.75},
            cf_clamped={1: 1.25, 2: 1.75},
            alpha={1: 0.4, 2: 0.35},
            alpha_extended=0.25,
        )
        return r

    def test_contribution_report_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        data_io.write_contribution_report(self._report(), p1)
        data_io.write_contribution_report(self._report(), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_contribution_report_round_trip(self, tmp_path):
        p = tmp_path / "r.json"
        r = self._report()
        data_io.write_contribution_report(r, p)
        back = data_io.parse_contribution_report(p)
        assert back.alpha == r.alpha
        assert back.q_leave_one_out == r.q_leave_one_out

    def test_f1_csv_header(self, tmp_path):
        curve = F1Curve(points=[(0.1, {0: 1.0, 1: 0.5, 2: 0.25}, 0.58)])
        p = tmp_path / "f1.csv"
        data_io.write_f1_curve(curve, p)
        header = p.read_text().splitlines()[0]
        assert header == "confidence,class_0,class_1,class_2,mean"

    def test_float_format_nine_significant_digits(self):
        assert data_io.fmt_float(1 / 3) == "0.333333333"
        assert data_io.fmt_float(1e-9) == "1e-09"
        assert data_io.fmt_float(1.0) == "1"

    @pytest.mark.parametrize("x", [
        -0.0, 0.0, 5e-324, 1e-5, 1e16, 1 / 3, 0.1 + 0.2, 1.0, float("inf"), float("nan"),
        0, 7, -3, np.float64(1 / 3), np.float64(-0.0), np.float32(0.1),
    ])
    def test_line_templates_format_floats_as_fmt_float(self, x):
        assert "%.9g" % x == data_io.fmt_float(x)

    def test_canonical_json_sorted_keys(self):
        text = data_io.canonical_json({"b": 1, "a": {"z": 0.5, "y": 2}})
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"b": 1, "a": {"z": 0.5, "y": 2}}
