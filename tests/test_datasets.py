import csv
import gzip
import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prisomap.datasets import (
    IDX_IMAGE_MAGIC,
    IDX_LABEL_MAGIC,
    csv_cell,
    gen_swiss_roll,
    json_safe,
    load_csv,
    load_idx,
    save_csv,
    standardize,
    swiss_roll_arc_length,
    swiss_roll_unrolled,
)
from prisomap.embed import Embedding, load_embedding_csv, save_embedding_csv
from prisomap.errors import (BadMagic, CountMismatch, EmptyDataset, InputError, ParseError,
                             TruncatedFile)


class TestCsv:
    def test_basic_parse(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,b,y\n1,2,0\n3,4,1\n5,6,0\n")
        ds = load_csv(f, label_column="y")
        assert ds.n == 3 and ds.d == 2
        np.testing.assert_array_equal(ds.labels, [0, 1, 0])
        np.testing.assert_array_equal(ds.data, [[1, 2], [3, 4], [5, 6]])
        assert ds.names == ["a", "b"]

    def test_nan_row_dropped(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,b\n1,2\n3,nan\n5,6\n")
        ds = load_csv(f)
        assert ds.n == 2
        assert ds.dropped_rows == 1

    def test_empty_field_counts_as_nan(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,b\n1,\n3,4\n")
        ds = load_csv(f)
        assert ds.n == 1 and ds.dropped_rows == 1

    def test_ragged_row_is_parse_error(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,b\n1,2\n3\n")
        with pytest.raises(ParseError):
            load_csv(f)

    def test_non_numeric_is_parse_error(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,b\n1,fish\n")
        with pytest.raises(ParseError):
            load_csv(f)

    def test_all_nan_is_empty(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a\nnan\nnan\n")
        with pytest.raises(EmptyDataset):
            load_csv(f)

    def test_label_by_index(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("y,a\n7,1\n8,2\n")
        ds = load_csv(f, label_column=0)
        np.testing.assert_array_equal(ds.labels, [7, 8])
        np.testing.assert_array_equal(ds.data, [[1], [2]])

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 1, (20, 5))
        f = tmp_path / "t.csv"
        save_csv(f, x)
        ds = load_csv(f)
        assert ds.data.tobytes() == x.tobytes()


    def test_name_with_a_bare_carriage_return_round_trips(self, tmp_path):
        f = tmp_path / "cr.csv"
        save_csv(f, np.ones((2, 2)), names=["a\rb", "c"])
        assert f.read_bytes() == b'"a\rb","c"\n1,1\n1,1\n'
        assert load_csv(f).names == ["a\rb", "c"]
        save_csv(f, np.ones((1, 2)), names=["x", "y"])  # other headers stay unquoted
        assert f.read_bytes() == b"x,y\n1,1\n"

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.text(alphabet='ab ,"\r\n', max_size=5), min_size=1, max_size=4))
    def test_names_round_trip(self, tmp_path, names):
        f = tmp_path / "names.csv"
        save_csv(f, np.arange(2.0 * len(names)).reshape(2, -1), names=names)
        ds = load_csv(f)
        assert ds.names == names
        assert ds.data.tolist() == np.arange(2.0 * len(names)).reshape(2, -1).tolist()

    @pytest.mark.parametrize("label", ["inf", "-inf", "1e20", "9.3e18", "nan"])
    def test_label_beyond_int64_is_parse_error(self, tmp_path, label):
        f = tmp_path / "t.csv"
        f.write_text(f"a,label\n1,0\n2,{label}\n3,1\n")
        with pytest.raises(ParseError) as info:
            load_csv(f, label_column="label")
        assert (info.value.row, info.value.column) == (3, 1)

    @pytest.mark.parametrize("label", ["1.5", "2.9", "-0.5", "1e-3"])
    def test_non_integral_label_is_parse_error(self, tmp_path, label):
        f = tmp_path / "t.csv"
        f.write_text(f"a,label\n1,0\n2,{label}\n3,1\n")
        with pytest.raises(ParseError, match=f"label '{label}' is not an integer") as info:
            load_csv(f, label_column="label")
        assert (info.value.row, info.value.column) == (3, 1)

    def test_integral_label_text_is_accepted(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,label\n1,1e3\n2, -2.0 \n3,+7\n4,-0\n")
        np.testing.assert_array_equal(load_csv(f, label_column="label").labels,
                                      [1000, -2, 7, 0])

    def test_parses_a_plain_file(self, tmp_path):
        f = tmp_path / "t.csv"
        f.write_text("a,y,b\n1,7,2\nnan,8,3\n-0,-9.0,inf\n")
        ds = load_csv(f, "y")
        want = np.array([[1.0, 2.0], [-0.0, math.inf]])
        assert ds.data.dtype == want.dtype and ds.data.tobytes() == want.tobytes()
        np.testing.assert_array_equal(ds.labels, [7, -9])
        assert ds.labels.dtype == np.int64
        assert ds.dropped_rows == 1 and ds.names == ["a", "b"]

    # csv.writer and csv.reader round-trip records exactly, so however the
    # writer quotes and ends its lines, the file holds the same records
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_quoting_and_line_ends_give_one_outcome(self, tmp_path, data):
        records, label_column = data.draw(_csv_records())
        outcomes = []
        for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
            for end in ("\n", "\r\n"):
                f = tmp_path / "t.csv"
                with f.open("w", newline="", encoding="utf-8") as fh:
                    csv.writer(fh, quoting=quoting, lineterminator=end).writerows(records)
                outcomes.append(_dataset_outcome(lambda: load_csv(f, label_column)))
        assert all(outcome == outcomes[0] for outcome in outcomes)


def _dataset_outcome(parse):
    """What a parse gives: the dataset's bytes, names and drop count, or the
    error with its row and column."""
    try:
        ds = parse()
    except ParseError as exc:
        return "ParseError", exc.row, exc.column
    except EmptyDataset:
        return ("EmptyDataset",)
    labels = None if ds.labels is None else (ds.labels.dtype.str, ds.labels.tobytes())
    return (ds.data.dtype.str, ds.data.shape, ds.data.tobytes(), labels, ds.names,
            ds.dropped_rows)


_ODD_CELLS = ["", " ", "nan", "NaN", "-nan", "inf", "-Infinity", " 1.5 ", "\t4", "1_0", "1e20",
              "1e400", "2.7", "-0", "+7", "abc", '"2.5"', '"3"', '"1,5"', "\u0661", "0x10",
              "9.3e18", "-9.3e18"]
_CELLS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(lambda v: format(v, ".17g")),
    st.integers(-3, 3).map(str),
    st.floats(-1e3, 1e3).map(lambda v: f" {v!r} "),
    st.sampled_from(_ODD_CELLS),
)


@st.composite
def _csv_records(draw):
    """(records, label_column): a header record, then records of plain and
    odd cells, some holding commas, quotes or newlines, a few ragged or
    empty. No cell holds a bare CR: QUOTE_MINIMAL quotes a field only for
    the characters of the writer's own line terminator."""
    ncols = draw(st.integers(1, 4))
    header = [f"c{i}" for i in range(ncols)]
    name = draw(st.sampled_from(["label", "la,bel", 'la "bel"', "la\nbel"]))
    if draw(st.booleans()):
        header[draw(st.integers(0, ncols - 1))] = name
    plain = draw(st.booleans())  # half the files hold only well-formed cells
    cells = st.integers(-3, 3).map(str) | st.floats(allow_nan=True).map(repr) if plain else \
        _CELLS | st.text(alphabet=' 0123456789.,-+e"\n\tinfa', max_size=6)
    records = [header]
    for _ in range(draw(st.integers(0, 6))):
        width = ncols if plain or draw(st.integers(0, 9)) else draw(st.integers(0, ncols + 1))
        records.append(draw(st.lists(cells, min_size=width, max_size=width)))
    label_column = draw(st.sampled_from([None, name, "nope", 0, ncols - 1, ncols]))
    return records, label_column


class TestEmbeddingCsv:
    @pytest.mark.parametrize("body", [
        "99999999999999999999,1.5\n", "5.0,1.5\n", "1e3,1.5\n", "0,1.5,2.5\n", "0\n",
        "0,x\n", "0,1.5\n  \n", "", "\n\n", "0,1.5\n-1,2.5\n"])
    def test_rejected_row_names_the_file(self, tmp_path, body):
        path = tmp_path / "e.csv"
        path.write_text("index,c0\n" + body, encoding="utf-8")
        with pytest.raises(ValueError, match="e.csv"):
            load_embedding_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_coordinate_is_refused_by_its_cell(self, tmp_path, cell):
        path = tmp_path / "e.csv"
        path.write_text(f"index,c0,c1\n0,1.5,2\n3,2.5,1\n4,{cell},1\n", encoding="utf-8")
        want = f"e.csv: coordinates row 2, column 0 (from 0) is {float(cell)}"
        with pytest.raises(InputError, match=re.escape(want)):
            load_embedding_csv(path)

    def test_round_trip(self, tmp_path):
        coords = np.random.default_rng(1).normal(size=(7, 3))
        coords[2, 1] = -0.0
        emb = Embedding(coordinates=coords, eigenvalues=np.ones(3), clamped_count=0, method={},
                        kept_indices=np.array([0, 2, 3, 5, 8, 9, 11]),
                        component_policy_applied=True, n_input=12)
        path = tmp_path / "e.csv"
        save_embedding_csv(emb, path)
        idx, back = load_embedding_csv(path)
        assert idx.tobytes() == emb.kept_indices.astype(np.int64).tobytes()
        assert back.tobytes() == coords.tobytes() and back.flags.c_contiguous


# every float csv_cell must write as it always has, over more rows than one
# formatting call takes
_WRITTEN = np.tile([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1,
                    3.0, -7.0, 1e16, 2.0**53, 123456789.0], 1100).tolist()


def _table():
    return np.array(_WRITTEN).reshape(-1, 3)


def _write_save_csv(path):
    save_csv(path, _table(), names=["x", "y", "z"])
    return "x,y,z\n" + "".join(",".join(map(csv_cell, row)) + "\n" for row in _table().tolist())


def _write_embedding(path):
    kept = [3 * i + i % 2 for i in range(len(_WRITTEN) // 3)]
    save_embedding_csv(Embedding(coordinates=_table(), eigenvalues=np.ones(3), clamped_count=0,
                                 method={}, kept_indices=np.array(kept),
                                 component_policy_applied=True, n_input=kept[-1] + 1), path)
    return "index,c0,c1,c2\n" + "".join(
        f"{i}," + ",".join(map(csv_cell, row)) + "\n" for i, row in zip(kept, _table().tolist()))


def _template_embedding_csv(kept, coords) -> str:
    """An embedding CSV through one "%d" + ",%.17g" * p row template, the
    integer index's own field: the text save_embedding_csv must give."""
    p = coords.shape[1]
    row = "%d" + ",%.17g" * p + "\n"
    return "index," + ",".join(f"c{j}" for j in range(p)) + "\n" + "".join(
        row % (i, *cells) for i, cells in zip(kept.tolist(), coords.tolist()))


# an index below 2**53 is exact in float64, and %.17g prints it as %d does,
# over more rows than one formatting call takes
@pytest.mark.parametrize("p", [1, 2, 10])
def test_embedding_csv_equals_the_integer_template(tmp_path, p):
    rng = np.random.default_rng(p)
    n = 4500
    kept = np.sort(np.concatenate([np.arange(4), rng.integers(4, 2**53 - 2, n - 6),
                                   [2**53 - 2, 2**53 - 1]]))
    wide = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-300, 300, (n, p))
    coords = np.where(rng.random((n, p)) < 0.7, wide, rng.choice(_WRITTEN[:12], (n, p)))
    emb = Embedding(coordinates=coords, eigenvalues=np.ones(p), clamped_count=0, method={},
                    kept_indices=kept, component_policy_applied=True, n_input=2**53)
    save_embedding_csv(emb, tmp_path / "e.csv")
    assert (tmp_path / "e.csv").read_bytes() == _template_embedding_csv(kept, coords).encode()


@pytest.mark.parametrize("write", [_write_save_csv, _write_embedding],
                         ids=["save_csv", "save_embedding_csv"])
def test_bulk_writers_match_csv_cell(tmp_path, write):
    path = tmp_path / "out.txt"
    expected = write(path)
    assert path.read_bytes() == expected.encode("utf-8")


def test_json_safe_writes_integer_arrays_as_integers():
    assert json.dumps(json_safe({"kept": np.array([0, 2, 7], dtype=np.int64)})) == \
        '{"kept": [0, 2, 7]}'
    # float arrays are written as each element on its own always was
    floats = np.array(_WRITTEN)
    assert json.dumps(json_safe(floats)) == json.dumps([json_safe(float(v)) for v in floats])


class TestIdx:
    @staticmethod
    def write_images(path, images):
        arr = np.asarray(images, dtype=np.uint8)
        n, r, c = arr.shape
        path.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, n, r, c) + arr.tobytes())

    @staticmethod
    def write_labels(path, labels):
        arr = np.asarray(labels, dtype=np.uint8)
        path.write_bytes(struct.pack(">II", IDX_LABEL_MAGIC, arr.size) + arr.tobytes())

    def test_layout(self, tmp_path):
        img = tmp_path / "img.idx"
        self.write_images(img, [[[0, 255], [1, 2]]])
        ds = load_idx(img)
        assert ds.n == 1 and ds.d == 4
        np.testing.assert_array_equal(ds.data[0], [0, 255, 1, 2])

    def test_labels(self, tmp_path):
        img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
        self.write_images(img, [[[1]], [[2]]])
        self.write_labels(lab, [3, 9])
        ds = load_idx(img, lab)
        np.testing.assert_array_equal(ds.labels, [3, 9])

    def test_gzip_transparent(self, tmp_path):
        arr = np.arange(4, dtype=np.uint8).reshape(1, 2, 2)
        raw = struct.pack(">IIII", IDX_IMAGE_MAGIC, 1, 2, 2) + arr.tobytes()
        gz = tmp_path / "img.idx.gz"
        gz.write_bytes(gzip.compress(raw))
        ds = load_idx(gz)
        np.testing.assert_array_equal(ds.data[0], [0, 1, 2, 3])

    def test_bad_magic(self, tmp_path):
        f = tmp_path / "img.idx"
        f.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 1, 1) + b"\x00")
        with pytest.raises(BadMagic):
            load_idx(f)

    def test_truncated(self, tmp_path):
        f = tmp_path / "img.idx"
        f.write_bytes(struct.pack(">IIII", IDX_IMAGE_MAGIC, 2, 2, 2) + b"\x00" * 3)
        with pytest.raises(TruncatedFile):
            load_idx(f)

    def test_count_mismatch(self, tmp_path):
        img, lab = tmp_path / "img.idx", tmp_path / "lab.idx"
        self.write_images(img, [[[1]], [[2]]])
        self.write_labels(lab, [3, 9, 4])
        with pytest.raises(CountMismatch):
            load_idx(img, lab)


class TestSwissRoll:
    def test_parameterization_identity(self):
        s = gen_swiss_roll(1000, noise_sd=0.0, density_exponent=0.0, seed=7)
        radius = np.hypot(s.ambient[:, 0], s.ambient[:, 2])
        np.testing.assert_allclose(radius, s.intrinsic[:, 0], atol=1e-9)

    def test_exponent_shifts_mass(self):
        uniform = gen_swiss_roll(4000, density_exponent=0.0, seed=3)
        cubed = gen_swiss_roll(4000, density_exponent=3.0, seed=3)
        assert cubed.intrinsic[:, 0].mean() > uniform.intrinsic[:, 0].mean()

    def test_determinism(self):
        a = gen_swiss_roll(200, noise_sd=0.1, density_exponent=2.0, seed=5)
        b = gen_swiss_roll(200, noise_sd=0.1, density_exponent=2.0, seed=5)
        assert a.ambient.tobytes() == b.ambient.tobytes()
        assert a.intrinsic.tobytes() == b.intrinsic.tobytes()

    def test_parameter_rectangle(self):
        s = gen_swiss_roll(500, density_exponent=3.0, seed=1)
        t, u = s.intrinsic[:, 0], s.intrinsic[:, 1]
        assert t.min() >= 1.5 * np.pi - 1e-12 and t.max() <= 4.5 * np.pi + 1e-12
        assert u.min() >= 0.0 and u.max() <= 21.0

    def test_n_too_small(self):
        with pytest.raises(ValueError):
            gen_swiss_roll(5)

    def test_short_circuit_pairs_move_points(self):
        plain = gen_swiss_roll(500, seed=9)
        welded = gen_swiss_roll(500, seed=9, short_circuit_pairs=0.01)
        moved = np.any(plain.ambient != welded.ambient, axis=1)
        assert moved.sum() == 2 * round(0.01 * 500)
        # welded partners sit close in ambient space but far apart on the chart
        assert welded.density_profile["short_circuit_pairs"] == 0.01

    def test_unrolled_chart_is_isometric(self):
        # quadrature oracle: ambient arc length of the surface curve that the
        # straight chart segment maps to equals the chart Euclidean length
        rng = np.random.default_rng(2)
        s0 = swiss_roll_arc_length(1.5 * np.pi)
        s1 = swiss_roll_arc_length(4.5 * np.pi)

        def t_of_s(s_targets):
            lo = np.full_like(s_targets, 1.5 * np.pi)
            hi = np.full_like(s_targets, 4.5 * np.pi)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                below = swiss_roll_arc_length(mid) < s_targets
                lo = np.where(below, mid, lo)
                hi = np.where(below, hi, mid)
            return 0.5 * (lo + hi)

        for _ in range(5):
            sa, sb = rng.uniform(s0, s1, 2)
            ua, ub = rng.uniform(0, 21, 2)
            chart_len = np.hypot(sb - sa, ub - ua)
            # parameterize the straight chart segment and integrate in ambient
            m = 20000
            tau = np.linspace(0.0, 1.0, m + 1)
            s_line = sa + tau * (sb - sa)
            u_line = ua + tau * (ub - ua)
            t_line = t_of_s(s_line)
            pts = np.column_stack(
                [t_line * np.cos(t_line), u_line, t_line * np.sin(t_line)]
            )
            ambient_len = np.linalg.norm(np.diff(pts, axis=0), axis=1).sum()
            assert abs(ambient_len - chart_len) <= 1e-6 * max(1.0, chart_len)

    def test_unrolled_matches_arc_length(self):
        s = gen_swiss_roll(50, seed=0)
        unrolled = swiss_roll_unrolled(s.intrinsic)
        np.testing.assert_allclose(
            unrolled[:, 0], swiss_roll_arc_length(s.intrinsic[:, 0])
        )
        np.testing.assert_array_equal(unrolled[:, 1], s.intrinsic[:, 1])


class TestStandardize:
    def test_two_values(self):
        out, mean, sd = standardize([[1.0], [3.0]])
        np.testing.assert_allclose(out[:, 0], [-1.0, 1.0])
        assert mean[0] == 2.0 and sd[0] == 1.0

    def test_constant_column(self):
        out, mean, sd = standardize([[5.0], [5.0], [5.0]])
        np.testing.assert_array_equal(out, np.zeros((3, 1)))
        assert sd[0] == 0.0

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        x = rng.normal(3, 7, (30, 4))
        once, _, _ = standardize(x)
        twice, _, _ = standardize(once)
        np.testing.assert_allclose(twice, once, atol=1e-9)

    def test_moments(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-5, 5, (40, 3))
        out, _, _ = standardize(x)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_self_inverse(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 10, (15, 3))
        out, mean, sd = standardize(x)
        back = out * sd[None, :] + mean[None, :]
        assert np.abs(back - x).max() <= 1e-9 * max(1.0, np.abs(x).max())
