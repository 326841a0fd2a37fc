import numpy as np
import pytest

from spoofkit import attn_explain as ax
from spoofkit import transformer as tr
from spoofkit.errors import InputError


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def region_reader(r0, r1, c0, c1):
    """Closed-form model that only looks at one rectangular region."""
    def predict(values):
        return sigmoid(values[r0:r1, c0:c1].sum())
    return predict


def per_clip(predict):
    """A stack predict_fn for occlusion_scan from a one-spectrogram predict."""
    return lambda stack: [predict(v) for v in stack]


def random_stochastic(rng, T):
    a = rng.uniform(0.01, 1.0, (T, T))
    return a / a.sum(axis=1, keepdims=True)


class TestOcclusionGrid:
    def scan(self, shape, **grid):
        return ax.occlusion_scan(per_clip(lambda v: 0.5), np.zeros(shape), **grid)

    def test_defaults_scale_to_grid(self):
        hm = self.scan((128, 60))
        assert hm.box == (32, 15)
        assert hm.stride == (16, 7)

    def test_tiny_grid_floors_at_one(self):
        hm = self.scan((3, 2))
        assert hm.box == (1, 1) and hm.stride == (1, 1)

    def test_stride_defaults_to_half_the_box(self):
        hm = self.scan((16, 16), box=(8, 5))
        assert hm.box == (8, 5) and hm.stride == (4, 2)
        assert [b[:2] for b in hm.boxes[:3]] == [(0, 0), (0, 2), (0, 4)]

    def test_bad_fill_rejected(self):
        with pytest.raises(InputError, match="unknown fill mode 'median'"):
            self.scan((8, 8), fill="median")

    def test_nonpositive_box_rejected(self):
        with pytest.raises(InputError, match="box and stride must be positive"):
            self.scan((8, 8), box=(0, 5))


class TestOcclusionScan:
    def test_constant_model_all_zero(self):
        spec = np.random.default_rng(0).normal(0, 1, (16, 16))
        hm = ax.occlusion_scan(per_clip(lambda v: 0.7), spec, box=(4, 4), stride=(2, 2))
        assert np.array_equal(hm.importance, np.zeros((16, 16)))
        assert hm.base_prob == 0.7
        assert all(b[4] == 0.0 for b in hm.boxes)

    def test_region_reader_deltas(self):
        # model reads rows 8:12, cols 8:12 only; boxes disjoint from the
        # region change nothing, intersecting boxes always change the output
        rng = np.random.default_rng(1)
        spec = rng.uniform(0.5, 1.5, (16, 16))
        predict = region_reader(8, 12, 8, 12)
        hm = ax.occlusion_scan(per_clip(predict), spec, box=(4, 4), stride=(4, 4))
        for r0, c0, bh, bw, delta in hm.boxes:
            intersects = r0 < 12 and r0 + bh > 8 and c0 < 12 and c0 + bw > 8
            if intersects:
                assert delta > 0.0
            else:
                assert delta == 0.0

    def test_full_box_single_position(self):
        spec = np.random.default_rng(2).uniform(0.1, 1.0, (8, 8))
        predict = region_reader(0, 8, 0, 8)
        hm = ax.occlusion_scan(per_clip(predict), spec, box=(8, 8), stride=(8, 8))
        assert len(hm.boxes) == 1
        expected = abs(predict(spec) - predict(np.zeros((8, 8))))
        assert hm.boxes[0][4] == pytest.approx(expected)
        assert np.allclose(hm.importance, expected)

    def test_uncovered_cells_exactly_zero(self):
        # stride 5 with box 2 leaves columns/rows 2..4 etc. uncovered
        spec = np.random.default_rng(3).normal(0, 1, (7, 7))
        hm = ax.occlusion_scan(per_clip(region_reader(0, 7, 0, 7)), spec,
                               box=(2, 2), stride=(5, 5))
        covered = np.zeros((7, 7), dtype=bool)
        for r0, c0, bh, bw, _ in hm.boxes:
            covered[r0:r0 + bh, c0:c0 + bw] = True
        assert np.all(hm.importance[~covered] == 0.0)
        assert np.any(hm.importance[covered] > 0.0)

    def test_overlap_average_matches_manual_accumulation(self):
        spec = np.random.default_rng(4).uniform(0.2, 1.0, (10, 10))
        hm = ax.occlusion_scan(per_clip(region_reader(0, 10, 0, 10)), spec,
                               box=(4, 4), stride=(2, 2))
        acc = np.zeros((10, 10))
        cover = np.zeros((10, 10))
        # reversed order: averaging must not depend on scan order
        for r0, c0, bh, bw, delta in reversed(hm.boxes):
            acc[r0:r0 + bh, c0:c0 + bw] += delta
            cover[r0:r0 + bh, c0:c0 + bw] += 1
        manual = np.divide(acc, cover, out=np.zeros((10, 10)), where=cover > 0)
        assert np.allclose(hm.importance, manual, atol=1e-15)
        # canonical aggregation makes the heatmap bitwise scan-order invariant
        shuffled = list(hm.boxes)
        np.random.default_rng(0).shuffle(shuffled)
        assert np.array_equal(ax.aggregate_boxes(shuffled, (10, 10)),
                              hm.importance)

    def test_fill_modes(self):
        spec = np.full((4, 4), 0.5)
        hm = ax.occlusion_scan(per_clip(lambda v: sigmoid(v.sum())), spec,
                               box=(4, 4), stride=(4, 4), fill="one")
        assert hm.boxes[0][4] == pytest.approx(abs(sigmoid(8.0) - sigmoid(16.0)))
        hm = ax.occlusion_scan(per_clip(lambda v: sigmoid(v.sum())), spec,
                               box=(4, 4), stride=(4, 4), fill="mean")
        assert hm.boxes[0][4] == 0.0  # mean fill of a constant input is a no-op

    def test_box_larger_than_input_rejected(self):
        with pytest.raises(InputError):
            ax.occlusion_scan(per_clip(lambda v: 0.5), np.zeros((8, 8)),
                              box=(200, 50), stride=(100, 25))


def naive_occlusion_scan(model, values, box, stride):
    """Per-box oracle: one single-clip forward for the input and one for
    each occluded copy. Returns (base_prob, boxes)."""
    H, W = values.shape
    bh, bw = box
    sh, sw = stride
    base = tr.forward(values, model).prob_spoof
    boxes = []
    for r0 in range(0, H - bh + 1, sh):
        for c0 in range(0, W - bw + 1, sw):
            occluded = values.copy()
            occluded[r0:r0 + bh, c0:c0 + bw] = 0.0
            delta = abs(base - tr.forward(occluded, model).prob_spoof)
            boxes.append((r0, c0, bh, bw, delta))
    return base, boxes


@pytest.fixture(scope="module")
def toy_model():
    """A transformer trained on 32x16 inputs whose spoofs carry a bright
    region, and one spoof input."""
    rng = np.random.default_rng(12)
    data = []
    for i in range(16):
        spec = rng.normal(0, 0.1, (32, 16))
        if i % 2:
            spec[8:16, 4:12] += 1.0
        data.append((spec, i % 2))
    cfg = tr.TransformerConfig(d_model=8, n_layers=2, n_heads=2, d_ff=16,
                               geometry=tr.PatchGeometry(8, 8, 8, 8),
                               input_shape=(32, 16))
    return tr.train_toy(data, cfg, tr.TrainConfig(steps=40)), data[1][0]


class TestBatchedOcclusion:
    @pytest.mark.parametrize("box,stride", [(None, None), ((1, 1), (1, 1))],
                             ids=["default_grid", "1x1_stride_1"])
    def test_matches_per_box_forward_loop(self, toy_model, box, stride):
        model, spec = toy_model
        sizes = []

        def predict_fn(stack):
            sizes.append(len(stack))
            return tr.predict_proba(model, stack)

        hm = ax.occlusion_scan(predict_fn, spec, box, stride)
        # the default grid of a 32x16 input: a quarter of each side, half that
        base, boxes = naive_occlusion_scan(model, spec, box or (8, 4), stride or (4, 2))
        assert sum(sizes) == len(boxes) + 1
        assert max(sizes) <= ax.OCCLUSION_CHUNK
        if box:
            assert len(sizes) > 1  # more boxes than one chunk holds
        assert abs(hm.base_prob - base) <= 1e-12
        assert [b[:4] for b in hm.boxes] == [b[:4] for b in boxes]
        assert max(abs(got[4] - want[4]) for got, want in zip(hm.boxes, boxes)) <= 1e-12


class TestLayerAttentionMaps:
    def test_single_head_passthrough(self):
        rng = np.random.default_rng(5)
        a = random_stochastic(rng, 4)[None]  # one head
        maps = ax.layer_attention_maps([a])
        assert np.array_equal(maps[0], a[0])

    def test_uniform_plus_onehot_rows_sum_one(self):
        T = 4
        uniform = np.full((T, T), 1.0 / T)
        onehot = np.eye(T)[[1, 0, 3, 2]]
        maps = ax.layer_attention_maps([np.stack([uniform, onehot])])
        assert np.allclose(maps[0].sum(axis=1), 1.0)

    def test_matches_hand_mean(self):
        rng = np.random.default_rng(6)
        heads = np.stack([random_stochastic(rng, 5) for _ in range(3)])
        maps = ax.layer_attention_maps([heads])
        ref = (heads[0] + heads[1] + heads[2]) / 3.0
        assert np.allclose(maps[0], ref, atol=1e-12)

    def test_empty_record_rejected(self):
        with pytest.raises(InputError):
            ax.layer_attention_maps([])


class TestRollout:
    def test_identity_layers_uniform_fallback(self):
        layers = [np.eye(5)[None]] * 3
        rmap = ax.rollout(layers)
        assert np.array_equal(rmap.matrix, np.eye(5))
        assert rmap.uniform_fallback
        assert np.allclose(rmap.cls_importance, 0.25)

    def test_single_layer_exact(self):
        rng = np.random.default_rng(7)
        a = random_stochastic(rng, 6)
        rmap = ax.rollout([a[None]])
        assert np.array_equal(rmap.matrix, a)
        assert np.allclose(rmap.cls_importance, a[0, 1:] / a[0, 1:].sum())

    def test_matches_naive_product_oracle(self):
        rng = np.random.default_rng(8)
        mats = [random_stochastic(rng, 6) for _ in range(3)]
        rmap = ax.rollout([m[None] for m in mats])
        ref = mats[0] @ mats[1] @ mats[2]
        assert np.allclose(rmap.matrix, ref, atol=1e-9)
        assert np.allclose(rmap.matrix.sum(axis=1), 1.0, atol=1e-6)

    @pytest.mark.parametrize("depth", [1, 4, 12])
    def test_rows_stochastic_any_depth(self, depth):
        rng = np.random.default_rng(depth)
        layers = [random_stochastic(rng, 7)[None] for _ in range(depth)]
        rmap = ax.rollout(layers)
        assert np.allclose(rmap.matrix.sum(axis=1), 1.0, atol=1e-6)
        assert rmap.cls_importance.sum() == pytest.approx(1.0, abs=1e-6)
        assert rmap.cls_importance.min() >= 0.0

    def test_residual_half_mode(self):
        rng = np.random.default_rng(9)
        mats = [random_stochastic(rng, 5) for _ in range(2)]
        rmap = ax.rollout([m[None] for m in mats], residual_mode="residual_half")
        mixed = [0.5 * (m + np.eye(5)) for m in mats]
        mixed = [m / m.sum(axis=1, keepdims=True) for m in mixed]
        assert np.allclose(rmap.matrix, mixed[0] @ mixed[1], atol=1e-12)

    def test_last_mode_is_the_final_layer_alone(self):
        rng = np.random.default_rng(11)
        layers = [random_stochastic(rng, 5)[None] for _ in range(3)]
        last = ax.rollout(layers, residual_mode="last")
        alone = ax.rollout(layers[-1:])
        assert np.array_equal(last.matrix, alone.matrix)
        assert np.array_equal(last.matrix, layers[-1][0])
        assert np.array_equal(last.cls_importance, alone.cls_importance)

    def test_permutation_consistency(self):
        # permuting non-CLS tokens permutes cls_importance identically
        rng = np.random.default_rng(10)
        mats = [random_stochastic(rng, 6) for _ in range(2)]
        base = ax.rollout([m[None] for m in mats]).cls_importance
        perm = np.array([0, 3, 1, 4, 2, 5])
        permuted = [m[np.ix_(perm, perm)] for m in mats]
        shuffled = ax.rollout([m[None] for m in permuted]).cls_importance
        assert np.allclose(shuffled, base[perm[1:] - 1], atol=1e-12)

    def test_non_stochastic_rejected(self):
        bad = np.full((4, 4), 0.3)
        with pytest.raises(InputError):
            ax.rollout([bad[None]])

    def test_unknown_mode_rejected(self):
        with pytest.raises(InputError):
            ax.rollout([np.eye(3)[None]], residual_mode="max")

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(InputError):
            ax.rollout([np.eye(3)[None], np.eye(4)[None]])


def spans(n, width=20.0):
    return [(i * width, (i + 1) * width) for i in range(n)]


class TestClsTimeline:
    def rmap(self, importance):
        imp = np.asarray(importance, dtype=np.float64)
        return ax.RolloutMap(np.eye(len(imp) + 1), imp)

    def test_uniform_importance_no_salient_region(self):
        tl = ax.cls_timeline(self.rmap(np.full(10, 0.1)), spans(10))
        assert tl.no_salient_region
        assert tl.segments == []

    def test_single_hot_token(self):
        imp = np.zeros(10)
        imp[4] = 1.0
        tl = ax.cls_timeline(self.rmap(imp), spans(10))
        assert tl.segments == [(80.0, 100.0, 1.0)]
        assert not tl.no_salient_region

    def test_adjacent_hot_tokens_merged(self):
        # 20 tokens keep the 90th-percentile threshold below both hot values
        imp = np.full(20, 0.01)
        imp[3] = 0.45
        imp[4] = 0.47
        tl = ax.cls_timeline(self.rmap(imp), spans(20))
        assert len(tl.segments) == 1
        start, end, mass = tl.segments[0]
        assert (start, end) == (60.0, 100.0)
        assert mass == pytest.approx(0.92)

    def test_separated_hot_tokens_two_segments(self):
        imp = np.full(20, 0.01)
        imp[1] = 0.4
        imp[7] = 0.52
        tl = ax.cls_timeline(self.rmap(imp), spans(20))
        assert len(tl.segments) == 2
        assert tl.segments[0][:2] == (20.0, 40.0)
        assert tl.segments[1][:2] == (140.0, 160.0)

    def test_missing_spans_rejected(self):
        rmap = ax.RolloutMap(np.eye(4), np.full(3, 1 / 3))
        with pytest.raises(InputError):
            ax.cls_timeline(rmap, [])


class TestRenderHeatmap:
    def test_constant_matrix_uniform_gray(self, tmp_path):
        pgm, _ = ax.render_heatmap(np.full((3, 5), 2.0), tmp_path / "hm")
        with open(pgm, "rb") as fh:
            data = fh.read()
        header, pixels = data.split(b"255\n", 1)
        assert header == b"P5\n5 3\n"
        assert pixels == bytes([128] * 15)

    def test_2x2_normalization_arithmetic(self, tmp_path):
        m = np.array([[0.0, 1.0], [0.5, 0.25]])
        pgm, csv = ax.render_heatmap(m, tmp_path / "hm")
        with open(pgm, "rb") as fh:
            pixels = fh.read().split(b"255\n", 1)[1]
        assert list(pixels) == [0, 255, 128, 64]
        with open(csv) as fh:
            rows = [list(map(float, line.split(","))) for line in fh]
        assert np.array_equal(np.array(rows), m)

    def test_rerender_byte_identical(self, tmp_path):
        m = np.random.default_rng(11).normal(0, 1, (6, 4))
        p1, c1 = ax.render_heatmap(m, tmp_path / "a")
        p2, c2 = ax.render_heatmap(m, tmp_path / "b")
        assert open(p1, "rb").read() == open(p2, "rb").read()
        assert open(c1).read() == open(c2).read()

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(InputError):
            ax.render_heatmap(np.array([[0.0, np.nan]]), tmp_path / "bad")

    def test_csv_bytes_match_per_cell_repr(self, tmp_path):
        m = np.array([[-0.0, 1e-300, 1 / 3], [1e300, 2.5, -7.0]])
        _, csv = ax.render_heatmap(m, tmp_path / "hm")
        want = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in m)
        with open(csv, "rb") as fh:
            assert fh.read() == want.encode()
