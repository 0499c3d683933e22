"""Availability model: features, forward/loss/gradient, training protocol."""

from __future__ import annotations

import json
import math
from dataclasses import replace
from datetime import date, datetime, time, timedelta

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from parksim import occupancy_model
from parksim.data_ingest import PAYMENT_COLUMNS, read_payments, write_table
from parksim.errors import DataError, NumericError
from parksim.occupancy_model import (
    BASELINE_DIMS,
    NETWORK_DIMS,
    EvalReport,
    Network,
    Samples,
    TrainConfig,
    build_dataset,
    feature_matrix,
    forward,
    gradient,
    load_model,
    loss,
    micros,
    predict_block_probabilities,
    save_model,
    train,
    train_baseline,
)
from parksim.road_graph import build_graph

from conftest import PaymentRecord, grid_graph, line_graph, sessions_of
from oracles import extract_features, finite_difference_gradient, fit_split, plain_forward

T0 = datetime(2026, 3, 4, 10, 0)


def zero_model(mean=None, std=None, dims=NETWORK_DIMS) -> Network:
    return Network(
        [(np.zeros((n_in, n_out)), np.zeros(n_out)) for n_in, n_out in zip(dims, dims[1:])],
        feature_mean=np.zeros(4) if mean is None else np.asarray(mean, float),
        feature_std=np.ones(4) if std is None else np.asarray(std, float),
    )


def random_model(rng: np.random.Generator, scale=0.7, dims=NETWORK_DIMS) -> Network:
    layers = [(rng.normal(0, scale, (n_in, n_out)), rng.normal(0, scale, n_out))
              for n_in, n_out in zip(dims, dims[1:])]
    return Network(layers, feature_mean=rng.normal(0, 1, 4),
                   feature_std=rng.uniform(0.5, 2.0, 4))


def features_at(payments, block_id, t, g):
    """One row of the bulk feature function, as a tuple."""
    return tuple(feature_matrix(sessions_of(payments), g, [block_id], [micros(t)])[0])


class TestExtractFeatures:
    def test_no_payments(self):
        g = line_graph(drive_times=(30.0, 30.0, 30.0), lengths=(120.0, 100.0, 100.0))
        assert features_at([], "e0", T0, g) == (0.0, 0.0, 120.0, 30.0 / 120.0)

    def test_single_active_record(self):
        g = line_graph(drive_times=(30.0, 30.0, 30.0), lengths=(120.0, 100.0, 100.0))
        pay = [PaymentRecord("e0", T0 - timedelta(seconds=100), 600.0)]
        assert features_at(pay, "e0", T0, g) == (1.0, 1.0, 120.0, 0.25)

    def test_session_ending_exactly_at_t_not_active(self):
        g = line_graph()
        pay = [PaymentRecord("e0", T0 - timedelta(seconds=600), 600.0)]
        active, popularity, _, _ = features_at(pay, "e0", T0, g)
        assert active == 0.0
        assert popularity == 1.0  # started inside the 3 h window

    def test_popularity_counts_by_start_time_only(self):
        g = line_graph()
        pay = [
            PaymentRecord("e0", T0 - timedelta(hours=4), 36000.0),  # active, old start
            PaymentRecord("e0", T0 - timedelta(hours=2), 300.0),    # in window, over
        ]
        active, popularity, _, _ = features_at(pay, "e0", T0, g)
        assert active == 1.0
        assert popularity == 1.0

    def test_unknown_block(self):
        g = line_graph()
        with pytest.raises(DataError):
            feature_matrix(sessions_of([]), g, ["missing"], [micros(T0)])


# A payment placed relative to the query time t: (kind, microseconds, paid
# seconds). Kinds put a boundary exactly at t or t - 3 h, or make the end
# fall half a microsecond either side of t, where it rounds.
US = timedelta(microseconds=1)
WINDOW = timedelta(hours=3)
PAID_S = st.floats(1e-6, 6 * 3600.0, allow_nan=False)
PAYMENTS = st.one_of(
    st.tuples(st.just("any"), st.integers(-5 * 3600 * 10**6, 10**9), PAID_S),
    st.tuples(st.just("starts_at_t"), st.just(0), PAID_S),
    st.tuples(st.just("starts_at_window"), st.just(0), PAID_S),
    st.tuples(st.just("ends_at_t"), st.integers(1, 4 * 3600 * 10**6), st.just(0.0)),
    st.tuples(st.just("rounds_at_t"), st.integers(1, 4 * 3600 * 10**6),
              st.sampled_from([-0.5, 0.5, -0.5000001, 0.4999999])),
)


def place(t, kind, us, paid_s):
    if kind == "any":
        return t + us * US, paid_s
    if kind == "starts_at_t":
        return t, paid_s
    if kind == "starts_at_window":
        return t - WINDOW, paid_s
    # ends at t exactly, or half a microsecond off it
    return t - us * US, (us + paid_s) / 1e6


@given(payments=st.lists(st.tuples(st.sampled_from(["e0", "e1"]), PAYMENTS), max_size=12),
       offsets=st.lists(st.integers(-4 * 3600 * 10**6, 4 * 3600 * 10**6), max_size=4))
def test_read_payments_features_equal_the_scanning_oracle(tmp_path_factory, payments, offsets):
    g = line_graph(drive_times=(13.0, 29.0, 31.0), lengths=(97.0, 110.0, 100.0))
    t = datetime(2026, 3, 4, 10, 0, 0, 250_000)
    records = [PaymentRecord(block, *place(t, *p)) for block, p in payments]
    path = tmp_path_factory.getbasetemp() / "property_payments.csv"
    write_table(path, PAYMENT_COLUMNS,
                ([r.block_id, r.start.isoformat(), repr(r.duration_s)] for r in records))
    queries = [(block, t + off * US) for off in [0, *offsets] for block in ("e0", "e1", "e2")]
    blocks, times = zip(*queries)
    X = feature_matrix(read_payments(path), g, blocks, list(map(micros, times)))
    for row, (block, when) in zip(X, queries):
        assert tuple(row) == extract_features(records, block, when, g)


class TestForward:
    def test_zero_model_gives_half_half(self):
        p = forward(zero_model(), [3.0, 1.0, 50.0, 0.2])
        assert p == (0.5, 0.5)

    def test_swapping_output_units_swaps_probabilities(self):
        rng = np.random.default_rng(0)
        m = random_model(rng)
        w3, b3 = m.layers[-1]
        swapped = replace(m, layers=m.layers[:-1] + [(w3[:, ::-1].copy(), b3[::-1].copy())])
        x = [1.0, 2.0, 80.0, 0.1]
        assert forward(m, x) == pytest.approx(forward(swapped, x)[::-1], abs=1e-15)

    def test_matches_straight_line_evaluation(self):
        rng = np.random.default_rng(123)
        for _ in range(10):
            m = random_model(rng)
            x = rng.normal(0, 2, 4)
            expected = plain_forward(
                [w.tolist() for w, _ in m.layers],
                [b.tolist() for _, b in m.layers],
                (m.feature_mean.tolist(), m.feature_std.tolist()),
                x.tolist(),
            )
            p_avail, p_full = forward(m, x)
            assert p_avail == pytest.approx(expected[1], rel=1e-12)
            assert p_full == pytest.approx(expected[0], rel=1e-12)

    def test_output_sums_to_one(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            m = random_model(rng, scale=rng.uniform(0.1, 3.0))
            p = forward(m, rng.normal(0, 5, 4))
            assert abs(p[0] + p[1] - 1.0) <= 1e-12

    def test_output_strictly_inside_unit_interval(self):
        # float64 softmax saturates to exactly 0/1 once the logit gap
        # passes ~745; the open-interval guarantee is tested where the
        # outputs are representable
        rng = np.random.default_rng(98)
        for _ in range(200):
            m = random_model(rng, scale=0.2)
            p = forward(m, rng.normal(0, 1, 4))
            assert 0.0 < p[0] < 1.0
            assert 0.0 < p[1] < 1.0

    def test_non_finite_input_rejected(self):
        with pytest.raises(NumericError):
            forward(zero_model(), [np.nan, 0, 0, 0])


class TestLoss:
    def test_zero_model_is_ln2(self):
        X = np.random.default_rng(1).normal(0, 1, (8, 4))
        y = np.array([0, 1] * 4)
        assert loss(zero_model(), X, y) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_perfect_prediction_limit(self):
        m = zero_model()
        m.layers[-1][1][:] = [0.0, 40.0]  # huge margin for class 1
        X = np.zeros((4, 4))
        y = np.ones(4, dtype=int)
        assert loss(m, X, y) < 1e-12

    def test_three_sample_hand_batch(self):
        # only the first unit of each layer is wired through; value frozen
        # from an independent straight-line evaluation
        m = zero_model()
        (w1, _), (w2, _), (w3, b3) = m.layers
        w1[0, 0] = 1.0
        w2[0, 0] = 1.0
        w3[0, 0] = 1.0
        w3[0, 1] = -1.0
        b3[:] = [0.1, -0.2]
        X = np.array([[1.0, 0, 0, 0], [-2.0, 0, 0, 0], [0.5, 0, 0, 0]])
        y = np.array([1, 0, 1])
        assert loss(m, X, y) == pytest.approx(1.4969697209664938, abs=1e-12)

    def test_empty_batch_rejected(self):
        with pytest.raises(DataError):
            loss(zero_model(), np.zeros((0, 4)), np.zeros(0, dtype=int))


class TestGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2024)
        for _ in range(5):
            m = random_model(rng, scale=0.6)
            X = rng.normal(0, 1.5, (6, 4))
            y = rng.integers(0, 2, 6)
            grads = gradient(m, X, y)
            params = {(i, j): p for i, layer in enumerate(m.layers)
                      for j, p in enumerate(layer)}
            fd = finite_difference_gradient(lambda: loss(m, X, y), params)
            for (i, j), expected in fd.items():
                err = np.abs(grads[i][j] - expected)
                rel = err / np.maximum(1.0, np.abs(expected))
                assert rel.max() <= 1e-4, (i, j)

    def test_zero_input_zero_weights_first_layer_gradient_zero(self):
        m = zero_model()
        X = np.zeros((4, 4))
        y = np.array([0, 1, 0, 1])
        dw1, db1 = gradient(m, X, y)[0]
        assert np.all(dw1 == 0.0)
        assert np.all(db1 == 0.0)

    def test_duplicated_batch_same_gradient(self):
        rng = np.random.default_rng(5)
        m = random_model(rng)
        X = rng.normal(0, 1, (3, 4))
        y = np.array([1, 0, 1])
        g1 = gradient(m, X, y)
        g2 = gradient(m, np.vstack([X, X]), np.concatenate([y, y]))
        for layer1, layer2 in zip(g1, g2):
            for p1, p2 in zip(layer1, layer2):
                assert p1 == pytest.approx(p2, abs=1e-14)


class TestParameterCount:
    def test_exactly_1142(self):
        assert zero_model().parameter_count == 1142


# -- synthetic training sets routed through real payments + graph ---------------

def build_city_samples(rng, n, rule, *, noise=0.0):
    """Samples plus payments on a graph with heterogeneous blocks.

    rule(features) -> 0/1 decides the clean label; noise flips a
    fraction of labels. Each sample owns a 4-hour slot on its block, so
    sessions planted for one sample can never leak into another sample's
    active or popularity counts.
    """
    g = grid_graph(3, drive=12.0)
    # give blocks varied lengths/congestion by rebuilding with per-edge values
    from conftest import make_edge
    from parksim.road_graph import build_graph
    edges = []
    for e in sorted(g.edges.values(), key=lambda e: e.id):
        length = float(rng.integers(60, 200))
        drive = float(rng.integers(8, 60))
        edges.append(make_edge(e.id, e.from_node, e.to_node, length=length,
                               walk=70.0, drive=drive))
    g = build_graph(g.nodes.values(), edges)

    block_ids = sorted(g.edges)
    payments = []
    samples = []
    base = datetime(2026, 3, 2)
    for i in range(n):
        block = block_ids[i % len(block_ids)]
        slot = i // len(block_ids)
        t = (base + timedelta(days=slot // 3, hours=6 + 4 * (slot % 3),
                              minutes=int(rng.integers(60))))
        active = int(rng.integers(0, 6))
        stale = int(rng.integers(0, 4))
        for k in range(active):
            payments.append(PaymentRecord(block, t - timedelta(seconds=120 + 7 * k), 3600.0))
        for k in range(stale):
            payments.append(PaymentRecord(block, t - timedelta(hours=2, seconds=11 * k), 600.0))
        fv = extract_features(payments, block, t, g)
        assert fv[:2] == (active, active + stale)
        raw = rule(fv)
        # a float rule is a posterior probability, an int rule a hard label
        label = int(rng.random() < raw) if isinstance(raw, float) else int(raw)
        if noise and rng.random() < noise:
            label = 1 - label
        samples.append((block, t, label))
    return g, payments, samples


def dataset(g, payments, samples):
    """Features and labels of (block, time, label) samples."""
    blocks, times, labels = zip(*samples)
    return build_dataset(Samples(np.array(blocks, dtype=object),
                                 np.array(list(map(micros, times)), dtype=np.int64),
                                 np.array(labels)), sessions_of(payments), g)


def city_dataset(rng, n, rule, *, noise=0.0):
    """Feature matrix and labels of ``build_city_samples``."""
    g, payments, samples = build_city_samples(rng, n, rule, noise=noise)
    return dataset(g, payments, samples)


# rules over (active, popularity, length, congestion)
def linear_rule(fv) -> int:
    return int(fv[0] <= 2.0)


def logistic_rule(fv) -> float:
    # true posterior inside the logistic family, so the baseline can fit
    # it exactly and the network has nothing extra to find
    return 1.0 / (1.0 + math.exp(1.2 * (fv[0] - 2.5)))


def xor_rule(fv) -> int:
    return int((fv[0] >= 3.0) != (fv[3] >= 0.3))


class TestTrain:
    def test_linearly_separable_high_accuracy(self):
        rng = np.random.default_rng(7)
        X, y = city_dataset(rng, 600, linear_rule)
        cfg = TrainConfig(splits=2, epochs=60, seed=3)
        model, report = train(X, y, cfg)
        assert report.mean_val_accuracy >= 0.95
        assert model.dims == NETWORK_DIMS

    def test_zero_epochs_near_ln2(self):
        rng = np.random.default_rng(8)
        X, y = city_dataset(rng, 120, linear_rule)
        _, report = train(X, y, TrainConfig(splits=2, epochs=0, seed=1))
        assert report.mean_val_cross_entropy == pytest.approx(math.log(2.0), abs=0.05)

    def test_fixed_seed_bit_identical(self):
        rng = np.random.default_rng(9)
        X, y = city_dataset(rng, 150, linear_rule)
        cfg = TrainConfig(splits=3, epochs=5, seed=11)
        _, r1 = train(X, y, cfg)
        _, r2 = train(X, y, cfg)
        assert r1 == r2

    def test_loss_decreases_with_training(self):
        rng = np.random.default_rng(10)
        X, y = city_dataset(rng, 300, linear_rule, noise=0.05)
        _, before = train(X, y, TrainConfig(splits=1, epochs=0, seed=2))
        _, after = train(X, y, TrainConfig(splits=1, epochs=40, seed=2))
        assert after.mean_val_cross_entropy < before.mean_val_cross_entropy

    def test_insufficient_data_rejected(self):
        rng = np.random.default_rng(11)
        X, y = city_dataset(rng, 20, linear_rule)
        with pytest.raises(DataError):
            train(X, y, TrainConfig())

    def test_single_class_rejected(self):
        rng = np.random.default_rng(12)
        X, y = city_dataset(rng, 80, lambda fv: 1)
        with pytest.raises(DataError):
            train(X, y, TrainConfig())

    def test_feature_norm_ignores_validation_rows(self):
        rng = np.random.default_rng(13)
        g, payments, samples = build_city_samples(rng, 100, linear_rule)
        cfg = TrainConfig(splits=1, epochs=0, seed=21)
        model, _ = train(*dataset(g, payments, samples), cfg)
        # find a sample that the documented protocol places in validation
        perm = np.random.default_rng(cfg.seed).permutation(len(samples))
        val_pos = int(perm[0])
        block, t, label = samples[val_pos]
        mutated = list(samples)
        mutated[val_pos] = (block, t + timedelta(minutes=1), label)
        # pile sessions onto the outlier's block so its features explode
        extra = [PaymentRecord(block, t + timedelta(minutes=1, seconds=-9 * k), 1200.0)
                 for k in range(40)]
        model2, _ = train(*dataset(g, payments + extra, mutated), cfg)
        assert np.array_equal(model.feature_mean, model2.feature_mean)
        assert np.array_equal(model.feature_std, model2.feature_std)


class TestBaseline:
    def test_linear_data_baseline_close_to_mlp(self):
        rng = np.random.default_rng(14)
        X, y = city_dataset(rng, 1500, logistic_rule)
        cfg = TrainConfig(splits=3, epochs=80, seed=5)
        _, mlp_report = train(X, y, cfg)
        _, base_report = train_baseline(X, y, cfg)
        assert abs(base_report.mean_val_cross_entropy
                   - mlp_report.mean_val_cross_entropy) <= 0.01

    def test_nonlinear_data_mlp_wins(self):
        rng = np.random.default_rng(15)
        X, y = city_dataset(rng, 1200, xor_rule, noise=0.02)
        cfg = TrainConfig(splits=3, epochs=80, seed=6)
        _, mlp_report = train(X, y, cfg)
        _, base_report = train_baseline(X, y, cfg)
        assert (mlp_report.mean_val_cross_entropy
                <= base_report.mean_val_cross_entropy - 0.02)

    def test_zero_epoch_baseline_near_ln2(self):
        rng = np.random.default_rng(16)
        X, y = city_dataset(rng, 120, linear_rule)
        model, report = train_baseline(X, y, TrainConfig(splits=2, epochs=0, seed=4))
        assert model.dims == BASELINE_DIMS
        assert report.mean_val_cross_entropy == pytest.approx(math.log(2.0), abs=0.05)

    def test_same_splits_as_network(self):
        # identical seed must give identical partitions; the training-split
        # feature statistics stored on each model prove the rows match
        rng = np.random.default_rng(17)
        X, y = city_dataset(rng, 200, linear_rule)
        cfg = TrainConfig(splits=1, epochs=0, seed=8)
        m_mlp, _ = train(X, y, cfg)
        m_base, _ = train_baseline(X, y, cfg)
        assert np.array_equal(m_mlp.feature_mean, m_base.feature_mean)
        assert np.array_equal(m_mlp.feature_std, m_base.feature_std)


@pytest.mark.parametrize("splits", [1, 4])
@pytest.mark.parametrize("fit,dims", [(train, NETWORK_DIMS), (train_baseline, BASELINE_DIMS)],
                         ids=["network", "baseline"])
def test_lockstep_equals_one_split_at_a_time(fit, dims, splits):
    rng = np.random.default_rng(22)
    X, y = city_dataset(rng, 150, linear_rule, noise=0.1)
    # 150 rows leave 120 to train on: batches of 32, 32, 32 and a short 24
    cfg = TrainConfig(splits=splits, epochs=4, seed=31)
    model, report = fit(X, y, cfg)
    fits = [fit_split(X, y, cfg, i, dims) for i in range(splits)]
    scores = [score for _, score in fits]
    assert report.per_split == tuple(scores)
    assert report.mean_val_cross_entropy == float(np.mean([s.cross_entropy for s in scores]))
    assert report.mean_val_accuracy == float(np.mean([s.accuracy for s in scores]))
    best = min(range(splits), key=lambda i: scores[i].cross_entropy)  # the first minimum
    expected = fits[best][0]
    for (w, b), (w_ref, b_ref) in zip(model.layers, expected.layers, strict=True):
        assert np.array_equal(w, w_ref) and np.array_equal(b, b_ref)
    assert np.array_equal(model.feature_mean, expected.feature_mean)
    assert np.array_equal(model.feature_std, expected.feature_std)


class TestPredict:
    def make_trained(self):
        rng = np.random.default_rng(18)
        g, payments, samples = build_city_samples(rng, 200, linear_rule)
        model, _ = train(*dataset(g, payments, samples),
                         TrainConfig(splits=1, epochs=10, seed=9))
        return g, payments, model

    def test_unmetered_block_gets_zero(self):
        g0, payments, model = self.make_trained()
        g = grid_graph(3, meters=0)
        p = predict_block_probabilities(model, sessions_of([]), g, (12,), date(2026, 3, 6))
        assert p.shape == (1, len(g.edges))
        assert (p == 0.0).all()

    def test_covers_every_edge_in_unit_interval(self):
        g, payments, model = self.make_trained()
        p = predict_block_probabilities(model, sessions_of(payments), g, (10,),
                                        date(2026, 3, 4))
        assert p.shape == (1, len(g.edges))
        assert ((0.0 < p) & (p < 1.0)).all()

    def test_matches_feature_forward_composition(self):
        g, payments, model = self.make_trained()
        on_date = date(2026, 3, 4)
        p = predict_block_probabilities(model, sessions_of(payments), g, (10,), on_date)
        t = datetime(2026, 3, 4, 10, 30)
        for eid in list(g.edges)[:8]:
            fv = extract_features(payments, eid, t, g)
            assert p[0, g.position[eid]] == forward(model, fv)[0]

    def test_each_hour_row_equals_a_one_hour_call(self):
        g, payments, model = self.make_trained()
        sessions, on_date = sessions_of(payments), date(2026, 3, 4)
        hours = (17, 10, 0)
        p = predict_block_probabilities(model, sessions, g, hours, on_date)
        for i, hour in enumerate(hours):
            assert np.array_equal(
                p[i], predict_block_probabilities(model, sessions, g, (hour,), on_date)[0])
        for hour in (-1, 24):
            with pytest.raises(DataError, match="hour must be an integer in 0..23"):
                predict_block_probabilities(model, sessions, g, (10, hour), on_date)

    @pytest.mark.parametrize("dims", [NETWORK_DIMS, BASELINE_DIMS], ids=["network", "baseline"])
    @pytest.mark.parametrize("metered", [0, 1, 5], ids=["none", "one", "several"])
    def test_stacked_pass_equals_forward_per_cell(self, dims, metered):
        # the one stacked pass gives every cell forward's bits, exactly
        rng = np.random.default_rng(len(dims) * 10 + metered)
        grid = grid_graph(4)
        meter_ids = set(grid.block_ids[:metered])
        g = build_graph(list(grid.nodes.values()), [
            replace(e, meter_count=4 * (e.id in meter_ids), length_m=rng.uniform(20, 300))
            for e in grid.edges.values()])
        hours = (9, 13, 0, 18)
        payments = [PaymentRecord(str(rng.choice(g.block_ids)),
                                  T0 + timedelta(hours=float(rng.uniform(-6, 10))),
                                  float(rng.uniform(60, 7200))) for _ in range(400)]
        sessions, model = sessions_of(payments), random_model(rng, dims=dims)
        # statistics near the features', so that no probability rounds to 0 or 1
        model.feature_mean = np.array([2.0, 3.0, 160.0, 0.1])
        model.feature_std = np.array([2.0, 3.0, 80.0, 0.05])
        p = predict_block_probabilities(model, sessions, g, hours, T0.date())
        expected = np.zeros((len(hours), len(g.block_ids)))
        for i, hour in enumerate(hours):
            t = micros(datetime.combine(T0.date(), time(hour, 30)))
            for block_id in meter_ids:
                fv = feature_matrix(sessions, g, [block_id], [t])[0]
                expected[i, g.position[block_id]] = forward(model, fv)[0]
        assert np.array_equal(p, expected)
        assert np.count_nonzero((0.0 < p) & (p < 1.0)) == metered * len(hours)

    @pytest.mark.parametrize("dims", [NETWORK_DIMS, BASELINE_DIMS], ids=["network", "baseline"])
    def test_stacked_pass_equals_forward_on_wide_features(self, monkeypatch, dims):
        # features far outside what the synthetic cities produce
        rng = np.random.default_rng(len(dims))
        g = grid_graph(3)
        X = rng.normal(0, 1, (3 * len(g.block_ids), 4)) * 10.0 ** rng.integers(-2, 2, (1, 4))
        monkeypatch.setattr(occupancy_model, "feature_matrix", lambda *args: X)
        model = random_model(rng, dims=dims)
        p = predict_block_probabilities(model, sessions_of([]), g, (1, 2, 3),
                                        date(2026, 3, 4))
        assert np.array_equal(p.ravel(), [forward(model, x)[0] for x in X])
        assert ((0.0 < p) & (p < 1.0)).mean() > 0.5

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feature_is_a_numeric_error(self, monkeypatch, bad):
        g = grid_graph(3)
        X = np.ones((len(g.block_ids), 4))
        X[5, 2] = bad
        monkeypatch.setattr(occupancy_model, "feature_matrix", lambda *args: X)
        with pytest.raises(NumericError, match="non-finite feature input"):
            predict_block_probabilities(zero_model(), sessions_of([]), g, (12,),
                                        date(2026, 3, 4))


class TestPersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        m = random_model(rng)
        path = tmp_path / "model.json"
        save_model(m, path)
        m2 = load_model(path)
        for (w, b), (w2, b2) in zip(m.layers, m2.layers, strict=True):
            assert np.array_equal(w, w2) and np.array_equal(b, b2)
        assert np.array_equal(m.feature_mean, m2.feature_mean)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(zero_model(), path)
        raw = json.loads(path.read_text())
        raw["format_version"] = 99
        path.write_text(json.dumps(raw))
        with pytest.raises(DataError):
            load_model(path)

    @pytest.mark.parametrize("dims,names", [
        (NETWORK_DIMS, {"w1", "b1", "w2", "b2", "w3", "b3"}),
        (BASELINE_DIMS, {"w", "b"}),
    ], ids=["network", "baseline"])
    def test_each_kind_keeps_its_parameter_names(self, tmp_path, dims, names):
        m = random_model(np.random.default_rng(20), dims=dims)
        path = tmp_path / "model.json"
        save_model(m, path)
        raw = json.loads(path.read_text())
        assert set(raw["weights"]) == set(raw["shapes"]) == names
        m2 = load_model(path)
        assert m2.dims == dims
        for (w, b), (w2, b2) in zip(m.layers, m2.layers, strict=True):
            assert np.array_equal(w, w2) and np.array_equal(b, b2)

    @pytest.mark.parametrize("edits,error", [
        ({(): [1, 2]}, DataError),
        ({("kind",): ["mlp"]}, DataError),
        ({("feature_norm",): None}, DataError),
        ({("feature_norm",): [0.0, 1.0]}, DataError),
        ({("feature_norm", "std"): "wide"}, DataError),
        ({("feature_norm", "mean"): [0.0, 0.0, 0.0]}, DataError),
        ({("shapes",): None}, DataError),
        ({("shapes",): [4, 30]}, DataError),
        ({("weights",): None}, DataError),
        ({("weights", "w1"): {"a": 1.0}}, DataError),
        ({("shapes", "b3"): [3], ("weights", "b3"): [0.0, 0.0, 0.0]}, DataError),
        ({("feature_norm", "std"): [0.0, 1.0, 1.0, 1.0]}, DataError),
        ({("feature_norm", "std"): [-1.0, 1.0, 1.0, 1.0]}, DataError),
        ({("feature_norm", "mean"): [math.nan, 0.0, 0.0, 0.0]}, NumericError),
        ({("feature_norm", "std"): [math.inf, 1.0, 1.0, 1.0]}, NumericError),
        ({("weights", "b2"): [math.nan] * 30}, NumericError),
    ], ids=["json_list", "kind_list", "no_feature_norm", "feature_norm_list", "std_string",
            "mean_too_short", "no_shapes", "shapes_list", "no_weights",
            "weight_object", "bias_wrong_shape", "std_zero", "std_negative",
            "mean_nan", "std_inf", "weight_nan"])
    def test_malformed_file_rejected(self, tmp_path, edits, error):
        # a None value deletes the key; the empty key path replaces the file
        path = tmp_path / "model.json"
        save_model(zero_model(), path)
        raw = json.loads(path.read_text())
        for keys, value in edits.items():
            if not keys:
                raw = value
                continue
            parent = raw
            for key in keys[:-1]:
                parent = parent[key]
            if value is None:
                del parent[keys[-1]]
            else:
                parent[keys[-1]] = value
        path.write_text(json.dumps(raw))
        with pytest.raises(error):
            load_model(path)
