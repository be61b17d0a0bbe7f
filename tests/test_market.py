import numpy as np
import pytest

from matchmarket.market import (
    FEAS_TOL,
    FractionalMatching,
    InstanceSampler,
    MarketError,
    keyed_rng,
    make_instance,
    read_instance,
    sample_instance,
    utilities,
    write_instance,
)


class TestMarketInstance:
    def test_basic_properties(self):
        inst = make_instance([[0.2, 0.8], [1.0, 0.0], [0.5, 0.5]])
        assert inst.m == 3
        assert inst.n == 2

    def test_rejects_out_of_range_weights(self):
        with pytest.raises(MarketError):
            make_instance([[1.2]])
        with pytest.raises(MarketError):
            make_instance([[-0.1]])

    def test_rejects_nan_and_empty(self):
        with pytest.raises(MarketError):
            make_instance([[float("nan")]])
        with pytest.raises(MarketError):
            make_instance(np.zeros((0, 3)))

    def test_weights_immutable(self):
        inst = make_instance([[0.5]])
        with pytest.raises(ValueError):
            inst.w[0, 0] = 0.9


class TestFractionalMatching:
    def test_feasible_matching_accepted(self):
        inst = make_instance([[0.5, 1.0]])
        fm = FractionalMatching.from_x(inst, [[0.5, 0.5]])
        assert fm.u[0] == pytest.approx(0.75)

    def test_row_sum_violation_rejected(self):
        inst = make_instance([[0.5, 1.0]])
        with pytest.raises(MarketError):
            FractionalMatching.from_x(inst, [[0.8, 0.8]])

    def test_col_sum_violation_rejected(self):
        inst = make_instance([[1.0], [1.0]])
        with pytest.raises(MarketError):
            FractionalMatching.from_x(inst, [[0.8], [0.8]])

    def test_negative_entry_rejected(self):
        inst = make_instance([[1.0]])
        with pytest.raises(MarketError):
            FractionalMatching.from_x(inst, [[-0.5]])

    def test_tolerance_respected(self):
        inst = make_instance([[1.0]])
        FractionalMatching.from_x(inst, [[1.0 + FEAS_TOL / 2]])


class TestUtilities:
    def test_values(self):
        inst = make_instance([[0.4, 1.0]])
        u = utilities(inst, np.array([[0.5, 0.2]]))
        assert u[0] == pytest.approx(0.4)

    def test_shape_mismatch(self):
        inst = make_instance([[0.4, 1.0]])
        with pytest.raises(MarketError):
            utilities(inst, np.zeros((2, 2)))


class TestSampler:
    def test_same_seed_same_instance(self):
        s = InstanceSampler("beta", 2.0, 2.0, seed=5)
        a = sample_instance(s, 4, 3, trial=7)
        b = sample_instance(s, 4, 3, trial=7)
        np.testing.assert_array_equal(a.w, b.w)

    def test_different_trials_differ(self):
        s = InstanceSampler("beta", 2.0, 2.0, seed=5)
        a = sample_instance(s, 4, 3, trial=0)
        b = sample_instance(s, 4, 3, trial=1)
        assert not np.array_equal(a.w, b.w)

    def test_uniform_and_explicit(self):
        s = InstanceSampler("uniform", seed=1)
        inst = sample_instance(s, 2, 2)
        assert inst.w.min() >= 0.0 and inst.w.max() <= 1.0
        e = InstanceSampler("explicit", matrix=np.array([[0.3]]))
        assert sample_instance(e, 1, 1).w[0, 0] == 0.3

    def test_invalid_samplers(self):
        with pytest.raises(MarketError):
            InstanceSampler("gamma")
        with pytest.raises(MarketError):
            InstanceSampler("beta", a=-1.0)
        with pytest.raises(MarketError):
            InstanceSampler("explicit")

    def test_rejects_non_finite_beta_parameters(self):
        # Beta(2, inf) samples all-zero markets and Beta(nan, 2) NaN weights
        for a, b in ((2.0, np.inf), (np.inf, 2.0), (np.nan, 2.0), (2.0, np.nan)):
            with pytest.raises(MarketError, match="finite"):
                InstanceSampler("beta", a, b)


class TestKeyedRng:
    """keyed_rng(*key) is default_rng(SeedSequence(key)), state for state,
    on the uint32-array path and on the tuple path."""

    @staticmethod
    def _reference(key) -> np.random.Generator:
        return np.random.default_rng(np.random.SeedSequence(key))

    @pytest.mark.parametrize("part", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, np.int64(7),
                                      np.uint32(2**32 - 1)])
    def test_same_stream_as_seed_sequence_of_the_tuple(self, part):
        array_path = type(part) is int and part < 2**32
        for key in ((part,), (5, part), (part, 17, 2, 1), (2, part, 0, part)):
            got = keyed_rng(*key)
            assert isinstance(got.bit_generator.seed_seq.entropy, np.ndarray) == array_path
            assert got.bit_generator.state == self._reference(key).bit_generator.state
            np.testing.assert_array_equal(got.random(4), self._reference(key).random(4))

    @pytest.mark.parametrize("key", [(-1,), (3, -1), (0.5,), (3, 1.0), (np.int64(-2), 1)])
    def test_invalid_parts_raise_as_seed_sequence_does(self, key):
        with pytest.raises((ValueError, TypeError)) as expected:
            np.random.SeedSequence(key)
        with pytest.raises(expected.type):
            keyed_rng(*key)


class TestInstanceIO:
    def test_round_trip(self, tmp_path):
        inst = make_instance([[0.123456789, 1.0], [0.0, 0.5]])
        path = tmp_path / "inst.csv"
        write_instance(inst, path, source="test", seed=3)
        back = read_instance(path)
        np.testing.assert_allclose(back.w, inst.w, atol=1e-9)
        assert (tmp_path / "inst.json").exists()

    def test_reread_identical_text(self, tmp_path):
        inst = make_instance(np.random.default_rng(0).random((3, 4)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_instance(inst, p1)
        write_instance(read_instance(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_malformed_csv_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,0.5\n0.5,oops\n")
        with pytest.raises(MarketError, match="line 2"):
            read_instance(path)

    def test_ragged_csv_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("0.5,0.5\n0.5\n")
        with pytest.raises(MarketError, match="ragged"):
            read_instance(path)

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(MarketError, match="empty"):
            read_instance(path)
