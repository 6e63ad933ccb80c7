"""The arity/threshold recursion, against hand-traced values."""

import math

import pytest

import pcspkit as pk
from pcspkit import pas
from pcspkit.errors import InputError, ResourceError


class _SmallPowers(int):
    """A domain size whose powers past 2**16 are refused, not built."""

    def __pow__(self, exponent):
        assert exponent <= 1 << 16, f"built a power to {exponent}"
        return int(self) ** exponent


def _small_comb(n, c):
    """math.comb, refusing a binomial that may hold over 2**20 bits."""
    assert min(c, n - c) * n.bit_length() <= 1 << 20, f"built C({n}, {c})"
    return math.comb(n, c)


class TestHandTraces:
    def test_two_values_binary_domain(self):
        p = pk.gap_parameters(2, 1, (1, 1))
        assert p.k == (3, 2)
        assert p.l == (2, 1)
        assert p.p == (1, 1)
        assert p.k_prime == (None, 1)

    def test_raw_formula_can_undershoot_and_is_raised(self):
        # at m=2 the raw position-zero arity (3) lands below k_1 (4)
        p = pk.gap_parameters(2, 2, (1, 1))
        assert p.k0_raw == 3
        assert p.k == (4, 4)

    def test_three_values(self):
        p = pk.gap_parameters(2, 1, (1, 1, 1))
        assert p.k == (6, 3, 2)
        assert p.l == (4, 2, 1)

    def test_value_two_head_uses_sub_recursion(self):
        p = pk.gap_parameters(2, 1, (2, 1))
        assert p.p == (3, 2)  # arities of the (1,1) recursion
        assert p.l == (6, 2)
        assert p.k == (3, 3)

    def test_value_two_tail_records_split(self):
        p = pk.gap_parameters(2, 1, (1, 2))
        assert p.split == (None, (3, 3))
        assert p.k == (11, 4)

    def test_conservative_mode_scales_position_zero(self):
        compact = pk.gap_parameters(2, 1, (1, 1), mode="compact")
        cons = pk.gap_parameters(2, 1, (1, 1), mode="conservative")
        assert cons.k[0] == 1 + 2 * cons.l[0]
        assert cons.k[0] > compact.k[0]
        # conservative position zero always satisfies the extension-search
        # precondition for a single blocked variable
        assert cons.k[0] >= 2 * cons.l[0] + 1

    def test_final_arity_at_least_m(self):
        for m in (1, 2, 3):
            p = pk.gap_parameters(2, m, (1, 1))
            assert p.k[-1] >= m

    def test_memoized_identity(self):
        assert pk.gap_parameters(2, 1, (1, 1)) is pk.gap_parameters(2, 1, (1, 1))


class TestValidation:
    def test_single_value_rejected(self):
        with pytest.raises(InputError):
            pk.gap_parameters(2, 1, (1,))

    def test_zero_value_rejected(self):
        with pytest.raises(InputError):
            pk.gap_parameters(2, 1, (0, 1))

    def test_unknown_mode_rejected(self):
        with pytest.raises(InputError):
            pk.gap_parameters(2, 1, (1, 1), mode="fast")

    def test_explosion_hits_the_limit(self):
        with pytest.raises(ResourceError):
            pk.gap_parameters(2, 1, (9, 9, 9))

    def test_a_first_value_of_2000_computes(self):
        # each record recurses on the one with the first value less by one;
        # they are filled from the smallest up, so the depth does not grow
        # with the values (domain size 3, which no other test computes)
        p = pk.gap_parameters(3, 1, (2000, 1))
        assert p.k == (2001, 2001)
        assert pk.gap_parameters(3, 1, (1999, 1)).k == (2000, 2000)

    def test_a_split_value_of_2000_hits_the_limit(self):
        with pytest.raises(ResourceError, match=r"arity k\[0\] has 3172 bits"):
            pk.gap_parameters(3, 1, (1, 2000))

    @pytest.mark.parametrize(
        "values, message",
        [((2, 2), r"arity k\[0\] has 19702 bits"), ((2, 2, 2), r"arity k\[1\]")],
        ids=["k0", "k1"],
    )
    def test_an_arity_over_the_limit_is_refused_before_it_is_traced(self, values, message):
        # the trace wrote these arities out first, past Python's digit limit
        with pytest.raises(ResourceError, match=message):
            pk.gap_parameters(2, 1, values, mode="conservative")

    # Each arity is priced before it is built: 2**s would need about 9.8 GB
    # at (1, 22), and each of these took seconds or failed before.
    @pytest.mark.parametrize(
        "domain_size, m, values, mode, message",
        [
            (2, 3, (1, 18), "compact", r"k\[0\] has at least 968551222 bits"),
            (2, 3, (1, 22), "compact", r"k\[0\] has at least 78452649022 bits"),
            (1, 1, (2, 3, 3), "conservative", r"k\[1\] has at least 1975249 bits"),
        ],
        ids=["k0-of-1,18", "k0-of-1,22", "k1-of-2,3,3"],
    )
    def test_an_arity_is_priced_before_it_is_built(
        self, monkeypatch, domain_size, m, values, mode, message
    ):
        monkeypatch.setattr(pas, "comb", _small_comb)
        # records are cached by value, so none built here may hold _SmallPowers
        monkeypatch.setattr(pas, "_gap_parameters", pas._gap_parameters.__wrapped__)
        with pytest.raises(ResourceError, match=f"^arity {message}, over the limit 10{{18}}$"):
            pk.gap_parameters(_SmallPowers(domain_size), m, values, mode)

    def test_trace_is_recorded(self):
        p = pk.gap_parameters(2, 1, (2, 1))
        assert any("k[0]" in line for line in p.trace)

    def test_payload_round_trip(self):
        p = pk.gap_parameters(2, 1, (1, 1, 1))
        assert pk.GapParameters.from_payload(p.to_payload()) == p

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("domain_size", None, "domain_size: missing"),
            ("values", [1, "1"], r"values\[1\]: expected an integer"),
            ("k", [9, 2], "k: differs from the record"),
            ("split", None, "split: missing"),
            ("values", [1, True], r"values\[1\]: expected an integer"),
            ("domain_size", True, "domain_size: expected an integer"),
            ("m", True, "m: expected an integer"),
        ],
    )
    def test_a_malformed_record_names_its_field(self, field, value, message):
        payload = pk.gap_parameters(2, 1, (1, 1)).to_payload()
        if value is None:
            del payload[field]
        else:
            payload[field] = value
        with pytest.raises(InputError, match=message):
            pk.GapParameters.from_payload(payload)
