import pytest

from conelab import (DomainError, WeightedPolynomial, blowup_discrepancy,
                     bp_crepant_chain, bp_table_csv, cy_link_condition,
                     weighted_degree)


class TestWeightedDegree:
    def test_homogeneous(self):
        # z0^3 + z1^3 + z2^3 with unit weights
        poly = WeightedPolynomial((1, 1, 1), [(3, 0, 0), (0, 3, 0),
                                              (0, 0, 3)])
        assert weighted_degree(poly) == 3

    def test_weighted(self):
        # z0^2 + z1^4 with weights (2, 1): both monomials have degree 4
        poly = WeightedPolynomial((2, 1), [(2, 0), (0, 4)])
        assert weighted_degree(poly) == 4

    def test_inhomogeneous_rejected(self):
        poly = WeightedPolynomial((1, 1), [(2, 0), (0, 3)])
        with pytest.raises(DomainError):
            weighted_degree(poly)


class TestPolynomialData:
    @pytest.mark.parametrize("weights, monomials", [
        ((True, 2.0), ((2, 1.0),)),   # constructed
        ((1, 2.0), ((2, 1),)),
        ((0, 1), ((2, 1),)),
        ((1, 1), ((2, 1.0),)),
        ((1, 1), ((2, False),)),
        ((1, 1), ((2, -1),))])
    def test_rejects_non_integers(self, weights, monomials):
        with pytest.raises(DomainError, match="must be an integer"):
            WeightedPolynomial(weights, monomials)


class TestLinkCondition:
    def test_small_degree_passes(self):
        poly = WeightedPolynomial((1, 1, 1), [(2, 0, 0), (0, 2, 0),
                                              (0, 0, 2)])
        assert cy_link_condition(poly)      # 2 < 3

    def test_critical_degree_fails(self):
        poly = WeightedPolynomial((1, 1, 1), [(3, 0, 0), (0, 3, 0),
                                              (0, 0, 3)])
        assert not cy_link_condition(poly)  # 3 < 3 fails


class TestBlowupChain:
    def test_discrepancy(self):
        assert blowup_discrepancy(3, 3) == 0    # crepant step
        assert blowup_discrepancy(3, 2) == 1
        assert blowup_discrepancy(3, 4) == -1

    def test_chain_m3_oracle(self):
        for k in range(3, 13):
            rec = bp_crepant_chain(3, k)
            assert rec.se_ok == (k > 6)
            assert rec.resolvable == (k % 3 in (0, 1))
            assert rec.blowup_count == k // 3

    def test_one_multiplicity_per_blowup(self):
        rec = bp_crepant_chain(3, 11)
        assert list(rec.degrees) == [3, 3, 3]
        assert len(rec.degrees) == rec.blowup_count

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            bp_crepant_chain(1, 5)
        with pytest.raises(DomainError):
            bp_crepant_chain(3, 0)

    @pytest.mark.parametrize("m, k", [(3, 7.5), (3.0, 7), (True, 5),
                                      (3, True), (3, 6.0)])
    def test_chain_needs_integers(self, m, k):
        # (3, 7.5) gave blowup_count 2.0
        with pytest.raises(DomainError, match="must be an integer"):
            bp_crepant_chain(m, k)

    @pytest.mark.parametrize("m, degree", [(3.0, 3), (3, 2.0), (3, True),
                                           (3, -1), (1, 0)])
    def test_discrepancy_needs_integers(self, m, degree):
        with pytest.raises(DomainError, match="must be an integer"):
            blowup_discrepancy(m, degree)


class TestCsv:
    def test_byte_exact_m3(self):
        want = (
            "m,k,se_ok,resolvable,blowup_count\n"
            "3,3,false,true,1\n"
            "3,4,false,true,1\n"
            "3,5,false,false,1\n"
            "3,6,false,true,2\n"
            "3,7,true,true,2\n"
            "3,8,true,false,2\n"
            "3,9,true,true,3\n"
            "3,10,true,true,3\n"
            "3,11,true,false,3\n"
            "3,12,true,true,4\n"
        )
        assert bp_table_csv(3, range(3, 13)) == want

    @pytest.mark.parametrize("m, ks", [(3.0, [7]), (3, [7.0]), (3, [True])])
    def test_table_needs_integers(self, m, ks):
        # (3.0, [7]) wrote the row 3.0,7,true,true,2.0
        with pytest.raises(DomainError, match="must be an integer"):
            bp_table_csv(m, ks)
