import math

import pytest

from cds_forge import ratio_report, verify_certificate


def test_valid_backbone(p8):
    cert = verify_certificate(p8, range(7))
    assert cert.valid
    assert cert.backbone_biconnected
    assert cert.domination_ok
    assert cert.min_outside_coverage == 2
    assert cert.size == 7
    assert cert.m_fold == 2
    assert cert.reasons == ()


def test_under_dominated_backbone(p8):
    cert = verify_certificate(p8, {0, 1, 2, 3})
    assert not cert.valid
    assert cert.backbone_biconnected  # the 4-cycle 0-1-3-2 is fine by itself
    assert not cert.domination_ok
    assert cert.min_outside_coverage == 0  # vertex 5 sees nothing
    assert cert.reasons


def test_disconnected_backbone(p8):
    cert = verify_certificate(p8, {0, 4, 7})
    assert not cert.backbone_biconnected
    assert not cert.valid


def test_cut_vertex_backbone(p8):
    cert = verify_certificate(p8, {0, 1, 2, 3, 4})
    assert not cert.backbone_biconnected
    assert not cert.valid
    assert any("cut" in r for r in cert.reasons)


def test_too_small_backbone(triangle):
    cert = verify_certificate(triangle, {0, 1})
    assert not cert.valid
    assert cert.size == 2


def test_whole_graph_backbone(triangle):
    cert = verify_certificate(triangle, range(3))
    assert cert.valid
    assert cert.min_outside_coverage is None


def test_m_fold_matters(k5):
    assert verify_certificate(k5, {0, 1, 2}, m_fold=3).valid
    assert not verify_certificate(k5, {0, 1, 2}, m_fold=4).valid


def test_ratio_report_reference():
    rep = ratio_report(n=8, max_degree=4, greedy_size=7, theta=7)
    assert rep.ratio == pytest.approx(1.0)
    assert rep.bound_asymptotic == pytest.approx(3 + math.log(6))
    assert rep.bound_asymptotic_alt == pytest.approx(3 + math.log(5))
    a0 = 14
    assert rep.bound_full == pytest.approx(math.log(a0 / 7) + 3 + 4 / 7)
    assert rep.size_budget == pytest.approx(7 * (math.log(2) + 3) + 4)
    assert rep.shi_bound == pytest.approx(4 + math.log(4) + 2 * math.log(2 + math.log(4)))
    assert rep.zhou_bound == pytest.approx(2 + math.log(4))
    assert rep.ratio <= rep.bound_asymptotic


def test_ratio_report_without_theta():
    rep = ratio_report(n=50, max_degree=9, greedy_size=12)
    assert rep.theta is None
    assert rep.ratio is None
    assert rep.bound_full is None
    assert rep.size_budget is None
    assert rep.bound_asymptotic == pytest.approx(3 + math.log(11))


def test_ratio_report_rejects_degenerate_size():
    with pytest.raises(ValueError):
        ratio_report(n=8, max_degree=4, greedy_size=2)
