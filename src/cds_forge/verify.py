"""Certification of candidate backbones and the ratio bookkeeping."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .graph import Graph, _check_subset, articulation_report, is_biconnected


@dataclass(frozen=True)
class Certificate:
    backbone_biconnected: bool
    domination_ok: bool
    min_outside_coverage: int | None  # None when the backbone is everything
    size: int
    m_fold: int
    valid: bool
    reasons: tuple[str, ...] = ()


def verify_certificate(g: Graph, c, m_fold: int = 2) -> Certificate:
    """Check both backbone conditions directly: the induced subgraph must be
    biconnected and every outside vertex needs m_fold backbone neighbors."""
    c = _check_subset(g, c)
    reasons = []
    bic = is_biconnected(g, c)
    if not bic:
        if len(c) < 3:
            reasons.append(f"backbone has {len(c)} vertices, needs at least 3")
        else:
            rep = articulation_report(g, c)
            if rep.component_count > 1:
                reasons.append(
                    f"induced backbone splits into {rep.component_count} components"
                )
            else:
                reasons.append(
                    f"backbone vertex {rep.cut_vertices[0]} is a cut vertex"
                )

    min_cov: int | None = None
    dom_ok = True
    for v in range(g.n):
        if v in c:
            continue
        cov = sum(1 for w in g.adj[v] if w in c)
        if min_cov is None or cov < min_cov:
            min_cov = cov
        if cov < m_fold and len(reasons) < 6:
            reasons.append(f"vertex {v} has only {cov} backbone neighbors")
    if min_cov is not None and min_cov < m_fold:
        dom_ok = False

    return Certificate(
        backbone_biconnected=bic,
        domination_ok=dom_ok,
        min_outside_coverage=min_cov,
        size=len(c),
        m_fold=m_fold,
        valid=bic and dom_ok,
        reasons=tuple(reasons),
    )


@dataclass(frozen=True)
class RatioReport:
    n: int
    max_degree: int
    greedy_size: int
    theta: int | None
    ratio: float | None
    bound_asymptotic: float
    bound_asymptotic_alt: float
    bound_full: float | None
    size_budget: float | None
    shi_bound: float
    zhou_bound: float


def ratio_report(
    n: int, max_degree: int, greedy_size: int, theta: int | None = None, m_fold: int = 2
) -> RatioReport:
    """Evaluate the guarantee formulas for one instance.

    bound_asymptotic is 3 + ln(max_degree + 2).  The alt variant uses
    max_degree + 1, which is what the first-step gain evaluates to under the
    definitions used here (an empty backbone gains degree plus one, see the
    README note).  bound_full is ln(a0/theta) + 3 + 4/theta with a0 = 2n - 2,
    and size_budget is its clamped size form theta*(max(0, ln(a0/theta)) + 3) + 4.
    The last two formulas are published comparison ratios, display only.
    """
    if greedy_size < 3:
        raise ValueError("a backbone has at least 3 vertices")
    d = max_degree
    a0 = 2 * n - 2
    ratio = None
    bound_full = None
    size_budget = None
    if theta is not None:
        ratio = greedy_size / theta
        log_term = math.log(a0 / theta)
        bound_full = log_term + 3.0 + 4.0 / theta
        size_budget = theta * (max(0.0, log_term) + 3.0) + 4.0
    return RatioReport(
        n=n,
        max_degree=d,
        greedy_size=greedy_size,
        theta=theta,
        ratio=ratio,
        bound_asymptotic=3.0 + math.log(d + 2),
        bound_asymptotic_alt=3.0 + math.log(d + 1),
        bound_full=bound_full,
        size_budget=size_budget,
        shi_bound=4.0 + math.log(d) + 2.0 * math.log(2.0 + math.log(d)),
        zhou_bound=2.0 + math.log(d + m_fold - 2) if d + m_fold > 2 else 2.0,
    )
