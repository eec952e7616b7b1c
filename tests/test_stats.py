from __future__ import annotations

import logging
import math
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import stdtrit
from scipy.stats import spearmanr
from scipy.stats import t as student_t

from coauthnet import (
    CoauthGraph,
    ConfigError,
    DataError,
    correlation_matrix,
    degree_distribution,
    histogram,
    lis_growth_series,
    power_fit,
    ranking_profile,
    spearman,
)
from coauthnet import stats
from coauthnet.centrality import CentralityVector, ordinal_ranks, rank_table
from coauthnet.stats import (
    render_correlation_csv,
    render_fit_csv,
    render_histogram_csv,
    render_profile_csv,
    render_significance_csv,
)
from oracles import adjacency, from_edges, power_fit_oracle, random_graph, spearman_rho_oracle


class TestPowerFit:
    def test_exact_power_curve_recovered(self):
        points = [(x, 2.0 * x**-3) for x in range(1, 11)]
        fit = power_fit(points)
        assert fit.coefficient == pytest.approx(2.0, abs=1e-9)
        assert fit.exponent == pytest.approx(-3.0, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-9)
        assert fit.n_points == 10

    def test_bundled_paper_series(self):
        rows = lis_growth_series()
        fit = power_fit([(t, row[1]) for t, row in enumerate(rows, start=1)])
        assert fit.coefficient == pytest.approx(363.95, rel=0.05)
        assert fit.exponent == pytest.approx(1.08, abs=0.02)
        assert fit.r_squared >= 0.995

    def test_bundled_author_series(self):
        rows = lis_growth_series()
        fit = power_fit([(t, row[2]) for t, row in enumerate(rows, start=1)])
        assert fit.coefficient == pytest.approx(492.00, rel=0.05)
        assert fit.exponent == pytest.approx(0.98, abs=0.02)
        assert fit.r_squared >= 0.99

    def test_matches_lstsq_oracle_on_noisy_points(self):
        rng = Random(12)
        for _ in range(25):
            points = [
                (x, 3.5 * x**1.7 * math.exp(rng.uniform(-0.2, 0.2)))
                for x in range(1, 11)
            ]
            fit = power_fit(points)
            coef, expo, r2 = power_fit_oracle(points)
            assert fit.coefficient == pytest.approx(coef, rel=1e-12, abs=1e-12)
            assert fit.exponent == pytest.approx(expo, rel=1e-12, abs=1e-12)
            assert fit.r_squared == pytest.approx(r2, rel=1e-10, abs=1e-12)

    def test_constant_y_is_perfect_horizontal_fit(self):
        fit = power_fit([(1, 5.0), (2, 5.0), (3, 5.0)])
        assert fit.exponent == 0.0 and fit.r_squared == 1.0

    def test_rejections(self):
        with pytest.raises(DataError):
            power_fit([(1, 1.0), (2, 2.0)])
        with pytest.raises(DataError):
            power_fit([(1, 1.0), (2, -2.0), (3, 3.0)])
        with pytest.raises(DataError):
            power_fit([(0, 1.0), (2, 2.0), (3, 3.0)])
        with pytest.raises(DataError):
            power_fit([(2, 1.0), (2, 2.0), (2, 3.0)])


class TestDegreeDistribution:
    def test_triangle(self):
        g = from_edges([("a", "b"), ("b", "c"), ("a", "c")])
        assert degree_distribution(g) == [(2, 1.0)]

    def test_star_with_denominator_over_all_vertices(self):
        g = from_edges([("c", "l1"), ("c", "l2"), ("c", "l3")])
        assert degree_distribution(g) == [(1, 0.75), (3, 0.25)]

    def test_isolated_vertices_deflate_but_emit_no_row(self):
        g = from_edges([("a", "b")], vertices=["z", "w"])
        assert degree_distribution(g) == [(1, 0.5)]

    def test_matches_tally_oracle(self):
        g = random_graph(Random(61), min_n=6, max_n=15)
        rows = degree_distribution(g)
        tally: dict[int, int] = {}
        for row in adjacency(g).values():
            tally[len(row)] = tally.get(len(row), 0) + 1
        assert rows == [(k, tally[k] / len(g)) for k in sorted(tally) if k >= 1]
        assert sum(p for _, p in rows) <= 1.0 + 1e-12

    def test_all_isolated_rejected(self):
        with pytest.raises(DataError):
            degree_distribution(CoauthGraph({"a": {}, "b": {}}))


class TestSpearman:
    def test_increasing_lists_give_one(self):
        rho, p = spearman([1, 2, 3, 4], [10, 20, 30, 40])
        assert rho == 1.0 and p == 0.0

    def test_reversed_gives_minus_one(self):
        rho, p = spearman([1, 2, 3, 4], [8, 6, 4, 2])
        assert rho == -1.0 and p == 0.0

    def test_tied_ranks_match_oracle(self):
        xs, ys = [1, 2, 2, 4], [10, 20, 30, 40]
        rho, _ = spearman(xs, ys)
        assert rho == pytest.approx(spearman_rho_oracle(xs, ys), abs=1e-12)

    def test_many_random_cases_match_oracle(self):
        rng = Random(88)
        for _ in range(100):
            n = rng.randint(3, 40)
            xs = [rng.choice([rng.random(), rng.randint(0, 5)]) for _ in range(n)]
            ys = [rng.choice([rng.random(), rng.randint(0, 5)]) for _ in range(n)]
            try:
                rho, p = spearman(xs, ys)
            except DataError:
                continue  # constant series
            assert rho == pytest.approx(spearman_rho_oracle(xs, ys), abs=1e-12)
            ref = spearmanr(xs, ys)
            assert p == pytest.approx(float(ref.pvalue), abs=1e-9)

    def test_errors(self):
        with pytest.raises(DataError):
            spearman([1, 2, 3], [1, 2])
        with pytest.raises(DataError):
            spearman([1, 2], [1, 2])
        with pytest.raises(DataError):
            spearman([1, 1, 1], [1, 2, 3])

    @given(
        st.lists(st.integers(min_value=-50, max_value=50), min_size=3, max_size=30),
        st.sampled_from(["exp", "cube", "affine"]),
    )
    def test_monotone_transform_invariance(self, xs, transform):
        rng = Random(sum(xs) & 0xFFFF)
        ys = [rng.random() for _ in xs]
        f = {
            "exp": math.exp,
            "cube": lambda v: v**3,
            "affine": lambda v: 2.5 * v + 7,
        }[transform]
        try:
            base = spearman(xs, ys)
        except DataError:
            return
        assert spearman([f(x) for x in xs], ys) == base

    def test_symmetry_and_bounds(self):
        rng = Random(3)
        xs = [rng.random() for _ in range(20)]
        ys = [rng.random() for _ in range(20)]
        assert spearman(xs, ys)[0] == pytest.approx(spearman(ys, xs)[0], abs=1e-15)
        assert abs(spearman(xs, ys)[0]) <= 1.0
        assert spearman(xs, xs) == (1.0, 0.0)

    @pytest.mark.parametrize("n", [3, 4, 5, 10, 30, 100, 1000, 20_000])
    def test_p_value_is_scipy_t_tail_exactly(self, monkeypatch, n):
        """The stdtr tail equals 2 * scipy.stats.t.sf(|t|, n - 2) bit for bit."""
        rhos = [1.0, -1.0]
        for t_target in (1e-8, 1e-4, 0.01, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 40.0):
            rho = t_target / math.sqrt(n - 2 + t_target * t_target)
            rhos += [rho, -rho]
        xs = list(range(n))
        for rho in rhos:
            monkeypatch.setattr(stats, "_pearson", lambda a, b, rho=rho: rho)
            got_rho, p = spearman(xs, xs)
            assert got_rho == rho
            if abs(rho) == 1.0:
                assert p == 0.0
                continue
            t_stat = rho * math.sqrt((n - 2) / (1.0 - rho * rho))
            assert p == 2.0 * float(student_t.sf(abs(t_stat), n - 2))


def t_critical(nu):
    """|t| at which the two-sided Student-t p-value is exactly 0.01."""
    return float(stdtrit(nu, 0.995))


CRITICAL_MULTIPLES = (0.99, 1.0, 1.005, 1.01, 1.02, 1.05)


class TestSignificanceBound:
    """``stats._log_p_bound`` against scipy's exact two-sided t tail."""

    @pytest.mark.parametrize("nu", [1, 2, 3, 4, 5, 10, 30, 100, 885, 7403, 20_000, 10**6])
    def test_sound_and_tight(self, nu):
        t_crit = t_critical(nu)
        grid = [10.0 ** (e / 20) for e in range(-60, 61)]
        grid += [t_crit * m for m in CRITICAL_MULTIPLES]
        for t in grid:
            p = 2.0 * float(student_t.sf(t, nu))
            log_bound = stats._log_p_bound(nu, t)
            if p > 0.0:
                assert log_bound >= math.log(p), (nu, t)
            settled = log_bound < stats._SETTLED_BELOW
            if settled:
                assert p < 0.01, (nu, t)
            if t >= 1.02 * t_crit:
                assert settled, (nu, t, t_crit)

    def test_zero_t_is_never_settled(self):
        assert stats._log_p_bound(10, 0.0) == math.inf


class TestCorrelationMatrix:
    def test_identical_series(self):
        report = correlation_matrix({"a": [1, 2, 3, 4], "b": [5, 6, 7, 8]})
        assert report.rho[0][1] == 1.0
        assert report.significant_01[0][1] is True

    def test_negated_series(self):
        report = correlation_matrix({"a": [1, 2, 3, 4], "b": [-1, -2, -3, -4]})
        assert report.rho[0][1] == -1.0

    def test_five_random_series_match_pairwise_oracle(self):
        rng = Random(14)
        series = {f"s{i}": [rng.random() for _ in range(100)] for i in range(5)}
        report = correlation_matrix(series)
        labels = report.labels
        for i in range(5):
            assert report.rho[i][i] == 1.0
            for j in range(5):
                assert report.rho[i][j] == report.rho[j][i]
                if i != j:
                    expected = spearman_rho_oracle(series[labels[i]], series[labels[j]])
                    assert report.rho[i][j] == pytest.approx(expected, abs=1e-12)
        assert report.n == 100

    @pytest.mark.parametrize("n", [3, 4, 5, 10, 30, 100, 1000, 20_000])
    def test_flags_equal_the_exact_tail_rule(self, monkeypatch, n):
        t_crit = t_critical(n - 2)
        rhos = [1.0, -1.0]
        for m in (*CRITICAL_MULTIPLES, 10.0):
            t = t_crit * m
            rho = t / math.sqrt(n - 2 + t * t)
            rhos += [rho, -rho]
        xs = list(range(n))
        for rho in rhos:
            monkeypatch.setattr(stats, "_pearson", lambda a, b, rho=rho: rho)
            report = correlation_matrix({"a": xs, "b": xs, "c": xs})
            expected = spearman(xs, xs)[1] < 0.01
            flags = [report.significant_01[i][j] for i in range(3) for j in range(3) if i != j]
            assert flags == [expected] * 6, (n, rho)

    def test_logs_pairs_that_took_the_exact_tail(self, caplog):
        rng = Random(14)
        series = {f"s{i}": [rng.random() for _ in range(100)] for i in range(3)}
        series["twin"] = [2 * v for v in series["s0"]]
        with caplog.at_level(logging.INFO, logger="coauthnet.stats"):
            correlation_matrix(series)
        assert "significance: 5 of 6 pair(s) took the exact t tail" in caplog.messages

    def test_ranks_each_series_once(self, monkeypatch):
        calls = []
        average_ranks = stats._average_ranks

        def counting(values):
            calls.append(values)
            return average_ranks(values)

        monkeypatch.setattr(stats, "_average_ranks", counting)
        rng = Random(14)
        series = {f"s{i}": [rng.random() for _ in range(50)] for i in range(5)}
        correlation_matrix(series)
        assert len(calls) == 5

    def test_error_names_offending_pair(self):
        with pytest.raises(DataError, match=r"\(good, flat\)"):
            correlation_matrix({"good": [1, 2, 3], "flat": [7, 7, 7]})

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            correlation_matrix({"a": [1, 2, 3], "b": [1, 2]})


class TestHistogram:
    def test_two_bins(self):
        hist = histogram([0, 1, 2, 3], bins=2)
        assert hist.counts == (2, 2)
        assert hist.bin_edges == (0.0, 1.5, 3.0)

    def test_constant_input_single_bin(self):
        hist = histogram([4.2] * 9, bins=5)
        assert hist.counts == (9,)
        assert hist.bin_edges == (4.2, 4.2)

    def test_last_bin_right_inclusive(self):
        hist = histogram([0.0, 1.0], bins=2)
        assert hist.counts == (1, 1)

    def test_uniform_randoms_match_interval_oracle(self):
        rng = Random(5)
        values = [rng.random() for _ in range(1000)]
        hist = histogram(values, bins=10)
        assert sum(hist.counts) == 1000
        edges = hist.bin_edges
        for i, count in enumerate(hist.counts):
            last = i == len(hist.counts) - 1
            members = [
                v
                for v in values
                if edges[i] <= v < edges[i + 1] or (last and v == edges[i + 1])
            ]
            assert count == len(members)

    def test_normalized_probabilities_sum_to_one(self):
        """Every value lands in exactly one bin, so count / len(values) sums to one."""
        values = [1, 2, 2, 3, 5]
        hist = histogram(values, bins=4)
        assert sum(hist.counts) == len(values)

    def test_rejections(self):
        with pytest.raises(DataError):
            histogram([], bins=3)
        with pytest.raises(ConfigError):
            histogram([1.0], bins=0)
        with pytest.raises(DataError, match="histogram"):
            histogram([10**400, 1], bins=2)

    def test_bins_bound(self):
        values = [0.0, 1.0, 2.5]
        hist = histogram(values, bins=stats.MAX_HISTOGRAM_BINS)
        assert len(hist.counts) == stats.MAX_HISTOGRAM_BINS and sum(hist.counts) == len(values)
        too_many = stats.MAX_HISTOGRAM_BINS + 1
        with pytest.raises(ConfigError, match=f"must be <= {stats.MAX_HISTOGRAM_BINS}, got {too_many}"):
            histogram(values, bins=too_many)
        with pytest.raises(ConfigError):  # checked before a constant input collapses to one bin
            histogram([4.2] * 9, bins=too_many)


class TestRankingProfile:
    def _vector(self, measure: str, scores: dict) -> CentralityVector:
        return CentralityVector(measure, scores)

    def test_identical_measure_gives_identical_columns(self):
        scores = {"A": 3.0, "B": 2.0, "C": 1.0}
        profile = ranking_profile(
            self._vector("pagerank", scores),
            [self._vector("degree", dict(scores))],
            {"A": 9, "B": 8, "C": 7},
        )
        assert profile.columns == ("pagerank", "degree", "citations")
        for _, ranks in profile.rows:
            assert ranks[0] == ranks[1] == ranks[2]

    def test_reversed_measure_gives_mirrored_ranks(self):
        scores = {f"A{i}": float(i) for i in range(1, 6)}
        reversed_scores = {k: -v for k, v in scores.items()}
        profile = ranking_profile(
            self._vector("pagerank", scores),
            [self._vector("degree", reversed_scores)],
            {k: 0 for k in scores},
        )
        n = len(scores)
        for _, ranks in profile.rows:
            assert ranks[1] == n + 1 - ranks[0]

    def test_rows_ordered_by_baseline_and_match_rank_table(self):
        rng = Random(662)
        scores = {f"A{i:02d}": rng.random() for i in range(30)}
        others = [self._vector("degree", {k: rng.random() for k in scores})]
        citations = {k: rng.randint(0, 100) for k in scores}
        profile = ranking_profile(self._vector("pagerank", scores), others, citations)
        assert [ranks[0] for _, ranks in profile.rows] == list(range(1, 31))
        table = rank_table(self._vector("degree", others[0].scores), 30)
        expected = {author: rank for rank, author, _ in table.rows}
        for author, ranks in profile.rows:
            assert ranks[1] == expected[author]
        assert {a for a, _ in profile.rows} == set(scores)
        cit_ranks = ordinal_ranks(citations)
        for author, ranks in profile.rows:
            assert ranks[2] == cit_ranks[author]

    def test_heavy_ties_follow_the_ordinal_rank_order(self):
        rng = Random(663)
        keys = [f"A{i:03d}" for i in range(120)]
        rng.shuffle(keys)  # keys arrive out of order
        scores = {k: float(rng.randint(0, 3)) for k in keys}
        ranks = ordinal_ranks(scores)
        for top_n in (1, 40, 120, 200):
            table = rank_table(self._vector("degree", scores), top_n)
            head = list(ranks.items())[:top_n]
            assert table.rows == tuple((rank, k, scores[k]) for k, rank in head)
        others = [self._vector("degree", {k: float(rng.randint(0, 2)) for k in keys})]
        profile = ranking_profile(self._vector("pagerank", scores), others,
                                  {k: rng.randint(0, 2) for k in keys})
        authors = [author for author, _ in profile.rows]
        assert authors == sorted(keys, key=lambda k: (-scores[k], k))
        assert [ranks[0] for _, ranks in profile.rows] == list(range(1, 121))

    def test_vertex_set_mismatch_rejected(self):
        with pytest.raises(DataError):
            ranking_profile(
                self._vector("pagerank", {"A": 1.0}),
                [self._vector("degree", {"B": 1.0})],
                {"A": 1},
            )
        with pytest.raises(DataError):
            ranking_profile(
                self._vector("pagerank", {"A": 1.0}),
                [],
                {"A": 1, "B": 2},
            )


class TestRenderers:
    def test_fit_csv(self):
        fit = power_fit([(x, 2.0 * x**-3) for x in range(1, 5)])
        text = render_fit_csv([("demo", fit)])
        lines = text.splitlines()
        assert lines[0] == "series,coefficient,exponent,r_squared,n"
        assert lines[1].startswith("demo,") and lines[1].endswith(",4")

    def test_correlation_csv_layout(self):
        report = correlation_matrix({"x": [1, 2, 3, 4], "y": [1, 2, 3, 5]})
        text = render_correlation_csv(report)
        assert text.splitlines()[0] == "series,x,y"
        sig = render_significance_csv(report)
        assert sig.splitlines()[0] == "series,x,y"
        assert set(sig.splitlines()[1].split(",")[1:]) <= {"0", "1"}

    def test_histogram_csv(self):
        text = render_histogram_csv(histogram([0, 1, 2, 3], bins=2))
        assert text == "bin_lo,bin_hi,count\n0,1.5,2\n1.5,3,2\n"

    def test_profile_csv(self):
        profile = ranking_profile(
            CentralityVector("pagerank", {"A": 2.0, "B": 1.0}),
            [],
            {"A": 5, "B": 9},
        )
        text = render_profile_csv(profile)
        assert text == "author,pagerank_rank,citations_rank\nA,1,2\nB,2,1\n"
