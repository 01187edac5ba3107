"""Experiment harness: records, aggregates, unions, curves, report files."""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from satguide.corpus import desk_corpus
from satguide.guidance import GuidanceConfig
from satguide.harness import (
    ExperimentReport,
    MethodConfig,
    PC_BUCKETS,
    ProblemRecord,
    accuracy_eval,
    check_report,
    compute_aggregates,
    curve_limits,
    emit_curves,
    read_report,
    run_corpus,
    union_stats,
    write_curve_files,
    write_report,
)
from satguide.neural.models import ModelConfig, init_model
from satguide.saturation import SearchConfig
from satguide.tokens import Vocabulary


def rec(problem, method, status="Unsatisfiable", processed=10):
    return ProblemRecord(problem, method, status, processed, 3 * processed, 0, method)


class TestRunCorpus:
    def _problems(self, n=3):
        return [c.problem for c in desk_corpus(0) if c.family == "chain"][:n]

    def test_cross_product_records(self):
        problems = self._problems(2)
        methods = [
            MethodConfig("auto1", GuidanceConfig(mode="auto")),
            MethodConfig("auto2", GuidanceConfig(mode="auto")),
        ]
        report = run_corpus(problems, methods, SearchConfig(max_processed=500))
        assert len(report.records) == 4
        assert check_report(report)

    def test_crash_recorded(self):
        class Bad:
            name = "bad"

            def __getattr__(self, attr):
                raise RuntimeError("bad problem")

        methods = [MethodConfig("auto", GuidanceConfig(mode="auto"))]
        report = run_corpus([Bad()], methods, SearchConfig(max_processed=10))
        assert report.records[0].status == "Error(RuntimeError: bad problem)"

    def test_bad_switched_budget_rejected_before_any_cell(self):
        # phase 1 must end before the totals; the whole experiment is
        # refused, not recorded as one Error per problem
        vocab = Vocabulary()
        model = init_model(ModelConfig(arch="cnn", vocab_size=3, dim=4), vocab_hash="")
        ran = []
        methods = [
            MethodConfig("auto", GuidanceConfig(mode="auto")),
            MethodConfig("sw", GuidanceConfig(mode="switched", model=model, vocab=vocab,
                                              phase1_budget=50)),
        ]

        class Watched:
            name = "watched"

            def __getattr__(self, attr):
                ran.append(attr)
                raise RuntimeError("a cell ran")

        for limits in (SearchConfig(max_processed=50), SearchConfig(max_processed=20)):
            with pytest.raises(ValueError, match="phase1_budget < max_processed"):
                run_corpus([Watched()], methods, limits)
        methods[1].guidance.phase1_budget, methods[1].guidance.phase1_ms = None, 500
        with pytest.raises(ValueError, match="phase1_ms < max_wall_ms"):
            run_corpus([Watched()], methods, SearchConfig(max_wall_ms=500))
        assert ran == []

    def test_bad_schedule_rejected_before_any_cell(self):
        # refused before any cell runs, not recorded as one Error per cell:
        # a schedule that does not parse as the limits are made, and any
        # schedule but the default under a pure method by run_corpus
        vocab = Vocabulary()
        model = init_model(ModelConfig(arch="cnn", vocab_size=3, dim=4), vocab_hash="")
        ran = []
        methods = [MethodConfig("auto", GuidanceConfig(mode="auto")),
                   MethodConfig("nn", GuidanceConfig(mode="pure", model=model, vocab=vocab))]

        class Watched:
            name = "watched"

            def __getattr__(self, attr):
                ran.append(attr)
                raise RuntimeError("a cell ran")

        with pytest.raises(ValueError, match=r"schedule '1\*fifoo': unknown weight function"):
            run_corpus([Watched()], methods, SearchConfig(schedule="1*fifoo"))
        with pytest.raises(ValueError, match="pure mode .* cannot use schedule '1\\*fifo'"):
            run_corpus([Watched()], methods, SearchConfig(schedule="1*fifo"))
        assert ran == []

    def test_config_records_every_limit(self):
        problems = self._problems(1)
        methods = [MethodConfig("auto", GuidanceConfig(mode="auto"))]
        base = SearchConfig(max_processed=50)
        limits = [run_corpus(problems, methods, cfg).config["limits"]
                  for cfg in (base, replace(base, max_clause_literals=3),
                              replace(base, schedule="1*fifo"))]
        assert limits[0] == asdict(base)
        assert len({json.dumps(block, sort_keys=True) for block in limits}) == 3

    def test_cascade_cells_obey_the_processed_limit(self, fixture_cnn):
        # a cascade cell splits the experiment's max_processed across its
        # four levels: 10 clauses a level under 40, too few to prove
        model, vocab = fixture_cnn
        problems = [c.problem for c in desk_corpus(0) if "premsel" in c.tags][:3]
        methods = [MethodConfig("casc", GuidanceConfig(mode="auto", model=model, vocab=vocab),
                                premsel_levels=(32, 64, 128, 256))]
        tight = run_corpus(problems, methods, SearchConfig(max_processed=40))
        assert [(r.status, r.processed) for r in tight.records] == [("ResourceOut", 10)] * 3
        ample = run_corpus(problems, methods, SearchConfig(max_processed=20_000))
        assert all(r.proved for r in ample.records)

    def test_walltime_suppressed_by_default(self):
        problems = self._problems(1)
        methods = [MethodConfig("auto", GuidanceConfig(mode="auto"))]
        report = run_corpus(problems, methods, SearchConfig(max_processed=200))
        assert report.records[0].wall_ms == 0
        timed = run_corpus(problems, methods, SearchConfig(max_processed=200),
                           record_walltime=True)
        assert timed.records[0].wall_ms >= 0


class TestAggregates:
    def test_cumulative_buckets(self):
        records = [rec("p1", "m", processed=800), rec("p2", "m", processed=5_000),
                   rec("p3", "m", "ResourceOut", 99_999)]
        agg = compute_aggregates(records)
        pct = agg["percent_proved"]["m"]
        assert pct["1000"] == pytest.approx(100 / 3, abs=0.01)
        assert pct["10000"] == pytest.approx(200 / 3, abs=0.01)
        assert pct["inf"] == pytest.approx(200 / 3, abs=0.01)

    def test_recompute_matches_stored(self):
        records = [rec("p1", "a"), rec("p2", "a", "Satisfiable"),
                   rec("p1", "b"), rec("p2", "b")]
        report = ExperimentReport(records, compute_aggregates(records), {})
        assert check_report(report)
        report.aggregates["union_total"] += 1
        assert not check_report(report)


class TestUnionStats:
    def test_set_algebra(self):
        # A proves {1,2}, B proves {2,3}: union 3, A-unique 1
        records = [
            rec("t1", "A"), rec("t2", "A"), rec("t3", "A", "ResourceOut"),
            rec("t1", "B", "ResourceOut"), rec("t2", "B"), rec("t3", "B"),
        ]
        stats = union_stats(ExperimentReport(records, compute_aggregates(records)))
        assert stats["per_method"] == {"A": 2, "B": 2}
        assert stats["union_total"] == 3
        assert stats["pairwise_union"]["A|B"] == 3
        assert stats["unique_proofs"] == {"A": 1, "B": 1}

    def test_disjoint_union_is_sum(self):
        records = [
            rec("t1", "A"), rec("t2", "A", "ResourceOut"),
            rec("t1", "B", "ResourceOut"), rec("t2", "B"),
        ]
        stats = union_stats(ExperimentReport(records, compute_aggregates(records)))
        assert stats["union_total"] == 2 == stats["per_method"]["A"] + stats["per_method"]["B"]


class TestCurves:
    def test_log_spaced_limits(self):
        limits = curve_limits(400)
        assert limits[:6] == [1, 2, 5, 10, 20, 50]
        assert all(b > a for a, b in zip(limits, limits[1:]))

    def test_curve_non_increasing(self):
        records = [rec(f"p{i}", "m", processed=30 * (i + 1)) for i in range(8)]
        records.append(rec("p9", "m", "ResourceOut"))
        curves = emit_curves(ExperimentReport(records, {}))
        values = [pct for _, pct in curves["m"]]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_all_proved_curve_reaches_zero(self):
        records = [rec(f"p{i}", "m", processed=5) for i in range(4)]
        curves = emit_curves(ExperimentReport(records, {}))
        assert curves["m"][-1][1] == 0.0
        beyond_10 = [pct for lim, pct in curves["m"] if lim >= 10]
        assert all(p == 0.0 for p in beyond_10)

    def test_none_proved_flat_100(self):
        records = [rec(f"p{i}", "m", "ResourceOut") for i in range(4)]
        curves = emit_curves(ExperimentReport(records, {}))
        assert all(pct == 100.0 for _, pct in curves["m"])

    def test_curve_files(self, tmp_path):
        records = [rec("p1", "m", processed=7)]
        write_curve_files(ExperimentReport(records, {}), str(tmp_path))
        content = (tmp_path / "curve_m.txt").read_text()
        assert content.startswith("# pc_limit percent_unproved\n")


class TestReportFiles:
    def _report(self):
        records = [rec("p1", "a", processed=12), rec("p2", "a", "Satisfiable", 5)]
        return ExperimentReport(records, compute_aggregates(records),
                                {"seed": 0, "limits": {"max_processed": 100}})

    def test_round_trip(self, tmp_path):
        report = self._report()
        path = tmp_path / "r.jsonl"
        write_report(report, str(path))
        loaded = read_report(str(path))
        assert loaded.records == report.records
        assert loaded.aggregates == json.loads(json.dumps(report.aggregates))
        assert check_report(loaded)

    def test_bytes_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_report(self._report(), str(p1))
        write_report(self._report(), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_method_isolation_under_shuffled_corpus(self):
        problems = [c.problem for c in desk_corpus(0) if c.family == "chain"][:3]
        methods = [MethodConfig("auto", GuidanceConfig(mode="auto"))]
        fwd = run_corpus(problems, methods, SearchConfig(max_processed=300))
        rev = run_corpus(problems[::-1], methods, SearchConfig(max_processed=300))
        by_name_fwd = {r.problem: r for r in fwd.records}
        by_name_rev = {r.problem: r for r in rev.records}
        assert by_name_fwd == by_name_rev


class TestAccuracyEval:
    def test_chance_on_balanced_with_constant_model(self):
        from satguide.datagen import TrainingExample
        from satguide.neural.models import ModelConfig, init_model
        from satguide.tokens import Vocabulary

        vocab = Vocabulary()
        for t in ("p", "q", "(", ")", "a"):
            vocab.add(t)
        model = init_model(ModelConfig(arch="cnn", vocab_size=len(vocab), dim=4,
                                       hidden=4, seed=0), vocab_hash=vocab.hash)
        for name in ("comb.1.w", "comb.1.b", "comb.2.w", "comb.2.b"):
            model.params[name].data[:] = 0
        examples = [
            TrainingExample("p(a)", ["q(a)"], i % 2, f"c{i}", i) for i in range(20)
        ]
        assert accuracy_eval(model, examples, vocab) == 0.5
