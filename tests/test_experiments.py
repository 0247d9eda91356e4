import numpy as np
import pytest

import kmprop.experiments as experiments
import kmprop.kernels as kernels
from kmprop import KernelSpec, SynthConfig, ingest_pair_file, run_pairs, run_synth
from kmprop.anm import AnmConfig
from kmprop.datasets import synthetic_pair_suite, write_pair_dir
from kmprop.errors import InputError, ParseError, TooFewRows
from kmprop.experiments import (
    read_metadata,
    records_to_csv,
    records_to_json,
    summarize_records,
)

from oracles import brute_mmd_sq, gauss_k


TINY = SynthConfig(operation="mul", m_values=(4, 8), repetitions=3,
                   proxy_size=30, seed=0)


class TestSynthConfig:
    def test_validation(self):
        with pytest.raises(InputError):
            SynthConfig(operation="mod")
        with pytest.raises(InputError):
            SynthConfig(m_values=())
        with pytest.raises(InputError):
            SynthConfig(m_values=(1,))
        with pytest.raises(InputError):
            SynthConfig(repetitions=0)
        with pytest.raises(InputError):
            SynthConfig(proxy_size=1)
        with pytest.raises(InputError):
            SynthConfig(reduced_fraction=0.0)
        with pytest.raises(InputError):
            SynthConfig(estimators=("mu9",))
        with pytest.raises(InputError):
            SynthConfig(x_sd=0.0)
        with pytest.raises(InputError):
            SynthConfig(kernel="gaussian")
        with pytest.raises(InputError):
            SynthConfig(proxy_kind="bootstrap")
        with pytest.raises(InputError):
            SynthConfig(refit_ridge=-1e-8)


class TestRunSynth:
    def test_shape_and_order(self):
        records = run_synth(TINY)
        assert len(records) == 2 * 3 * 3
        keys = [(r.m, r.repetition, r.estimator) for r in records]
        assert keys == sorted(keys, key=lambda k: (k[0], k[1], ("mu1", "mu2", "mu3").index(k[2])))
        assert all(np.isfinite(r.loss) and r.loss >= 0.0 for r in records)
        assert all(r.wall_time >= 0.0 for r in records)

    def test_deterministic(self):
        a = run_synth(TINY)
        b = run_synth(TINY)
        assert [(r.estimator, r.m, r.repetition, r.loss) for r in a] == \
               [(r.estimator, r.m, r.repetition, r.loss) for r in b]

    def test_m_values_sorted_in_output(self):
        records = run_synth(SynthConfig(operation="mul", m_values=(8, 4),
                                        repetitions=1, proxy_size=20,
                                        estimators=("mu1",)))
        assert [r.m for r in records] == [4, 8]

    def test_losses_shrink_with_m(self):
        config = SynthConfig(operation="mul", m_values=(5, 40), repetitions=8,
                             proxy_size=60, estimators=("mu1",), seed=1)
        records = run_synth(config)
        lo = np.mean([r.loss for r in records if r.m == 5])
        hi = np.mean([r.loss for r in records if r.m == 40])
        assert hi < lo

    def test_guarded_operations_run(self):
        for op in ("div", "pow"):
            records = run_synth(SynthConfig(operation=op, m_values=(4,),
                                            repetitions=2, proxy_size=20))
            assert all(np.isfinite(r.loss) for r in records)

    def test_estimator_subset(self):
        records = run_synth(SynthConfig(operation="add", m_values=(4,),
                                        repetitions=2, proxy_size=20,
                                        estimators=("mu1",)))
        assert {r.estimator for r in records} == {"mu1"}

    def test_paired_proxy_runs_and_differs_from_grid(self):
        grid = SynthConfig(operation="mul", m_values=(6,), repetitions=2,
                           proxy_size=30, estimators=("mu1",), seed=3)
        paired = SynthConfig(operation="mul", m_values=(6,), repetitions=2,
                             proxy_size=30, proxy_kind="paired",
                             estimators=("mu1",), seed=3)
        lg = [r.loss for r in run_synth(grid)]
        lp = [r.loss for r in run_synth(paired)]
        assert all(np.isfinite(v) and v >= 0.0 for v in lg + lp)
        # same estimator sample, different reference embedding
        assert lg != lp

    def test_refit_ridge_tames_pow_coefficients(self):
        # with a near-zero re-fit ridge the x^y grid weights can blow
        # up; the default keeps the loss at the same scale as mu1
        base = dict(operation="pow", m_values=(50,), repetitions=4,
                    proxy_size=60, estimators=("mu1", "mu2"), seed=0)
        loose = run_synth(SynthConfig(refit_ridge=1e-12, **base))
        stiff = run_synth(SynthConfig(**base))
        worst = {}
        for recs, tag in ((loose, "loose"), (stiff, "stiff")):
            worst[tag] = max(r.loss for r in recs if r.estimator == "mu2")
        assert worst["stiff"] <= worst["loose"]
        assert worst["stiff"] < 1.0


class TestSynthScoring:
    @pytest.fixture
    def scored(self, monkeypatch):
        """Every batched scoring call of run_synth: its arguments and result."""
        calls = []
        batched = experiments.spectral_mmd_sq

        def spy(spec, X, wx, others):
            out = batched(spec, X, wx, others)
            calls.append((spec, X, wx, others, out))
            return out

        monkeypatch.setattr(experiments, "spectral_mmd_sq", spy)
        return calls

    @pytest.mark.parametrize("op", ["mul", "div", "pow", "add"])
    def test_losses_match_float64_brute_force(self, scored, op):
        config = SynthConfig(operation=op, m_values=(4, 6), repetitions=1,
                             proxy_size=12, seed=5)
        records = run_synth(config)
        assert len(scored) == 2
        losses = []
        for spec, X, wx, others, out in scored:
            # The reference is the uniform 12 x 12 proxy grid.
            assert X.shape == (144, 1) and np.allclose(wx, 1 / 144, rtol=1e-14, atol=0)
            assert out is not None and len(out) == len(others) == 3
            k = lambda a, b: gauss_k(a, b, spec.sigma)
            for (Y, wy), got in zip(others, out):
                total = float(np.abs(wy).sum() + np.abs(wx).sum())
                assert 0.0 <= got
                assert abs(got - brute_mmd_sq(k, Y, wy, X, wx)) <= 1e-13 * total * total
            losses += out
        assert [r.loss for r in records] == losses

    def test_proxy_transformed_once_per_replicate(self, monkeypatch):
        config = SynthConfig(operation="mul", m_values=(4, 8), repetitions=2,
                             proxy_size=30, seed=2)
        sizes = []
        char_fn = kernels._char_fn

        def spy(nodes, P, w):
            sizes.append(P.shape[0])
            return char_fn(nodes, P, w)

        monkeypatch.setattr(kernels, "_char_fn", spy)
        run_synth(config)
        # 4 replicates: the 900-point proxy grid once, then mu1, mu2, mu3.
        assert sizes.count(30 * 30) == 4
        assert len(sizes) == 4 * 4

    def test_other_kernels_keep_the_three_float32_terms(self, scored, monkeypatch):
        spec = KernelSpec.polynomial(2)
        config = SynthConfig(operation="mul", m_values=(4,), repetitions=2,
                             proxy_size=10, kernel=spec, seed=1)
        terms = []
        loss_sq = experiments._loss_sq

        def spy(*args):
            terms.append(args)
            return loss_sq(*args)

        monkeypatch.setattr(experiments, "_loss_sq", spy)
        records = run_synth(config)
        assert [out for *_, out in scored] == [None, None]
        assert len(terms) == len(records) == 6
        for (s, mu, ppts, pw, norm), r in zip(terms, records):
            assert s == spec
            assert norm == kernels.quad_form(spec, ppts, pw, dtype=np.float32)
            v = (kernels.quad_form(spec, mu.points, mu.weights, dtype=np.float32)
                 - 2.0 * kernels.quad_form(spec, mu.points, mu.weights, ppts, pw, dtype=np.float32)
                 + norm)
            assert r.loss == max(v, 0.0)


class TestRecordSerialization:
    def test_csv_is_deterministic_and_excludes_wall_time(self):
        records = run_synth(TINY)
        text = records_to_csv(records)
        assert text == records_to_csv(run_synth(TINY))
        header = text.splitlines()[0]
        assert header == "estimator,m,repetition,loss"
        assert "wall" not in text

    def test_json_fields(self):
        records = run_synth(SynthConfig(operation="mul", m_values=(4,),
                                        repetitions=1, proxy_size=20))
        objs = records_to_json(records)
        assert all(set(o) == {"estimator", "m", "repetition", "loss"} for o in objs)

    def test_summary_math(self):
        from kmprop.experiments import RunRecord
        records = [
            RunRecord("mu1", 10, 0, 1.0, 0.0),
            RunRecord("mu1", 10, 1, 3.0, 0.0),
            RunRecord("mu2", 10, 0, 5.0, 0.0),
        ]
        lines = summarize_records(records).splitlines()
        assert lines[0] == "estimator,m,mean_loss,sd_loss,n"
        assert lines[1].startswith("mu1,10,2.0,")
        assert float(lines[1].split(",")[3]) == pytest.approx(np.std([1, 3], ddof=1))
        assert lines[2].startswith("mu2,10,5.0,0.0,1")


class TestIngest:
    def test_reads_two_columns(self, tmp_path):
        p = tmp_path / "pair01.txt"
        p.write_text("1.0 2.0\n\n3.0 4.0 extra\n5e-1 -2.5\n7 8\n9 10\n")
        s = ingest_pair_file(p)
        assert s.pair_id == "pair01"
        assert s.x.tolist() == [1.0, 3.0, 0.5, 7.0, 9.0]
        assert s.y.tolist() == [2.0, 4.0, -2.5, 8.0, 10.0]

    def test_malformed_row_names_file_and_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 2\n3 oops\n")
        with pytest.raises(ParseError) as exc:
            ingest_pair_file(p)
        assert "bad.txt:2" in str(exc.value)

    def test_single_column_row(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("1 2\n3\n")
        with pytest.raises(ParseError) as exc:
            ingest_pair_file(p)
        assert "bad.txt:2" in str(exc.value)

    def test_too_few_rows(self, tmp_path):
        p = tmp_path / "short.txt"
        p.write_text("1 2\n3 4\n")
        with pytest.raises(TooFewRows):
            ingest_pair_file(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            ingest_pair_file(tmp_path / "nope.txt")


class TestMetadataAndRunPairs:
    def test_read_metadata(self, tmp_path):
        p = tmp_path / "metadata.csv"
        p.write_text("pair_id,ground_truth\na,x->y\nb,y->x\n")
        assert read_metadata(p) == [("a", "x->y"), ("b", "y->x")]

    def test_metadata_header_required(self, tmp_path):
        p = tmp_path / "metadata.csv"
        p.write_text("id,dir\na,x->y\n")
        with pytest.raises(InputError):
            read_metadata(p)
        p.write_text("pair_id,ground_truth\n")
        with pytest.raises(InputError):
            read_metadata(p)

    def test_run_pairs_end_to_end(self, tmp_path):
        samples = synthetic_pair_suite(seed=0, size=80)[:2]
        meta = write_pair_dir(samples, tmp_path / "pairs")
        reports, curve = run_pairs(tmp_path / "pairs", meta,
                                   AnmConfig(seed=0, n_rff=50))
        assert [r.pair_id for r in reports] == [s.pair_id for s in samples]
        assert all(r.ground_truth in ("x->y", "y->x") for r in reports)
        assert len(curve) == 2
        assert curve[0][0] == 1.0

    def test_run_pairs_missing_file(self, tmp_path):
        d = tmp_path / "pairs"
        d.mkdir()
        meta = tmp_path / "metadata.csv"
        meta.write_text("pair_id,ground_truth\nghost,x->y\n")
        with pytest.raises(InputError) as exc:
            run_pairs(d, meta, AnmConfig())
        assert "ghost" in str(exc.value)
