"""Harness, persistence, reproducibility, and CLI tests."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ptf_lab import batch, cli, harness, iterative
from ptf_lab.distributions import (
    EXACT,
    FLOAT,
    RootModel,
    entropy_lower_bound_uniform,
    random_instance,
    trial_rng,
)
from ptf_lab.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    compare_entropy,
    entropy_floors,
    print_bounds,
    run,
)
from ptf_lab.instances import true_labels
from ptf_lab.oracle import Oracle

from util import dkw_radius, ks_statistic_discrete, z_law_cdf_grid, z_law_mean


def small_config(**kw):
    base = dict(
        learner=harness.ITERATIVE,
        d_values=(2,),
        n_values=(128,),
        trials=5,
        master_seed=42,
    )
    base.update(kw)
    return ExperimentConfig(**base)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def untimed(row):
    return {k: v for k, v in row.items() if k != "wall_ms"}


class TestRun:
    def test_row_count_and_correctness(self):
        result = run(small_config(d_values=(1, 2), n_values=(64, 128)))
        assert len(result.rows) == 4 * 5
        assert result.all_correct

    def test_csv_schema(self, tmp_path):
        out = tmp_path / "r.csv"
        run(small_config(out=str(out)))
        rows = read_csv(out)
        assert list(rows[0].keys()) == CSV_COLUMNS
        assert (out.with_suffix(".json")).exists()

    def test_reproducible_apart_from_wall_time(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(small_config(learner=harness.BATCH, alphas=(0.5,), out=str(out1)))
        run(small_config(learner=harness.BATCH, alphas=(0.5,), out=str(out2)))
        assert list(map(untimed, read_csv(out1))) == list(map(untimed, read_csv(out2)))

    @pytest.mark.parametrize("learner", [harness.ITERATIVE, harness.BATCH, harness.SAMPLE_SEARCH])
    def test_run_trial_makes_the_rows_of_run(self, learner):
        kw = {"alphas": (0.5,)} if learner == harness.BATCH else {}
        cfg = small_config(learner=learner, d_values=(1, 3), trials=3, **kw)
        for s, row in enumerate(run(cfg).rows):
            trial = harness.run_trial(cfg, cfg.cells()[s // 3], s)
            assert untimed(trial.row) == untimed(row)
            assert (row["trial"], row["seed_stream"], row["correct"]) == (s % 3, s, True)
            assert np.array_equal(trial.result.labels, true_labels(trial.instance))

    @pytest.mark.parametrize("hook", [(harness, "random_instance"), (iterative, "learn_all")])
    def test_a_trial_that_raises_has_no_instance_or_result(self, monkeypatch, hook):
        def fail(*args, **kwargs):
            raise ArithmeticError("no trial for this stream")

        monkeypatch.setattr(*hook, fail)
        cfg = small_config(d_values=(1, 2), trials=2)
        for s, row in enumerate(run(cfg).rows):
            trial = harness.run_trial(cfg, cfg.cells()[s // 2], s)
            assert trial.instance is None and trial.result is None
            assert untimed(trial.row) == untimed(row)
            assert row["case"] == "ArithmeticError: no trial for this stream"

    def test_sample_search_records_z_and_case(self):
        result = run(
            small_config(
                learner=harness.SAMPLE_SEARCH,
                dirichlet_alpha=2.0,
                trials=8,
            )
        )
        for row in result.rows:
            assert row["case"] in ("a", "b")
            assert row["z"] >= 1
        stats = result.cell_stats[0]
        assert stats["model"] == "dirichlet"
        assert stats["case_counts"]["a"] + stats["case_counts"]["b"] == 8

    def test_sample_search_cell_stats_survive_a_raising_trial(self, tmp_path, monkeypatch):
        # exact answers never show a degree-8 polynomial with more than 8
        # flips, so stream 4 gets an oracle that breaks the promise: its
        # label answers alternate, and the learner raises DegreeViolation
        class AlternatingOracle(Oracle):
            def query(self, x, order):
                super().query(x, order)
                return 1 if self.queries % 2 else -1

        made = []

        def oracle(hidden, d, **kw):
            made.append(hidden)
            return (AlternatingOracle if len(made) == 5 else Oracle)(hidden, d, **kw)

        monkeypatch.setattr(harness, "Oracle", oracle)
        out = tmp_path / "ss.csv"
        result = run(
            small_config(
                learner=harness.SAMPLE_SEARCH,
                dirichlet_alpha=0.2,
                d_values=(8,),
                n_values=(4096,),
                trials=10,
                master_seed=1,
                out=str(out),
            )
        )
        assert len(result.rows) == 10
        failed = [r for r in result.rows if r["z"] == ""]
        assert len(failed) == 1
        assert failed[0]["case"].startswith("DegreeViolation")
        assert not failed[0]["correct"]
        z = [r["z"] for r in result.rows if r["z"] != ""]
        assert len(z) == 9
        assert result.cell_stats[0]["mean_z"] == float(np.mean(z))
        assert len(read_csv(out)) == 10

    def test_generation_error_is_a_row(self, tmp_path, monkeypatch):
        calls = []

        def failing_third(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise ArithmeticError("no instance for this stream")
            return random_instance(*args, **kwargs)

        monkeypatch.setattr(harness, "random_instance", failing_third)
        out = tmp_path / "err.csv"
        result = run(small_config(learner=harness.BATCH, alphas=(0.5,), out=str(out)))
        assert len(result.rows) == 5 and len(read_csv(out)) == 5
        bad = result.rows[2]
        assert bad["case"] == "ArithmeticError: no instance for this stream"
        assert bad["correct"] is False and bad["queries_total"] == 0 and bad["rounds"] == 0
        assert bad["iterations"] == bad["loop_rounds"] == bad["final_round"] == ""
        assert all(r["correct"] for i, r in enumerate(result.rows) if i != 2)
        assert not result.cell_stats[0]["all_correct"]

    def test_batch_rows_explain_themselves(self):
        rows = run(small_config(learner=harness.BATCH, alphas=(0.3,), n_values=(4096,))).rows
        for row in rows:
            assert row["correct"] and row["case"] == ""
            assert row["rounds"] == row["loop_rounds"] + row["final_round"]
            assert 1 <= row["iterations"] <= row["loop_rounds"]
        other = run(small_config()).rows[0]
        assert other["iterations"] == other["loop_rounds"] == other["final_round"] == ""

    @pytest.mark.parametrize("learner", [harness.ITERATIVE, harness.BATCH])
    def test_model_reaches_every_learner(self, tmp_path, learner):
        # exact Dirichlet(0.2) roots at d = 4; each row is replayed from its
        # stream on a Dirichlet instance and must show the same query count
        d, n, master = 4, 1024, 7
        out = tmp_path / "dir.csv"
        kw = dict(alphas=(0.5,)) if learner == harness.BATCH else {}
        cfg = small_config(
            learner=learner, backend=EXACT, dirichlet_alpha=0.2,
            d_values=(d,), n_values=(n,), trials=10, master_seed=master, out=str(out), **kw,
        )
        rows = run(cfg).rows
        model = RootModel(d, 0.2)
        for row in rows:
            assert row["correct"] and row["case"] == "", row
            rng = trial_rng(master, row["seed_stream"])
            inst = random_instance(n, model, rng, backend=EXACT)
            oracle = Oracle(inst.hidden, d)
            if learner == harness.BATCH:
                params = batch.BatchParams(d=d, n=n, alpha=0.5)
                res = batch.learn_all(inst, oracle, params, rng)
                assert row["iterations"] == res.iterations <= params.t
                assert row["rounds"] == row["loop_rounds"] + row["final_round"]
            else:
                iterative.learn_all(inst, oracle)
                assert row["queries_total"] <= iterative.query_bound(d, n)
            assert row["queries_total"] == oracle.queries
        cell = json.loads(out.with_suffix(".json").read_text())["cells"][0]
        assert cell["model"] == "dirichlet" and cell["all_correct"]

    def test_small_alpha_dirichlet_sweep_writes_every_row(self, tmp_path):
        # float prefix sums of Dirichlet(0.1) gaps collide at 275 of 2,000
        # streams of seed 99; the exact prefix sums never do, so no generation
        # aborts the sweep.  Whether the labels are right is not asserted here.
        out = tmp_path / "dir01.csv"
        args = ["run", "--learner", "sample_search"]
        args += ["--dirichlet-alpha", "0.1", "--d", "8", "--n", "4096"]
        args += ["--trials", "400", "--seed", "99", "--out", str(out)]
        assert cli.main(args) in (0, 1)
        assert len(read_csv(out)) == 400

    def test_clustered_dirichlet_roots_every_row_correct(self):
        # at Dirichlet(0.1), d = 8 the roots cluster tightly; the float draw
        # mode expands them exactly, so the learner's labels match the
        # roots' in every row, counted here by brute force
        cfg = small_config(
            learner=harness.SAMPLE_SEARCH,
            dirichlet_alpha=0.1,
            d_values=(8,),
            n_values=(4096,),
            trials=60,
            master_seed=99,
        )
        for stream in range(cfg.trials):
            trial = harness.run_trial(cfg, cfg.cells()[0], stream)
            row, inst = trial.row, trial.instance
            assert row["z"] != "", (stream, row["case"])  # no DegreeViolation
            # every point against every root: a point off a root's nearest
            # float lies on that float's side of the root, and a point on it
            # is compared with the root exactly
            pts, nearest = inst.points[:, None], np.array([[float(r) for r in inst.roots]])
            on, below = pts == nearest, pts < nearest
            for i, j in zip(*np.nonzero(on)):
                x, r = Fraction(float(inst.points[i])), inst.roots[j]
                on[i, j], below[i, j] = x == r, x < r
            truth = np.where(on.any(axis=1), 1, (-1) ** below.sum(axis=1))
            assert np.array_equal(trial.result.labels, truth), stream
            assert row["correct"], stream

    def test_parallel_matches_serial(self):
        # 17 trials make 3 chunks of the pool's chunksize 8, so both workers run trials
        for cfg in (
            small_config(trials=17),
            small_config(learner=harness.BATCH, n_values=(1024,), alphas=(0.5,), trials=17),
        ):
            serial = run(cfg)
            os.environ["PTF_LAB_THREADS"] = "2"
            try:
                parallel = run(cfg)
            finally:
                del os.environ["PTF_LAB_THREADS"]
            assert list(map(untimed, parallel.rows)) == list(map(untimed, serial.rows)), cfg.learner

    def test_higher_orders_flattened_to_json(self, monkeypatch):
        made = []

        def recording(*args, **kw):
            made.append(Oracle(*args, **kw))
            return made[-1]

        monkeypatch.setattr(harness, "Oracle", recording)
        result = run(small_config(d_values=(6,), n_values=(64,), trials=2))
        row = result.rows[0]
        extra = json.loads(row["queries_higher_json"])
        assert set(extra) <= {"4", "5"}
        per_order_sum = (
            row["queries_order0"]
            + row["queries_order1"]
            + row["queries_order2"]
            + row["queries_order3"]
            + sum(extra.values())
        )
        assert per_order_sum == row["queries_total"]
        # iterative d = 6 asks every order 0..5; orders 4 and 5 go to the JSON
        counts = made[0].per_order
        assert len(counts) == 6 and counts[4] > 0 and counts[5] > 0
        assert row["queries_higher_json"] == json.dumps({"4": counts[4], "5": counts[5]})
        assert [row[f"queries_order{o}"] for o in range(4)] == list(counts[:4])
        assert row["rounds"] == made[0].rounds == row["queries_total"]

        # a label-only d = 6 oracle counts order 0 only
        row = run(small_config(learner=harness.SAMPLE_SEARCH, d_values=(6,), trials=1)).rows[0]
        assert row["queries_order0"] == row["queries_total"] == made[-1].queries > 0
        assert [row[f"queries_order{o}"] for o in (1, 2, 3)] == [0, 0, 0]
        assert row["queries_higher_json"] == "{}"

        # a trial that raises before its oracle is built counts nothing
        def broken(*args, **kw):
            raise RuntimeError("no instance")

        monkeypatch.setattr(harness, "random_instance", broken)
        row = run(small_config(d_values=(6,), trials=1)).rows[0]
        assert row["case"] == "RuntimeError: no instance"
        counts = [row["queries_total"], row["rounds"]]
        counts += [row[f"queries_order{o}"] for o in range(4)]
        assert counts == [0] * 6
        assert row["queries_higher_json"] == "{}"

    def test_validation(self, capsys, tmp_path):
        with pytest.raises(ValueError):
            small_config(trials=0)
        with pytest.raises(ValueError):
            small_config(learner=harness.BATCH)  # no alphas
        with pytest.raises(ValueError):
            small_config(learner="magic")
        with pytest.raises(ValueError):
            small_config(backend="exakt")
        with pytest.raises(ValueError, match="batch learner only"):
            small_config(alphas=(0.5,))  # iterative
        # the CLI reports an invalid configuration as a usage error
        json_out = str(tmp_path / "res.json")  # the JSON sidecar would replace its CSV
        for extra, message in [
            (["--learner", "sample_search", "--alpha", ".5"], "alphas apply to the batch"),
            (["--learner", "iterative", "--alpha", "0.5"], "alphas apply to the batch"),
            (["--learner", "batch", "--alpha", "1.5"], "alpha must lie in"),
            (["--learner", "iterative", "--trials", "0"], "trials must be at least 1"),
            (["--learner", "iterative", "--out", json_out], f"out {json_out!r} ends in .json"),
        ]:
            with pytest.raises(SystemExit) as exc:
                cli.main(["run", "--d", "2", "--n", "8", *extra])
            assert exc.value.code == 2
            assert f"ptf-lab run: error: {message}" in capsys.readouterr().err
        assert not Path(json_out).exists()

    @pytest.mark.parametrize("value", ["two", "1.5", "2 workers"])
    def test_threads_not_an_integer_raise_before_any_trial(self, monkeypatch, capsys, value):
        monkeypatch.setattr(harness, "run_trial", None)  # never reached
        monkeypatch.setenv("PTF_LAB_THREADS", value)
        with pytest.raises(ValueError, match="PTF_LAB_THREADS must be an integer"):
            run(small_config())
        assert cli.main(["run", "--learner", "iterative", "--d", "2", "--n", "8"]) == 2
        message = f"PTF_LAB_THREADS must be an integer, not {value!r}"
        assert capsys.readouterr().err == f"ptf-lab run: error: {message}\n"

    def test_empty_threads_is_unset(self, monkeypatch):
        monkeypatch.setenv("PTF_LAB_THREADS", "")
        assert harness.worker_count() == 1

    def test_bad_cells_raise_before_any_trial(self, monkeypatch):
        monkeypatch.setattr(harness, "run_trial", None)  # never reached
        bad = [
            dict(learner=harness.BATCH, alphas=(0.5, 0.05), n_values=(1024,)),  # alpha <= 1/ln n
            dict(learner=harness.BATCH, alphas=(1.5,)),
            dict(learner=harness.BATCH, alphas=(0.5,), n_values=(1,)),
            dict(n_values=(0,)),
            dict(d_values=(2, 0)),
            dict(learner=harness.SAMPLE_SEARCH, dirichlet_alpha=0.0),
            dict(out="res.json"),
        ]
        for kw in bad:
            with pytest.raises(ValueError):
                run(small_config(**kw))


class TestRunExamples:
    def test_iterative_sweep_respects_bound(self):
        from ptf_lab.iterative import query_bound

        result = run(
            small_config(d_values=(3,), n_values=(2**12,), trials=100, master_seed=9)
        )
        assert len(result.rows) == 100
        assert all(r["correct"] for r in result.rows)
        assert all(r["queries_total"] <= query_bound(3, 2**12) == 98 for r in result.rows)

    @pytest.mark.xfail(
        strict=True,
        reason="FOUND: float from_roots rounds the coefficients of float uniform roots, "
        "so from d = 16 up the hidden polynomial no longer changes sign at its listed roots",
    )
    @pytest.mark.parametrize("learner", [harness.ITERATIVE, harness.SAMPLE_SEARCH])
    def test_high_degree_float_rows_are_correct(self, learner):
        rows = run(ExperimentConfig(learner, (20, 24), (1024,), 3, 3, backend=FLOAT)).rows
        assert [row["correct"] for row in rows] == [True] * 6

    @pytest.mark.parametrize("learner", [harness.ITERATIVE, harness.SAMPLE_SEARCH, harness.BATCH])
    def test_high_degree_rows_are_correct(self, learner):
        # the default draws are exact, so the hidden polynomial changes sign
        # at its listed roots at every degree; float draws mislabel here
        alphas = (0.5,) if learner == harness.BATCH else ()
        rows = run(ExperimentConfig(learner, (20, 24), (1024,), 3, 3, alphas=alphas)).rows
        assert [row["correct"] for row in rows] == [True] * 6

    def test_sample_search_mean_z_monotone_and_sublinear(self):
        # Var Z grows like 4n at d = 1, so 300-trial means cannot order the
        # cells.  Check each cell's Z against its exact law instead, then
        # assert the growth on the law's own mean.
        ns = (2**10, 2**13, 2**16)
        trials = 300
        delta = 1e-3  # chance that a correct run fails any of the KS checks
        result = run(
            small_config(
                learner=harness.SAMPLE_SEARCH,
                d_values=(1,),
                n_values=ns,
                trials=trials,
                master_seed=10,
            )
        )
        radius = dkw_radius(trials, len(ns), delta)
        for n, stats in zip(ns, result.cell_stats):
            z = np.array([r["z"] for r in result.rows if r["n"] == n])
            assert stats["n"] == n and len(z) == trials
            assert stats["mean_z"] == float(z.mean())
            cdf = z_law_cdf_grid(n, 1)
            assert ks_statistic_discrete(z, cdf) <= radius, n
            # power: P(Z <= 1) = 0 but P(Z <= 2) = 1/3, so Z + 1 is rejected
            assert ks_statistic_discrete(z + 1, cdf) > radius, n
        means = [2 * sum(1 / k for k in range(1, n + 1)) - 1 for n in ns]
        for n, mean in zip(ns, means):
            assert z_law_mean(n, 1) == pytest.approx(mean, rel=1e-12)
        assert means[0] < means[1] < means[2]
        assert means[2] <= 3 * means[0]  # far below the 64x linear growth


class TestCompareEntropy:
    def _write_agg(self, path, mean, stderr, n=100, d=1, model="uniform", alpha=""):
        agg = {
            "config": {"learner": harness.SAMPLE_SEARCH},
            "cells": [
                {
                    "d": d,
                    "n": n,
                    "alpha": alpha,
                    "model": model,
                    "mean_queries": mean,
                    "stderr_queries": stderr,
                }
            ],
        }
        Path(path).write_text(json.dumps(agg))

    def test_real_run_clears_floor(self, tmp_path):
        out = tmp_path / "ss.csv"
        run(
            small_config(
                learner=harness.SAMPLE_SEARCH,
                d_values=(1,),
                n_values=(256,),
                trials=40,
                out=str(out),
            )
        )
        report = compare_entropy([out.with_suffix(".json")])
        assert report and all(r["ok"] for r in report)

    def test_violation_lists_cell(self, tmp_path):
        path = tmp_path / "bad.json"
        self._write_agg(path, mean=1.0, stderr=0.1)  # floor is ~6.66 bits
        report = compare_entropy([path])
        assert len(report) == 1 and report[0]["n"] == 100 and report[0]["d"] == 1
        assert not report[0]["ok"]

    def test_dirichlet_small_cell_checks_exact_entropy(self, tmp_path):
        path = tmp_path / "dir.json"
        self._write_agg(path, mean=30.0, stderr=0.5, n=20, d=2, model="dirichlet", alpha=2.0)
        report = compare_entropy([path])
        assert set(report[0]["bounds"]) == {"dirichlet_exact"}

    def test_dirichlet_large_cell_checks_exact_entropy(self, tmp_path):
        # C(2^16 + 8, 8) count vectors, far too many to enumerate
        path = tmp_path / "dir_big.json"
        self._write_agg(
            path, mean=500.0, stderr=1.0, n=2**16, d=8, model="dirichlet", alpha=0.5
        )
        (entry,) = compare_entropy([path])
        assert entry["ok"]
        assert entry["bounds"] == {"dirichlet_exact": pytest.approx(110.1838, abs=1e-4)}

    def test_entropy_floors_gives_every_cell_one_floor(self):
        # criterion 8's Dirichlet cells (d = 4, n = 2^12) among them
        cases = [("uniform", "")] + [("dirichlet", a) for a in (0.005, 0.1, 0.5, 1.0, 2.0, 144.0)]
        for model, alpha in cases:
            kind = "dirichlet_exact" if model == "dirichlet" and alpha != 1 else "uniform_floor"
            for d in (1, 4, 8):
                for n in (1, 20, 2**12, 2**16):
                    floors = entropy_floors(model, alpha, n, d)
                    assert list(floors) == [kind], (model, alpha, n, d)
                    # no law on the C(n+d, d) count vectors has more entropy than the flat one
                    assert 0 < floors[kind] <= entropy_lower_bound_uniform(n, d) * (1 + 1e-12)

    def test_dirichlet_cell_is_held_to_its_own_entropy(self, tmp_path):
        # 7.7 clears the Dir(2) entropy 7.641 but not log2 C(22, 2) = 7.852,
        # which holds only for uniform counts
        path = tmp_path / "dir2.json"
        self._write_agg(path, mean=7.7, stderr=0.0, n=20, d=2, model="dirichlet", alpha=2.0)
        (entry,) = compare_entropy([path])
        assert entry["ok"]
        assert entry["bounds"] == {"dirichlet_exact": pytest.approx(7.641, abs=1e-3)}

    def test_flat_dirichlet_cell_gets_the_uniform_floor(self, tmp_path):
        # alpha = 1 is the uniform count law: one floor, log2 C(22, 2)
        path = tmp_path / "dir1.json"
        self._write_agg(path, mean=7.7, stderr=0.0, n=20, d=2, model="dirichlet", alpha=1.0)
        (entry,) = compare_entropy([path])
        assert not entry["ok"]
        assert entry["bounds"] == {"uniform_floor": pytest.approx(math.log2(231))}


def dictwriter_outputs(result, out_csv):
    """Reference for ``harness.write_outputs``: a truncating ``csv.DictWriter``
    and ``Path.write_text``."""
    with open(out_csv, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, extrasaction="ignore")
        writer.writeheader()
        for row in result.rows:
            writer.writerow(row)
    agg = {"config": dataclasses.asdict(result.config), "cells": result.cell_stats}
    out_csv.with_suffix(".json").write_text(json.dumps(agg, indent=1))


class TestWriteOutputs:
    @pytest.mark.parametrize("learner", [harness.ITERATIVE, harness.BATCH, harness.SAMPLE_SEARCH])
    def test_bytes_equal_dictwriter_output(self, tmp_path, learner):
        kw = {"alphas": (0.5,)} if learner == harness.BATCH else {}
        result = run(small_config(learner=learner, d_values=(1, 3), trials=4, **kw))
        want = tmp_path / "want.csv"
        dictwriter_outputs(result, want)
        fresh = tmp_path / "sub" / "fresh.csv"
        longer = tmp_path / "longer.csv"
        longer.write_bytes(b"x" * (2 * want.stat().st_size))  # old contents to cut
        longer.with_suffix(".json").write_bytes(b"{" * 50_000)
        for path in (fresh, longer, longer):  # the last pass overwrites equal contents
            harness.write_outputs(result, path)
            assert path.read_bytes() == want.read_bytes()
            assert path.with_suffix(".json").read_bytes() == want.with_suffix(".json").read_bytes()


def test_harness_import_loads_no_pool_or_witnesses():
    # the process pool and adversarial are imported only when used
    src = str(Path(harness.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import ptf_lab.harness; "
        "print(sorted(m for m in ('multiprocessing', 'ptf_lab.adversarial') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


class TestPrintBounds:
    def test_table(self):
        table = print_bounds([3], [4096])
        assert table.splitlines()[0] == "d,n,query_bound"
        assert "3,4096,98" in table


class TestCli:
    def test_run_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "cli.csv"
        code = cli.main(
            [
                "run",
                "--learner", "iterative",
                "--d", "2",
                "--n", "128",
                "--trials", "3",
                "--seed", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert json.loads(capsys.readouterr().out.splitlines()[0])["all_correct"]

    def test_draws_are_exact_with_no_backend_flag(self, tmp_path, capsys):
        # the float draw mode is for callers that name it; the command line draws exactly
        args = ["run", "--learner", "iterative", "--d", "2", "--n", "8", "--trials", "2"]
        with pytest.raises(SystemExit) as exc:
            cli.main(args + ["--backend", "exact"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --backend exact" in capsys.readouterr().err
        out = tmp_path / "exact.csv"
        assert cli.main(args + ["--out", str(out)]) == 0
        assert [row["backend"] for row in read_csv(out)] == ["exact", "exact"]

    def test_dirichlet_alpha_alone_picks_dirichlet_roots(self, tmp_path, capsys):
        out = tmp_path / "dir.csv"
        args = ["run", "--learner", "iterative", "--d", "2", "--n", "64", "--trials", "2"]
        assert cli.main(args + ["--dirichlet-alpha", "0.1", "--out", str(out)]) == 0
        sidecar = json.loads(out.with_suffix(".json").read_text())
        (cell,) = sidecar["cells"]
        assert (cell["model"], cell["alpha"]) == ("dirichlet", 0.1)
        assert sidecar["config"]["dirichlet_alpha"] == 0.1
        assert [row["alpha"] for row in read_csv(out)] == ["0.1", "0.1"]
        capsys.readouterr()
        for bad, message in [
            (["--dirichlet-alpha", "0"], "ptf-lab run: error: dirichlet alpha must be finite"),
            (["--model", "dirichlet"], "unrecognized arguments: --model dirichlet"),
        ]:
            with pytest.raises(SystemExit) as exc:
                cli.main(args + bad)
            assert exc.value.code == 2
            assert message in capsys.readouterr().err

    def test_print_bounds(self, capsys):
        assert cli.main(["print-bounds", "--d", "2", "--n", "1024"]) == 0
        assert "2,1024,36" in capsys.readouterr().out

    @pytest.mark.parametrize("d, n", [("2", "0"), ("0", "4")])
    def test_print_bounds_rejects_d_or_n_below_one(self, capsys, d, n):
        with pytest.raises(SystemExit) as exc:
            cli.main(["print-bounds", "--d", d, "--n", n])
        assert exc.value.code == 2
        assert "ptf-lab print-bounds: error: query_bound needs" in capsys.readouterr().err

    def test_verify_lower_bounds(self, capsys):
        # the witness grid is fixed: the report takes no grid flags
        flags = ("--interval-n", "--missing-d", "--missing-n", "--linear-d", "--multivariate-n")
        for flag in flags:
            with pytest.raises(SystemExit) as exc:
                cli.main(["verify-lower-bounds", flag, "4"])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag} 4" in capsys.readouterr().err

    def test_verify_lower_bounds_default_output(self, capsys):
        # the default report, byte for byte, as checked in
        fixture = Path(__file__).parent / "fixtures" / "verify_lower_bounds.jsonl"
        assert cli.main(["verify-lower-bounds"]) == 0
        assert capsys.readouterr().out.encode() == fixture.read_bytes()

    def test_compare_entropy_failure_exit(self, tmp_path, capsys):
        bad = {
            "config": {"learner": "sample_search"},
            "cells": [
                {
                    "d": 1,
                    "n": 100,
                    "alpha": "",
                    "model": "uniform",
                    "mean_queries": 0.5,
                    "stderr_queries": 0.01,
                }
            ],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert cli.main(["compare-entropy", str(path)]) == 1
