"""The three benchmark workloads: seeded inputs, one closed-loop pass, checks.

Each workload object has ``setup()`` (returns the sha256 of every input it
generated), ``run_pass(k, tracer)`` (the timed work; returns what the checks
need), ``check(k, outcome)`` (returns a list of failures; untimed) and
``work(outcome)`` (designs screened or rows scored by that pass), and
``fingerprints()`` (output digests that must repeat across runs). Passes with
the same ``group(k)`` run the same inputs; ``groups`` is how many groups there
are, and verdict_s weighs each group equally.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
from dataclasses import replace

import numpy as np

ALPHA = 0.05
POWER = 3.0


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _letters(psfs) -> str:
    return "".join(p.letter for p in psfs)


class Reference:
    """The ROADMAP reference run: case study, bundled table4, default training.

    The plateau rule makes the epochs run (and so the wall time) depend on the
    training seed: seed 1 needs about 163k epochs, seed 11 about 99k. If each
    run drew its own training seeds, that alone would spread verdict_s by
    about 17% between benchmark seeds. So every run alternates the same panel
    of training seeds, one group per panel seed, and the benchmark seed picks
    which panel seed comes first (seed 1 starts with training seed 1). The
    replica seeds of the two panel entries (1-10 and 11-20) do not overlap.
    """

    name = "reference"
    PANEL = (1, 11)
    groups = len(PANEL)

    def __init__(self, hra, seed: int, workdir: str):
        self.hra = hra
        self.workdir = workdir
        start = (seed - 1) % len(self.PANEL)
        self.order = self.PANEL[start:] + self.PANEL[:start]
        self.summary_sha: dict[int, str] = {}

    def setup(self) -> dict:
        ds = self.hra.dataset
        self.obs = ds.bundled_case_study()
        self.table4 = tuple(ds.bundled_table4())
        obs_text, design_text = io.StringIO(), io.StringIO()
        ds.save_observations(self.obs, obs_text)
        ds.save_design(self.table4, design_text)
        return {
            "case_study.csv": sha256_text(obs_text.getvalue()),
            "table4.csv": sha256_text(design_text.getvalue()),
            "training_seeds": sha256_text(",".join(map(str, self.order))),
        }

    def group(self, k: int) -> int:
        return self.order[k % self.groups]

    def run_pass(self, k: int, tracer):
        hra = self.hra
        training_seed = self.group(k)
        config = hra.pipeline.PipelineConfig(
            training=hra.ann.TrainingConfig(seed=training_seed),
            initial_design=self.table4,
        )
        outdir = os.path.join(self.workdir, f"reference-{k}")
        with tracer.span("pipeline.run") as rec:
            result = hra.pipeline.run(self.obs, config)
            rec[4] = len(result.iterations)
        with tracer.span("pipeline.save_result"):
            hra.pipeline.save_result(result, self.obs, outdir)
        with tracer.span("cli.report"), contextlib.redirect_stdout(io.StringIO()):
            code = hra.cli.main(["report", "--result", outdir])
        return training_seed, result, outdir, code

    def check(self, k: int, outcome) -> list:
        training_seed, result, outdir, code = outcome
        try:
            return self._check(training_seed, result, outdir, code)
        finally:
            shutil.rmtree(outdir, ignore_errors=True)

    def _check(self, training_seed, result, outdir, code) -> list:
        bad = []
        if code != 0:
            bad.append(f"report exited {code}")
        its = result.iterations
        if len(its) != 2 or result.reason != self.hra.pipeline.REASON_CONVERGED:
            bad.append(f"{len(its)} iterations, stop reason {result.reason}")
        if its and _letters(its[0].screening.eliminated) != "BEFG":
            bad.append(f"iteration 1 eliminated {_letters(its[0].screening.eliminated)}")
        if _letters(result.final_retained) != "ACDH":
            bad.append(f"retained {_letters(result.final_retained)}")
        plots = [n for n in os.listdir(outdir) if n.endswith(".svg")]
        if len(plots) != 4 * len(its):
            bad.append(f"report wrote {len(plots)} plots for {len(its)} iterations")
        with open(os.path.join(outdir, "summary.csv"), "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        seen = self.summary_sha.setdefault(training_seed, digest)
        if seen != digest:
            bad.append(f"summary.csv for training seed {training_seed} changed between passes")
        return bad

    def work(self, outcome) -> int:
        return len(outcome[1].iterations)

    def fingerprints(self) -> dict:
        return {
            "summary_sha256": {f"training_seed_{t}": d for t, d in self.summary_sha.items()}
        }


class _OneInput:
    """Every pass runs the same inputs."""

    groups = 1

    def group(self, k: int) -> int:
        return 0

    def fingerprints(self) -> dict:
        return {}


class Screen(_OneInput):
    """A batch of evaluated designs screened without any network.

    Bundled table4 plus two seeded CCDs for each factor count 4..8 (15 to 45
    model terms). Factors A and B carry a planted quadratic response; the
    other factors are drawn from C..H per design and are inert. Every design
    goes through the same calls the pipeline makes after training.
    """

    name = "screen"
    FACTOR_COUNTS = (4, 5, 6, 7, 8)
    PER_COUNT = 2
    NOISE_SD = 0.3

    def __init__(self, hra, seed: int, workdir: str):
        self.hra = hra
        self.seed = seed

    def _planted(self, rng, k: int):
        rsm = self.hra.rsm
        others = sorted(rng.choice(list("CDEFGH"), size=k - 2, replace=False).tolist())
        letters = ["A", "B"] + others
        coding = rsm.uniform_coding(letters)
        rows = rsm.generate_ccd(letters, coding, n_center=6)
        noise = rng.normal(0.0, self.NOISE_SD, size=len(rows))
        out = []
        for row, e in zip(rows, noise):
            a = coding.code("A", row.levels["A"])
            b = coding.code("B", row.levels["B"])
            y = 85.0 + 4.0 * a + 3.0 * b + 1.5 * a * b - 2.0 * a * a + e
            out.append(replace(row, response=float(y)))
        return out

    def setup(self) -> dict:
        rng = np.random.default_rng([self.seed, 2])  # [seed, workload stream]
        designs = [("table4", self.hra.dataset.bundled_table4())]
        for k in self.FACTOR_COUNTS:
            for j in range(self.PER_COUNT):
                designs.append((f"ccd{k}-{j}", self._planted(rng, k)))
        self.designs = designs
        inputs = {}
        for name, rows in designs:
            letters = sorted(rows[0].levels)
            text = "\n".join(
                f"{r.std_order},{r.run_order},"
                + ",".join(repr(r.levels[l]) for l in letters)
                + f",{r.response!r}"
                for r in rows
            )
            inputs[name] = sha256_text(",".join(letters) + "\n" + text)
        return inputs

    def run_pass(self, k: int, tracer):
        rsm, PsfId = self.hra.rsm, self.hra.psf.PsfId
        verdicts = []
        for name, rows in self.designs:
            letters = sorted(rows[0].levels)
            active = [PsfId.from_letter(l) for l in letters]
            coding = rsm.infer_coding(rows)
            full = rsm.full_quadratic(letters, POWER)
            reduced, _ = rsm.backward_eliminate(rows, full, ALPHA, coding)
            final = rsm.fit(rows, reduced, coding)
            table = rsm.anova(final, rows)
            verdicts.append((name, rsm.screen_psfs(reduced, active, table.term_pvalues())))
        return verdicts

    def check(self, k: int, outcome) -> list:
        bad = []
        for name, report in outcome:
            kept = _letters(report.retained)
            if name == "table4":
                if kept != "ACDH":
                    bad.append(f"table4 retained {kept}")
            elif not ("A" in kept and "B" in kept):
                bad.append(f"{name} lost a planted factor (retained {kept})")
        return bad

    def work(self, outcome) -> int:
        return len(outcome)


class Score(_OneInput):
    """Read-side use of trained predictors on a seeded task inventory.

    Set-up writes the task CSV (with a trials column) and trains and saves two
    predictors on the case study, 3 replicas x 3,000 epochs: one on all eight
    PSFs, one on the retained A, C, D, H. A pass loads both predictors and the
    tasks, compares the predictors, writes the comparison CSV, and computes
    the closed-form composite HEP of every task.
    """

    name = "score"
    ROWS = 40_000
    RETAINED = "ACDH"

    def __init__(self, hra, seed: int, workdir: str):
        self.hra = hra
        self.seed = seed
        self.tasks_path = os.path.join(workdir, "tasks.csv")
        self.all_path = os.path.join(workdir, "predictor_all.txt")
        self.retained_path = os.path.join(workdir, "predictor_acdh.txt")
        self.comparison_path = os.path.join(workdir, "comparison.csv")

    def _tasks(self, maxima):
        psf = self.hra.psf
        rng = np.random.default_rng([self.seed, 3])  # [seed, workload stream]
        n = self.ROWS
        raw = rng.uniform(0.05, 1.0, size=(n, 8)) * maxima
        trials = rng.integers(20, 2000, size=n)
        occurred = rng.binomial(trials, rng.uniform(0.01, 0.3, size=n))
        header = ["id"] + [p.column for p in psf.PSF_ORDER] + ["hep", "trials"]
        lines = [",".join(header)]
        for i in range(n):
            cells = [f"T{i + 1:06d}"] + [repr(v) for v in raw[i].tolist()]
            cells += [repr(int(occurred[i]) / int(trials[i])), str(int(trials[i]))]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n", raw

    def _train(self, obs, letters: str):
        hra = self.hra
        active = [hra.psf.PsfId.from_letter(l) for l in letters]
        raw = obs.matrix(active)
        maxima = raw.max(axis=0)
        config = hra.ann.TrainingConfig(seed=self.seed, n_replications=3, max_epochs=3000)
        return hra.ann.train_replicated(
            raw / maxima, obs.targets(), config, active, dict(zip(active, maxima.tolist()))
        )

    def setup(self) -> dict:
        hra = self.hra
        case = hra.dataset.bundled_case_study()
        text, self.raw = self._tasks(case.matrix(hra.psf.PSF_ORDER).max(axis=0))
        with open(self.tasks_path, "w", encoding="utf-8") as handle:
            handle.write(text)
        hra.ann.save_predictor(self._train(case, "ABCDEFGH"), self.all_path)
        hra.ann.save_predictor(self._train(case, self.RETAINED), self.retained_path)
        inputs = {"tasks.csv": sha256_text(text)}
        for path in (self.all_path, self.retained_path):
            with open(path, "rb") as handle:
                inputs[os.path.basename(path)] = hashlib.sha256(handle.read()).hexdigest()
        return inputs

    def run_pass(self, k: int, tracer):
        hra = self.hra
        psf = hra.psf
        before = hra.ann.load_predictor(self.all_path)
        after = hra.ann.load_predictor(self.retained_path)
        obs = hra.dataset.load_observations(self.tasks_path)
        with tracer.span("pipeline.compare_before_after"):
            report = hra.pipeline.compare_before_after(obs, before, after)
        with tracer.span("pipeline.comparison_csv"):
            with open(self.comparison_path, "w", encoding="utf-8") as handle:
                handle.write(hra.pipeline.comparison_csv_text(report))
        with tracer.span("psf.composite") as rec:
            composite = [
                float(psf.composite_hep(
                    psf.nominal_hep(psf.ErrorTally(round(float(inst.observed_hep) * inst.trials), inst.trials)),
                    psf.total_psf_impact(inst.psfs),
                ))
                for inst in obs
            ]
            rec[4] = len(composite)
        return before, after, report, composite

    def _forward_mean(self, predictor) -> np.ndarray:
        cols = [self.hra.psf.PSF_ORDER.index(p) for p in predictor.active_psfs]
        X = self.raw[:, cols] / np.array([predictor.maxima[p] for p in predictor.active_psfs])
        outs = []
        for m in predictor.members:
            w = m.weights
            hidden = 1.0 / (1.0 + np.exp(-(X @ w.w_hidden.T + w.b_hidden)))
            outs.append(1.0 / (1.0 + np.exp(-(hidden @ w.w_output + w.b_output))))
        return np.mean(outs, axis=0)

    def check(self, k: int, outcome) -> list:
        before, after, report, composite = outcome
        bad = []
        n = self.ROWS
        if len(report.rows) != n or len(composite) != n:
            bad.append(f"scored {len(report.rows)} rows and {len(composite)} composites, expected {n}")
            return bad
        with open(self.comparison_path, "r", encoding="utf-8") as handle:
            lines = sum(1 for _ in handle)
        if lines != n + 1:
            bad.append(f"comparison CSV has {lines} lines, expected {n + 1}")
        for label, predictor, got in (
            ("before", before, np.array([r.predicted_before for r in report.rows])),
            ("after", after, np.array([r.predicted_after for r in report.rows])),
        ):
            if not ((got > 0.0) & (got < 1.0)).all():
                bad.append(f"predicted HEP {label} outside (0, 1)")
            want = self._forward_mean(predictor)
            err = float(np.max(np.abs(got - want) / np.abs(want)))
            if not err <= 1e-12:
                bad.append(f"predicted HEP {label} differs from the numpy forward pass by {err:.3g} relative")
        c = np.array(composite)
        if not ((c >= 0.0) & (c <= 1.0)).all():
            bad.append("composite HEP outside [0, 1]")
        return bad

    def work(self, outcome) -> int:
        return len(outcome[3])


WORKLOADS = {w.name: w for w in (Reference, Screen, Score)}
