"""
Training a small network ensemble on the bundled error data
===========================================================
"""

import tempfile

import numpy as np

from hra_forge import (
    PSF_ORDER,
    TrainingConfig,
    bundled_case_study,
    load_predictor,
    metrics,
    save_predictor,
    train_replicated,
)

obs = bundled_case_study()
print(f"{len(obs.instances)} observed tasks")

X, maxima = obs.normalized(PSF_ORDER)
y = obs.targets()

# Trimmed settings so the demo runs in a couple of seconds.  The
# defaults (10 replications, 50000 epochs) give a tighter fit.
config = TrainingConfig(n_replications=3, max_epochs=5000)
predictor = train_replicated(X, y, config, active_psfs=PSF_ORDER, maxima=maxima)

for member in predictor.members:
    print(f"  seed {member.seed}: final loss {member.final_loss:.3e}")

predicted = predictor.predict_instances(obs)
report = metrics(predicted, y)
print(f"ensemble fit: mse={report.mse:.4e}  r2={report.r2:.4f}")

for inst, p in zip(obs.instances, predicted):
    print(f"  {inst.id:<8s} observed={inst.observed_hep.value:.4f}  predicted={p:.4f}")

# Predictors round-trip through a single file, weights exact.
with tempfile.NamedTemporaryFile(suffix=".txt") as tmp:
    save_predictor(predictor, tmp.name)
    again = load_predictor(tmp.name)
reloaded = again.predict_instances(obs)
assert np.array_equal(predicted, reloaded)
print("saved and reloaded predictor reproduces every prediction exactly")
