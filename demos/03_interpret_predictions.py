"""Interpretation outputs: cluster weights, earliest-event probabilities,
conditional medians, and per-cluster curves.

Every prediction is a kernel-weighted combination of exemplar clusters, so a
subject's risk estimate decomposes into named training clusters with weights
that sum to one. Cluster-level curves are plain Aalen-Johansen estimates
restricted to the cluster members, so they can be read like any published
cumulative-incidence plot.
"""

import numpy as np

from kernelaj import (
    EmbeddingConfig,
    SynthConfig,
    TrainConfig,
    explain_rows,
    generate_synthetic,
    split,
)
from kernelaj.cli import fit_pipeline
from kernelaj.model import cluster_curves, exemplar_kernel_matrix

cohort = generate_synthetic(SynthConfig(
    n=1500, p=6,
    w1=(0.6, 0.6, 0.6, 0.0, 0.0, 0.0),
    w2=(0.0, 0.0, 0.0, 0.6, 0.6, 0.6),
    censoring_rate=0.4, seed=13))
train, valid, test = split(cohort, seed=0)

model, _ = fit_pipeline(
    train, valid,
    EmbeddingConfig(input_dim=6, num_layers=2, hidden_units=24, embed_dim=4,
                    activation="relu", init_seed=0),
    TrainConfig(learning_rate=0.1, batch_size=512, max_epochs=40, patience=8,
                num_time_steps=32, early_stop_criterion="ibs", seed=0),
    epsilon=0.25, min_kernel_weight=0.01)
print(f"{model.clusters.num_clusters} clusters "
      f"(largest five sizes: {sorted(int(s) for s in model.clusters.cluster_sizes())[-5:]})")

# Pick one held-out subject and unpack its prediction: one explain_rows
# record holds its clusters, event probabilities and conditional medians.
(info,), _, _ = next(explain_rows(model, test.features[:1]))
order = np.argsort(info.weights)[::-1]
print("\ntop contributing clusters for one test subject:")
for k in order[:5]:
    print(f"  exemplar {info.exemplar_ids[k]:5d}  weight {info.weights[k]:.3f}")

probs = info.event_probabilities
print(f"\nprobability each event happens earliest: "
      f"event 1 = {probs[0]:.1%}, event 2 = {probs[1]:.1%}")
for d, med in enumerate(info.conditional_medians, start=1):
    print(f"median time to event {d} (given it is earliest): {med:.3f}")
print(f"explanation record: {len(info.exemplar_ids)} contributing "
      f"clusters, fallback={info.used_fallback}")

# Cluster-level reading: the largest clusters as restricted estimates.
sizes = model.clusters.cluster_sizes()
largest = np.argsort(sizes)[::-1][:3]
print("\nlargest clusters, risk of each event at the horizon:")
for qi in largest:
    cc = cluster_curves(model, int(qi))
    risks = [cc.cif(d).values[-1] for d in (1, 2)]
    print(f"  exemplar {model.clusters.exemplar_ids[qi]:5d}  size {sizes[qi]:4d}  "
          f"risk@tmax = {risks[0]:.3f}/{risks[1]:.3f}")

K = exemplar_kernel_matrix(model)
off_diag = K[~np.eye(K.shape[0], dtype=bool)]
print(f"\nexemplar kernel matrix: {K.shape[0]}x{K.shape[0]}, "
      f"median off-diagonal similarity {np.median(off_diag):.4f}")
