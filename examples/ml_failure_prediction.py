"""F2PM walkthrough: from monitoring traces to a deployed RTTF predictor.

Follows the full F2PM pipeline of Sec. III on a simulated VM:

1. *profiling phase* -- drive fresh VMs to their failure point at several
   request rates, sampling the 15 system features;
2. *dataset construction* -- label every sample with its Remaining Time To
   Failure;
3. *feature selection* -- Lasso regularisation picks the informative
   features;
4. *model suite* -- train and cross-validate all six models (Linear
   Regression, Lasso, REP-Tree, M5P, SVR, LS-SVM) and print the selection
   metrics;
5. *online deployment* -- bind the winning model to a live VM (a row of a
   state table) and watch the predicted RTTF count down toward the real
   failure, beside the mean-field ground truth.

Run with::

    python examples/ml_failure_prediction.py
"""

import numpy as np

from repro.ml import F2PMToolchain
from repro.pcam import (
    OracleRttfPredictor,
    ProfilingHarness,
    TrainedRttfPredictor,
    VmState,
    VmStateTable,
)
from repro.pcam.vm import VirtualMachine
from repro.sim import PRIVATE_SMALL, RngRegistry
from repro.workload import AnomalyInjector
from repro.workload.anomalies import draw_pool


def main() -> None:
    rngs = RngRegistry(seed=2024)
    counter = {"n": 0}

    def make_vm() -> VirtualMachine:
        counter["n"] += 1
        name = f"profiled/{counter['n']}"
        return VirtualMachine(
            name, PRIVATE_SMALL, AnomalyInjector(rngs.child(name).stream("a"))
        )

    # -- 1+2: profiling runs and the RTTF dataset ----------------------- #
    harness = ProfilingHarness(make_vm, sample_period_s=10.0)
    rates = [4.0, 6.0, 10.0, 14.0, 20.0]
    print(f"Profiling {PRIVATE_SMALL.name} to failure at rates {rates}...")
    dataset = harness.collect(rates, runs_per_rate=3, rng=rngs.stream("prof"))
    print(
        f"  collected {len(dataset)} samples x {dataset.n_features} features;"
        f" RTTF range [{dataset.y.min():.0f}, {dataset.y.max():.0f}]s"
    )

    # -- 3+4: Lasso selection and the model comparison ------------------ #
    toolchain = F2PMToolchain(max_features=8, cv_folds=5)
    comparison = toolchain.compare(dataset, rngs.stream("cv"))
    print("\nLasso-selected features:")
    print(f"  {', '.join(comparison.selected_features)}")
    print("\nModel suite, 5-fold cross-validation (best first):")
    print(comparison.table())

    # -- 5: deploy the paper's choice (REP-Tree) online ------------------ #
    trained = toolchain.train_best(
        dataset, rngs.stream("train"), model_name="rep-tree"
    )
    predictor = TrainedRttfPredictor(trained)
    print(f"\nDeployed {trained.name}; watching a live VM degrade at 8 req/s:")
    vm = make_vm()
    table = VmStateTable([vm])  # the VM's state lives in this table row
    row = np.array([vm.row])
    table.activate(row)
    oracle = OracleRttfPredictor()  # the mean-field ground truth
    rng = np.random.default_rng(7)
    t, dt = 0.0, 30.0
    print(f"  {'time':>6} {'predicted RTTF':>15} {'true RTTF':>10}")
    while vm.state is VmState.ACTIVE and t < 3600:
        # one era of load: the VM's own anomaly draw, then the table kernel
        n = int(rng.poisson(8.0 * dt))
        leaked, threads = draw_pool([vm.injector], [n])
        table.era_load_update(row, np.array([n]), dt, 1.5, leaked, threads)
        if vm.state is not VmState.ACTIVE:
            break
        if int(t / dt) % 3 == 0:
            features = table.feature_matrix(row)
            predicted = predictor.predict_rttf_rows(features, [vm])[0]
            truth = oracle.predict_rttf_rows(features, [vm])[0]
            print(f"  {t:6.0f} {predicted:14.0f}s {truth:9.0f}s")
        t += dt
    print(f"  VM reached its failure point at t={t:.0f}s")


if __name__ == "__main__":
    main()
