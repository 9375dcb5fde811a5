"""The governed end-to-end pipeline on the canonical conflict scenario.

Active users respond to one treatment, inactive users to the other, and
each treatment hurts the opposite cohort's other metric: globally uniform
rollouts are zero-sum. The pipeline finds a cohort policy that lifts the
prioritized metric significantly while staying neutral on the other, and
every stage is gated by a governance hook.
"""

import json
import tempfile
from pathlib import Path

from cohortpolicy import RunConfig, conflict_scenario, govern_pipeline, \
    write_run_artifacts

scenario = conflict_scenario()
config = RunConfig(seed=7, weight_samples=1000, top_k=5, tau=1.0,
                   scenario=scenario, primary_metric="m1")

result = govern_pipeline(config)
print(f"status: {result.status} after {result.iterations} iteration(s)\n")

print("hook-report trail:")
for report in result.reports:
    print(f"  [{report.stage:18}] {report.verdict:6} {report.narrative}")

policy = result.recommendation
print(f"\nrecommended policy: {policy.policy_id}")
print(f"  cut: {policy.cut.describe()} -> assignment {policy.assignment}")
for metric in ("m1", "m2"):
    est = policy.estimates[metric]
    print(f"  {metric}: {est.mean:+.4f} ± {est.std_err:.4f}")
print("\nm1 is significantly positive; m2 sits inside its 1.96-sigma band,")
print("exactly the 'lift one metric, stay neutral on the other' resolution")
print("that no uniform global treatment can reach in this experiment.")

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "run"
    artifacts = write_run_artifacts(result, config, out)
    print(f"\nrun artifacts ({out}):")
    for name, filename in sorted(artifacts.items()):
        print(f"  {name:16} {filename}")
    manifest = json.loads((out / "manifest.json").read_text())
    print(f"manifest status: {manifest['status']}, "
          f"seed {manifest['config']['seed']} "
          f"(byte-identical on reruns and for any input row order)")

print("\nthe same run is available from the shell:")
print("  cohortpolicy pipeline --config run_config.json --out runs/demo")
print("  cohortpolicy report --run runs/demo")
