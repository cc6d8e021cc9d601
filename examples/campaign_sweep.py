#!/usr/bin/env python3
"""Scenario campaigns: declare a sweep, run it in parallel, query it.

Writes a small scenario spec (override-only, merged over
``repro/scenarios/defaults.yaml``), expands its sweep into a seeded
run grid, executes the grid on two worker processes with the campaign
runner, then reads the result store back — the same machinery behind
``repro.tools campaign run|status|report|diff``.

Run:  python examples/campaign_sweep.py
"""

import os
import tempfile

from repro.campaign import campaign_report, run_campaign
from repro.scenarios import parse_spec

SPEC = """\
meta:
  name: density-sweep
  description: capacity vs device density, two coexisting networks

seed: 0

run:
  kind: capacity
  seed_stride: 1        # each sweep point gets its own topology seed

networks:
  count: 2
  gateways: 1
  devices: 8
  gateway_id_stride: 100
  node_id_stride: 1000

assignment:
  split_channels: contiguous   # channel-disjoint networks

traffic:
  shuffle: true

sweep:
  networks.devices: [4, 8, 16, 24]
"""


def main() -> None:
    spec = parse_spec(SPEC, "density-sweep.yaml")
    runs = spec.runs()
    print(f"Spec {spec.name!r} (digest {spec.digest}) expands to "
          f"{len(runs)} runs:")
    for run in runs:
        print(f"  {run.run_id}  seed={run.seed}  overrides={run.overrides}")

    with tempfile.TemporaryDirectory() as tmp:
        out_dir = os.path.join(tmp, "campaign")
        summary = run_campaign(spec, out_dir, jobs=2, progress=print)
        print(f"\nExecuted {len(summary['executed'])} runs "
              f"into {summary['out_dir']}")

        # Resume is a no-op when everything already finished.
        again = run_campaign(spec, out_dir, jobs=2)
        print(f"Re-run skipped {again['skipped']} completed runs")

        report = campaign_report(out_dir)
        print("\nper-run results (both networks combined):")
        for row in report["rows"]:
            devices = row["overrides"]["networks.devices"]
            print(f"  {2 * devices:3d} offered -> {row['delivered']:3d} "
                  "delivered")
        cap = report["aggregates"]["delivered"]["max"]
        print(f"\nDelivered never exceeds {cap:.0f}: one shared decoder "
              "budget, however dense the deployment.")


if __name__ == "__main__":
    main()
