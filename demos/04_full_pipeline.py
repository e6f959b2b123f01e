"""End-to-end pipeline: retrieval -> prototype -> prior -> refined prompts ->
label-constrained decoding, plus the equivalent CLI invocation.

Run: python3 demos/04_full_pipeline.py
"""

import numpy as np

from vismem import (
    BankBuildConfig,
    FlatIndex,
    PipelineConfig,
    PlantedRegion,
    RefinementParams,
    ScenarioSpec,
    build_bank,
    gen_synthetic,
    pipeline_report,
    run_pipeline,
)
from vismem.synthetic import INPUT_IMAGE_ID

spec = ScenarioSpec(regions=[
    PlantedRegion(8, 8, 3, "mug"),
    PlantedRegion(24, 20, 3, "laptop"),
], noise=0.05, seed=1, entries_per_category=15, distractors=25)
scenario = gen_synthetic(spec)

bank = build_bank(scenario.records, scenario.provider,
                  BankBuildConfig(drop_fraction=0.0))
config = PipelineConfig()          # published defaults throughout
params = RefinementParams.seeded_init(spec.d_val, seed=0)

results = run_pipeline(config, bank, FlatIndex.from_bank(bank),
                       scenario.provider, INPUT_IMAGE_ID, scenario.categories,
                       params, scene=spec.scene)

for category, res in results.items():
    top_anchor = res.anchors.anchors[0][0]
    gt = scenario.gt_centers[category][0]
    err_cells = np.hypot(top_anchor.x - gt.x, top_anchor.y - gt.y) * 32
    # Label-constrained decoding masks every off-source logit to -inf, so
    # each refined prompt can only ever decode as its own category.
    argmaxes = {res.logits.categories[int(row.argmax())] for row in res.logits.values}
    print(f"[{category}] {len(res.prompts)} refined prompts, "
          f"top anchor {err_cells:.1f} cells from ground truth, "
          f"masked argmax set = {argmaxes}")

report = pipeline_report(config, results, INPUT_IMAGE_ID)
print(f"\nreport: image={report['image_id']}, "
      f"k={report['config']['k']}, tau_p={report['config']['tau_p']}, "
      f"recall_size={report['config']['recall_size']}")

print("""
The same run via the CLI:
  vismem gen-synthetic --out /tmp/scn --seed 1 --categories 2 --regions 2
  vismem build-memory  --scenario /tmp/scn --out /tmp/bank.pbnk --set drop_fraction=0.0
  vismem build-index   --bank /tmp/bank.pbnk --out /tmp/idx.pivf --set nlist=4 --set m=4 --set nbits=4 --set nprobe=4
  vismem pipeline      --scenario /tmp/scn --bank /tmp/bank.pbnk --index /tmp/idx.pivf --set nprobe=4
  vismem pipeline      --scenario /tmp/scn --bank /tmp/bank.pbnk --report /tmp/flat.json
""")
