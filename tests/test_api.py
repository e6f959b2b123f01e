"""The package's public names and its modules' imports, read with `ast`.

perfbench/ calls the library as `vm.<name>` and imports from its modules;
tier-1 does not run it, so a deleted name would break it unseen. The
exported set is pinned, so a name is added or deleted on purpose."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import vismem

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = {
    # bank
    "BankBuildConfig", "EmbeddingProvider", "GroundingRecord", "HashingProvider", "KeyWeights",
    "MemoryBank", "MemoryEntry", "build_bank", "build_key", "load_bank", "save_bank",
    # errors
    "FormatError", "InvalidInputError", "MissingEmbeddingError", "VismemError",
    # grids
    "Box2D", "Point2D", "bilinear_sample", "gaussian_smooth", "l2_normalize", "layer_norm",
    # index
    "FlatIndex", "IvfPqIndex", "IvfPqParams", "SearchHit", "ivfpq_add", "ivfpq_search", "kmeans",
    "load_index", "rescore", "save_index", "train_ivfpq",
    # pipeline
    "PipelineConfig", "pipeline_report", "run_pipeline",
    # priors
    "AnchorSet", "DensePrior", "dense_prior", "extract_anchors",
    # refine
    "UNCONSTRAINED", "LogitsMatrix", "MemoryGuidedPrompt", "RefinementParams", "constrain_logits",
    "load_params", "refine_all", "save_params", "score_prompts",
    # retrieval
    "Prototype", "RetrievalQuery", "aggregate_prototype", "build_query", "retrieve",
    # synthetic
    "PlantedRegion", "ScenarioSpec", "SyntheticScenario", "gen_synthetic",
}


def public_names() -> set[str]:
    return {name for name, value in vars(vismem).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)}


def test_public_names_are_pinned():
    assert len(PUBLIC) == 57
    assert public_names() == PUBLIC


def test_every_name_perfbench_uses_resolves():
    missing, used = [], 0
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "vm"):
                module, names = vismem, [node.attr]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("vismem"):
                module, names = importlib.import_module(node.module), [a.name for a in node.names]
            else:
                continue
            used += len(names)
            missing += [f"{path.name}:{node.lineno} {name}" for name in names
                        if not hasattr(module, name)]
    assert used > 20
    assert missing == []


def unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, except on a line marked
    `# noqa: F401`, an import made for its side effects."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in read and "# noqa: F401" not in lines[line - 1]]


def test_unused_import_is_found():
    assert unused_imports("import os\nimport numpy as np\nfrom a import b, c\nnp.x(c)\n") == [
        "os (line 1)", "b (line 3)"]


def test_import_marked_for_its_side_effects_is_kept():
    source = "import os  # noqa: F401\nfrom a import (\n    b,  # noqa: F401\n    c,\n)\n"
    assert unused_imports(source) == ["c (line 4)"]


def unused_imports_in(directory: Path) -> tuple[int, dict[str, list[str]]]:
    """How many modules of a directory were read, and the unused imports of
    each module that has one."""
    found = {path.name: unused_imports(path.read_text(encoding="utf-8"))
             for path in sorted(directory.glob("*.py")) if path.name != "__init__.py"}
    return len(found), {name: unused for name, unused in found.items() if unused}


def test_no_unused_imports_in_the_library():
    count, unused = unused_imports_in(ROOT / "src" / "vismem")
    assert count >= 12
    assert unused == {}


@pytest.mark.parametrize("directory", ["tests", "demos"])
def test_no_unused_imports_in_the_tests_and_demos(directory):
    count, unused = unused_imports_in(ROOT / directory)
    assert count >= 4
    assert unused == {}


def test_cli_import_leaves_scipy_ndimage_unloaded():
    """scipy.ndimage is most of the CLI's import time and only smoothing uses it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    code = "import sys, vismem.cli; print('scipy.ndimage' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert (done.returncode, done.stdout.strip()) == (0, "False"), done.stderr
