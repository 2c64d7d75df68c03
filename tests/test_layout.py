"""Every function, method, class and dataclass field in ``src/mvtrace`` has a
reader in ``src/mvtrace`` itself, or an entry on ``ALLOWED`` saying why not.

A definition counts as read when its name is loaded somewhere in the
package: as an attribute (``obj.name``) or a ``getattr`` string, and for a
module-level function or class also as a bare name or an entry of the
package's ``__all__`` (its public API).  Names are matched without types,
so a read of any same-named attribute counts; the guard finds definitions
that nothing could be reading, not every dead one.
"""

import ast
from pathlib import Path

import mvtrace

PACKAGE = Path(mvtrace.__file__).parent

# definition -> why it stays without a reader in the package
ALLOWED = {
    "trace_regression.objective": "reference objective the solver tests check iterates against",
    "trace_regression.smooth_gradient": "reference gradient for the finite-difference tests",
    "trace_regression.predict": "one-subject reference for predict_many",
    "trace_regression.FitResult.gap": "diagnostic duality gap that tests check bounds suboptimality",
    "nn.backward": "reference gradient of a plain MLP for the gradient-check tests",
    "nn.MLP.parameters": "live parameter list the finite-difference tests perturb",
    "autoencoders.Autoencoder.reconstruction_mse": "diagnostic reconstruction loss read by tests",
    "pca.reconstruction_mse": "diagnostic reconstruction loss read by tests",
    "pca.PcaModel.explained_variance": "diagnostic spectrum that tests check is nonincreasing",
    "autoencoders.OracleSpec": "fixed-latent representation that the oracle criteria fit",
    "autoencoders.train_autoencoder": "array-level fit of one (x_task, x_rest) pair that the "
                                      "training tests drive; the pipeline reaches the same "
                                      "_fit from subjects through AutoencoderSpec.fit",
    "synth.GroundTruth.clusters": "planted clusters the localization tests compare maps to",
    "synth.GroundTruth.score_mean": "raw-score mean the score-scale tests read",
    "synth.GroundTruth.score_std": "raw-score sd the score-scale tests read",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def definitions() -> dict[str, tuple[str, bool]]:
    """'module.Qual.name' -> (name, whether a bare name reads it) of every
    function, class, method and dataclass field; dunder names are left out."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found[f"{path.stem}.{node.name}"] = (node.name, True)
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    name = item.name
                elif (isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                      and _is_dataclass(node)):
                    name = item.target.id
                else:
                    continue
                if not name.startswith("__"):
                    found[f"{path.stem}.{node.name}.{name}"] = (name, False)
    return found


def reads() -> tuple[set[str], set[str]]:
    """(bare names loaded or listed in ``__all__``, attribute names loaded or
    named to getattr)."""
    names, attributes = set(), set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr"
                  and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
                attributes.add(node.args[1].value)
            elif (isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                names.update(item.value for item in node.value.elts)
    return names, attributes


def unread() -> set[str]:
    names, attributes = reads()
    return {key for key, (name, bare) in definitions().items()
            if name not in attributes and not (bare and name in names)}


def test_every_definition_has_a_reader():
    missing = sorted(unread() - set(ALLOWED))
    assert not missing, f"defined in src/mvtrace but read nowhere there: {missing}"


def test_allowlist_entries_are_unread_definitions():
    stale = sorted(set(ALLOWED) - unread())
    assert not stale, f"allowlisted but gone or read in src/mvtrace: {stale}"
    assert all(reason.strip() for reason in ALLOWED.values())
