"""Every public function and method of svkit has a caller in svkit, or is a named exception."""

import ast
from pathlib import Path

import svkit

# name -> why it may have no caller in src/svkit
UNCALLED = {
    "data.Trial.is_target": "the per-trial label tests read; data._labels is its vector form",
    "data.chunk_collection": "training on chunks (ROADMAP item 2) gives it a caller",
    "e2e.extract_embedding": "an `svkit extract` command (ROADMAP item 2) gives it a caller",
    "e2e.min_abs_preactivation": "test hook: keeps finite-difference seeds off ReLU kinks",
    "e2e.score_with_grads": "test hook: one trial differentiated end to end for finite differences",
    "gplda.llr_oracle": "oracle: the LLR by direct joint-Gaussian density evaluation",
    "gplda.make_model": "test hook: a model from given covariances for the oracle tests",
    "gplda.score_pairs": "oracle: the diagonal form on row-aligned pairs, without a trial list",
    "gplda.score_pairs_dense": "oracle: the same scores through the dense textbook matrices",
    "metrics.dcf": "oracle: the hard cost at one threshold, which the soft cost must approach",
    "nn.grad_check": "oracle: the central-difference gradient checker",
    "nplda.forward": "test hook: the head's score of raw pairs, without a trial list",
    "sampling.TrialBatch.n_targets": "test hook: batch composition checks",
    "sampling.sample_batch_algo2": "test hook: one cross-product batch, for the sampler checks",
}


def _public_definitions(trees):
    """(module.name or module.Class.name, def node, is a method) of every public
    function and method."""
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{module}.{node.name}", node, False
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item, True


def _references(trees):
    """(name -> every Name node reading it, name -> every Attribute node reading it).

    Only reads count: a store such as ``self.ids = ids`` or a local variable
    named like a method does not call anything.
    """
    names, attributes = {}, {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.setdefault(node.id, set()).add(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.setdefault(node.attr, set()).add(node)
    return names, attributes


def test_every_public_name_has_a_caller():
    src = Path(svkit.__file__).parent
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(src.glob("*.py"))}
    names, attributes = _references(trees)
    uncalled = set()
    for name, node, is_method in _public_definitions(trees):
        # a method is reached only through attribute access; a function either way
        refs = attributes.get(node.name, set())
        if not is_method:
            refs = refs | names.get(node.name, set())
        if not refs - set(ast.walk(node)):
            uncalled.add(name)
    assert uncalled == set(UNCALLED)
