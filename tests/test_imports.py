"""What a CLI call and ``import polycomp`` import, each in a fresh process of its own,
so that no earlier import leaks into the case."""

import json
import subprocess
import sys

from golden_runs import golden_args

# The package's public names, by the module that defines each.
EXPORTS = {
    "affine": ["AffineCorrespondence", "affine_correspondence"],
    "barycentric": ["BarycentricComplex", "InducedMap", "barycentre", "barycentric_complex",
                    "evaluate_map", "induced_map", "triangulation_map"],
    "errors": ["DegenerateSimplex", "DegenerateSpan", "DuplicateVertex", "InconsistentLattice",
               "InfeasibleApex", "MalformedInput", "NonFiniteResult", "NotContraction", "NotPSD",
               "NotSimple", "NotTree", "PointOutside", "PolycompError", "PolytopeMismatch",
               "SingularSimplex"],
    "lifting": ["OrthogonalCompletion", "PleatedEmbedding", "lift_simplex",
                "orthogonal_completion", "pleat_validity", "pleated_embedding",
                "pleated_projection_chain", "projection_chain", "symmetric_sqrt"],
    "metric": ["SequenceReport", "delta_polytope", "per_chain_deltas", "sequence_report"],
    "polytopes": ["CombinatorialPolytope", "Shape", "Triangulation", "ValidationReport",
                  "build_polytope", "fan_triangulation", "ngon_polytope", "simplex_polytope",
                  "triangulation", "validate_shape"],
    "spectral": ["COMPRESSION", "NOT_WEAK_COMPRESSION", "WEAK_COMPRESSION", "Classification",
                 "CriticalRescale", "ExtremalPair", "OrderResult", "Perturbation",
                 "PointOnShape", "SpectralSummary", "classify", "compare_order",
                 "distance_derivative", "edge_contraction_check", "extremal_pair",
                 "perturbation_classify", "scale_critical", "spectral_summary"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)

LOADED = """\
import contextlib, io, json, sys
from polycomp import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "polycomp")]))
"""


def fresh(code, *args):
    """The JSON document that ``code`` prints, run with ``args`` in a new interpreter."""
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def loaded(name):
    """The polycomp modules that subcommand ``name`` imports on its golden's arguments;
    it must exit 0."""
    code, modules = fresh(LOADED, name, *golden_args(name))
    assert code == 0
    return set(modules)


def test_sequence_imports_neither_lifting_nor_spectral():
    modules = loaded("sequence")
    assert "polycomp.metric" in modules
    assert not modules & {"polycomp.lifting", "polycomp.spectral"}


def test_classify_imports_neither_lifting_nor_metric():
    modules = loaded("classify")
    assert "polycomp.spectral" in modules
    assert not modules & {"polycomp.lifting", "polycomp.metric"}


def test_pleat_imports_neither_metric_nor_spectral():
    modules = loaded("pleat")
    assert "polycomp.lifting" in modules
    assert not modules & {"polycomp.metric", "polycomp.spectral"}


def test_import_polycomp_imports_no_submodule():
    assert fresh("import json, sys, polycomp\n"
                 "print(json.dumps([m for m in sys.modules if m.startswith('polycomp.')]))"
                 ) == []


def test_public_names_are_their_modules_objects():
    code = """\
import importlib, json, sys
import polycomp
from polycomp import barycentric
exports = json.loads(sys.argv[1])
same = sorted(name for module, names in exports.items() for name in names
              if getattr(polycomp, name)
              is getattr(importlib.import_module("polycomp." + module), name))
print(json.dumps({"same": same, "all": sorted(polycomp.__all__),
                  "modules": [polycomp.barycentric is barycentric,
                              polycomp.lifting is sys.modules["polycomp.lifting"]]}))
"""
    got = fresh(code, json.dumps(EXPORTS))
    assert got == {"same": NAMES, "all": NAMES, "modules": [True, True]}


def test_star_import_binds_every_public_name_and_unknown_names_raise():
    code = """\
import json
namespace = {}
exec("from polycomp import *", namespace)
import polycomp
try:
    polycomp.no_such_name
    error = None
except AttributeError as exc:
    error = str(exc)
print(json.dumps({"bound": sorted(k for k in namespace if k != "__builtins__"),
                  "error": error, "dir": sorted(set(dir(polycomp)) & set(polycomp.__all__))}))
"""
    got = fresh(code)
    assert got == {"bound": NAMES, "error": "module 'polycomp' has no attribute 'no_such_name'",
                   "dir": NAMES}
