"""What each entry point imports: ``qz`` runs without the Cayley-table engine.

The package re-exports its names lazily, and the command line imports the
ring engine (numpy and the modules built on it) only for commands that
build a ring.  Import graphs are checked in fresh interpreters, since the
test process itself has imported everything.
"""

import importlib
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import morphring

SRC = str(Path(morphring.__file__).resolve().parent.parent)

# Each name the package exported before its re-exports became lazy, under
# the module it was imported from.
_EXPORTED = {
    "cli": "build_ring default_corpus parse_ring_expr projected_order run_command "
           "serialize_ring_expr",
    "classify": "ClassProfile CommutationProfile ElementClass Flag MorphicProfile "
                "RegularityProfile SideHierarchy StructuralProfile classify_ring "
                "commutation_profile element_class regularity_profile "
                "ring_morphic_profile structural_profile",
    "ideals": "ElementCensus LatticeOverflow Side all_ideals annihilator element_census "
              "fg_ideal is_essential is_ideal jacobson_radical lattice_cap mask_members "
              "mask_of principal_ideal singular_ideal socle subgroup_sum",
    "qz": "FULL CyclicSub QFrac TEIdeal base_annihilator cyclic_submodule "
          "lattice_meet_join submodule_leq te_left_annihilator te_morphic_witness "
          "te_principal_ideal te_product verify_qz_suite",
    "verify": "CornerCase TriangularCase TrivialExtensionCase VerificationReport "
              "search_counterexample verify_extension_heredity verify_finite_qf "
              "verify_lemma_equivalences verify_pseudo_consequences "
              "verify_quasi_equivalence verify_reduced_equivalences "
              "verify_regular_criteria verify_triangular_example_identity "
              "verify_witness_identities",
    "rings": "AxiomCheck BimoduleSpec FiniteRing OrderCapExceeded build_cap "
             "check_bimodule check_ring_axioms direct_product formal_triangular "
             "ideal_bimodule make_gf make_zmod matrix_ring opposite order_cap "
             "pierce_corner regular_bimodule ring_from_tables trivial_extension "
             "truncated_poly zero_bimodule",
}
_ENGINE = ("numpy", "morphring.rings", "morphring.ideals", "morphring.classify",
           "morphring.verify", "concurrent.futures.process")


def _loaded_after(code: str, watched) -> list[str]:
    """The ``watched`` modules loaded in a fresh interpreter that runs ``code``."""
    script = (f"import json, sys\n{code}\n"
              f"print(json.dumps(sorted(set({list(watched)!r}) & set(sys.modules))))")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_qz_command_loads_no_ring_engine_and_no_pool():
    code = ("from morphring.cli import run_command\n"
            "assert run_command(['qz', '--bound', '2', '--json']) == 0")
    assert _loaded_after(code, _ENGINE) == []


def test_package_import_loads_no_numpy():
    assert _loaded_after("import morphring", _ENGINE) == []


def test_classify_loads_neither_masked_arrays_nor_the_pool():
    code = ("from morphring.cli import run_command\n"
            "assert run_command(['classify', 'z4', '--json']) == 0")
    assert _loaded_after(code, ["numpy", "numpy.ma", "concurrent.futures.process"]) == [
        "numpy"]


@pytest.mark.parametrize("module, name", [(module, name)
                                          for module, names in _EXPORTED.items()
                                          for name in names.split()])
def test_every_former_export_resolves_to_its_defining_object(module, name):
    expected = getattr(importlib.import_module(f"morphring.{module}"), name)
    assert getattr(morphring, name) is expected
    namespace: dict = {}
    exec(f"from morphring import {name}", namespace)
    assert namespace[name] is expected
    assert name in morphring.__all__ and name in dir(morphring)


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        morphring.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from morphring import no_such_name", {})


def test_cli_import_loads_no_ring_engine():
    assert _loaded_after("import morphring.cli", _ENGINE) == []


def test_pool_workers_run_in_a_fresh_interpreter():
    # a ``spawn`` or ``forkserver`` pool worker imports ``cli`` afresh
    code = ("import morphring.cli as cli\n"
            "assert cli._worker_flag(('z4', 'reduced', 'false')).text == 'false'\n"
            "assert cli._worker_search('z4') is None")
    assert _loaded_after(code, ["numpy"]) == ["numpy"]


def _run_cli(argv: list[str], start_method: str | None) -> tuple[int, str, bool]:
    """Exit status, stdout and whether a process pool started, from a fresh interpreter."""
    script = ("import multiprocessing, sys\n"
              f"if {start_method!r}:\n    multiprocessing.set_start_method({start_method!r})\n"
              "import morphring.cli as cli\n"
              "cli._available_cpus = lambda: 2\n"
              f"status = cli.run_command({argv!r})\n"
              "print('concurrent.futures.process' in sys.modules, file=sys.stderr)\n"
              "sys.exit(status)")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env={**os.environ, "PYTHONPATH": SRC})
    assert "Traceback" not in done.stderr, done.stderr
    return done.returncode, done.stdout, done.stderr.splitlines()[-1] == "True"


@pytest.mark.parametrize("start_method", ["spawn", "forkserver"])
@pytest.mark.parametrize("argv", [["search", "--max-order", "16"], ["corpus"]], ids=" ".join)
def test_pool_from_fresh_workers_prints_what_a_serial_run_prints(start_method, argv):
    if start_method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {start_method} start method on this platform")
    serial = _run_cli([*argv, "--jobs", "1", "--json"], None)
    pooled = _run_cli([*argv, "--jobs", "2", "--json"], start_method)
    assert serial[2] is False and pooled[2] is True
    assert pooled[:2] == serial[:2]
    assert serial[0] in (0, 1) and serial[1]
