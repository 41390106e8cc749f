"""What each entry point imports: ``qz`` runs without the Cayley-table engine.

The package re-exports its names lazily, and the command line imports the
ring engine (numpy and the modules built on it) only for commands that
build a ring, and ``qz`` only for ``qz``.  No command loads OpenSSL's
``_hashlib`` or the definitional reference ``check``, and ``search`` does
not load the theorem checks of ``verify``.
Import graphs, thread counts and the collector's state at exit are checked
in fresh interpreters, since the test process itself has imported everything.
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
           "morphring.verify", "morphring.check", "concurrent.futures.process")


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


@pytest.mark.parametrize("argv", [["classify", "z4", "--json"],
                                  ["search", "--max-order", "16", "--json"]], ids=" ".join)
def test_ring_commands_load_no_qz(argv):
    code = f"from morphring.cli import run_command\nrun_command({argv!r})"
    assert _loaded_after(code, ["morphring.qz", "morphring.check"]) == []


@pytest.mark.parametrize("argv, unloaded", [
    (["search", "--max-order", "16", "--json"],
     ["morphring.verify", "morphring.check", "_hashlib"]),
    (["verify", "tri(z2,2)", "--json"], ["morphring.check", "_hashlib"]),
], ids=["search", "verify"])
def test_ring_commands_load_no_openssl_and_search_no_theorem_checks(argv, unloaded):
    code = f"from morphring.cli import run_command\nassert run_command({argv!r}) == 0"
    assert _loaded_after(code, unloaded) == []


@pytest.mark.parametrize("max_order", [64, 512])
def test_search_fingerprint_is_the_sha256_of_the_sorted_corpus(max_order):
    code = ("import io\n"
            "from contextlib import redirect_stdout\n"
            "from morphring.cli import default_corpus, run_command\n"
            "with redirect_stdout(io.StringIO()) as out:\n"
            f"    assert run_command(['search', '--max-order', '{max_order}', '--json']) == 0\n"
            "fingerprint = json.loads(out.getvalue())['witness']['fingerprint']\n"
            "assert '_hashlib' not in sys.modules\n"
            "import hashlib\n"
            f"text = '\\n'.join(sorted(default_corpus({max_order})))\n"
            "assert fingerprint == hashlib.sha256(text.encode()).hexdigest()")
    assert _loaded_after(code, ["_hashlib"]) == ["_hashlib"]  # only once the test imported it


def test_search_without_a_builtin_sha256_prints_the_same_record(capsys):
    from morphring.cli import run_command

    assert run_command(["search", "--max-order", "16", "--json"]) == 0
    expected = capsys.readouterr().out
    code = ("import io\n"
            "from contextlib import redirect_stdout\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "from morphring.cli import run_command\n"
            "with redirect_stdout(io.StringIO()) as out:\n"
            "    assert run_command(['search', '--max-order', '16', '--json']) == 0\n"
            f"assert out.getvalue() == {expected!r}")
    assert _loaded_after(code, ["_hashlib"]) == ["_hashlib"]  # the hashlib fallback ran


_TASKS = "/proc/self/task"


def _main_in_fresh_interpreter(argv: list[str],
                               env: dict) -> tuple[int, int | None, str | None, int, str]:
    """Exit status, OS thread count (None without ``/proc``),
    ``OPENBLAS_NUM_THREADS`` and the collector's frozen object count after
    ``cli.main()``, then what the command printed to stdout."""
    script = ("import gc, json, os, sys\n"
              "from morphring.cli import main\n"
              f"sys.argv = ['morphring', *{argv!r}]\n"
              "assert gc.get_freeze_count() == 0\n"
              "try:\n    main()\nexcept SystemExit as exc:\n    status = exc.code\n"
              f"threads = len(os.listdir({_TASKS!r})) if os.path.isdir({_TASKS!r}) else None\n"
              "print(json.dumps([status, threads, os.environ.get('OPENBLAS_NUM_THREADS'),\n"
              "                  gc.get_freeze_count()]), file=sys.stderr)")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env={**env, "PYTHONPATH": SRC})
    assert done.returncode == 0, done.stderr
    return (*json.loads(done.stderr.splitlines()[-1]), done.stdout)


@pytest.mark.skipif(not os.path.isdir(_TASKS), reason="no /proc task list")
def test_main_leaves_the_blas_thread_pool_unstarted():
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    assert _main_in_fresh_interpreter(["classify", "z4", "--json"], env)[:3] == (0, 1, "1")
    # verify runs every theorem check, the heaviest numpy work of any command
    assert _main_in_fresh_interpreter(["verify", "tri(z2,2)", "--json"], env)[:3] == (0, 1, "1")


def test_main_keeps_a_blas_thread_count_the_user_set():
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
    status, _, value, _, _ = _main_in_fresh_interpreter(["classify", "z4", "--json"], env)
    assert (status, value) == (0, "2")


@pytest.mark.parametrize("argv, expected", [(["classify", "z4", "--json"], 0),
                                            (["corpus", "--json"], 1),
                                            (["classify", "z("], 2)],
                         ids=["exit 0", "exit 1", "exit 2"])
def test_main_exits_with_the_status_and_output_of_run_command_and_the_collector_frozen(
        argv, expected, capsys):
    # the interpreter's final collections skip frozen objects; a deterministic
    # stand-in for a gate on exit time
    from morphring.cli import run_command

    assert run_command(argv) == expected
    printed = capsys.readouterr().out
    status, _, _, frozen, out = _main_in_fresh_interpreter(argv, dict(os.environ))
    assert (status, out) == (expected, printed)
    assert frozen > 0


@pytest.mark.parametrize("text, shared", [("z4", True), ("tri(z2,2)", False)])
def test_right_tables_of_a_commutative_ring_are_its_left_tables(text, shared):
    from morphring.cli import build_ring, parse_ring_expr
    from morphring.ideals import Side, _resolve

    ring = build_ring(parse_ring_expr(text))
    assert (_resolve(ring, Side.RIGHT)[1] is _resolve(ring, Side.LEFT)[1]) is shared


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
