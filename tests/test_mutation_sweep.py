"""The mutation sweep's kernel list and mutants, checked without running a
mutant.  The sweep itself runs as `python tests/mutation_sweep.py`."""
import mutation_sweep as sweep


def test_every_kernel_is_found_and_every_mutant_compiles():
    """A renamed or deleted kernel fails here, so no name in the sweep's list
    outlives its definition; each kernel yields mutants, each mutated `def`
    compiles and differs from the original, one mutant per module compiles
    as a whole module, each listed test file exists, and IDs are unique."""
    ids, count, modules = set(), 0, set()
    for kernel, files in sweep.KERNELS.items():
        method = sweep.kernel_def(kernel).col_offset > 0
        mutants = sweep.mutants(kernel)
        assert mutants, kernel
        count += len(mutants)
        for m in mutants:
            compile(("class _:\n" if method else "") + m.code, m.id, "exec")
            assert m.after != m.before, m.id
            ids.add(m.id)
        if mutants[0].module not in modules:
            modules.add(mutants[0].module)
            compile(mutants[0].module_source(), mutants[0].id, "exec")
        assert all((sweep.TESTS / f).is_file() for f in files), kernel
    assert len(ids) == count
