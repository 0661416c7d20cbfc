"""The correctness gate counts a wrong result as a failed operation."""

from dataclasses import replace

import workloads as wl
from refclock import AdjustedTimer


def _one_cell_pass(inputs: wl.Inputs, cell: wl.Cell) -> wl.PassResult:
    single = replace(inputs, cells=(cell,))
    runner = wl.PassRunner(AdjustedTimer(), wl.reference_for(wl.load_golden(), inputs))
    return runner.run(single)


def test_recorded_cell_passes():
    inputs = wl.build_inputs("fabrics-faulted", 0)
    result = _one_cell_pass(inputs, inputs.cells[0])
    assert [op.error for op in result.operations] == [""]
    assert result.failed == 0


def test_perturbed_cell_fails():
    inputs = wl.build_inputs("fabrics-faulted", 0)
    cell = inputs.cells[0]
    perturbed = replace(cell, config=replace(cell.config, seed=cell.config.seed + 7))
    result = _one_cell_pass(inputs, perturbed)
    assert result.failed == 1
    assert result.operations[0].error == "fingerprint differs from the reference"


def test_capped_cell_fails():
    inputs = wl.build_inputs("fabrics-faulted", 0)
    capped = replace(inputs.cells[0], cycles=200)
    result = _one_cell_pass(inputs, capped)
    assert result.failed == 1
    assert result.operations[0].error.startswith("hit its cycle cap")


def test_unrecorded_variant_fails():
    inputs = wl.build_inputs("fabrics-faulted", 0)
    runner = wl.PassRunner(AdjustedTimer(), reference={})
    result = runner.run(replace(inputs, cells=inputs.cells[:1]))
    assert result.operations[0].error == "no reference fingerprint recorded"


def test_every_variant_is_recorded():
    golden = wl.load_golden()
    for workload in wl.WORKLOADS:
        for variant in range(wl.VARIANTS):
            inputs = wl.build_inputs(workload, variant)
            names = {cell.name for cell in inputs.cells}
            if inputs.pretrain is not None:
                names.add("pretrain")
            assert set(wl.reference_for(golden, inputs)) == names, (workload, variant)
