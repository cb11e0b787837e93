"""Acceptance criteria, one test per criterion with a printed verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; the same
checks back the ``graphgames acceptance`` command.
"""

from graphgames import acceptance


def _run(fn, **kwargs):
    result = fn(**kwargs)
    print(result.line())
    assert result.passed, result.detail
    return result


def test_criterion_1_determinacy_partition():
    _run(acceptance.criterion_1_determinacy)


def test_criterion_2_solver_oracle_agreement():
    _run(acceptance.criterion_2_solver_oracle)


def test_criterion_3_ne_synthesis_soundness():
    _run(acceptance.criterion_3_ne_synthesis)


def test_criterion_4_antagonistic_spe():
    _run(acceptance.criterion_4_antagonistic_spe)


def test_criterion_5_pareto_biconditional():
    _run(acceptance.criterion_5_pareto_biconditional)


def test_criterion_6_muller_pareto_ne():
    _run(acceptance.criterion_6_muller_pareto)


def test_criterion_7_grid_certificates():
    _run(acceptance.criterion_7_grid)


def test_criterion_8_gallery_regressions():
    _run(acceptance.criterion_8_gallery)


def test_criterion_9_energy_product():
    _run(acceptance.criterion_9_energy)


def test_acceptance_runner_reports_all():
    lines = []
    results = acceptance.run_all(emit=lines.append)
    assert len(results) == 9
    assert all(r.passed for r in results)
    assert all(line.startswith("[PASS]") for line in lines)
