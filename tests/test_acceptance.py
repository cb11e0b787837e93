"""Acceptance criteria, one test per criterion with a printed verdict line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; the same
checks back the ``graphgames acceptance`` command.
"""

from graphgames import acceptance, winlose


def _run(fn, **kwargs):
    result = fn(**kwargs)
    print(result.line())
    assert result.passed, result.detail
    return result


def _machines_built(monkeypatch) -> list:
    """The sides whose Muller machines are built from here on, in order."""
    built = []
    machine = winlose.ZielonkaRecursion.machine

    def counting(self, s):
        if self.machines[s] is None:
            built.append(s)
        return machine(self, s)

    monkeypatch.setattr(winlose.ZielonkaRecursion, "machine", counting)
    return built


def test_criterion_1_determinacy_partition(monkeypatch):
    # the criterion reads regions only, so no Muller machine is built
    built = _machines_built(monkeypatch)
    _run(acceptance.criterion_1_determinacy)
    assert built == []


def test_criterion_2_solver_oracle_agreement(monkeypatch):
    built = _machines_built(monkeypatch)
    _run(acceptance.criterion_2_solver_oracle)
    assert built == []


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
