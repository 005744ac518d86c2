"""The run manifest's CPU budget: what a worker pool may size itself to."""

from __future__ import annotations

import os

from repro.obs import available_cpus, machine_provenance


class TestAvailableCpus:
    def test_at_least_one_and_at_most_the_machine(self):
        cpus = available_cpus()
        assert cpus >= 1
        machine = os.cpu_count()
        if machine:
            assert cpus <= machine

    def test_reported_in_machine_provenance(self):
        provenance = machine_provenance()
        assert provenance["process_cpu_count"] == available_cpus()
