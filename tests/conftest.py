import os

# The dense LU behind evaluate_policy_pair, and with it the oracle goldens
# that read it (omega_ev, exact_gradient_ev, residuals_ev, certify_arne),
# gives bits that depend on OpenBLAS's thread count.  Pin one thread before
# numpy loads, so no test's outcome depends on the caller's environment;
# neither pytest nor hypothesis imports numpy before this file runs.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import _report  # noqa: E402


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _report.lines:
        terminalreporter.section("acceptance criteria")
        for line in _report.lines:
            terminalreporter.write_line(line)
