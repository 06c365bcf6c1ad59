"""Correctability conditions as a Gram-matrix computation.

A code corrects t errors of a given kind exactly when every pair of
pattern images of code vectors is orthonormal:

    <C^k| (A P)'^dagger (A P) |C^m> = delta_km delta_AA' delta_PP'

The checker builds that Gram matrix for all patterns touching at most t
qubits and reports every entry off the Kronecker target. When there are
more images than amplitudes, 2^l V_t > 2^n, the code breaks the quantum
Hamming bound and the check cannot pass; the checker then reads the same
entries from the overlaps <C^k|E|C^m> over the products E of two patterns,
which touch at most 2t qubits, without building the images. This script
runs amplitude-only, phase-only, and general checks across the built-in
codes, then the nine-qubit code at t = 3, past the bound.
"""

from qeclab import catalogue, run_checker, sphere_volume

codes = catalogue()
print("built-in codes:", ", ".join("%s [n=%d,l=%d]" % (c.name, c.n, c.l)
                                   for c in codes))
print()

header = "%-10s %-10s %3s   %-6s %-12s %s" % (
    "code", "condition", "t", "ok", "worst", "gram entries")
print(header)
print("-" * len(header))
for code in codes:
    max_t = 2 if code.n >= 5 else 1
    for condition in ("amplitude", "phase", "general"):
        for t in range(min(max_t, code.n) + 1):
            report = run_checker(code, condition, t)
            print("%-10s %-10s %3d   %-6s %-12.3g %d violation(s)"
                  % (code.name, condition, t,
                     "pass" if report.passed else "FAIL",
                     report.worst, report.violation_count))
print()

print("why the three-qubit phase code cannot fix general noise:")
report = run_checker([c for c in codes if c.name == "phase3"][0], "general", 1)
for k, m, p, p2, val in report.violations[:6]:
    print("  <C^%d| %s , %s |C^%d> = %.3f%+.3fj"
          % (k, p.text(), p2.text(), m, val.real, val.imag))
print("  ... a bit flip on any position maps one code vector straight onto")
print("  the other, so no measurement can tell the two apart afterwards.")
print()

shor9 = [c for c in codes if c.name == "shor9"][0]
report = run_checker(shor9, "general", 3)
print("the nine-qubit code at t = 3 has %d pattern images of 2^%d amplitudes,"
      % (sphere_volume(shor9.n, 3) << shor9.l, shor9.n))
print("past the quantum Hamming bound: %s, worst deviation %.3g,"
      % ("pass" if report.passed else "FAIL", report.worst))
print("%d Gram entries off target; the first three:" % report.violation_count)
for k, m, p, p2, val in report.violations[:3]:
    print("  <C^%d| %s , %s |C^%d> = %.3f%+.3fj"
          % (k, p.text(), p2.text(), m, val.real, val.imag))
