"""Coverage versus enrollment fraction on a synthetic social graph.

Samples member sets of growing fractions, picks member pairs at each
target path length, and reports how often discovery succeeds with and
without ersatz records.  Distance-2 coverage with ersatz records is
always exactly 100%.

Run:  python demos/03_coverage_simulation.py
"""

from sopal.sim import SimConfig, preferential_attachment_graph, run_coverage

N = 300
print(f"generating a {N}-node preferential-attachment graph (2 links per node)")
ground = preferential_attachment_graph(N, 2, seed=42)

config = SimConfig(
    member_fractions=(0.2, 0.4, 0.6, 0.8),
    path_lengths=(2, 3, 4),
    pairs_per_cell=250,
    repetitions=5,
    d_max=1,
    seed=42,
)
report = run_coverage(config, ground)
cells = {(c.fraction, c.length, c.ersatz): c for c in report.cells}

print()
print(f"{'fraction':>8} {'length':>6} | {'with ersatz':>16} | {'without':>16}")
print("-" * 56)
for fraction in config.member_fractions:
    for length in config.path_lengths:
        on, off = cells[fraction, length, True], cells[fraction, length, False]
        print(
            f"{fraction:8.0%} {length:6d} | "
            f"{on.mean_coverage:7.1%} (std {on.std:5.3f}) | "
            f"{off.mean_coverage:7.1%} (std {off.std:5.3f})"
        )

print()
print("CSV form (first lines):")
for line in report.to_csv().splitlines()[:5]:
    print(" ", line)
