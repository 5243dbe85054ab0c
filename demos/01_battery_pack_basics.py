"""Walk through the battery-pack electrical model.

Shows how the series/parallel cell layout sets pack voltage, resistance and
peak power, and how voltage sag under load limits what the pack can deliver.
"""

from dataclasses import replace

from evperf import PackConfig, pack_max_power, pack_resistance, pack_voltage
from evperf.physics import pack_min_voltage

# A 400 V class pack: 96 cells in series, 30 strings in parallel.
pack = PackConfig(
    n_series=96,
    n_parallel=30,
    r_cell=0.02,
    v_cell_nominal=3.7,
    v_cell_min=3.0,
    cell_mass=0.07,
    r_interconnects=0.002,
    pack_overhead_mass_fraction=0.35,
)

print("== pack layout ==")
print(f"cells: {pack.n_series}s{pack.n_parallel}p = {pack.cell_count} total")
print(f"open-circuit voltage : {pack_voltage(pack):7.1f} V   (96 x 3.7 V)")
print(f"cutoff voltage       : {pack_min_voltage(pack):7.1f} V")
print(f"pack resistance      : {pack_resistance(pack) * 1000:7.1f} mOhm")
print(f"peak power           : {pack_max_power(pack) / 1000:7.1f} kW")

# Doubling the series count doubles voltage; an 800 V architecture.
pack_800v = replace(pack, n_series=192, n_parallel=15)
print("\n== same cell count rearranged as 192s15p (800 V class) ==")
print(f"open-circuit voltage : {pack_voltage(pack_800v):7.1f} V")
print(f"pack resistance      : {pack_resistance(pack_800v) * 1000:7.1f} mOhm")
print(f"peak power           : {pack_max_power(pack_800v) / 1000:7.1f} kW")

# Voltage sag: drawing current drops the terminal voltage by I*R and burns
# I^2*R as heat. Parallel strings divide the resistance, taming both.
print("\n== voltage sag at 500 A ==")
i = 500.0
for strings in (10, 20, 30, 60):
    p = replace(pack, n_parallel=strings)
    r = pack_resistance(p)
    v_term = pack_voltage(p) - i * r  # open-circuit voltage less the I*R sag
    heat = i * i * r                  # resistive heating, W
    print(
        f"{strings:3d} strings: R={r * 1000:6.2f} mOhm  "
        f"terminal={v_term:6.1f} V  heat={heat / 1000:6.1f} kW"
    )

print("\nMore parallel strings -> lower resistance -> less sag, less heat,")
print("and a higher power ceiling. That is the upside of adding cells; the")
print("mass penalty shows up in demo 02.")
