#!/usr/bin/env bash
# Print the address mod 64 of every hot entry: each instruction-set variant
# of the vector kernels (run_baseline, run_avx2 and run_avx512f of
# common/cpu_dispatch.hpp, one per kernel: the nn sweeps, the thermal slab
# step and the propagator build), ThermalPropagator::step_batched, the
# simulator tick
# (SystemSim::tick_begin/tick_finish) and PowerModel::compute_into. Each is
# declared `aligned(64)`, so every line should read 0: deleting or growing
# code in a library that links ahead of sim and thermal (nn does) then
# cannot move their loops, which used to move the `fleet` benchmark without
# any change to its code. tools/ci_check.sh fails when any entry is not at
# offset 0.
#
# Usage:
#   tools/hot_symbols.sh <binary>
#
# Output: one line per symbol, "<address mod 64>  <name>", sorted by name.
# The binary needs its symbol table (any non-stripped build).
set -euo pipefail

if [[ $# -ne 1 || ! -f "$1" ]]; then
  echo "usage: $0 <binary>" >&2
  exit 2
fi

hot='ThermalPropagator::step_batched|SystemSim::tick_(begin|finish)'
hot+='|PowerModel::compute_into|run_(baseline|avx2|avx512f)<.*>'

nm -C "$1" | awk -v hot="::(${hot})\$" '
  # Code symbols only; a cold split is not an entry.
  $2 !~ /^[tT]$/ || /\[clone \.cold\]/ { next }
  {
    name = $0
    sub(/^[0-9a-f]+ [tT] (void )?/, "", name)
    sub(/ \[clone [^]]*\]$/, "", name)  # an IPA clone is the entry itself
    gsub(/\(anonymous namespace\)::/, "", name)
    sub(/\(.*\)( const)?$/, "", name)  # the parameter list
    if (name !~ /^topil::/ || name !~ hot) next
    # Address mod 64 from the last two hex digits (256 is a multiple of 64).
    lo = substr($1, length($1) - 1)
    digits = "0123456789abcdef"
    value = (index(digits, substr(lo, 1, 1)) - 1) * 16 + \
            index(digits, substr(lo, 2, 1)) - 1
    printf "%2d  %s\n", value % 64, name
  }' | sort -k2
