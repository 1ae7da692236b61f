#!/usr/bin/env bash
# Print the address mod 64 of every clone of the hot loops whose alignment
# a change elsewhere can shift: the thermal slab kernel (propagate_slab),
# ThermalPropagator::step_batched, the simulator tick
# (SystemSim::tick_begin/tick_finish), PowerModel::compute_into and the nn
# dense kernels. Deleting or
# growing code in a library that links ahead of sim and thermal (nn does)
# moves these offsets, which can move the `fleet` benchmark without any
# change to its code; compare both builds' output before attributing a
# `fleet` move to a change.
#
# Usage:
#   tools/hot_symbols.sh <binary>
#
# Output: one line per symbol, "<address mod 64>  <name> [clone]", sorted by
# name. The binary needs its symbol table (any non-stripped build).
set -euo pipefail

if [[ $# -ne 1 || ! -f "$1" ]]; then
  echo "usage: $0 <binary>" >&2
  exit 2
fi

# The nn kernels: the entry points (*_simd) and their per-CPU clones
# (*_dispatch).
hot='propagate_slab|ThermalPropagator::step_batched'
hot+='|SystemSim::tick_(begin|finish)|PowerModel::compute_into'
hot+='|nn::[a-z_]*_(simd|dispatch)'

nm -C "$1" | awk -v hot="(${hot})\\\\(" '
  # Code symbols only; the ifunc resolvers and cold splits never run hot.
  $2 !~ /^[tT]$/ || /\[clone \.(cold|resolver)\]/ { next }
  {
    name = $0
    sub(/^[0-9a-f]+ [tT] /, "", name)
    gsub(/\(anonymous namespace\)::/, "", name)
    if (name !~ hot) next
    sub(/\(.*\)( const)?/, "", name)  # the parameter list
    # Address mod 64 from the last two hex digits (256 is a multiple of 64).
    lo = substr($1, length($1) - 1)
    digits = "0123456789abcdef"
    value = (index(digits, substr(lo, 1, 1)) - 1) * 16 + \
            index(digits, substr(lo, 2, 1)) - 1
    printf "%2d  %s\n", value % 64, name
  }' | sort -k2
