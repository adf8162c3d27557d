#!/bin/sh
# Fails if UBSan's vptr check sits on the per-event engine path.
#
#   tools/check_hot_path_vptr.sh build/libsampletrack.a
#
# Run it on a library built with -fsanitize=undefined (gcc, x86-64). The
# per-event path is every function of PolicyEngine (the batch loops, the
# per-event reference loop, the handlers they inline, their race lambdas)
# and of LaneState (race declaration), the engine policies' handlers
# (templated policies such as SamplingOrderedListPolicy<...> included), and
# the snapshot pools, race sink and clock types those call. Each is plain
# data, so no call to __ubsan_handle_dynamic_type_cache_miss may appear in
# them: such a call is a member access through a polymorphic object, and
# gcc's vptr check keeps one process-wide type cache that parallel lanes of
# different engines evict from each other. Policy handlers instantiated by
# the online runtime (rt::Runtime) and the types' str() printers are not on
# the path and are skipped.
#
# Prints each path function that holds a check and the totals; exits 1 if
# any function holds one, or if no path function was found at all (the
# guard would then check nothing).
set -eu

LIB=${1:?usage: check_hot_path_vptr.sh LIBRARY}

objdump -dr -C "$LIB" | awk '
  # The signature without what its parentheses hold: parameter types drop
  # out, so a type matches only where it qualifies the function name (after
  # the return type, if any).
  function unparenthesized(s,    out, depth, i, c) {
    out = ""
    depth = 0
    for (i = 1; i <= length(s); ++i) {
      c = substr(s, i, 1)
      if (c == "(")
        ++depth
      if (depth == 0)
        out = out c
      if (c == ")" && depth > 0)
        --depth
    }
    return out
  }
  /^[0-9a-f]+ <.*>:$/ {
    fn = substr($0, index($0, "<") + 1)
    sub(/>:$/, "", fn)
    name = unparenthesized(fn)
    engine = name ~ /(^|[ &*])sampletrack::(PolicyEngine<|LaneState::)/ ||
             name ~ /(^|[ &*])sampletrack::[A-Za-z]*Policy(Base)?(<[^<>]*>)?::/
    callee = name ~ /(^|[ &*])sampletrack::(triage::RaceSink::|SnapshotPool<)/ ||
             name ~ /(^|[ &*])sampletrack::(VectorClock|OrderedList|TreeClock)::/
    hot = (engine || callee) && fn !~ /rt::Runtime|::str(\[|\()/
    if (hot)
      ++functions
    next
  }
  hot && /R_X86_64_PLT32[ \t]+__ubsan_handle_dynamic_type_cache_miss/ {
    if (!(fn in sites))
      order[++held] = fn
    ++sites[fn]
    ++total
  }
  END {
    for (i = 1; i <= held; ++i)
      printf "%d vptr check(s) in %s\n", sites[order[i]], order[i]
    printf "%d per-event path function(s), %d vptr check(s)\n", functions, total
    if (functions == 0) {
      print "no per-event path function found; is this the sampletrack library?"
      exit 1
    }
    exit total > 0
  }'
